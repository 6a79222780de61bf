import gc
import itertools
import math
import sys
import threading
import weakref

import pytest

from ut_lab.catalog import build_named
from ut_lab import set_orbits
from ut_lab.errors import CapExceeded
from ut_lab.perm_core import PermGroup, transitivity_degree
from ut_lab.set_orbits import (
    as_kset,
    is_ij_homogeneous,
    is_k_homogeneous,
    kset_of_mask,
    mask_of,
    orbit_of_set,
    orbits_on_ksets,
)
from ut_lab.ut_deciders import has_kut
from ut_lab.verify import catalog_groups

from _oracles import (
    bfs_is_k_homogeneous,
    brute_ij_homogeneous,
    brute_set_orbit,
    point_byte_tables,
)


def _fresh(G: PermGroup) -> PermGroup:
    """The same group with nothing cached: no chain, tables or orbits."""
    return PermGroup(G.degree, G.generators, G.name)


@pytest.fixture(scope="module")
def catalog14():
    return catalog_groups(14)


class TestOrbitOfSet:
    def test_s4_pairs(self):
        orbit = orbit_of_set(build_named("S4"), (1, 2))
        assert orbit.size == 6
        assert orbit.representative == (1, 2)

    def test_c5_pair_by_hand(self):
        orbit = orbit_of_set(build_named("C5"), (1, 2))
        assert set(map(kset_of_mask, orbit.masks)) == {(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)}

    def test_matches_brute_force(self):
        G = build_named("PSL(2,7)")
        orbit = orbit_of_set(G, (1, 3, 6))
        brute = brute_set_orbit(G.gen_images(), frozenset((1, 3, 6)))
        assert set(map(kset_of_mask, orbit.masks)) == {tuple(sorted(s)) for s in brute}

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(set_orbits, "DEFAULT_ORBIT_CAP", 100)
        with pytest.raises(CapExceeded):
            orbit_of_set(build_named("S10"), (1, 2, 3, 4, 5))

    def test_mask_roundtrip(self):
        s = (2, 5, 9)
        assert kset_of_mask(mask_of(s)) == s

    def test_as_kset_validation(self):
        assert as_kset([3, 1, 2]) == (1, 2, 3)
        with pytest.raises(ValueError):
            as_kset([1, 1])
        with pytest.raises(ValueError):
            as_kset([0, 1])
        with pytest.raises(ValueError):
            as_kset([9], n=8)


class TestOrbitsOnKsets:
    def test_symmetric_single_orbit(self):
        for k in (1, 2, 3):
            assert len(orbits_on_ksets(build_named("S6", 6), k)) == 1

    def test_m11_degree12_4sets(self):
        orbits = orbits_on_ksets(build_named("M11", 12), 4)
        assert len(orbits) == 2
        assert sum(o.size for o in orbits) == math.comb(12, 4) == 495

    def test_sizes_sum_and_disjoint_on_catalog(self, catalog_small):
        for G in catalog_small:
            for k in (2, 3):
                if k > G.degree:
                    continue
                orbits = orbits_on_ksets(G, k)
                assert sum(o.size for o in orbits) == math.comb(G.degree, k)
                all_members = [m for o in orbits for m in o.masks]
                assert len(all_members) == len(set(all_members))

    def test_ordered_by_representative(self):
        orbits = orbits_on_ksets(build_named("AGL(1,13)"), 3)
        reps = [o.representative for o in orbits]
        assert reps == sorted(reps)

    def test_orbit_invariants_on_catalog(self, catalog_small):
        for G in catalog_small[:15]:
            for orbit in orbits_on_ksets(G, 2):
                assert orbit.representative == min(map(kset_of_mask, orbit.masks))
                assert orbit.size == len(orbit.masks)
                assert G.order % orbit.size == 0


def _mask(points) -> int:
    return sum(1 << (p - 1) for p in points)


class TestOrbitIndexOracle:
    """orbits_on_ksets against frozenset closure, across generator-table bytes."""

    @pytest.mark.parametrize(
        "name,degree,k",
        [
            ("PSL(2,7)", 8, 3),
            ("M11", 12, 4),
            ("PSL(2,11)", 12, 3),
            ("PSL(2,16)", 17, 3),
            ("AGL(1,17)", 17, 4),
            ("PSL(2,32)", 33, 3),
            ("PGammaL(2,32)", 33, 2),
            ("AGL(1,61)", 61, 2),  # the last degree with byte tables
            ("2^6:G2(2)", 64, 2),  # above degree 61 generators act point by point
            ("AGL(1,67)", 67, 2),
            ("AGL(1,71)", 71, 3),
        ],
    )
    def test_matches_brute_force(self, name, degree, k):
        G = build_named(name, degree)
        expected = []
        seen: set[frozenset[int]] = set()
        for combo in itertools.combinations(range(1, degree + 1), k):
            if frozenset(combo) in seen:
                continue
            orbit = brute_set_orbit(G.gen_images(), frozenset(combo))
            seen |= orbit
            assert combo == min(tuple(sorted(s)) for s in orbit)
            expected.append((combo, len(orbit), frozenset(_mask(s) for s in orbit)))
        got = [(o.representative, o.size, o.masks) for o in orbits_on_ksets(G, k)]
        assert got == expected

    def test_orbit_of_set_representative(self):
        G = build_named("PSL(2,32)", 33)
        for start in ((5, 9, 33), (2, 17, 24, 32)):
            orbit = orbit_of_set(G, start)
            brute = brute_set_orbit(G.gen_images(), frozenset(start))
            assert orbit.representative == min(tuple(sorted(s)) for s in brute)
            assert orbit.masks == {_mask(s) for s in brute}

    def test_membership_without_member_tuples(self):
        orbit = orbit_of_set(build_named("C5"), (1, 2))
        assert (2, 1) in orbit and (5, 1) in orbit
        assert (1, 3) not in orbit
        assert (1, 1) not in orbit and (1, 2, 3) not in orbit


class TestKHomogeneous:
    def test_examples(self):
        assert is_k_homogeneous(build_named("S5", 5), 3)
        assert not is_k_homogeneous(build_named("C5"), 2)
        assert is_k_homogeneous(build_named("AGL(1,7)"), 2)

    def test_complement_shortcut(self):
        G = build_named("PSL(2,8)")
        # 9-4=5 < ... both answered through the smaller side
        assert is_k_homogeneous(G, 3) == is_k_homogeneous(G, 6)
        assert is_k_homogeneous(G, 2) == is_k_homogeneous(G, 7)

    def test_livingstone_wagner_on_catalog(self, catalog_small):
        for G in catalog_small:
            n = G.degree
            for k in range(2, n // 2 + 1):
                if is_k_homogeneous(G, k):
                    assert is_k_homogeneous(G, k - 1), (G.name, k)


class TestKHomogeneousOracle:
    """is_k_homogeneous, chain read or first orbit, against a full closure."""

    def test_every_k_on_catalog(self, catalog14):
        chain_answered = walked = 0
        for G in catalog14:
            n, gens = G.degree, G.gen_images()
            for k in range(1, n + 1):
                assert is_k_homogeneous(G, k) == bfs_is_k_homogeneous(gens, n, k), (G.name, n, k)
                if 0 < min(k, n - k) <= transitivity_degree(G):
                    chain_answered += 1
                else:
                    walked += 1
        assert chain_answered > 100 and walked > 100

    def test_cap_still_applies_to_a_walked_orbit(self, monkeypatch):
        # AGL(1,13) is 2-transitive, not 3-transitive: its 3-sets are walked
        G = build_named("AGL(1,13)")
        with monkeypatch.context() as m:
            m.setattr(set_orbits, "DEFAULT_ORBIT_CAP", 1)
            assert is_k_homogeneous(G, 2)  # read off the chain
            m.setattr(set_orbits, "DEFAULT_ORBIT_CAP", 10)
            with pytest.raises(CapExceeded):
                is_k_homogeneous(G, 3)
        assert is_k_homogeneous(G, 3) == bfs_is_k_homogeneous(G.gen_images(), 13, 3)


class TestOneEnumeration:
    """One resumable lexicographic enumeration per group and k."""

    @staticmethod
    def _answers(G, order):
        n = G.degree
        ks = range(1, n)
        out = {}
        for question in order:
            if question == "orbits":
                out["orbits"] = {
                    k: [(o.representative, o.size, o.masks) for o in orbits_on_ksets(G, k)]
                    for k in ks
                }
            elif question == "khom":
                out["khom"] = {k: is_k_homogeneous(G, k) for k in ks}
            else:
                out["ij"] = {
                    (i, j): is_ij_homogeneous(G, i, j)
                    for j in sorted(ks, reverse=True) for i in range(1, j + 1)
                }
        return out

    def test_answers_do_not_depend_on_question_order(self, catalog14):
        orders = (("orbits", "khom", "ij"), ("ij", "khom", "orbits"), ("khom", "ij", "orbits"))
        for G in catalog14:
            first, *rest = (self._answers(_fresh(G), order) for order in orders)
            for other in rest:
                assert other == first, G.name

    def test_each_orbit_walked_once(self, monkeypatch):
        # PSL(2,11) at degree 12 is 2-transitive only, 3-homogeneous and not
        # 4-homogeneous, so every question below walks orbits
        G = build_named("PSL(2,11)", 12)
        assert transitivity_degree(G) == 2
        walked = []
        real = set_orbits._orbit_masks

        def counting(G, start, *args):
            walked.append(start)
            return real(G, start, *args)

        monkeypatch.setattr(set_orbits, "_orbit_masks", counting)
        assert not is_k_homogeneous(G, 4)
        assert len(walked) == 1
        is_ij_homogeneous(G, 3, 4)
        assert is_k_homogeneous(G, 3) and not is_k_homogeneous(G, 4)
        orbits = {k: orbits_on_ksets(G, k) for k in (3, 4)}
        assert sorted(walked) == sorted(
            mask_of(o.representative) for k in (3, 4) for o in orbits[k]
        )
        assert set_orbits._ENUMERATIONS[G] == {}

    def test_no_j_orbit_walked_for_an_i_homogeneous_group(self, monkeypatch):
        # PSL(2,11) at degree 12 is 2-transitive and 3-homogeneous
        G = build_named("PSL(2,11)", 12)
        walked = []
        real = set_orbits._orbit_masks

        def counting(G, start, *args):
            walked.append(start)
            return real(G, start, *args)

        monkeypatch.setattr(set_orbits, "_orbit_masks", counting)
        assert is_ij_homogeneous(G, 2, 5) == (True, None)
        assert walked == []  # read off the chain
        assert is_ij_homogeneous(G, 3, 5) == (True, None)
        assert walked == [mask_of((1, 2, 3))]  # the one 3-set orbit
        assert 5 not in set_orbits._ENUMERATIONS.get(G, {})

    def test_large_i_walks_no_complement_orbit(self, monkeypatch):
        # AGL(1,13) is neither 4- nor 5-homogeneous.  Above the midpoint,
        # is_ij_homogeneous reads i-homogeneity off the i-set orbits it
        # needs anyway; the first orbit of the complements, 78 masks that
        # nothing after it reuses, is not walked.  The (9, 10) question is
        # whether every rank-4 quasi-permutation is regular

        walked = []
        real = set_orbits._orbit_masks

        def counting(G, start, *args):
            masks = real(G, start, *args)
            walked.append(len(masks))
            return masks

        monkeypatch.setattr(set_orbits, "_orbit_masks", counting)
        for question, masks in (
            # is_k_homogeneous(G, 8) on the complements, then every 7-set,
            # the first 8-set orbit and the witness check
            (lambda G: has_kut(G, 8), 78 + math.comb(13, 7) + 78 + 78),
            (lambda G: is_ij_homogeneous(G, 8, 9), math.comb(13, 8) + 78),
            (lambda G: is_ij_homogeneous(G, 9, 10), math.comb(13, 9) + 78),
        ):
            walked.clear()
            question(build_named("AGL(1,13)"))
            assert sum(walked) == masks

    def test_cap_leaves_the_enumeration_resumable(self, monkeypatch):
        expected = orbits_on_ksets(build_named("AGL(1,13)"), 4)
        sizes = [o.size for o in expected]
        assert len(sizes) > 3
        G = build_named("AGL(1,13)")
        # the first cap cuts the first orbit, the next ones cut later orbits
        with monkeypatch.context() as m:
            for cap in (sizes[0] - 1, sizes[0] + sizes[1] + 1, math.comb(13, 4) - 1):
                m.setattr(set_orbits, "DEFAULT_ORBIT_CAP", cap)
                with pytest.raises(CapExceeded):
                    orbits_on_ksets(G, 4)
                assert 4 not in set_orbits._ORBIT_CACHE[G]
                run = set_orbits._ENUMERATIONS[G][4]
                assert sum(o.size for o in run.orbits) <= cap
                assert run.pending is not None
        assert is_ij_homogeneous(G, 3, 4) == is_ij_homogeneous(build_named("AGL(1,13)"), 3, 4)
        assert orbits_on_ksets(G, 4) == expected
        assert 4 not in set_orbits._ENUMERATIONS[G]

    def test_threads_share_one_enumeration(self):
        # threads asking different questions of one group, switching often
        fresh = build_named("AGL(1,13)")
        expected = (orbits_on_ksets(fresh, 4), is_ij_homogeneous(fresh, 3, 4),
                    is_k_homogeneous(fresh, 4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                G = build_named("AGL(1,13)")
                results = []

                def ask(G=G, results=results):
                    results.append((orbits_on_ksets(G, 4), is_ij_homogeneous(G, 3, 4),
                                    is_k_homogeneous(G, 4)))

                def ask_partly(G=G, results=results):
                    is_k_homogeneous(G, 4)
                    ask()

                threads = [threading.Thread(target=f) for f in (ask, ask_partly) * 3]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                assert results == [expected] * len(threads)
        finally:
            sys.setswitchinterval(interval)

    def test_groups_are_freed(self):
        # a stopped enumeration, complete orbits, tables and a chain: none of
        # them may keep the group alive
        G = _fresh(build_named("AGL(1,17)"))
        assert not is_ij_homogeneous(G, 3, 4)[0]
        assert 4 in set_orbits._ENUMERATIONS[G]
        assert has_kut(G, 3).holds is False
        ref = weakref.ref(G)
        del G
        gc.collect()
        assert ref() is None


class TestByteTables:
    def test_doubling_matches_point_by_point(self):
        groups = catalog_groups(10**6, include_optional=True)
        assert max(G.degree for G in groups) > 61
        for G in groups:
            for g in G.gen_images():
                assert set_orbits._byte_tables(g, G.degree) == point_byte_tables(g, G.degree), G.name


class TestIjHomogeneous:
    def test_asl23_failure_with_witness(self):
        G = build_named("ASL(2,3)")
        ok, pair = is_ij_homogeneous(G, 3, 4)
        assert not ok
        i_rep, j_set = pair
        # re-check the witness: no orbit member of the 3-set lies inside j_set
        orbit = orbit_of_set(G, i_rep)
        assert all(not set(kset_of_mask(m)) <= set(j_set) for m in orbit.masks)

    def test_asl23_45_holds(self):
        ok, _ = is_ij_homogeneous(build_named("ASL(2,3)"), 4, 5)
        assert ok

    def test_kk_equals_homogeneity(self, catalog_small):
        for G in catalog_small[:12]:
            for k in (2, 3):
                if k > G.degree - 1:
                    continue
                ok, _ = is_ij_homogeneous(G, k, k)
                assert ok == is_k_homogeneous(G, k)

    def test_duality_on_catalog(self, catalog_small):
        # (i,j)-homogeneity equals (n-j, n-i)-homogeneity
        for G in catalog_small:
            n = G.degree
            if n > 10 or n < 5:
                continue
            for i, j in ((2, 3), (3, 4)):
                if j >= n - 1 or n - j < 1:
                    continue
                ok, _ = is_ij_homogeneous(G, i, j)
                dual, _ = is_ij_homogeneous(G, n - j, n - i)
                assert ok == dual, (G.name, i, j)


class TestIjOracle:
    """is_ij_homogeneous, witness pair included, against every group element."""

    def test_small_catalog(self, catalog_small):
        failures = 0
        for G in catalog_small:
            n = G.degree
            if n > 9 or G.order > 1512:
                continue
            for i, j in ((1, 2), (2, 2), (2, 3), (2, 4), (3, 4)):
                if j >= n:
                    continue
                got = is_ij_homogeneous(G, i, j)
                assert got == brute_ij_homogeneous(G.gen_images(), n, i, j), (G.name, n, i, j)
                failures += not got[0]
        assert failures >= 10  # enough to exercise the witness pair


    def test_j_orbits_found_lazily(self):
        # a failure stops at the first failing j-set orbit and caches no
        # j-set orbits; a success on a group that is not i-homogeneous
        # caches them all; cached or not, the answer is the same
        for name, i, j, holds in (("AGL(1,17)", 3, 4, False), ("ASL(2,3)", 4, 5, True)):
            G = build_named(name)
            got = is_ij_homogeneous(G, i, j)
            assert got[0] is holds
            assert (j in set_orbits._ORBIT_CACHE[G]) is holds
            orbits_on_ksets(G, j)
            assert is_ij_homogeneous(G, i, j) == got

class TestClassificationSpotChecks:
    def test_ramsey_bound_on_catalog(self, catalog_small):
        # a (k,k+1)-homogeneous but not k-homogeneous group has degree below
        # the Ramsey number R(k, k+1, 2): 6 for k=2 and 13 for k=3
        ramsey = {2: 6, 3: 13}
        for G in catalog_small:
            n = G.degree
            for k, bound in ramsey.items():
                if 2 * k + 1 > n:
                    continue
                ok, _ = is_ij_homogeneous(G, k, k + 1)
                if ok and not is_k_homogeneous(G, k):
                    assert n < bound, (G.name, n, k)

    def test_maximal_overgroup_cases(self):
        # the two subgroup-of-a-homogeneous-overgroup cases settled by
        # computation: PSL(2,23) at degree 24 (k = 4 and 5) and PGL(2,32)
        # at degree 33 (k = 4) are not (k,k+1)-homogeneous
        psl223 = build_named("PSL(2,23)")
        for k in (4, 5):
            ok, _ = is_ij_homogeneous(psl223, k, k + 1)
            assert not ok, k
        pgl232 = build_named("PGL(2,32)")
        ok, _ = is_ij_homogeneous(pgl232, 4, 5)
        assert not ok
