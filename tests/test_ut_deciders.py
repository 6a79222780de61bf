import itertools
import math
import random
from collections import Counter

import pytest

from ut_lab.catalog import build_named
from ut_lab.errors import CapExceeded
from ut_lab import partitions
from ut_lab.partitions import SetPartition, SubPartition, _has_section, placement_order
from ut_lab.perm_core import PermGroup, Permutation, is_transitive, nontrivial_block_system
from ut_lab import set_orbits
from ut_lab.set_orbits import KSetOrbit, kset_of_mask, mask_of, orbit_of_set, orbits_on_ksets
from ut_lab.verify import catalog_groups
from ut_lab.semigroup import regular_for_all_rank_k
from ut_lab.ut_deciders import (
    _PairIndex,
    aux_graph,
    bad_partition_search_3ut,
    connectivity_prune,
    has_kut,
    has_kut_naive,
    has_weak_kut,
    seeded_sweep,
    UtWitness,
    subpartition_extension_decider,
    two_graph_check,
    validate_ut_witness,
)

from _oracles import (
    bfs_extension,
    brute_orbit_universal,
    brute_placement_order,
    brute_two_graph,
    dfs_extension,
    scan_first_unsectioned,
)


class TestNaive:
    def test_c5_k2_holds(self):
        assert has_kut_naive(build_named("C5"), 2).holds is True

    def test_73_k3_fails_with_witness(self):
        verdict = has_kut_naive(build_named("7:3"), 3)
        assert verdict.holds is False
        witness = verdict.witness
        assert witness is not None
        assert validate_ut_witness(build_named("7:3"), witness)
        shape = sorted(len(b) for b in witness.partition.blocks)
        assert sum(shape) == 7 and len(shape) == 3

    def test_symmetric_any_k(self):
        for k in (2, 3, 4):
            assert has_kut_naive(build_named("S6", 6), k).holds is True

    def test_frontier_cap(self, monkeypatch):
        # The first orbit's search meets two nodes at some level before any
        # answer, and stops at the second.
        monkeypatch.setattr(partitions, "FRONTIER_CAP", 1)
        with pytest.raises(CapExceeded) as err:
            has_kut_naive(build_named("PSL(2,13)"), 3)
        assert err.value.partial == 2

    # The smallest kut_sweep benchmark cells that reach has_kut's exact step,
    # then cells whose first partition in RGS order is missed by a later
    # orbit than the first one to miss any.
    @pytest.mark.parametrize("name,degree,k", [
        ("C5", 5, 3), ("D(2*5)", 5, 3), ("PSL(2,5)", 6, 3), ("AGL(1,7)", 7, 3),
        ("AGL(1,7)", 7, 4), ("PGL(2,7)", 8, 4), ("ASL(2,3)", 9, 5), ("AGL(2,3)", 9, 5),
        ("PSL(2,9)", 10, 3), ("S6", 10, 3), ("PSigmaL(2,9)", 10, 3), ("11:5", 11, 3),
        ("AGL(1,11)", 11, 3), ("C6", 6, 2), ("C7", 7, 3),
    ])
    def test_matches_partition_scan(self, name, degree, k):
        # The witness is the first orbit that misses some k-partition, with
        # the first such partition in RGS order.
        G = build_named(name, degree)
        verdict = has_kut_naive(G, k)
        for orbit in orbits_on_ksets(G, k):
            failure = scan_first_unsectioned(degree, k, [orbit.masks])
            if failure is not None:
                partition, _ = failure
                assert verdict.holds is False
                assert verdict.witness == UtWitness(orbit.representative, partition)
                break
        else:
            assert verdict.holds is True and verdict.witness is None

    def test_k2_matches_primitivity_on_catalog(self, catalog_small):
        for G in catalog_small:
            if G.degree > 8 or not is_transitive(G):
                continue
            assert has_kut_naive(G, 2).holds == (nontrivial_block_system(G) is None), G.name


class TestWitnessCheckIndependence:
    """validate_ut_witness must not read the orbit index the deciders fill."""

    def test_corrupted_cache_changes_nothing(self):
        G = build_named("AGL(1,13)")
        good = has_kut(G, 3).witness
        assert good is not None and validate_ut_witness(G, good)
        # the representative is itself a section of this partition
        bogus = UtWitness((1, 2, 3), SetPartition.of([(1,), (2,), range(3, 14)]))
        assert not validate_ut_witness(G, bogus)
        everything = frozenset(
            sum(1 << (p - 1) for p in c) for c in itertools.combinations(range(1, 14), 3)
        )
        for masks in (everything, frozenset()):
            # orbits that section every partition, then orbits that section
            # none, in the cache and in a stopped enumeration; then in the
            # enumeration alone, as a decider would read it with no cache
            orbit = KSetOrbit((1, 2, 3), masks)
            run = set_orbits._Enumeration(13, 3)
            run.orbits.append(orbit)
            run.seen |= masks
            run.remaining -= len(masks)
            set_orbits._ORBIT_CACHE[G][3] = (orbit,)
            set_orbits._ENUMERATIONS.setdefault(G, {})[3] = run
            assert validate_ut_witness(G, good)
            assert not validate_ut_witness(G, bogus)
            del set_orbits._ORBIT_CACHE[G][3]
            assert next(set_orbits._orbits_in_order(G, 3)) is orbit
            assert validate_ut_witness(G, good)
            assert not validate_ut_witness(G, bogus)


class TestAuxGraph:
    def test_agl_1_17_split(self):
        graph = aux_graph(build_named("AGL(1,17)"), B=(1,), c=3)
        assert sorted(len(c) for c in graph.components()) == [8, 8]

    def test_symmetric_complete(self):
        graph = aux_graph(build_named("S7"), B=(7,), c=4)
        assert len(graph.edges) == 15  # all pairs on 6 vertices

    def test_agl_1_7_connected(self):
        graph = aux_graph(build_named("AGL(1,7)"), B=(7,), c=3)
        assert len(graph.components()) <= 1

    def test_edge_definition(self):
        G = build_named("AGL(1,17)")
        graph = aux_graph(G, B=(1,), c=3)
        orbit = orbit_of_set(G, (1, 2, 3))
        for x, y in itertools.islice(graph.edges, 12):
            assert (1, x, y) in orbit

    def test_precondition(self):
        with pytest.raises(ValueError):
            aux_graph(build_named("C6"), B=(6,), c=3)  # not 2-homogeneous


def gamma_graph(G, C, c):
    """The union over b in C of the pair-graphs G(b, c), restricted outside
    C, read off the pair index that the growth diagnostic uses."""
    return _PairIndex(orbit_of_set(G, (1, 2, c)), G.degree).gamma(set(C))


class TestGammaGraph:
    def test_single_term(self):
        G = build_named("AGL(1,11)")
        gamma = gamma_graph(G, C=(11,), c=4)
        base = aux_graph(G, B=(11,), c=4)
        restricted = {e for e in base.edges if 11 not in e}
        assert gamma.edges == restricted

    @pytest.mark.parametrize("name", ["AGL(1,11)", "PSL(2,13)"])
    @pytest.mark.parametrize("C", [(5, 11), (1, 7, 9)])
    def test_union_of_single_terms(self, name, C):
        G = build_named(name)
        gamma = gamma_graph(G, C=C, c=4)
        want = set()
        for b in C:
            want |= {e for e in aux_graph(G, B=(b,), c=4).edges if not set(e) & set(C)}
        assert gamma.vertices == tuple(v for v in range(1, G.degree + 1) if v not in C)
        assert gamma.edges == want

    def test_s5_complete_triangle(self):
        gamma = gamma_graph(build_named("S5", 5), C=(4, 5), c=3)
        assert gamma.vertices == (1, 2, 3)
        assert gamma.edges == frozenset({(1, 2), (1, 3), (2, 3)})


class TestConnectivityPrune:
    def test_agl_1_17(self):
        G = build_named("AGL(1,17)")
        verdict = connectivity_prune(G, 3)
        assert verdict is not None and verdict.holds is False
        assert validate_ut_witness(G, verdict.witness)
        assert sorted(len(b) for b in verdict.witness.partition.blocks) == [1, 8, 8]

    def test_s6_inconclusive(self):
        assert connectivity_prune(build_named("S6", 6), 3) is None

    def test_agl_1_13(self):
        G = build_named("AGL(1,13)")
        verdict = connectivity_prune(G, 3)
        assert verdict is not None and verdict.holds is False
        # <c, c-1, -1> has order 6, so the components have size 6
        assert sorted(len(b) for b in verdict.witness.partition.blocks) == [1, 6, 6]


class TestBadPartitionSearch:
    def test_s6_vacuous(self):
        # the pair graph of a symmetric group is complete: no distance-2 seeds
        assert bad_partition_search_3ut(build_named("S6", 6), c=3, d=2) == []

    def test_psl_2_13_all_connected(self):
        reports = bad_partition_search_3ut(build_named("PSL(2,13)"), c=3, d=2)
        assert reports and all(r.status == "connected" for r in reports)


class TestExtensionDecider:
    def test_s4_frontier_dies_immediately(self):
        G = build_named("S4")
        orbit = orbits_on_ksets(G, 2)[0]
        verdict = subpartition_extension_decider(
            G, 2, orbit, SubPartition.of([(1,), (2,)])
        )
        assert verdict.holds is True
        assert verdict.detail["frontier_profile"] == [0]

    def test_agl_1_13_witness(self):
        G = build_named("AGL(1,13)")
        pruned = connectivity_prune(G, 3)
        bad_orbit = next(
            o
            for o in orbits_on_ksets(G, 3)
            if o.representative == pruned.witness.orbit_rep
        )
        other = next(
            o.representative
            for o in orbits_on_ksets(G, 3)
            if o.representative not in bad_orbit
        )
        verdict = subpartition_extension_decider(
            G, 3, bad_orbit, SubPartition.of([(p,) for p in other])
        )
        assert verdict.holds is False
        assert validate_ut_witness(G, verdict.witness)

    def test_seed_block_count_checked(self):
        G = build_named("S4")
        orbit = orbits_on_ksets(G, 2)[0]
        with pytest.raises(ValueError):
            subpartition_extension_decider(G, 2, orbit, SubPartition.of([(1,)]))
        with pytest.raises(ValueError):
            subpartition_extension_decider(G, 2, orbit, SubPartition.of([(1,), (9,)]))

    def test_undecided_on_tiny_frontier_cap(self, monkeypatch):
        # The exact step's searches meet 3 nodes at one level here.
        G = build_named("M11", 12)
        monkeypatch.setattr(partitions, "FRONTIER_CAP", 1)
        verdict = has_kut(G, 4)
        assert verdict.holds is None
        assert verdict.status == "undecided"

    def test_cap_bounds_one_level_of_the_depth_first_search(self, monkeypatch):
        # A breadth-first search holds 224 subpartitions at one level here
        # and overran this cap; the depth-first one meets a witness first.
        # The profile is the failing search's, re-run for the witness's
        # orbit and the verdict's seed.
        G = build_named("PSL(2,19)", 20)
        monkeypatch.setattr(partitions, "FRONTIER_CAP", 200)
        verdict = has_kut(G, 4, method="extend")
        assert verdict.holds is False
        assert validate_ut_witness(G, verdict.witness)
        orbit = next(
            o for o in orbits_on_ksets(G, 4)
            if o.representative == verdict.witness.orbit_rep
        )
        seed = SubPartition.of([(p,) for p in verdict.detail["seed"]])
        search = subpartition_extension_decider(G, 4, orbit, seed)
        assert search.witness == verdict.witness
        assert max(search.detail["frontier_profile"]) <= 200

    def test_cap_raises_with_profile(self, monkeypatch):
        # This search meets one node at each of its first seven levels
        # and two at the eighth.
        G = build_named("AGL(1,13)")
        orbit = orbits_on_ksets(G, 3)[2]
        seed = SubPartition.of([(1,), (2,), (3,)])
        monkeypatch.setattr(partitions, "FRONTIER_CAP", 1)
        with pytest.raises(CapExceeded) as err:
            subpartition_extension_decider(G, 3, orbit, seed)
        # The count passes the cap at the first node past it, so .partial
        # is FRONTIER_CAP + 1 whatever the level's full size.
        assert err.value.partial == 2
        assert err.value.profile == [1] * 7 + [2]

    def test_psl_2_27_k4_witness(self):
        # The verdict, seed and witness the breadth-first search returns in
        # the search's most-constrained-first order (placing 20, 24, 26
        # and 28 first), recorded once; its frontier reached 18,888
        # subpartitions.  In ascending order it reached 25,528 and its
        # first leaf was the same partition.
        G = build_named("PSL(2,27)", 28)
        verdict = has_kut(G, 4, method="extend")
        assert verdict.holds is False
        assert verdict.detail["seed"] == (1, 2, 3, 4)
        assert verdict.witness == UtWitness((1, 2, 3, 28), SetPartition.of([
            (1, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 21, 22,
             23, 24, 25, 26, 27, 28),
            (2, 20), (3,), (4,),
        ]))


class TestExtensionOracle:
    def test_matches_breadth_first(self):
        # Every (orbit, representative seed) pair of every catalog group of
        # degree <= 14, placed most constrained first, an order checked
        # here against its brute-force re-derivation.  A holding seed meets
        # the same subpartitions per level as the breadth-first search in
        # that order, whose frontier then empties after the same nodes.  On
        # a failing seed the first surviving leaf is the breadth-first
        # search's first; that is checked to degree 9, as above it the
        # breadth-first frontiers of failing seeds take seconds.  Every
        # False is validated by the decider in any case.
        fails = holds = 0
        for G in catalog_groups(14):
            n = G.degree
            for k in range(3, (n + 1) // 2 + 1):
                orbits = orbits_on_ksets(G, k)
                for orbit, other in itertools.product(orbits, repeat=2):
                    seed = SubPartition.of([(p,) for p in other.representative])
                    verdict = subpartition_extension_decider(G, k, orbit, seed)
                    key = (G.name, n, k, orbit.representative, other.representative)
                    free = brute_placement_order(n, orbit.masks, seed.blocks)
                    assert placement_order(n, orbit.masks, seed) == free, key
                    if verdict.holds:
                        holds += 1
                        first, _, profile = bfs_extension([orbit.masks], n, seed.blocks, free)
                        assert first is None, key
                        assert verdict.detail["frontier_profile"] == profile, key
                    elif n <= 9:
                        fails += 1
                        first, _, _ = bfs_extension([orbit.masks], n, seed.blocks, free)
                        assert verdict.holds is False, key
                        assert verdict.witness.partition == SetPartition.of(first), key
        assert fails > 200 and holds > 200

    def test_same_verdict_as_ascending_order(self):
        # Every (orbit, representative seed) pair of every catalog group of
        # degree <= 12, k >= 2: the verdict does not depend on the placement
        # order, so the search answers as the depth-first oracle does in
        # ascending order, the order the search used before it placed the
        # most constrained point first.  A failing seed stops at the
        # oracle's first leaf in the search's own order.
        seen = Counter()
        for G in catalog_groups(12):
            n = G.degree
            for k in range(2, (n + 1) // 2 + 1):
                orbits = orbits_on_ksets(G, k)
                for orbit, other in itertools.product(orbits, repeat=2):
                    seed = SubPartition.of([(p,) for p in other.representative])
                    verdict = subpartition_extension_decider(G, k, orbit, seed)
                    key = (G.name, n, k, orbit.representative, other.representative)
                    ascending = dfs_extension(orbit.masks, n, seed.blocks)
                    assert verdict.holds is (ascending is None), key
                    if not verdict.holds:
                        free = brute_placement_order(n, orbit.masks, seed.blocks)
                        first = dfs_extension(orbit.masks, n, seed.blocks, free)
                        assert verdict.witness.partition == SetPartition.of(first), key
                    seen[verdict.holds] += 1
        assert seen[True] > 500 and seen[False] > 5000


class TestSeededSweep:
    def test_all_orbits_against_naive(self):
        # Every catalog cell of degree <= 10: the sweep over every orbit
        # finds a partition exactly when the unseeded search does, and a
        # failure names a seed its partition separates and another orbit
        # that misses the partition.
        seen = Counter()
        for G in catalog_groups(10):
            n = G.degree
            for k in range(2, (n + 1) // 2 + 1):
                failure = seeded_sweep(G, k)
                key = (G.name, n, k)
                assert (failure is None) is has_kut_naive(G, k).holds, key
                seen[failure is None] += 1
                if failure is None:
                    continue
                rep, partition, orbit = failure
                assert all(len(set(rep) & set(b)) == 1 for b in partition.blocks), key
                assert mask_of(rep) not in orbit.masks, key
                assert validate_ut_witness(G, UtWitness(orbit.representative, partition)), key
        assert seen[True] > 90 and seen[False] > 50

    def test_one_orbit_against_brute_force(self):
        # Every k-set orbit of every catalog cell of degree <= 8: the sweep
        # over that orbit alone finds nothing exactly when the orbit
        # sections every k-partition.
        seen = Counter()
        for G in catalog_groups(8):
            n = G.degree
            for k in range(2, (n + 1) // 2 + 1):
                for orbit in orbits_on_ksets(G, k):
                    universal = brute_orbit_universal(G.gen_images(), orbit.representative, n, k)
                    key = (G.name, n, k, orbit.representative)
                    assert (seeded_sweep(G, k, (orbit,)) is None) is universal, key
                    seen[universal] += 1
        assert seen[True] > 70 and seen[False] > 30


class TestSectionProbe:
    """The partition search's section probe against a brute scan of the orbit."""

    @staticmethod
    def _brute(masks, blocks):
        return any(all(m & mask_of(b) for b in blocks) for m in masks)

    @staticmethod
    def _random_blocks(rng, points, nblocks):
        points = list(points)
        rng.shuffle(points)
        blocks = [[p] for p in points[:nblocks]]
        for p in points[nblocks:]:
            blocks[rng.randrange(nblocks)].append(p)
        return [tuple(sorted(b)) for b in blocks]

    # Full partitions, and partial ones with a singleton block {x}, as the
    # extension search probes them when it places a new point x.  With k = 3
    # and the AGL groups, a partial partition has fewer candidate sections
    # than any orbit has members, so it never takes the scan side.
    @pytest.mark.parametrize("name,degree,k,singleton_scans", [
        ("D(2*7)", 7, 3, True), ("AGL(1,13)", 13, 3, False),
        ("AGL(1,17)", 17, 3, False), ("AGL(1,17)", 17, 4, True),
    ])
    def test_partitions_both_sides(self, name, degree, k, singleton_scans):
        rng = random.Random(1108 + degree)
        sides = set()
        for orbit in orbits_on_ksets(build_named(name, degree), k):
            for _ in range(60):
                full = self._random_blocks(rng, range(1, degree + 1), k)
                x = rng.randint(1, degree)
                placed = rng.sample([p for p in range(1, degree + 1) if p != x],
                                    rng.randint(k - 1, degree - 1))
                partial = [(x,)] + self._random_blocks(rng, placed, k - 1)
                for form, blocks in (("full", full), ("singleton", partial)):
                    sides.add((form, math.prod(map(len, blocks)) <= orbit.size))
                    bits = [[1 << (p - 1) for p in b] for b in blocks]
                    assert _has_section(orbit.masks, bits) == self._brute(orbit.masks, blocks)
        assert sides == {("full", True), ("full", False), ("singleton", True),
                         ("singleton", not singleton_scans)}


class TestHasKut:
    @pytest.mark.parametrize(
        "name,degree,k,expected",
        [
            ("M11", 12, 4, True),
            ("PGL(2,7)", 8, 4, True),
            ("PSL(2,7)", 8, 4, False),
            ("AGL(1,8)", 8, 4, False),
            ("C5", 5, 2, True),
            ("AGL(1,17)", 17, 3, False),
        ],
    )
    def test_examples(self, name, degree, k, expected):
        G = build_named(name, degree)
        verdict = has_kut(G, k)
        assert verdict.holds is expected
        if not expected:
            assert validate_ut_witness(G, verdict.witness)

    def test_ij_prune_stops_at_first_failing_orbit(self):
        # C(131, 4) is above the default orbit cap: the (3,4) prune must fail
        # on the first 4-set orbit instead of enumerating them all first
        G = build_named("AGL(1,131)")
        verdict = has_kut(G, 4)
        assert verdict.holds is False and verdict.method.startswith("prune:")
        assert validate_ut_witness(G, verdict.witness)
        assert 4 not in set_orbits._ORBIT_CACHE[G]

    def test_methods_agree(self):
        # Every catalog cell of degree <= 14: the unseeded search, the
        # per-orbit extension searches, the dispatcher with its seeded
        # all-orbit sweep, and the rank-k regularity question it answers.
        fails = 0
        for G in catalog_groups(14):
            n = G.degree
            for k in range(2, (n + 1) // 2 + 1):
                verdicts = [has_kut(G, k, method=m) for m in ("naive", "extend", "auto")]
                holds = {v.holds for v in verdicts}
                holds.add(regular_for_all_rank_k(G, k, method="direct"))
                assert holds in ({True}, {False}), (G.name, n, k)
                for verdict in verdicts:
                    assert verdict.holds or validate_ut_witness(G, verdict.witness)
                fails += False in holds
        assert fails > 50

    def test_extend_is_the_exact_step(self):
        # Every catalog cell of degree <= 12 that the chain leaves to its
        # exact step: "extend" runs that step alone, so it returns the same
        # verdict, field by field.  Its detail is at most the seed, so a
        # verdict kept by a caller holds no per-search data.
        cells = 0
        for G in catalog_groups(12):
            n = G.degree
            for k in range(2, (n + 1) // 2 + 1):
                extend = has_kut(G, k, method="extend")
                assert set(extend.detail) <= {"seed"}, (G.name, n, k)
                auto = has_kut(G, k)
                if auto.method != "extension":
                    continue
                cells += 1
                key = (G.name, n, k)
                assert extend.holds is auto.holds, key
                assert extend.method == auto.method, key
                assert extend.witness == auto.witness, key
                assert extend.detail == auto.detail, key
        assert cells > 10

    def test_monotonicity_smoke(self):
        for name, degree in (("PSL(2,8)", 9), ("M11", 12), ("PGL(2,9)", 10)):
            G = build_named(name, degree)
            top = (G.degree + 1) // 2
            verdicts = {k: has_kut(G, k).holds for k in range(2, top + 1)}
            for k in range(3, top + 1):
                if verdicts[k]:
                    assert verdicts[k - 1], (name, k)

    def test_upward_closure(self):
        # PSL <= PGL <= PGammaL share generator prefixes in the catalog
        for q in (8, 9):
            psl = build_named(f"PSL(2,{q})")
            pgammal = build_named(f"PGammaL(2,{q})")
            for k in (2, 3, 4):
                if has_kut(psl, k).holds:
                    assert has_kut(pgammal, k).holds, (q, k)

    def test_necessary_ij_condition(self, catalog_small):
        from ut_lab.set_orbits import is_ij_homogeneous

        for G in catalog_small:
            n = G.degree
            for k in (3, 4):
                if k > (n + 1) // 2:
                    continue
                if has_kut(G, k).holds:
                    ok, _ = is_ij_homogeneous(G, k - 1, k)
                    assert ok, (G.name, k)

    def test_bigk_equals_homogeneity(self):
        from ut_lab.set_orbits import is_k_homogeneous

        for G in catalog_groups(12):
            n = G.degree
            for k in range((n + 1) // 2 + 1, n):
                verdict = has_kut(G, k)
                assert verdict.holds == is_k_homogeneous(G, k), (G.name, k)
                if verdict.holds is False:
                    assert validate_ut_witness(G, verdict.witness), (G.name, k)

    def test_degree12_k6_table(self):
        # at degree 12 with k = 6, the property singles out the groups
        # containing the alternating group
        expectations = {
            "A12": True, "S12": True,
            "M12": False, "M11": False, "PGL(2,11)": False,
        }
        for name, expected in expectations.items():
            G = build_named(name, 12)
            assert has_kut(G, 6).holds is expected, name

    def test_connected_graphs_when_kut_holds(self):
        G = build_named("AGL(1,7)")
        assert has_kut(G, 3).holds
        for orbit in orbits_on_ksets(G, 3):
            member = min(m for m in orbit.masks if m & 3 == 3)
            c = next(p for p in range(3, 8) if member >> (p - 1) & 1)
            assert len(aux_graph(G, B=(1,), c=c).components()) <= 1 or c <= 2


class TestWeakKut:
    def test_identity_group(self):
        G = PermGroup.from_gens([Permutation.identity(4)])
        holds, rep = has_weak_kut(G, 2)
        assert holds is False and rep is None

    def test_kut_implies_weak(self):
        holds, rep = has_weak_kut(build_named("C5"), 2)
        assert holds is True
        assert rep == (1, 2)

    def test_psl27_k4_against_brute_force(self):
        G = build_named("PSL(2,7)")
        holds, rep = has_weak_kut(G, 4)
        expected = {
            o.representative: brute_orbit_universal(G.gen_images(), o.representative, 8, 4)
            for o in orbits_on_ksets(G, 4)
        }
        assert holds == any(expected.values())
        if holds:
            universal = min(r for r, v in expected.items() if v)
            assert rep == universal


class TestBudgetExhausted:
    """Every exhausted budget inside has_kut is "undecided", and inside the
    rank-k question a CapExceeded, whatever the method."""

    @pytest.mark.parametrize("owner,constant,value,name,k", [
        (set_orbits, "DEFAULT_ORBIT_CAP", 50, "AGL(1,13)", 4),
        (partitions, "FRONTIER_CAP", 1, "AGL(1,7)", 4),
    ])
    def test_every_method_is_undecided(self, monkeypatch, owner, constant, value, name, k):
        monkeypatch.setattr(owner, constant, value)
        for method in ("auto", "naive", "extend"):
            verdict = has_kut(build_named(name), k, method=method)
            assert verdict.holds is None, method
            assert verdict.method == "undecided:budget-exhausted", method
            assert verdict.detail["partial"] > value, method

    @pytest.mark.parametrize("owner,constant,value", [
        (set_orbits, "DEFAULT_ORBIT_CAP", 50),
        (partitions, "FRONTIER_CAP", 1),
    ])
    def test_weak_kut_is_undecided(self, monkeypatch, owner, constant, value):
        # The orbit of {1,2,3} is the least universal one.  Either budget
        # runs out on it, and a later universal orbit, such as that of
        # {1,2,4}, must not be reported in its place.
        assert has_weak_kut(build_named("AGL(1,13)"), 3) == (True, (1, 2, 3))
        monkeypatch.setattr(owner, constant, value)
        assert has_weak_kut(build_named("AGL(1,13)"), 3) == (None, None)

    def test_rank_k_raises_cap_exceeded(self, monkeypatch):
        monkeypatch.setattr(partitions, "FRONTIER_CAP", 1)
        for method in ("kut", "direct"):
            with pytest.raises(CapExceeded) as err:
                regular_for_all_rank_k(build_named("AGL(1,7)"), 4, method=method)
            assert err.value.partial > 1, method


class TestTwoGraph:
    def test_psl_2_13(self):
        G = build_named("PSL(2,13)")
        for orbit in orbits_on_ksets(G, 3):
            report = two_graph_check(G, orbit)
            assert report is not None
            assert report.lam == 6
            assert report.certifies_sections

    def test_s5_trivial_orbit(self):
        G = build_named("S5", 5)
        (orbit,) = orbits_on_ksets(G, 3)
        report = two_graph_check(G, orbit)
        assert report is not None and report.lam == 3
        assert report.certifies_sections

    def test_non_two_graph_returns_none(self):
        G = build_named("C7")
        orbit = orbits_on_ksets(G, 3)[0]
        assert two_graph_check(G, orbit) is None

    def test_agrees_with_brute_oracle(self):
        # Every 3-set orbit of every transitive catalog group with
        # C(n, 3) <= 50,000.  Above degree 30, 70 orbits have a constant
        # lambda but an odd 4-set: 66 of AGL(1,31..61), 4 of degree 64.
        orbits = regular = 0
        odd_4set = Counter()
        for G in catalog_groups(64):
            n = G.degree
            if n < 4 or math.comb(n, 3) > 50_000 or not is_transitive(G):
                continue
            for orbit in orbits_on_ksets(G, 3):
                members = [kset_of_mask(m) for m in orbit.masks]
                want = brute_two_graph(n, members)
                report = two_graph_check(G, orbit)
                assert (None if report is None else report.lam) == want, (G.name, n, orbit.representative)
                orbits += 1
                regular += want is not None
                pair_counts = Counter(p for tri in members for p in itertools.combinations(tri, 2))
                if want is None and len(set(pair_counts.values())) == 1 and n > 30:
                    odd_4set["AGL" if G.name.startswith("AGL") else n] += 1
        assert (orbits, regular) == (242, 83)
        assert odd_4set == {"AGL": 66, 64: 4}
