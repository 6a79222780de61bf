import itertools

import pytest

from ut_lab.catalog import build_named
from ut_lab.errors import BudgetExceeded
from ut_lab.partitions import SetPartition, SubPartition
from ut_lab.perm_core import PermGroup, Permutation, is_primitive, is_transitive
from ut_lab import set_orbits
from ut_lab.set_orbits import KSetOrbit, orbit_of_set, orbits_on_ksets
from ut_lab.ut_deciders import (
    aux_graph,
    bad_partition_search_3ut,
    connectivity_prune,
    gamma_graph,
    has_kut,
    has_kut_naive,
    has_weak_kut,
    UtWitness,
    subpartition_extension_decider,
    two_graph_check,
    validate_ut_witness,
)

from _oracles import brute_orbit_universal, scan_first_unsectioned


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

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            has_kut_naive(build_named("S12"), 5, partition_budget=1000)

    # The kut_sweep benchmark cells that has_kut sends to the naive decider.
    @pytest.mark.parametrize("name,degree,k", [
        ("C5", 5, 3), ("D(2*5)", 5, 3), ("PSL(2,5)", 6, 3), ("AGL(1,7)", 7, 3),
        ("AGL(1,7)", 7, 4), ("PGL(2,7)", 8, 4), ("ASL(2,3)", 9, 5), ("AGL(2,3)", 9, 5),
        ("PSL(2,9)", 10, 3), ("S6", 10, 3), ("PSigmaL(2,9)", 10, 3), ("11:5", 11, 3),
        ("AGL(1,11)", 11, 3),
    ])
    def test_matches_partition_scan(self, name, degree, k):
        G = build_named(name, degree)
        orbits = orbits_on_ksets(G, k)
        verdict = has_kut_naive(G, k)
        failure = scan_first_unsectioned(degree, k, [orbit.masks for orbit in orbits])
        if failure is None:
            assert verdict.holds is True and verdict.witness is None
        else:
            partition, i = failure
            assert verdict.holds is False
            assert verdict.witness == UtWitness(orbits[i].representative, partition)

    def test_k2_matches_primitivity_on_catalog(self, catalog_small):
        for G in catalog_small:
            if G.degree > 8 or not is_transitive(G):
                continue
            assert has_kut_naive(G, 2).holds == is_primitive(G), G.name


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
            # orbits that section every partition, then orbits that section none
            set_orbits._ORBIT_CACHE[G][3] = (KSetOrbit((1, 2, 3), len(masks), masks),)
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
        assert graph.is_connected()

    def test_edge_definition(self):
        G = build_named("AGL(1,17)")
        graph = aux_graph(G, B=(1,), c=3)
        orbit = orbit_of_set(G, (1, 2, 3))
        for x, y in itertools.islice(graph.edges, 12):
            assert tuple(sorted((1, x, y))) in orbit.members

    def test_precondition(self):
        with pytest.raises(ValueError):
            aux_graph(build_named("C6"), B=(6,), c=3)  # not 2-homogeneous


class TestGammaGraph:
    def test_single_term(self):
        G = build_named("AGL(1,11)")
        gamma = gamma_graph(G, C=(11,), c=4)
        base = aux_graph(G, B=(11,), c=4)
        restricted = {e for e in base.edges if 11 not in e}
        assert gamma.edges == restricted

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
            if o.representative not in bad_orbit.members
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

    def test_undecided_on_tiny_frontier_cap(self):
        G = build_named("PSL(2,13)")
        verdict = has_kut(G, 3, frontier_cap=1)
        assert verdict.holds is None
        assert verdict.status == "undecided"


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

    def test_methods_agree(self, catalog_small):
        for G in catalog_small:
            n = G.degree
            if n > 9:
                continue
            for k in range(2, min((n + 1) // 2, 4) + 1):
                naive = has_kut(G, k, method="naive")
                extend = has_kut(G, k, method="extend")
                assert naive.holds == extend.holds, (G.name, n, k)

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

        for name, degree in (("C5", 5), ("PSL(2,8)", 9), ("AGL(1,7)", 7)):
            G = build_named(name, degree)
            for k in range((degree + 1) // 2 + 1, degree):
                assert has_kut(G, k).holds == is_k_homogeneous(G, k), (name, k)

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
            assert aux_graph(G, B=(1,), c=c).is_connected() or c <= 2


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


class TestTwoGraph:
    def test_psl_2_13(self):
        G = build_named("PSL(2,13)")
        for orbit in orbits_on_ksets(G, 3):
            report = two_graph_check(G, orbit)
            assert report is not None
            assert report.lam == 6
            assert report.certifies_sections and report.exhaustive

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
