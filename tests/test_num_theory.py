import pytest
from hypothesis import given, strategies as st

from ut_lab.catalog import build_named
from ut_lab.num_theory import (
    SieveRow,
    agl_criterion,
    consecutive_qr_shortcut,
    primes_up_to,
    sieve_problem1,
    sixth_root_shortcut,
    subgroup_order,
)
from ut_lab.ut_deciders import aux_graph


class TestSubgroupOrder:
    def test_examples(self):
        assert subgroup_order(11, [10]) == 2
        assert subgroup_order(13, [12, 4, 3]) == 6
        assert subgroup_order(17, [16, 2, 1]) == 8

    def test_errors(self):
        with pytest.raises(ValueError):
            subgroup_order(10, [3])
        with pytest.raises(ValueError):
            subgroup_order(11, [11])
        with pytest.raises(ValueError):
            subgroup_order(11, [])

    @given(
        st.sampled_from([7, 11, 13, 17, 19, 23, 29]),
        st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=3),
    )
    def test_lagrange(self, p, gens):
        gens = [g % p or 1 for g in gens]
        assert (p - 1) % subgroup_order(p, gens) == 0


class TestCriterion:
    def test_small_primes_hold(self):
        assert agl_criterion(5).verdict is True
        assert agl_criterion(7).verdict is True

    def test_p13(self):
        report = agl_criterion(13)
        assert report.verdict is False
        assert report.min_witness == 4
        assert report.orders[4] == 6

    def test_p17_witnesses(self):
        assert sorted(agl_criterion(17).witnesses) == [2, 9, 16]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            agl_criterion(4)
        with pytest.raises(ValueError):
            agl_criterion(3)


class TestShortcuts:
    def test_sixth_root(self):
        assert sixth_root_shortcut(13) in (4, 10)
        c = sixth_root_shortcut(13)
        assert (c * c - c + 1) % 13 == 0
        assert sixth_root_shortcut(11) is None
        assert sixth_root_shortcut(7) is None

    def test_consecutive_qr(self):
        assert consecutive_qr_shortcut(17) == 2
        assert consecutive_qr_shortcut(13) == 4
        assert consecutive_qr_shortcut(7) is None

    def test_soundness_up_to_200(self):
        for p in primes_up_to(200):
            if p < 5:
                continue
            for c in (sixth_root_shortcut(p), consecutive_qr_shortcut(p)):
                if c is not None:
                    assert subgroup_order(p, [p - 1, c, c - 1]) < p - 1, (p, c)


class TestSieve:
    def test_limit_11(self):
        rows = sieve_problem1(11)
        assert len(rows) == 1 and rows[0].p == 11
        assert rows[0].verdict == agl_criterion(11).verdict

    def test_limit_10_empty(self):
        assert sieve_problem1(10) == []

    def test_filter_property(self):
        for row in sieve_problem1(300):
            assert row.p % 12 == 11

    def test_threads_agree(self):
        assert sieve_problem1(150, threads=2) == sieve_problem1(150)

    def test_rows_match_full_table(self):
        rows = sieve_problem1(300)
        assert [row.p for row in rows] == [p for p in range(11, 301, 12) if all(p % d for d in range(2, p))]
        for row in rows:
            full = agl_criterion(row.p)
            w = full.min_witness
            assert row == SieveRow(row.p, full.verdict, w, full.orders[w] if w else None)


class TestCrossModule:
    def test_failing_c_matches_component_structure(self):
        # for p=13, c=4: the component of the aux graph containing the
        # 1-labelled field element is exactly H = <-1, 4, 3> = {1,3,4,9,10,12}
        G = build_named("AGL(1,13)")
        graph = aux_graph(G, B=(1,), c=5)  # field pair (0, 4) in point labels
        comps = {c for c in graph.components()}
        H_labels = tuple(sorted(h + 1 for h in (1, 3, 4, 9, 10, 12)))
        assert H_labels in comps
