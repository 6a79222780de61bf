import itertools
import random

import pytest
from hypothesis import given, strategies as st

from ut_lab.catalog import fano_lines
from ut_lab.partitions import (
    SetPartition,
    SubPartition,
    enumerate_kpartitions,
    first_unsectioned,
    is_section,
    relabel,
    section_count,
    sections,
    singleton_tail_partition,
    steiner_bad_partition,
    stirling2,
)

from ut_lab.set_orbits import orbits_on_ksets

from _oracles import scan_first_unsectioned, stirling_recurrence


class TestEnumeration:
    def test_3_2_exact_stream(self):
        got = [str(p) for p in enumerate_kpartitions(3, 2)]
        assert got == ["1,2|3", "1,3|2", "1|2,3"]

    def test_4_2_count(self):
        assert sum(1 for _ in enumerate_kpartitions(4, 2)) == 7

    def test_all_singletons(self):
        (only,) = list(enumerate_kpartitions(4, 4))
        assert only.blocks == ((1,), (2,), (3,), (4,))

    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts_match_recurrence(self, n):
        for k in range(1, n + 1):
            count = sum(1 for _ in enumerate_kpartitions(n, k))
            assert count == stirling_recurrence(n, k) == stirling2(n, k)

    def test_distinct_and_canonical(self):
        seen = set()
        for p in enumerate_kpartitions(7, 3):
            assert p == SetPartition.of(p.blocks)
            assert p not in seen
            seen.add(p)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            list(enumerate_kpartitions(3, 0))
        with pytest.raises(ValueError):
            list(enumerate_kpartitions(3, 4))


class TestSetPartition:
    def test_of_validates(self):
        with pytest.raises(ValueError):
            SetPartition.of([(1, 2), (2, 3)])
        with pytest.raises(ValueError):
            SetPartition.of([(1, 2), (4,)])  # gap: not {1..n}
        with pytest.raises(ValueError):
            SetPartition.of([])

    def test_canonical_equality(self):
        a = SetPartition.of([(3, 4), (2, 1)])
        b = SetPartition.of([(1, 2), (4, 3)])
        assert a == b
        assert str(a) == "1,2|3,4"

    def test_parse(self):
        assert SetPartition.parse("1,3|2|4,5").blocks == ((1, 3), (2,), (4, 5))

    def test_subpartition(self):
        sp = SubPartition.of([(4, 2), (7,)])
        assert sp.blocks == ((2, 4), (7,))
        assert sp.support == {2, 4, 7}
        with pytest.raises(ValueError):
            SubPartition.of([(1,), (1, 2)])


class TestSections:
    def test_basic(self):
        P = SetPartition.parse("1,2|3,4")
        assert is_section({1, 3}, P)
        assert not is_section({1, 2}, P)

    def test_type_1_2_4_partition(self):
        P = SetPartition.of([(1,), (2, 7), (3, 6, 4, 5)])
        assert not is_section({2, 7, 5}, P)  # hits {2,7} twice, misses {1}
        assert is_section({1, 2, 3}, P)

    def test_sections_enumeration(self):
        P = SetPartition.parse("1,2|3|4,5")
        got = set(sections(P))
        assert len(got) == section_count(P) == 4
        assert all(is_section(s, P) for s in got)

    @given(st.permutations(list(range(1, 8))))
    def test_relabel_invariance(self, images):
        P = SetPartition.of([(1, 4), (2, 3, 7), (5,), (6,)])
        S = (1, 2, 5, 6)
        mapped = [images[p - 1] for p in S]
        assert is_section(S, P) == is_section(mapped, relabel(P, images))


class TestSingletonTail:
    def test_examples(self):
        assert str(singleton_tail_partition((1, 2), 5)) == "1|2|3,4,5"
        assert str(singleton_tail_partition((1,), 3)) == "1|2,3"
        assert str(singleton_tail_partition((2, 4, 6), 9)) == "1,3,5,7,8,9|2|4|6"

    def test_section_must_contain_heads(self):
        P = singleton_tail_partition((2, 5), 7)
        for s in sections(P):
            assert {2, 5} <= set(s)

    def test_errors(self):
        with pytest.raises(ValueError):
            singleton_tail_partition((1, 1), 5)
        with pytest.raises(ValueError):
            singleton_tail_partition((6,), 5)
        with pytest.raises(ValueError):
            singleton_tail_partition((1, 2, 3), 3)


class TestSteinerBadPartition:
    def test_unfolding(self):
        P = steiner_bad_partition(block=(1, 2, 3, 4), inside=(1, 2), n=8, k=4)
        assert str(P) == "1|2|3,4|5,6,7,8"

    def test_fano_lines_are_never_sections(self):
        lines = fano_lines()
        assert len(lines) == 7
        # S(2,3,7): every pair of points lies on exactly one line
        for pair in itertools.combinations(range(1, 8), 2):
            assert sum(1 for L in lines if set(pair) <= set(L)) == 1
        block = lines[0]
        P = steiner_bad_partition(block=block, inside=block[:1], n=7, k=3)
        for L in lines:
            assert not is_section(L, P)

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            steiner_bad_partition(block=(1, 2), inside=(1, 2), n=8, k=4)
        with pytest.raises(ValueError):
            steiner_bad_partition(block=(1, 2, 3), inside=(4,), n=8, k=3)


class TestFirstUnsectioned:
    """The depth-first partition search against the plain scan it replaced."""

    def test_catalog_orbits(self, catalog_small):
        for G in catalog_small:
            n = G.degree
            for k in range(2, (n + 1) // 2 + 1):
                families = [orbit.masks for orbit in orbits_on_ksets(G, k)]
                got = first_unsectioned(n, k, families)
                assert got == scan_first_unsectioned(n, k, families), (G.name, n, k)

    def test_random_families(self):
        # Families of k-sets that are no group's orbits: sparse ones fail
        # early, dense ones late or never.
        rng = random.Random(1108)
        seen = set()
        for _ in range(400):
            n = rng.randint(1, 8)
            k = rng.randint(1, n)
            ksets = [sum(1 << (p - 1) for p in c)
                     for c in itertools.combinations(range(1, n + 1), k)]
            families = []
            for _ in range(rng.randint(1, 4)):
                density = rng.choice((0.0, 0.3, 0.7, 0.9, 1.0))
                families.append(frozenset(m for m in ksets if rng.random() < density))
            got = first_unsectioned(n, k, families)
            assert got == scan_first_unsectioned(n, k, families), (n, k, families)
            seen.add(got is None)
        assert seen == {True, False}

    def test_first_partition_and_family(self):
        # {1,2} sections every 2-partition except 1,2|3; the empty family
        # sections none.
        assert first_unsectioned(3, 2, [frozenset({0b011})]) == (SetPartition.parse("1,2|3"), 0)
        everything = frozenset({0b011, 0b101, 0b110})
        assert first_unsectioned(3, 2, [everything]) is None
        assert first_unsectioned(3, 2, [everything, frozenset()]) == (
            SetPartition.parse("1,2|3"), 1)
        # Three copies of one 2-set are not all three 2-sets.
        assert first_unsectioned(3, 2, [[0b011] * 3]) == (SetPartition.parse("1,2|3"), 0)
        assert first_unsectioned(3, 2, []) is None

    def test_bad_args(self):
        with pytest.raises(ValueError):
            first_unsectioned(3, 0, [])
        with pytest.raises(ValueError):
            first_unsectioned(3, 4, [])
