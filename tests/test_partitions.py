import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from ut_lab.catalog import build_named
from ut_lab.partitions import (
    SetPartition,
    SubPartition,
    enumerate_kpartitions,
    first_unsectioned,
    placement_order,
    section_test,
    singleton_tail_partition,
)
from ut_lab.set_orbits import kset_of_mask, mask_of, orbits_on_ksets

from _oracles import (
    bfs_extension,
    brute_placement_order,
    is_section,
    scan_first_unsectioned,
    search_order,
    stirling_recurrence,
)


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
            assert count == stirling_recurrence(n, k)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stream_is_lexicographic_rgs(self, n):
        # The restricted growth strings over k values, filtered out of a
        # product in lexicographic order.  Position i of such a string
        # holds at most i, so the product draws it from range(i + 1) only.
        for k in range(1, n + 1):
            strings = [
                a for a in itertools.product(*(range(min(i + 1, k)) for i in range(n)))
                if len(set(a)) == k and all(a[i] <= max(a[:i]) + 1 for i in range(1, n))
            ]
            want = [tuple(tuple(i + 1 for i in range(n) if a[i] == v) for v in range(k))
                    for a in strings]
            assert [p.blocks for p in enumerate_kpartitions(n, k)] == want, (n, k)

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
        assert {p for b in sp.blocks for p in b} == {2, 4, 7}
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
        test = section_test(mask_of(b) for b in P.blocks)
        got = {S for S in itertools.combinations(range(1, 6), 3) if test(mask_of(S))}
        assert len(got) == math.prod(map(len, P.blocks)) == 4
        assert all(is_section(s, P) for s in got)

    @given(st.permutations(list(range(1, 8))))
    def test_relabel_invariance(self, images):
        P = SetPartition.of([(1, 4), (2, 3, 7), (5,), (6,)])
        relabelled = SetPartition.of([[images[p - 1] for p in b] for b in P.blocks])
        S = (1, 2, 5, 6)
        mapped = [images[p - 1] for p in S]
        assert bool(section_test(mask_of(b) for b in P.blocks)(mask_of(S))) == bool(
            section_test(mask_of(b) for b in relabelled.blocks)(mask_of(mapped))
        )
        assert is_section(S, P) == is_section(mapped, relabelled)

    def test_section_test_agrees(self):
        # every 3-set of {1..7} against every 3-partition
        for P in enumerate_kpartitions(7, 3):
            test = section_test(mask_of(b) for b in P.blocks)
            for S in itertools.combinations(range(1, 8), 3):
                assert bool(test(mask_of(S))) == is_section(S, P), (S, str(P))


class TestSingletonTail:
    def test_examples(self):
        assert str(singleton_tail_partition((1, 2), 5)) == "1|2|3,4,5"
        assert str(singleton_tail_partition((1,), 3)) == "1|2,3"
        assert str(singleton_tail_partition((2, 4, 6), 9)) == "1,3,5,7,8,9|2|4|6"

    def test_section_must_contain_heads(self):
        P = singleton_tail_partition((2, 5), 7)
        for s in itertools.product(*P.blocks):
            assert {2, 5} <= set(s)

    def test_errors(self):
        with pytest.raises(ValueError):
            singleton_tail_partition((1, 1), 5)
        with pytest.raises(ValueError):
            singleton_tail_partition((6,), 5)
        with pytest.raises(ValueError):
            singleton_tail_partition((1, 2, 3), 3)


class TestSteinerBadPartition:
    def test_fano_lines_are_never_sections(self):
        # The lines of PG(2,2) are the 7-member 3-set orbit of PSL(3,2).
        # Singletons of k-2 points of a line, the rest of the line, and the
        # rest: no line is a section, so that orbit misses the partition.
        (lines,) = (o for o in orbits_on_ksets(build_named("PSL(3,2)", 7), 3) if o.size == 7)
        block = kset_of_mask(min(lines.masks))
        P = SetPartition.of([block[:1], block[1:], [p for p in range(1, 8) if p not in block]])
        test = section_test(mask_of(b) for b in P.blocks)
        for m in lines.masks:
            assert not test(m)
            assert not is_section(kset_of_mask(m), P)


def search(n, k, family, seed=None):
    """`first_unsectioned` without its profile, as the scan oracle answers
    for the one family: (first partition missed, family index 0) or None."""
    partition, _ = first_unsectioned(n, k, family, seed)
    return None if partition is None else (partition, 0)


def scan(n, k, family, seed=None):
    """The scan oracle for the one family, a seed's completions in the
    search's own placement order."""
    if seed is None:
        return scan_first_unsectioned(n, k, [family])
    return scan_first_unsectioned(
        n, k, [family], seed.blocks, search_order(n, family, seed.blocks))


def random_seed(rng, n, k):
    """k nonempty blocks over a random subset of {1..n}."""
    points = rng.sample(range(1, n + 1), rng.randint(k, n))
    blocks = [[p] for p in points[:k]]
    for p in points[k:]:
        blocks[rng.randrange(k)].append(p)
    return SubPartition.of(blocks)


def random_cases():
    """400 seeded (n, k, families, seed): families of k-sets that are no
    group's orbits, sparse ones failing early, dense ones late or never,
    and a random seed."""
    rng = random.Random(1108)
    for _ in range(400):
        n = rng.randint(1, 8)
        k = rng.randint(1, n)
        ksets = [sum(1 << (p - 1) for p in c)
                 for c in itertools.combinations(range(1, n + 1), k)]
        families = []
        for _ in range(rng.randint(1, 4)):
            density = rng.choice((0.0, 0.3, 0.7, 0.9, 1.0))
            families.append(frozenset(m for m in ksets if rng.random() < density))
        yield n, k, families, random_seed(rng, n, k)


class TestPlacementOrder:
    """The most-constrained-first rule against its brute-force re-derivation,
    on every seed the search tests here use."""

    def test_by_hand(self):
        # With 1 and 2 in their own blocks, 5 completes {2,5} and {1,5},
        # 4 completes {2,4} only, and 3 completes nothing.
        family = frozenset(mask_of(s) for s in ((1, 5), (2, 5), (2, 4)))
        assert placement_order(5, family, SubPartition.of([(1,), (2,)])) == [5, 4, 3]
        # Blocks {1,2} and {3}: 5 alone completes {3} through {3,5} and
        # {1,2} through {1,5}; 4 alone completes only {1,2}, through {2,4}.
        family = frozenset(mask_of(s) for s in ((3, 5), (1, 5), (2, 4)))
        assert placement_order(5, family, SubPartition.of([(1, 2), (3,)])) == [5, 4]

    def test_catalog_seeds(self, catalog_small):
        # Every orbit against every representative seed: the one live
        # family of a seeded search here is always some orbit.
        for G in catalog_small:
            n = G.degree
            for k in range(2, n):
                orbits = orbits_on_ksets(G, k)
                for orbit, other in itertools.product(orbits, repeat=2):
                    seed = SubPartition.of([(p,) for p in other.representative])
                    want = brute_placement_order(n, orbit.masks, seed.blocks)
                    assert placement_order(n, orbit.masks, seed) == want, (
                        G.name, k, orbit.representative, other.representative)

    def test_random_seeds(self):
        for n, k, families, seed in random_cases():
            for family in families:
                want = brute_placement_order(n, family, seed.blocks)
                assert placement_order(n, family, seed) == want, (n, k, family, seed)


class TestFirstUnsectioned:
    """The depth-first partition search against the plain scan it replaced."""

    def test_catalog_orbits(self, catalog_small):
        for G in catalog_small:
            n = G.degree
            for k in range(2, (n + 1) // 2 + 1):
                orbits = orbits_on_ksets(G, k)
                seeds = [SubPartition.of([(p,) for p in orbit.representative])
                         for orbit in orbits]
                for orbit in orbits:
                    family = orbit.masks
                    key = (G.name, n, k, orbit.representative)
                    assert search(n, k, family) == scan(n, k, family), key
                    # Each representative in singleton blocks.
                    for seed in seeds:
                        assert search(n, k, family, seed) == scan(n, k, family, seed), (
                            key, seed.blocks)

    def test_matches_breadth_first(self, catalog_small):
        # Every orbit of every 2 <= k < n, searched unseeded, as the naive
        # decider does, and from each representative.  A holding search
        # meets the same nodes per level as the breadth-first one in the
        # same placement order (counted when it meets any).  A failing one
        # stops at the breadth-first search's first leaf; that is checked
        # to degree 8, as above it the frontiers take seconds.
        holds = fails = 0
        for G in catalog_small:
            n = G.degree
            for k in range(2, n):
                orbits = orbits_on_ksets(G, k)
                seeds = [None] + [SubPartition.of([(p,) for p in orbit.representative])
                                  for orbit in orbits]
                for orbit, seed in itertools.product(orbits, seeds):
                    family = orbit.masks
                    blocks = ((),) * k if seed is None else seed.blocks
                    partition, profile = first_unsectioned(n, k, family, seed)
                    key = (G.name, n, k, orbit.representative, blocks)
                    free = search_order(n, family, blocks)
                    if partition is None:
                        holds += profile != [0]
                        assert bfs_extension([family], n, blocks, free) == (None, None, profile), key
                    elif n <= 8:
                        fails += 1
                        first, j, _ = bfs_extension([family], n, blocks, free)
                        assert (partition, 0) == (SetPartition.of(first), j), key
        assert holds > 70 and fails > 60

    def test_random_families(self):
        seen = set()
        for n, k, families, seed in random_cases():
            for family in families:
                got = search(n, k, family)
                assert got == scan(n, k, family), (n, k, family)
                seen.add(("unseeded", got is None))
                got = search(n, k, family, seed)
                assert got == scan(n, k, family, seed), (n, k, family, seed)
                seen.add(("seeded", got is None))
        assert seen == {(mode, none) for mode in ("unseeded", "seeded")
                        for none in (True, False)}

    def test_first_partition_and_family(self):
        # {1,2} sections every 2-partition except 1,2|3; the empty family
        # sections none.
        assert search(3, 2, frozenset({0b011})) == (SetPartition.parse("1,2|3"), 0)
        everything = frozenset({0b011, 0b101, 0b110})
        assert search(3, 2, everything) is None
        # A family of every 2-set is never probed: the search meets no node.
        assert first_unsectioned(3, 2, everything)[1] == [0]
        assert search(3, 2, frozenset()) == (SetPartition.parse("1,2|3"), 0)
        # Three copies of one 2-set are not all three 2-sets.
        assert search(3, 2, [0b011] * 3) == (SetPartition.parse("1,2|3"), 0)
        # A family that sections the seed is never probed either.
        seed = SubPartition.of([(1,), (2,)])
        assert first_unsectioned(3, 2, frozenset({0b011}), seed) == (None, [0])

    def test_bad_args(self):
        with pytest.raises(ValueError):
            first_unsectioned(3, 0, [])
        with pytest.raises(ValueError):
            first_unsectioned(3, 4, [])
        with pytest.raises(ValueError):
            first_unsectioned(3, 2, [], SubPartition.of([(1,)]))
        with pytest.raises(ValueError):
            first_unsectioned(3, 2, [], SubPartition.of([(1,), (4,)]))
