"""Set partitions of {1..n}, canonical forms, enumeration, and sections.

A partition is canonical when every block is sorted ascending and blocks are
ordered by their least element; two partitions are equal iff their canonical
forms are equal.  Enumeration follows restricted-growth-string order, so the
stream itself is canonical and deterministic.  One rule, `_next_blocks`,
gives the blocks each point may take, for the enumeration and for the
partition search alike; one more, `placement_order`, gives the order in
which a seeded search of one family places its points.  `section_test` is
the one test of whether a k-set is a section of k disjoint blocks: the
partition search scans a family with it, and the regularity test stops its
orbit BFS with it.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import CapExceeded


Block = tuple[int, ...]

# The nodes one level of a `first_unsectioned` search may meet.  Read at
# call time.
FRONTIER_CAP = 10**7


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[Block, ...]:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..n} into nonempty blocks, stored canonically.

    The raw constructor trusts its argument; use `SetPartition.of` to
    canonicalize and validate arbitrary input.
    """

    blocks: tuple[Block, ...]

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        canon = _canonical_blocks(blocks)
        if not canon or any(not b for b in canon):
            raise ValueError("blocks must be nonempty")
        seen: set[int] = set()
        for b in canon:
            for p in b:
                if p in seen:
                    raise ValueError(f"point {p} appears in two blocks")
                seen.add(p)
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise ValueError("blocks must cover {1..n} exactly")
        return cls(canon)

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __str__(self) -> str:
        return "|".join(",".join(map(str, b)) for b in self.blocks)

    @classmethod
    def parse(cls, text: str) -> "SetPartition":
        blocks = [[int(x) for x in part.split(",")] for part in text.split("|")]
        return cls.of(blocks)


@dataclass(frozen=True)
class SubPartition:
    """Disjoint nonempty blocks that need not cover the whole point set."""

    blocks: tuple[Block, ...]

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "SubPartition":
        canon = _canonical_blocks(blocks)
        if not canon or any(not b for b in canon):
            raise ValueError("blocks must be nonempty")
        support: set[int] = set()
        for b in canon:
            for p in b:
                if p < 1:
                    raise ValueError("points are 1-based")
                if p in support:
                    raise ValueError(f"point {p} appears in two blocks")
                support.add(p)
        return cls(canon)

    def __str__(self) -> str:
        return "|".join(",".join(map(str, b)) for b in self.blocks)


def _next_blocks(left: int, opened: int, k: int) -> range:
    """The blocks the next point may take, in restricted-growth order.

    With `opened` blocks open and `left` points still to place, this one
    included, the point joins an open block or opens the next one, as long
    as the points left can still open all k blocks.
    """
    return range(0 if left > k - opened else opened, min(opened + 1, k))


def _rgs_stream(n: int, k: int) -> Iterator[list[int]]:
    # Restricted growth strings a[0..n-1] (a[i] is the block of point i+1)
    # using exactly k values, in lexicographic order.  The yielded list is
    # reused between iterations; callers must not hold on to it.
    if k < 1 or k > n:
        return
    a = [0] * n

    def fill(i: int, opened: int) -> Iterator[list[int]]:
        if i == n:
            yield a
            return
        for v in _next_blocks(n - i, opened, k):
            a[i] = v
            yield from fill(i + 1, opened + (v == opened))

    yield from fill(0, 0)


def _blocks_of_rgs(a: Sequence[int], k: int) -> list[list[int]]:
    blocks: list[list[int]] = [[] for _ in range(k)]
    for idx, v in enumerate(a):
        blocks[v].append(idx + 1)
    return blocks


def enumerate_kpartitions(n: int, k: int) -> Iterator[SetPartition]:
    """All partitions of {1..n} into exactly k blocks, in RGS order.

    The stream is canonical (blocks arise ordered by least element) and
    contains Stirling S(n,k) partitions, each exactly once.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    for a in _rgs_stream(n, k):
        yield SetPartition(tuple(tuple(b) for b in _blocks_of_rgs(a, k)))


def first_unsectioned(
    n: int,
    k: int,
    families: Sequence[Collection[int]],
    seed: SubPartition | None = None,
) -> tuple[SetPartition | None, int | None, list[int]]:
    """The first k-partition of {1..n} that some family does not section.

    A family is a collection of k-set masks (bit p-1 set iff point p is in
    the set), such as one k-set orbit.  One recursion places the unplaced
    points depth first, each taking the blocks `_next_blocks` allows.
    Without a seed the points go in ascending order and the blocks open in
    restricted-growth order, so leaves come in the order of
    `enumerate_kpartitions`.  A seed's k blocks are all open from the
    start, so only its completions are searched, each point trying blocks
    0..k-1 in turn.  When exactly one family is live at the root (it
    neither sections the seed nor holds all C(n, k) k-sets), the points go
    in its `placement_order`, most constrained first, so that subtrees are
    cut early however the group labels its points; with more live families
    they go in ascending order.  A block that is still empty has no
    section, so no family is probed until all k blocks are open; from then
    on each family with no section yet is probed for one through the point
    just placed, and a subtree in which every family has one is skipped.
    A family holding all C(n, k) k-sets is never probed.

    Returns the first leaf some family misses, the index of the first such
    family, and the profile: the nodes met per level that some family has
    no section of, the root's level first.  With no such leaf, it returns
    None, None and the profile up to its first empty level.  More than
    FRONTIER_CAP nodes at one level raises CapExceeded at once, with
    `.partial` FRONTIER_CAP + 1 and `.profile` the profile so far.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    blocks = ((),) * k if seed is None else seed.blocks
    if len(blocks) != k:
        raise ValueError(f"seed must have exactly k={k} blocks")
    placed = {p for b in blocks for p in b}
    if max(placed, default=0) > n:
        raise ValueError("seed places a point outside the domain")
    # Each block as a list of one-bit masks, changed in place as points are
    # placed and taken back.
    bits = [[1 << (p - 1) for p in b] for b in blocks]
    families = [frozenset(f) for f in families]
    live = [
        masks for masks in families
        if len(masks) < math.comb(n, k) and not _has_section(masks, bits)
    ]
    # A search for one family skips building lists of families.
    lone = len(live) == 1
    if seed is not None and lone:
        free = placement_order(n, live[0], seed)
    else:
        free = [p for p in range(1, n + 1) if p not in placed]
    rest = [1 << (p - 1) for p in free]
    last = len(rest)
    profile = [0] * (last + 1)
    cap = FRONTIER_CAP

    def overflow(depth: int) -> CapExceeded:
        err = CapExceeded("partition search frontier cap exceeded", profile[depth])
        err.profile = profile[:depth + 1]  # type: ignore[attr-defined]
        return err

    def search(depth: int, opened: int, live: list[frozenset[int]]) -> list[frozenset[int]] | None:
        # No family in `live` has a section of the node.  Returns those
        # that miss the first leaf below, which is left in `bits`, or None.
        profile[depth] += 1
        if profile[depth] > cap:
            raise overflow(depth)
        if depth == last:
            return live
        x = rest[depth]
        # With all k blocks open every block is allowed; a seeded search
        # stays there, so it skips building the range.
        if opened == k:
            choices = enumerate(bits)
        else:
            allowed = _next_blocks(last - depth, opened, k)
            choices = zip(allowed, bits[allowed.start:allowed.stop])
        for v, block in choices:
            if opened < k and v < k - 1:
                # A block is still empty, so no family has a section.
                left = live
            else:
                # The parent has no section, so the child has one iff some
                # member through x meets every other block.
                bits[v] = [x]
                if lone:
                    left = () if _has_section(live[0], bits) else live
                else:
                    left = [masks for masks in live if not _has_section(masks, bits)]
                bits[v] = block
                if not left:
                    continue
            block.append(x)
            found = search(depth + 1, opened + (v == opened), left)
            if found:
                return found
            block.pop()
        return None

    found = search(0, 0 if seed is None else k, live) if live else None
    if found is None:
        return None, None, [count for count in profile if count] + [0]
    partition = SetPartition.of([b.bit_length() for b in block] for block in bits)
    return partition, next(i for i, f in enumerate(families) if f is found[0]), profile


def placement_order(n: int, family: Collection[int], seed: SubPartition) -> list[int]:
    """The points of {1..n} outside the seed, most constrained first.

    This is the order in which a seeded `first_unsectioned` search with one
    live family places its points.  A point x ranks by the number of seed
    blocks v for which the search's cut test fires at the root: some member
    of the family through x, with x alone in block v, meets every other
    block.  Most blocks first; ties go by label.  For a seed of singletons
    each test is one lookup, the seed with its v-th point swapped for x.
    """
    masks = frozenset(family)
    bits = [[1 << (p - 1) for p in b] for b in seed.blocks]
    placed = {p for b in seed.blocks for p in b}

    if all(len(block) == 1 for block in bits):
        swaps = [sum(b[0] for b in bits) ^ block[0] for block in bits]

        def fires(x: int) -> int:
            return sum((s | x) in masks for s in swaps)
    else:
        def fires(x: int) -> int:
            count = 0
            for v, block in enumerate(bits):
                bits[v] = [x]
                count += _has_section(masks, bits)
                bits[v] = block
            return count

    free = [p for p in range(1, n + 1) if p not in placed]
    return sorted(free, key=lambda p: -fires(1 << (p - 1)))


def _has_section(masks: frozenset[int], bits: list[list[int]]) -> bool:
    """Does some mask meet every block?  Blocks are lists of one-bit masks.

    A k-set that meets k disjoint blocks meets each exactly once.  Cheaper
    side first: when the prod |B_i| candidate sections are no more than the
    masks they are looked up, else the masks are scanned with
    `section_test`.
    """
    if math.prod(map(len, bits)) <= len(masks):
        return not masks.isdisjoint(map(sum, itertools.product(*bits)))
    return any(map(section_test(map(sum, bits)), masks))


def section_test(block_masks: Iterable[int]) -> Callable[[int], int | bool]:
    """The test "does a mask meet every one of these disjoint blocks?".

    A k-set that meets k disjoint blocks meets each exactly once, so for a
    k-set the test is "is it a section?".  The blocks are tried smallest
    first, since the smallest block turns most masks away; a mask that
    misses it gets 0, any other mask a bool.
    """
    first, *rest = sorted(block_masks, key=int.bit_count)
    return lambda m: m & first and all(map(m.__and__, rest))


def singleton_tail_partition(heads: Sequence[int], n: int) -> SetPartition:
    """Partition with each head a singleton block plus one block of the rest.

    With k-1 heads this is the k-block partition of shape (1,...,1,n-k+1).
    """
    hs = sorted(set(heads))
    if len(hs) != len(tuple(heads)):
        raise ValueError("heads must be distinct")
    if not hs:
        raise ValueError("need at least one head")
    if hs[0] < 1 or hs[-1] > n:
        raise ValueError("heads must lie in {1..n}")
    if len(hs) >= n:
        raise ValueError("need fewer heads than points")
    tail = tuple(p for p in range(1, n + 1) if p not in set(hs))
    return SetPartition.of([(h,) for h in hs] + [tail])
