"""Set partitions of {1..n}, canonical forms, enumeration, and sections.

A partition is canonical when every block is sorted ascending and blocks are
ordered by their least element; two partitions are equal iff their canonical
forms are equal.  Enumeration follows restricted-growth-string order, so the
stream itself is canonical and deterministic.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator, Sequence


Block = tuple[int, ...]


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

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_containing(self, point: int) -> Block:
        for b in self.blocks:
            if point in b:
                return b
        raise KeyError(point)

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

    @property
    def support(self) -> frozenset[int]:
        return frozenset(p for b in self.blocks for p in b)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "|".join(",".join(map(str, b)) for b in self.blocks)


def stirling2(n: int, k: int) -> int:
    """Number of partitions of an n-set into exactly k nonempty blocks."""
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    total = 0
    for i in range(k + 1):
        total += (-1) ** i * math.comb(k, i) * (k - i) ** n
    return total // math.factorial(k)


def _rgs_stream(n: int, k: int) -> Iterator[list[int]]:
    # Restricted growth strings a[0..n-1] with a[0] = 0, a[i] <= max(a[:i]) + 1,
    # using exactly k distinct values, in lexicographic order.  The yielded
    # list is reused between iterations; callers must not hold on to it.
    if k < 1 or k > n:
        return
    a = [0] * n
    mx = [0] * n  # mx[i] = max(a[:i+1])
    # Lexicographically first string: zeros, then the forced ramp 1..k-1.
    for j in range(k - 1):
        a[n - (k - 1) + j] = j + 1
    for i in range(1, n):
        mx[i] = max(mx[i - 1], a[i])
    while True:
        yield a
        # Find the rightmost position that can be incremented and still
        # leave room to reach k values.
        i = n - 1
        while i >= 1:
            v = a[i] + 1
            if v <= mx[i - 1] + 1 and v <= k - 1:
                new_mx = max(mx[i - 1], v)
                if (k - 1 - new_mx) <= (n - 1 - i):
                    break
            i -= 1
        if i == 0:
            return
        a[i] = v
        mx[i] = max(mx[i - 1], v)
        # Minimal feasible suffix: zeros, then the forced ramp up to k-1.
        hi = mx[i]
        ramp = k - 1 - hi  # new values still needed
        for j in range(i + 1, n - ramp):
            a[j] = 0
            mx[j] = mx[j - 1]
        for t, j in enumerate(range(n - ramp, n)):
            a[j] = hi + 1 + t
            mx[j] = a[j]


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
    n: int, k: int, families: Sequence[Collection[int]]
) -> tuple[SetPartition, int] | None:
    """The first k-partition of {1..n}, in RGS order, that some family does
    not section, and the index of the first such family; None if every
    family has a section of every k-partition.

    A family is any collection of k-set masks (bit p-1 set iff point p is in
    the set), such as the members of one k-set orbit.  A k-set meets k
    disjoint blocks iff it is a section of them, and whether it meets every
    block of a partition is settled once its highest point is placed.  So
    the search places points 1..n depth-first in restricted-growth order,
    and once all k blocks are open it tests, for each family not yet
    sectioned on the current path, only the members whose highest point was
    just placed.  A subtree in which every family already has a section is
    skipped, and a family holding all C(n, k) k-sets, which sections every
    partition, is never tested.  Leaves come in the order of
    `enumerate_kpartitions`, so the answer is that of scanning every
    partition against every family.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    all_ksets = math.comb(n, k)
    tested = 0  # bit i set iff family i is tested
    # by_top[p]: (family index, its members whose highest point is p)
    by_top: list[list[tuple[int, set[int]]]] = [[] for _ in range(n + 1)]
    for i, family in enumerate(families):
        groups: dict[int, set[int]] = {}
        for m in family:
            groups.setdefault(m.bit_length(), set()).add(m)
        if sum(map(len, groups.values())) == all_ksets:
            continue
        tested |= 1 << i
        for top, members in groups.items():
            by_top[top].append((i, members))
    masks = [0] * k  # block j as a mask

    def place(p: int, opened: int, unsectioned: int) -> int | None:
        # Points 1..p-1 are placed in `opened` blocks; try point p in each
        # block, existing ones only while the remaining points can still
        # open the blocks that are missing.  Returns the unsectioned
        # families of the first failing leaf below, or None.
        bit = 1 << (p - 1)
        first = 0 if n - p >= k - opened else opened
        for v in range(first, min(opened, k - 1) + 1):
            masks[v] |= bit
            now_open = opened + (v == opened)
            left = unsectioned
            if now_open == k:
                for i, members in by_top[p]:
                    if left >> i & 1:
                        for m in members:
                            if all(map(m.__and__, masks)):
                                left ^= 1 << i
                                break
            if left:
                found = left if p == n else place(p + 1, now_open, left)
                if found is not None:
                    return found
            masks[v] ^= bit
        return None

    left = place(1, 0, tested) if tested else None
    if left is None:
        return None
    partition = SetPartition(tuple(
        tuple(p for p in range(1, n + 1) if mask >> (p - 1) & 1) for mask in masks
    ))
    return partition, (left & -left).bit_length() - 1


def is_section(points: Iterable[int], partition: SetPartition | SubPartition) -> bool:
    """True iff the set meets every block of the partition exactly once."""
    pts = set(points)
    if len(pts) != len(partition.blocks):
        return False
    for b in partition.blocks:
        hits = sum(1 for p in b if p in pts)
        if hits != 1:
            return False
    return True


def sections(partition: SetPartition | SubPartition) -> Iterator[tuple[int, ...]]:
    """All sections of the partition (one point per block), lazily."""
    return itertools.product(*partition.blocks)


def section_count(partition: SetPartition | SubPartition) -> int:
    return math.prod(len(b) for b in partition.blocks)


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


def steiner_bad_partition(
    block: Iterable[int], inside: Iterable[int], n: int, k: int
) -> SetPartition:
    """The k-block partition witnessing the Steiner-system obstruction.

    Given a design block and k-2 chosen points inside it, the blocks are the
    k-2 singletons, the rest of the design block, and everything else.  No
    k-set contained in a design block can be a section of this partition.
    """
    blk = set(block)
    ins = sorted(set(inside))
    if len(ins) != k - 2:
        raise ValueError(f"need exactly k-2={k - 2} inside points, got {len(ins)}")
    if not set(ins) <= blk:
        raise ValueError("inside points must lie in the block")
    if not blk <= set(range(1, n + 1)):
        raise ValueError("block must lie in {1..n}")
    if len(blk) >= n:
        raise ValueError("block must be proper")
    middle = tuple(sorted(blk - set(ins)))
    if not middle:
        raise ValueError("block minus inside points must be nonempty")
    rest = tuple(p for p in range(1, n + 1) if p not in blk)
    return SetPartition.of([(h,) for h in ins] + [middle, rest])


def relabel(partition: SetPartition, images: Sequence[int]) -> SetPartition:
    """Apply a relabelling (p -> images[p-1]) to every point of the partition."""
    return SetPartition.of([[images[p - 1] for p in b] for b in partition.blocks])
