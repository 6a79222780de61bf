"""Orbits of k-subsets under a group; k- and (i,j)-homogeneity deciders.

A k-set is a bitmask inside this module (bit p-1 set iff point p is in the
set) and a sorted tuple of 1-based points at the API boundary.  An orbit
holds its member masks, its size and its representative; the member tuples
are made only on request.  `_find_orbits` is the one enumerator of all k-set
orbits of a group.  `orbits_on_ksets` caches its result per group, and
`is_ij_homogeneous` reads the cached orbits or, when there are none, takes
them from the enumerator one at a time.  Orbit representatives are
the lexicographically least members, so results do not depend on generator
order.

Generators act on masks through lookup tables built once per group (see
`_generator_tables`).  Every section test here uses one rule: a k-set is a
section of k disjoint blocks iff it meets every block.  `find_section` asks
it of a whole orbit for the extension search, and `_orbit_masks` asks it of
each new member when the regularity test wants its BFS to stop at the
first section.
"""
from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from operator import getitem
from typing import Collection, Iterable, Iterator, Sequence

from .errors import CapExceeded
from .perm_core import Images, PermGroup

DEFAULT_ORBIT_CAP = 10**7

KSet = tuple[int, ...]


def as_kset(points: Iterable[int], n: int | None = None) -> KSet:
    """Validate and canonicalize a set of points into a sorted tuple."""
    pts = tuple(sorted(points))
    if not pts:
        raise ValueError("a k-set must be nonempty")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points in k-set")
    if pts[0] < 1:
        raise ValueError("points are 1-based")
    if n is not None and pts[-1] > n:
        raise ValueError(f"point {pts[-1]} exceeds degree {n}")
    return pts


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << (p - 1)
    return m


def kset_of_mask(mask: int) -> KSet:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def _lex_least(masks: Iterable[int]) -> int:
    """The mask whose sorted point tuple is least, among sets of one size.

    Of two such sets, the lexicographically smaller one holds the least
    point of their symmetric difference.
    """
    it = iter(masks)
    best = next(it)
    for m in it:
        diff = m ^ best
        if m & diff & -diff:
            best = m
    return best


@dataclass(frozen=True)
class KSetOrbit:
    """One orbit of k-sets: lex-least representative, size, and member masks."""

    representative: KSet
    size: int
    masks: frozenset[int]

    @property
    def k(self) -> int:
        return len(self.representative)

    @property
    def members(self) -> frozenset[KSet]:
        """The members as sorted point tuples, rebuilt on every access."""
        return frozenset(kset_of_mask(m) for m in self.masks)

    def __contains__(self, item: Iterable[int]) -> bool:
        pts = tuple(item)
        return len(pts) == self.k and min(pts) >= 1 and mask_of(pts) in self.masks

    def __repr__(self) -> str:
        return f"<KSetOrbit rep={self.representative} size={self.size}>"


# ---------------------------------------------------------------------------
# Generator tables and orbit BFS

# Above this degree a k-set sets few of a mask's many bytes, and a generator
# acts as fast point by point as byte by byte, with far smaller tables.
# Time for all k-set orbits, byte tables over point tables, group and tables
# built fresh, best of 5: 0.77-0.86 on AGL(1,47) (k = 3, 4), 0.84-0.94 on
# AGL(1,53), 0.94-1.06 on AGL(1,59) and AGL(1,61), 1.09-1.41 on the two
# degree-64 groups (k = 3), and 1.6 on the Higman-Sims 3-set orbit at 176.
# The degree alone does not settle it: each generator adds one table per
# byte, and on Sp(6,2), 8 generators, byte tables were 1.10-1.19 slower at
# degrees 28 and 36 (k = 3).
BYTE_TABLE_MAX_DEGREE = 61

_GEN_TABLES: "weakref.WeakKeyDictionary[PermGroup, tuple[int, tuple]]"
_GEN_TABLES = weakref.WeakKeyDictionary()


def _byte_tables(images: Images, n: int) -> tuple[tuple[int, ...], ...]:
    """For each byte c of a mask: byte value -> image mask of its points."""
    tables = []
    for c in range(0, n, 8):
        table = [0] * (1 << min(8, n - c))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] | 1 << (images[c + low.bit_length() - 1] - 1)
        tables.append(tuple(table))
    return tuple(tables)


def _generator_tables(G: PermGroup) -> tuple[int, tuple]:
    """(bytes per mask, one table per generator), built once per group.

    The image of a mask m under a generator is sum(map(getitem, table,
    keys)), the keys being m's bytes (m.to_bytes(nbytes, "little")) up to
    BYTE_TABLE_MAX_DEGREE and its points (kset_of_mask(m), nbytes = 0)
    above.  A byte table holds one lookup table per byte of the mask; a
    point table repeats one tuple, indexed by point, of image bits.  A
    permutation maps disjoint point sets to disjoint images, so the sum of
    the parts' images is the image of their union.
    """
    entry = _GEN_TABLES.get(G)
    if entry is None:
        n = G.degree
        if n <= BYTE_TABLE_MAX_DEGREE:
            tables = tuple(_byte_tables(g, n) for g in G.gen_images())
            entry = ((n + 7) // 8, tables)
        else:
            tables = tuple(
                itertools.repeat((0,) + tuple(1 << (x - 1) for x in g))
                for g in G.gen_images()
            )
            entry = (0, tables)
        _GEN_TABLES[G] = entry
    return entry


def _orbit_masks(
    G: PermGroup, start_mask: int, cap: int, section_of: Sequence[int] | None = None
) -> dict[int, int | None]:
    """BFS orbit of a set-mask; maps each member to the member it was first
    reached from, and the start mask to None.

    With `section_of`, the masks of disjoint blocks, the BFS stops at the
    first member, the start included, that meets every block: that member
    is the last key of the partial map returned.  Raises CapExceeded past
    `cap` members.
    """
    nbytes, tables = _generator_tables(G)
    parents: dict[int, int | None] = {start_mask: None}
    # The full BFS tests only the `stop` flag per new member; the section
    # test filters on the smallest block first.
    stop = bool(section_of)
    if stop:
        first, *rest = sorted(section_of, key=int.bit_count)
        if start_mask & first and all(map(start_mask.__and__, rest)):
            return parents
    frontier = [start_mask]
    while frontier:
        fresh = []
        for m in frontier:
            keys = m.to_bytes(nbytes, "little") if nbytes else kset_of_mask(m)
            for table in tables:
                im = sum(map(getitem, table, keys))
                if im not in parents:
                    parents[im] = m
                    if stop and im & first and all(map(im.__and__, rest)):
                        return parents
                    fresh.append(im)
            if len(parents) > cap:
                raise CapExceeded("k-set orbit cap exceeded", len(parents))
        frontier = fresh
    return parents


def orbit_of_set(
    G: PermGroup, S: Iterable[int], cap: int = DEFAULT_ORBIT_CAP
) -> KSetOrbit:
    """The orbit of the set S under G, by its own BFS (the cache is not read)."""
    pts = as_kset(S, G.degree)
    masks = frozenset(_orbit_masks(G, mask_of(pts), cap))
    return KSetOrbit(kset_of_mask(_lex_least(masks)), len(masks), masks)


def trace_orbit_word(
    G: PermGroup, parents: dict[int, int | None], target_mask: int
) -> Images:
    """Recover a group element sending the BFS start set to `target_mask`.

    Each BFS step used the first generator that maps the parent to the
    child, so that generator is found again by trying them in order.
    """
    nbytes, tables = _generator_tables(G)
    word: list[int] = []
    m = target_mask
    while (parent := parents[m]) is not None:
        keys = parent.to_bytes(nbytes, "little") if nbytes else kset_of_mask(parent)
        word.append(next(gi for gi, table in enumerate(tables)
                         if sum(map(getitem, table, keys)) == m))
        m = parent
    gens = G.gen_images()
    images = tuple(range(1, G.degree + 1))
    for gi in reversed(word):
        g = gens[gi]
        images = tuple(g[x - 1] for x in images)
    return images


# ---------------------------------------------------------------------------
# The orbit index

_ORBIT_CACHE: "weakref.WeakKeyDictionary[PermGroup, dict[int, tuple[KSetOrbit, ...]]]"
_ORBIT_CACHE = weakref.WeakKeyDictionary()


def orbits_on_ksets(
    G: PermGroup, k: int, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[KSetOrbit, ...]:
    """All orbits of k-sets, ordered by lex-least representative.

    Orbit sizes sum to C(n, k).  Results are memoized per group.
    """
    if not 1 <= k <= G.degree:
        raise ValueError(f"need 1 <= k <= degree, got k={k}")
    cache = _ORBIT_CACHE.setdefault(G, {})
    if k not in cache:
        for _ in _find_orbits(G, k, cap):
            pass
    return cache[k]


def _find_orbits(G: PermGroup, k: int, cap: int) -> Iterator[KSetOrbit]:
    """Yield the orbits of k-sets as they are found; cache them all at the end.

    k-sets are visited in lexicographic order and each unseen one starts the
    next orbit, so it is that orbit's least member and the orbits come out
    sorted.  A caller that stops early caches nothing.  Raises CapExceeded
    once more than `cap` k-sets have been seen.
    """
    n = G.degree
    remaining = math.comb(n, k)
    seen: set[int] = set()
    orbits: list[KSetOrbit] = []
    for combo in itertools.combinations([1 << p for p in range(n)], k):
        m = sum(combo)
        if m in seen:
            continue
        masks = frozenset(_orbit_masks(G, m, cap - len(seen)))
        seen |= masks
        orbit = KSetOrbit(kset_of_mask(m), len(masks), masks)
        orbits.append(orbit)
        yield orbit
        remaining -= len(masks)
        if not remaining:
            break
    _ORBIT_CACHE.setdefault(G, {})[k] = tuple(orbits)


def find_section(masks: Collection[int], blocks: Sequence[Sequence[int]]) -> int | None:
    """The first member of a k-set orbit that is a section of the blocks.

    `masks` is the set of the orbit's member masks and `blocks` are
    disjoint point sets.  A k-set that meets k disjoint blocks meets each
    exactly once, so a member is a section iff it meets every block.
    Cheaper side first: when the
    prod |B_i| candidate sections are no more than the orbit's members, they
    are looked up in product order; otherwise the orbit is scanned,
    filtering on the smallest block.
    """
    if math.prod(map(len, blocks)) <= len(masks):
        bits = [[1 << (p - 1) for p in b] for b in blocks]
        candidates = map(sum, itertools.product(*bits))
        return next(filter(masks.__contains__, candidates), None)
    first, *rest = sorted(map(mask_of, blocks), key=int.bit_count)
    for m in filter(first.__and__, masks):
        if all(map(m.__and__, rest)):
            return m
    return None


# ---------------------------------------------------------------------------
# Homogeneity


def is_k_homogeneous(G: PermGroup, k: int, cap: int = DEFAULT_ORBIT_CAP) -> bool:
    """True iff G is transitive on k-subsets.

    For k > n/2 this is decided on the complements, which form a single orbit
    iff the k-sets do.
    """
    n = G.degree
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= degree, got k={k}")
    kk = min(k, n - k)
    if kk == 0:
        return True
    return len(_orbit_masks(G, (1 << kk) - 1, cap)) == math.comb(n, kk)


def is_ij_homogeneous(
    G: PermGroup, i: int, j: int, cap: int = DEFAULT_ORBIT_CAP
) -> tuple[bool, tuple[KSet, KSet] | None]:
    """Decide (i,j)-homogeneity: every i-set maps into every j-set.

    Equivalent, by orbit invariance, to: every orbit of i-sets contains a
    subset of every j-set orbit representative.  On failure returns a witness
    pair (representative of the first missing i-orbit, representative of the
    first j-orbit that misses it), orbits taken in representative order.  The
    j-set orbits are found one at a time, so a failure returns without
    enumerating the rest.
    """
    n = G.degree
    if not 1 <= i <= j <= n:
        raise ValueError(f"need 1 <= i <= j <= n, got i={i}, j={j}, n={n}")
    i_orbits = orbits_on_ksets(G, i, cap)
    j_orbits = _ORBIT_CACHE.get(G, {}).get(j) or _find_orbits(G, j, cap)
    for j_orbit in j_orbits:
        rep = j_orbit.representative
        subsets = {mask_of(sub) for sub in itertools.combinations(rep, i)}
        for i_orbit in i_orbits:
            if i_orbit.masks.isdisjoint(subsets):
                return False, (i_orbit.representative, rep)
    return True, None


def order_bound_pass(G: PermGroup, k: int) -> bool:
    """The necessary order bound |G| * k >= C(n, k), in exact integers."""
    if not 1 <= k <= G.degree:
        raise ValueError(f"need 1 <= k <= degree, got k={k}")
    return G.order * k >= math.comb(G.degree, k)
