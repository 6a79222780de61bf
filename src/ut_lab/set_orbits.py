"""Orbits of k-subsets under a group; k- and (i,j)-homogeneity deciders.

A k-set is a bitmask inside this module (bit p-1 set iff point p is in the
set) and a sorted tuple of 1-based points at the API boundary.  An orbit
holds its member masks, its size and its representative; `kset_of_mask`
turns a mask back into its point tuple.

There is one enumeration of the k-set orbits per group and k: k-sets in
lexicographic order, each unseen one starting the next orbit, so orbit
representatives are the lexicographically least members and results do not
depend on generator order.  It runs only as far as a question needs and
keeps its place (`_orbits_in_order`): `is_k_homogeneous` reads its first
orbit, `is_ij_homogeneous` goes on up to the first failing orbit, and
`orbits_on_ksets` finishes it and caches the complete tuple.  So no orbit is
walked twice, whichever question comes first.  Before any orbit is walked,
`is_k_homogeneous` asks the stabilizer chain: a k-transitive group is
k-homogeneous.

Generators act on masks through lookup tables built once per group (see
`_generator_tables`).  `_orbit_masks` takes an optional stop predicate on
masks and ends its BFS at the first member that satisfies it; the
regularity test passes the section test of a kernel there.
"""
from __future__ import annotations

import itertools
import math
import threading
import weakref
from dataclasses import dataclass
from operator import getitem
from typing import Callable, Iterable, Iterator

from .errors import CapExceeded
from .perm_core import Images, PermGroup, transitivity_degree

# The k-sets one orbit question may walk: a single orbit's BFS, or the
# orbits an enumeration has found so far.  Read at call time.
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
# built fresh, best of 5, with the catalog's two generators per group
# (k = 3 unless said): 0.84-0.88 on Sp(6,2) at degrees 28 and 36 and on
# PGammaL(2,32), 0.81-0.83 on AGL(1,47), 0.97-1.12 on AGL(1,47) at k = 4,
# 0.90-1.02 on AGL(1,53) to AGL(1,61), and 0.93-1.01 on the two degree-64
# groups; earlier, 1.6 on the Higman-Sims 3-set orbit at 176.  Each
# generator adds one table per byte: with 5-8 generators byte tables were
# 1.10-1.20 slower on Sp(6,2) and at degree 64.  At degree 64 the two
# tables are now even within the noise of these timings, and no paired run
# backs moving the bound, so it stays.
BYTE_TABLE_MAX_DEGREE = 61

_GEN_TABLES: "weakref.WeakKeyDictionary[PermGroup, tuple[int, tuple]]"
_GEN_TABLES = weakref.WeakKeyDictionary()


def _byte_tables(images: Images, n: int) -> tuple[tuple[int, ...], ...]:
    """For each byte c of a mask: byte value -> image mask of its points.

    A byte's table doubles once per point: the values with the point's bit
    set are the values without it, plus the point's image bit.
    """
    tables = []
    for c in range(0, n, 8):
        table = [0]
        for x in images[c:c + 8]:
            bit = 1 << (x - 1)
            table += [v | bit for v in table]
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
    G: PermGroup, start_mask: int, cap: int, stop: Callable[[int], object] | None = None
) -> dict[int, int | None]:
    """BFS orbit of a set-mask; maps each member to the member it was first
    reached from, and the start mask to None.

    With `stop`, a predicate on masks, the BFS ends at the first member,
    the start included, for which it is true: that member is the last key
    of the partial map returned.  Raises CapExceeded past `cap` members.
    """
    nbytes, tables = _generator_tables(G)
    parents: dict[int, int | None] = {start_mask: None}
    # A full walk tests one local flag per new member.
    stopping = stop is not None
    if stopping and stop(start_mask):
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
                    if stopping and stop(im):
                        return parents
                    fresh.append(im)
            if len(parents) > cap:
                raise CapExceeded("k-set orbit cap exceeded", len(parents))
        frontier = fresh
    return parents


def orbit_of_set(G: PermGroup, S: Iterable[int]) -> KSetOrbit:
    """The orbit of the set S under G, by its own BFS (the cache is not read).

    Raises CapExceeded past DEFAULT_ORBIT_CAP members.
    """
    pts = as_kset(S, G.degree)
    masks = frozenset(_orbit_masks(G, mask_of(pts), DEFAULT_ORBIT_CAP))
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


class _Enumeration:
    """The lexicographic enumeration of one group's k-set orbits, paused.

    `orbits` are the orbits found so far, in representative order, and
    `seen` is the union of their members.  `combos` yields the k-sets not
    yet visited, as tuples of bits, and `pending` is the k-set whose orbit
    BFS DEFAULT_ORBIT_CAP cut short, to be walked first on resumption.
    `remaining` counts the k-sets in no orbit found yet.  Orbits are walked
    under `lock`, since a group may be shared between threads.  Nothing
    here refers to the group: a weak-keyed entry that held its key would
    keep it alive.
    """

    __slots__ = ("orbits", "seen", "combos", "pending", "remaining", "lock")

    def __init__(self, n: int, k: int):
        self.orbits: list[KSetOrbit] = []
        self.seen: set[int] = set()
        self.combos = itertools.combinations([1 << p for p in range(n)], k)
        self.pending: int | None = None
        self.remaining = math.comb(n, k)
        self.lock = threading.Lock()

    def orbit(self, i: int, G: PermGroup) -> KSetOrbit | None:
        """The i-th orbit, walking the next one when it is not found yet;
        None past the last.  Raises CapExceeded once more than
        DEFAULT_ORBIT_CAP k-sets have been seen, and can then be resumed."""
        with self.lock:
            if i == len(self.orbits) and self.remaining:
                m = self.pending
                if m is None:
                    seen = self.seen
                    m = self.pending = next(c for c in map(sum, self.combos) if c not in seen)
                masks = frozenset(_orbit_masks(G, m, DEFAULT_ORBIT_CAP - len(self.seen)))
                self.pending = None
                self.seen |= masks
                self.orbits.append(KSetOrbit(kset_of_mask(m), len(masks), masks))
                self.remaining -= len(masks)
        return self.orbits[i] if i < len(self.orbits) else None


# Enumerations under way, per group and k; a finished one moves its orbits
# to _ORBIT_CACHE, so that only ever holds complete tuples.
_ENUMERATIONS: "weakref.WeakKeyDictionary[PermGroup, dict[int, _Enumeration]]"
_ENUMERATIONS = weakref.WeakKeyDictionary()


def _orbits_in_order(G: PermGroup, k: int) -> Iterator[KSetOrbit]:
    """The k-set orbits in representative order, each walked when first asked.

    Reads the cached tuple when there is one, and otherwise the group's
    enumeration for k, which it resumes past the orbits already found.  The
    enumeration is kept between calls, so a caller that stops early loses
    nothing; the call that finds the last orbit caches them all.  Raises
    CapExceeded once more than DEFAULT_ORBIT_CAP k-sets have been seen.
    """
    done = _ORBIT_CACHE.get(G, {}).get(k)
    if done is not None:
        yield from done
        return
    runs = _ENUMERATIONS.setdefault(G, {})
    run = runs.get(k) or runs.setdefault(k, _Enumeration(G.degree, k))
    i = 0
    while (orbit := run.orbit(i, G)) is not None:
        if not run.remaining and runs.get(k) is run:
            _ORBIT_CACHE.setdefault(G, {}).setdefault(k, tuple(run.orbits))
            runs.pop(k, None)
        yield orbit
        i += 1


def orbits_on_ksets(G: PermGroup, k: int) -> tuple[KSetOrbit, ...]:
    """All orbits of k-sets, ordered by lex-least representative.

    Orbit sizes sum to C(n, k).  Results are memoized per group.  Raises
    CapExceeded once more than DEFAULT_ORBIT_CAP k-sets have been walked;
    a later call resumes where that one stopped.
    """
    if not 1 <= k <= G.degree:
        raise ValueError(f"need 1 <= k <= degree, got k={k}")
    cache = _ORBIT_CACHE.setdefault(G, {})
    if k not in cache:
        for _ in _orbits_in_order(G, k):
            pass
    return cache[k]


# ---------------------------------------------------------------------------
# Homogeneity


def is_k_homogeneous(G: PermGroup, k: int) -> bool:
    """True iff G is transitive on k-subsets.

    For k > n/2 this is decided on the complements, which form a single orbit
    iff the k-sets do.  A k-transitive group is k-homogeneous, which the
    stabilizer chain tells; otherwise the answer is whether the first orbit
    of the enumeration, the orbit of {1..k}, holds every k-set.
    """
    n = G.degree
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= degree, got k={k}")
    kk = min(k, n - k)
    if kk == 0 or transitivity_degree(G) >= kk:
        return True
    return next(_orbits_in_order(G, kk)).size == math.comb(n, kk)


def is_ij_homogeneous(
    G: PermGroup, i: int, j: int
) -> tuple[bool, tuple[KSet, KSet] | None]:
    """Decide (i,j)-homogeneity: every i-set maps into every j-set.

    Equivalent, by orbit invariance, to: every orbit of i-sets contains a
    subset of every j-set orbit representative.  On failure returns a witness
    pair (representative of the first missing i-orbit, representative of the
    first j-orbit that misses it), orbits taken in representative order.  An
    i-homogeneous group maps any i-set onto an i-subset of any j-set, so no
    j-set orbit is walked for it.  i-homogeneity is read off the chain (an
    m-transitive group with m >= min(i, n - i)) or off the i-set orbits,
    which the test needs anyway, never off the complements.  Otherwise the
    j-set orbits are read from the group's enumeration one at a time, so a
    failure leaves the rest unwalked.  With i = n-k and j = n-k+1 this
    answers whether every rank-k quasi-permutation (a map whose kernel has
    one class of more than one point) is regular in <a, G>: the complement
    of its image must map into that class.
    """
    n = G.degree
    if not 1 <= i <= j <= n:
        raise ValueError(f"need 1 <= i <= j <= n, got i={i}, j={j}, n={n}")
    if transitivity_degree(G) >= min(i, n - i):
        return True, None
    i_orbits = orbits_on_ksets(G, i)
    if len(i_orbits) == 1:
        return True, None
    for j_orbit in _orbits_in_order(G, j):
        rep = j_orbit.representative
        subsets = {mask_of(sub) for sub in itertools.combinations(rep, i)}
        for i_orbit in i_orbits:
            if i_orbit.masks.isdisjoint(subsets):
                return False, (i_orbit.representative, rep)
    return True, None
