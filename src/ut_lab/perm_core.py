"""Permutations, permutation groups from generators, and structure tests.

Points are 1-based: a permutation of degree n acts on {1..n}.  Composition is
left to right, so (p * q) sends i to q(p(i)), and orbit code applies
generators on the right throughout.

Group order and membership use a stabilizer chain built by incremental
deterministic Schreier-Sims.  Each new level's base point is the smallest
point its first generator moves, and nothing is random, so recomputation
always yields the same base, the same basic orbits and the same order.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DegreeMismatch, NotTransitiveError
from .partitions import SetPartition

MAX_DEGREE = 512

Images = tuple[int, ...]


def _identity_images(n: int) -> Images:
    return tuple(range(1, n + 1))


def _mult(p: Images, q: Images) -> Images:
    # left-to-right: result(i) = q(p(i))
    return tuple(q[x - 1] for x in p)


def _inv(p: Images) -> Images:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


@dataclass(frozen=True)
class Permutation:
    """A bijection of {1..n} stored as the tuple of images of 1, ..., n."""

    images: Images

    def __post_init__(self):
        n = len(self.images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if n > MAX_DEGREE:
            raise ValueError(f"degree {n} exceeds the supported cap {MAX_DEGREE}")
        if set(self.images) != set(range(1, n + 1)):
            raise ValueError("images must be a bijection of {1..n}")
        object.__setattr__(self, "images", tuple(self.images))

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(_identity_images(n))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
        images = list(_identity_images(n))
        for cyc in cycles:
            pts = list(cyc)
            for a, b in zip(pts, pts[1:] + pts[:1]):
                if not 1 <= a <= n:
                    raise ValueError(f"point {a} outside 1..{n}")
                images[a - 1] = b
        return cls(tuple(images))

    @classmethod
    def parse(cls, text: str, degree: int | None = None) -> "Permutation":
        """Parse cycle notation like "(1,2,3)(4,5)"; "()" is the identity."""
        stripped = text.replace(" ", "")
        if not re.fullmatch(r"(\((\d+(,\d+)*)?\))+", stripped):
            raise ValueError(f"cannot parse permutation {text!r}")
        cycles = [
            [int(x) for x in body.split(",")] if body else []
            for body in re.findall(r"\(([\d,]*)\)", stripped)
        ]
        n = max((max(c) for c in cycles if c), default=1)
        if degree is not None:
            if n > degree:
                raise ValueError(f"cycle point exceeds degree {degree}")
            n = degree
        return cls.from_cycles(n, [c for c in cycles if c])

    def apply(self, point: int) -> int:
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        return Permutation(_inv(self.images))

    def cycle_string(self) -> str:
        seen: set[int] = set()
        out = []
        for i in range(1, self.degree + 1):
            if i in seen or self.images[i - 1] == i:
                continue
            cyc = [i]
            j = self.images[i - 1]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j - 1]
            out.append("(" + ",".join(map(str, cyc)) + ")")
        return "".join(out) if out else "()"

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Left-to-right product: the result maps i to q(p(i))."""
    if p.degree != q.degree:
        raise DegreeMismatch(f"degrees differ: {p.degree} vs {q.degree}")
    return Permutation(_mult(p.images, q.images))


def invert(p: Permutation) -> Permutation:
    return p.inverse()


# ---------------------------------------------------------------------------
# Deterministic Schreier-Sims stabilizer chain
#
# Inside the chain points are 0-based and a permutation is the tuple of its
# images, so the left-to-right product p * q is itemgetter(*p)(q), one C-level
# pass, and the identity test is a tuple comparison.  (itemgetter of a single
# index returns an item, not a tuple; a chain has levels only from degree 2.)


class _Level:
    """One level: a base point, the strong generators fixing every shallower
    base point, and the basic orbit with the inverses of its transversal.

    The orbit only grows, in discovery order, and a transversal element once
    set never changes.  Three fields serve only the build and are dropped
    when the chain is complete: `transversal` (u_p sends the base point to
    p), `gen_inverses` (as itemgetters), and `edge`, the point and generator
    index that first reached each point, whose Schreier generator is the
    identity.
    """

    __slots__ = ("base", "gens", "orbit", "inverses", "transversal", "gen_inverses", "edge")

    def __init__(self, base: int, identity: Images):
        n = len(identity)
        self.base = base
        self.gens: list[Images] = []
        self.orbit = [base]
        self.inverses: list[Images | None] = [None] * n
        self.inverses[base] = identity
        self.transversal: list[Images | None] = [None] * n
        self.transversal[base] = identity
        self.gen_inverses: list[itemgetter] = []
        self.edge: list[tuple[int, int] | None] = [None] * n

    def extend(self, new_gens: Sequence[Images]) -> None:
        """Add generators and grow the orbit: the new generators are applied
        to the points already reached, then a BFS runs from the new points."""
        first = len(self.gens)
        for g in new_gens:
            inv = [0] * len(g)
            for i, x in enumerate(g):
                inv[x] = i
            self.gens.append(g)
            self.gen_inverses.append(itemgetter(*inv))
        orbit = self.orbit
        old = len(orbit)
        for p in orbit[:old]:
            for j in range(first, len(self.gens)):
                self._reach(p, j)
        idx = old
        while idx < len(orbit):
            for j in range(len(self.gens)):
                self._reach(orbit[idx], j)
            idx += 1

    def _reach(self, p: int, j: int) -> None:
        g = self.gens[j]
        q = g[p]
        if self.transversal[q] is not None:
            return
        self.orbit.append(q)
        self.transversal[q] = itemgetter(*self.transversal[p])(g)
        # (u_p g)^-1 = g^-1 u_p^-1
        self.inverses[q] = self.gen_inverses[j](self.inverses[p])
        self.edge[q] = (p, j)


class _StabChain:
    """Stabilizer chain by incremental deterministic Schreier-Sims.

    The levels are scanned once each, shallowest first.  Scanning level i
    sifts each of its Schreier generators u_p s u_{ps}^-1 once, through the
    levels below, and adds a residue other than the identity to every level
    from i + 1 down to the level it stopped at (a new level when it passed
    them all).  Level i never changes after its scan, since residues only go
    deeper, and a Schreier generator that once lies in the next level's
    group stays there, since that group only grows; so when the last level
    is scanned, every level's point stabilizer is generated by the next
    level and the chain is complete (Seress, Permutation Group Algorithms,
    4.2; Holt-Eick-O'Brien, Handbook of CGT, 4.4).  Nothing is random: the
    base, the basic orbits and the order come out the same on every run.
    """

    def __init__(self, degree: int, gens: Sequence[Images]):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        todo = [tuple(x - 1 for x in g) for g in dict.fromkeys(gens)]
        todo = [g for g in todo if g != self.identity]
        if todo:
            self._new_level(todo)
        for i, level in enumerate(self.levels):  # the loop sees levels added on the way
            self._scan(i)
            level.transversal = level.gen_inverses = level.edge = None

    def _new_level(self, gens: Sequence[Images]) -> None:
        base = min(next(i for i, x in enumerate(g) if x != i) for g in gens)
        level = _Level(base, self.identity)
        level.extend(gens)
        self.levels.append(level)

    def _strip(self, h: Images, start: int) -> tuple[Images, int]:
        """Sift h from level `start`: the residue, and the level it stopped at
        (len(levels) when it passed every level)."""
        levels = self.levels
        for i in range(start, len(levels)):
            level = levels[i]
            img = h[level.base]
            if img != level.base:
                inv = level.inverses[img]
                if inv is None:
                    return h, i
                h = itemgetter(*h)(inv)
        return h, len(levels)

    def _scan(self, i: int) -> None:
        """Sift every Schreier generator of level i and add the residues."""
        level = self.levels[i]
        edge, inverses = level.edge, level.inverses
        for p in level.orbit:
            times_u = itemgetter(*level.transversal[p])
            for j, s in enumerate(level.gens):
                q = s[p]
                if edge[q] == (p, j):
                    continue
                h = itemgetter(*times_u(s))(inverses[q])
                if h == self.identity:
                    continue
                residue, stop = self._strip(h, i + 1)
                if residue == self.identity:
                    continue
                if stop == len(self.levels):
                    self._new_level([residue])
                else:
                    self.levels[stop].extend([residue])
                for deeper in self.levels[i + 1:stop]:
                    deeper.extend([residue])

    def order(self) -> int:
        out = 1
        for level in self.levels:
            out *= len(level.orbit)
        return out

    def base(self) -> tuple[int, ...]:
        return tuple(level.base + 1 for level in self.levels)

    def basic_orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(level.orbit) for level in self.levels)

    def contains(self, images: Images) -> bool:
        if len(images) != self.degree:
            return False
        residue, _ = self._strip(tuple(x - 1 for x in images), 0)
        return residue == self.identity


# ---------------------------------------------------------------------------
# Permutation groups


@dataclass(eq=False)
class PermGroup:
    """A permutation group of degree n given by generators.

    The stabilizer chain is computed lazily and cached, and the order is
    read off it; the group is treated as immutable after construction and
    is safe to share between threads for reads.
    """

    degree: int
    generators: tuple[Permutation, ...]
    name: str | None = None
    _chain: _StabChain | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not self.generators:
            raise ValueError("need at least one generator (use the identity)")
        if self.degree < 1 or self.degree > MAX_DEGREE:
            raise ValueError(f"degree must be in 1..{MAX_DEGREE}")
        for g in self.generators:
            if g.degree != self.degree:
                raise DegreeMismatch(
                    f"generator degree {g.degree} != group degree {self.degree}"
                )
        self.generators = tuple(self.generators)

    @classmethod
    def from_gens(
        cls, gens: Iterable[Permutation], name: str | None = None
    ) -> "PermGroup":
        gens = tuple(gens)
        if not gens:
            raise ValueError("need at least one generator")
        return cls(degree=gens[0].degree, generators=gens, name=name)

    @property
    def chain(self) -> _StabChain:
        if self._chain is None:
            self._chain = _StabChain(self.degree, [g.images for g in self.generators])
        return self._chain

    @property
    def order(self) -> int:
        return self.chain.order()

    def contains(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        return self.chain.contains(p.images)

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def gen_images(self) -> list[Images]:
        return [g.images for g in self.generators]

    def __repr__(self) -> str:
        label = self.name or "PermGroup"
        return f"<{label} degree={self.degree} gens={len(self.generators)}>"


def group_order(G: PermGroup) -> int:
    """Exact group order via the deterministic stabilizer chain."""
    return G.order


def orbits_on_points(G: PermGroup) -> list[tuple[int, ...]]:
    """The orbits of the group on points, each sorted, ordered by minimum."""
    gens = G.gen_images()
    unseen = set(range(1, G.degree + 1))
    orbits = []
    while unseen:
        start = min(unseen)
        orbit = {start}
        queue = deque([start])
        while queue:
            p = queue.popleft()
            for g in gens:
                q = g[p - 1]
                if q not in orbit:
                    orbit.add(q)
                    queue.append(q)
        orbits.append(tuple(sorted(orbit)))
        unseen -= orbit
    return orbits


def is_transitive(G: PermGroup) -> bool:
    return len(orbits_on_points(G)) == 1


def transitivity_degree(G: PermGroup) -> int:
    """The largest t with the group t-transitive (0 when intransitive).

    Read off the stabilizer chain: once the group is i-transitive, every
    i-point stabilizer is conjugate to the one fixing the first i base
    points, so it is (i+1)-transitive iff the basic orbit of level i holds
    all n - i points left.  In particular the group is transitive iff the
    first basic orbit holds every point.
    """
    if G.degree == 1:
        return 1
    sizes = G.chain.basic_orbit_sizes()
    t = 0
    for i, size in enumerate(sizes):
        if size == G.degree - i:
            t += 1
        else:
            break
    if t == len(sizes) and G.degree - t == 1:
        # trivial point stabilizer with a single point left over: the group
        # is sharply (t+1)-transitive (e.g. the full symmetric group)
        t += 1
    return t


@dataclass(frozen=True)
class BlockSystem:
    """A nontrivial group-invariant partition into equal-size blocks."""

    blocks: SetPartition


def _congruence_closure(G: PermGroup, beta: int) -> list[set[int]]:
    # Finest G-congruence identifying 1 and beta (Atkinson's algorithm).
    n = G.degree
    gens = G.gen_images()
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> bool:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    stack = [(1, beta)]
    union(1, beta)
    while stack:
        a, b = stack.pop()
        for g in gens:
            ga, gb = g[a - 1], g[b - 1]
            if union(ga, gb):
                stack.append((ga, gb))
    classes: dict[int, set[int]] = {}
    for p in range(1, n + 1):
        classes.setdefault(find(p), set()).add(p)
    return list(classes.values())


def nontrivial_block_system(G: PermGroup) -> BlockSystem | None:
    """A minimal nontrivial block system, or None when the group is primitive.

    Requires a transitive group.  A 2-transitive group is answered from the
    stabilizer chain.  Otherwise merging {1, beta} under generator closure
    for every beta and keeping the system with the smallest blocks makes the
    output deterministic.
    """
    t = transitivity_degree(G)
    if t == 0:
        raise NotTransitiveError("primitivity is only defined for transitive groups")
    if t >= 2:
        return None  # a 2-transitive group is primitive
    best: list[set[int]] | None = None
    for beta in range(2, G.degree + 1):
        classes = _congruence_closure(G, beta)
        if len(classes) == 1:
            continue
        if best is None or len(classes) > len(best):
            best = classes
    if best is None:
        return None
    return BlockSystem(SetPartition.of(best))
