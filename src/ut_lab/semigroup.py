"""Transformations, quasi-permutations, and regularity in <a, G>.

The regularity test never enumerates group elements: a transformation a is
regular in <a, G> exactly when the orbit of its image under G contains a
section (transversal) of its kernel.  The orbit's BFS stops at the first
member that is a section, and the witnessing group element is recovered
from the parent pointers it has so far; only a non-regular map pays for
the whole orbit.  Every rank-k map is regular exactly when every k-set
orbit sections every k-partition, and that search stops at the first
partition some orbit misses (`partitions.first_unsectioned`).  Heavy
closures run on raw image tuples; Transformation objects only appear at
the API boundary.
"""
from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import BudgetExceeded, CapExceeded, DegreeMismatch
from .partitions import SetPartition, first_unsectioned
from .perm_core import PermGroup, Permutation
from .set_orbits import (
    KSet,
    _orbit_masks,
    mask_of,
    orbits_on_ksets,
    trace_orbit_word,
)

DEFAULT_CLOSURE_CAP = 500_000


@dataclass(frozen=True)
class Transformation:
    """A self-map of {1..n}, stored as the tuple of images of 1, ..., n."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        if any(not 1 <= x <= n for x in self.images):
            raise ValueError("images must lie in {1..n}")
        object.__setattr__(self, "images", tuple(self.images))

    @property
    def degree(self) -> int:
        return len(self.images)

    @property
    def rank(self) -> int:
        return len(set(self.images))

    def image_set(self) -> KSet:
        return tuple(sorted(set(self.images)))

    def kernel(self) -> SetPartition:
        fibers: dict[int, list[int]] = {}
        for x, y in enumerate(self.images, start=1):
            fibers.setdefault(y, []).append(x)
        return SetPartition.of(fibers.values())

    def apply(self, point: int) -> int:
        return self.images[point - 1]

    def is_permutation(self) -> bool:
        return self.rank == self.degree

    @classmethod
    def from_permutation(cls, p: Permutation) -> "Transformation":
        return cls(p.images)

    @classmethod
    def constant(cls, n: int, value: int) -> "Transformation":
        return cls((value,) * n)

    @classmethod
    def parse(cls, text: str) -> "Transformation":
        """Parse the comma-separated image list format, e.g. "1,4,5,2,2"."""
        return cls(tuple(int(x) for x in text.split(",")))

    def __str__(self) -> str:
        return ",".join(map(str, self.images))

    def __mul__(self, other: "Transformation") -> "Transformation":
        return t_compose(self, other)


class QuasiPermutation(Transformation):
    """A transformation whose kernel has at most one non-singleton class."""

    def __post_init__(self):
        super().__post_init__()
        big = sum(1 for b in self.kernel().blocks if len(b) > 1)
        if big > 1:
            raise ValueError("a quasi-permutation has at most one big kernel class")


def is_quasi_permutation(t: Transformation) -> bool:
    return sum(1 for b in t.kernel().blocks if len(b) > 1) <= 1


def t_compose(a: Transformation, b: Transformation) -> Transformation:
    """Left-to-right composite: i maps to b(a(i))."""
    if a.degree != b.degree:
        raise DegreeMismatch(f"degrees differ: {a.degree} vs {b.degree}")
    return Transformation(tuple(b.images[x - 1] for x in a.images))


def _t_mult(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(b[x - 1] for x in a)


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    witness: Permutation | None = None

    def __bool__(self) -> bool:
        return self.regular


def is_regular_in(a: Transformation, G: PermGroup, cap: int = 10**7) -> RegularityResult:
    """Is a regular in <a, G>?  True iff rank(a g a) = rank(a) for some g in G.

    Decided without enumerating G: the orbit of image(a) must contain a
    section of kernel(a).  The orbit's BFS stops at the first section it
    reaches, and the witness g is rebuilt from the parent pointers up to
    it; g is deterministic and satisfies rank(a g a) = rank(a).
    """
    if a.degree != G.degree:
        raise DegreeMismatch("transformation and group degrees differ")
    n = G.degree
    if a.rank == n:
        return RegularityResult(True, G.identity())
    blocks = [mask_of(b) for b in a.kernel().blocks]
    parents = _orbit_masks(G, mask_of(a.image_set()), cap, section_of=blocks)
    # The BFS stopped at its last member if and only if that is a section.
    target = next(reversed(parents))
    if not all(map(target.__and__, blocks)):
        return RegularityResult(False)
    g = Permutation(trace_orbit_word(G, parents, target))
    composite = t_compose(t_compose(a, Transformation.from_permutation(g)), a)
    if composite.rank != a.rank:
        raise AssertionError("witness recovery produced a rank-dropping element")
    return RegularityResult(True, g)


def semigroup_closure(
    gens: Iterable[Transformation], cap: int = DEFAULT_CLOSURE_CAP
) -> frozenset[Transformation]:
    """Closure of the generators under composition on both sides."""
    raw = [g.images for g in gens]
    if not raw:
        raise ValueError("need at least one generator")
    if len({len(g) for g in raw}) != 1:
        raise DegreeMismatch("generators must share a degree")
    closed = _closure_tuples(raw, cap)
    return frozenset(Transformation(t) for t in closed)


def _closure_tuples(
    raw: Sequence[tuple[int, ...]], cap: int
) -> set[tuple[int, ...]]:
    seen: set[tuple[int, ...]] = set(raw)
    queue = deque(seen)
    while queue:
        t = queue.popleft()
        for g in raw:
            for prod in (_t_mult(t, g), _t_mult(g, t)):
                if prod not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded("semigroup closure cap exceeded", len(seen))
                    seen.add(prod)
                    queue.append(prod)
    return seen


def is_regular_semigroup(
    S: Iterable[Transformation],
    closure_checks: int = 64,
    seed: int = 1108,
) -> tuple[bool, Transformation | None]:
    """Is every element b of S regular (b = b c b for some c in S)?

    The caller guarantees closure under composition; a seeded random sample
    of products spot-checks that.  Returns (False, witness) at the first
    non-regular element in canonical order.
    """
    elements = sorted({t.images for t in S})
    if not elements:
        raise ValueError("empty semigroup")
    universe = set(elements)
    rng = random.Random(seed)
    for _ in range(min(closure_checks, len(elements) ** 2)):
        x = rng.choice(elements)
        y = rng.choice(elements)
        if _t_mult(x, y) not in universe:
            raise ValueError("input is not closed under composition")
    for b in elements:
        if not _regular_inside(b, elements):
            return False, Transformation(b)
    return True, None


def _regular_inside(b: tuple[int, ...], elements: Sequence[tuple[int, ...]]) -> bool:
    # b c b = b needs c to act injectively on image(b); checking that first
    # skips most candidates cheaply.
    image = sorted(set(b))
    rank = len(image)
    for c in elements:
        moved = [c[y - 1] for y in image]
        if len(set(moved)) != rank:
            continue
        # b c b == b iff every image point y returns to its own fiber image
        if all(b[c[y - 1] - 1] == y for y in image):
            return True
    return False


def regular_in_closure(
    a: Transformation, G: PermGroup, cap: int = DEFAULT_CLOSURE_CAP
) -> bool:
    """Brute-force regularity of a inside <a, G> by closure search.

    Streams the closure and stops at the first c with a c a = a; exhausts the
    closure (up to `cap`) before answering False.
    """
    raw = [g.images for g in G.generators] + [a.images]
    target = a.images

    def is_witness(c: tuple[int, ...]) -> bool:
        return _t_mult(_t_mult(target, c), target) == target

    seen: set[tuple[int, ...]] = set(raw)
    for c in raw:
        if is_witness(c):
            return True
    queue = deque(raw)
    while queue:
        t = queue.popleft()
        for g in raw:
            for prod in (_t_mult(t, g), _t_mult(g, t)):
                if prod not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded("closure cap exceeded", len(seen))
                    seen.add(prod)
                    if is_witness(prod):
                        return True
                    queue.append(prod)
    return False


def transformation_from_parts(
    kernel_blocks: Sequence[Sequence[int]], image_points: Sequence[int]
) -> Transformation:
    """The canonical map sending the i-th kernel block to the i-th image point."""
    if len(kernel_blocks) != len(image_points):
        raise ValueError("need as many image points as kernel blocks")
    n = sum(len(b) for b in kernel_blocks)
    images = [0] * n
    for block, y in zip(kernel_blocks, image_points):
        for x in block:
            images[x - 1] = y
    return Transformation(tuple(images))


def regular_for_all_rank_k(
    G: PermGroup, k: int, method: str = "kut", kut_kwargs: dict | None = None
) -> bool:
    """Are all rank-k transformations regular in <a, G>?

    method="kut" delegates to the k-universal transversal decider (the two
    properties coincide); method="direct" asks whether every k-set orbit
    (which covers every image, by G-equivariance) has a section of every
    k-partition (every kernel), and stops at the first partition that some
    orbit misses: a depth-first search over the partitions that skips every
    branch in which all orbits already have a section.
    """
    from .ut_deciders import has_kut

    n = G.degree
    if not 1 < k <= (n + 1) // 2:
        raise ValueError(f"need 1 < k <= floor((n+1)/2), got k={k}")
    if method == "kut":
        verdict = has_kut(G, k, **(kut_kwargs or {}))
        if verdict.holds is None:
            raise BudgetExceeded(f"the {k}-ut decision exhausted its budget")
        return bool(verdict.holds)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    orbits = orbits_on_ksets(G, k)
    return first_unsectioned(n, k, [orbit.masks for orbit in orbits]) is None


def quasi_regularity_classifier(
    G: PermGroup, k: int, method: str = "homogeneity"
) -> bool:
    """Is every rank-k quasi-permutation regular in <a, G>?

    Equivalent to (n-k, n-k+1)-homogeneity: the complement of the image must
    travel into the big kernel class.  method="direct" enumerates big-block
    orbit representatives times image orbit representatives instead.
    """
    from .set_orbits import is_ij_homogeneous

    n = G.degree
    if not 1 < k < n:
        raise ValueError(f"need 1 < k < n, got k={k}")
    if method == "homogeneity":
        ok, _ = is_ij_homogeneous(G, n - k, n - k + 1)
        return ok
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    big_reps = [o.representative for o in orbits_on_ksets(G, n - k + 1)]
    image_reps = [o.representative for o in orbits_on_ksets(G, k)]
    for big in big_reps:
        big_points = set(big)
        heads = [p for p in range(1, n + 1) if p not in big_points]
        for image in image_reps:
            blocks = [(h,) for h in heads] + [big]
            a = transformation_from_parts(blocks, image)
            if not is_regular_in(a, G).regular:
                return False
    return True
