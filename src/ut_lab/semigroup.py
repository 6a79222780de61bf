"""Transformations and regularity in <a, G> and inside a semigroup.

The regularity test never enumerates group elements: a transformation a is
regular in <a, G> exactly when the orbit of its image under G contains a
section (transversal) of its kernel.  The orbit's BFS is stopped by
`partitions.section_test` of the kernel, at the first member that is a
section, and the witnessing group element is recovered from the parent
pointers it has so far; only a non-regular map pays for the whole orbit.
Every rank-k map is regular exactly when every k-set orbit sections every
k-partition, which `ut_deciders.seeded_sweep` answers by stopping at the
first partition some orbit misses.  Every rank-k quasi-permutation is
regular exactly when G is (n-k, n-k+1)-homogeneous, which
`set_orbits.is_ij_homogeneous` answers.  Inside a given
semigroup, b is regular when some element maps each point of image(b)
into b's fiber over it, which `_regularity_test` looks up among the
elements' restrictions to image(b).  Heavy closures run on raw image
tuples; Transformation objects only appear at the API boundary.
"""
from __future__ import annotations

import itertools
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .errors import CapExceeded, DegreeMismatch
from .partitions import SetPartition, section_test
from . import set_orbits
from .perm_core import PermGroup, Permutation, _mult
from .set_orbits import (
    KSet,
    _orbit_masks,
    mask_of,
    # Not called here since `seeded_sweep` reads the orbits itself, but
    # perfbench/spans.py wraps semigroup.orbits_on_ksets, so the name stays.
    orbits_on_ksets,
    trace_orbit_word,
)

# The distinct products a closure may hold.  Read at call time.
DEFAULT_CLOSURE_CAP = 500_000
# `is_regular_semigroup` spot-checks closure on this many products, drawn
# from this seed.
CLOSURE_CHECKS = 64
CLOSURE_CHECK_SEED = 1108


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

    @classmethod
    def from_permutation(cls, p: Permutation) -> "Transformation":
        return cls(p.images)

    @classmethod
    def parse(cls, text: str) -> "Transformation":
        """Parse the comma-separated image list format, e.g. "1,4,5,2,2"."""
        return cls(tuple(int(x) for x in text.split(",")))

    def __str__(self) -> str:
        return ",".join(map(str, self.images))

    def __mul__(self, other: "Transformation") -> "Transformation":
        return t_compose(self, other)


def t_compose(a: Transformation, b: Transformation) -> Transformation:
    """Left-to-right composite: i maps to b(a(i))."""
    if a.degree != b.degree:
        raise DegreeMismatch(f"degrees differ: {a.degree} vs {b.degree}")
    return Transformation(tuple(b.images[x - 1] for x in a.images))


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    witness: Permutation | None = None

    def __bool__(self) -> bool:
        return self.regular


def is_regular_in(a: Transformation, G: PermGroup) -> RegularityResult:
    """Is a regular in <a, G>?  True iff rank(a g a) = rank(a) for some g in G.

    Decided without enumerating G: the orbit of image(a) must contain a
    section of kernel(a).  The kernel's `section_test` is built once; it
    stops the orbit's BFS at the first section reached, and tells whether
    the BFS stopped there or ran out of members.  The witness g is rebuilt
    from the parent pointers up to that section; g is deterministic and
    satisfies rank(a g a) = rank(a).  Raises CapExceeded past
    `set_orbits.DEFAULT_ORBIT_CAP` orbit members.
    """
    if a.degree != G.degree:
        raise DegreeMismatch("transformation and group degrees differ")
    n = G.degree
    if a.rank == n:
        return RegularityResult(True, G.identity())
    is_section = section_test(mask_of(b) for b in a.kernel().blocks)
    parents = _orbit_masks(
        G, mask_of(a.image_set()), set_orbits.DEFAULT_ORBIT_CAP, stop=is_section
    )
    # The BFS stopped at its last member if and only if that is a section.
    target = next(reversed(parents))
    if not is_section(target):
        return RegularityResult(False)
    g = Permutation(trace_orbit_word(G, parents, target))
    composite = t_compose(t_compose(a, Transformation.from_permutation(g)), a)
    if composite.rank != a.rank:
        raise AssertionError("witness recovery produced a rank-dropping element")
    return RegularityResult(True, g)


def semigroup_closure(gens: Iterable[Transformation]) -> frozenset[Transformation]:
    """Closure of the generators under composition on both sides.

    Raises CapExceeded past DEFAULT_CLOSURE_CAP elements.
    """
    raw = [g.images for g in gens]
    if not raw:
        raise ValueError("need at least one generator")
    if len({len(g) for g in raw}) != 1:
        raise DegreeMismatch("generators must share a degree")
    closed = _closure_tuples(raw, DEFAULT_CLOSURE_CAP)
    return frozenset(Transformation(t) for t in closed)


def _closure_tuples(
    raw: Sequence[tuple[int, ...]], cap: int
) -> set[tuple[int, ...]]:
    seen: set[tuple[int, ...]] = set(raw)
    queue = deque(seen)
    while queue:
        t = queue.popleft()
        for g in raw:
            for prod in (_mult(t, g), _mult(g, t)):
                if prod not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded("semigroup closure cap exceeded", len(seen))
                    seen.add(prod)
                    queue.append(prod)
    return seen


def is_regular_semigroup(
    S: Iterable[Transformation],
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
    rng = random.Random(CLOSURE_CHECK_SEED)
    for _ in range(min(CLOSURE_CHECKS, len(elements) ** 2)):
        x = rng.choice(elements)
        y = rng.choice(elements)
        if _mult(x, y) not in universe:
            raise ValueError("input is not closed under composition")
    regular = _regularity_test(elements)
    for b in elements:
        if not regular(b):
            return False, Transformation(b)
    return True, None


def _regularity_test(
    elements: Sequence[tuple[int, ...]]
) -> Callable[[tuple[int, ...]], bool]:
    """The test "is b c b = b for some c in `elements`?", for any b.

    b c b = b iff c sends every y in image(b) into b's fiber over y.  The
    restrictions of the elements to an image set are collected once, on
    first use, and b looks up the product of its fibers among them.  The
    fibers partition {1..n}, so there are at most 3^(n/3) such products.
    """
    restrictions: dict[tuple[int, ...], set[tuple[int, ...]]] = {}

    def regular(b: tuple[int, ...]) -> bool:
        fibers: dict[int, list[int]] = {}
        for x, y in enumerate(b, start=1):
            fibers.setdefault(y, []).append(x)
        image = tuple(sorted(fibers))
        seen = restrictions.get(image)
        if seen is None:
            seen = {tuple(c[y - 1] for y in image) for c in elements}
            restrictions[image] = seen
        return not seen.isdisjoint(itertools.product(*(fibers[y] for y in image)))

    return regular


def regular_in_closure(a: Transformation, G: PermGroup) -> bool:
    """Brute-force regularity of a inside <a, G> by closure search.

    Streams the closure, multiplying by a generator on either side, and
    stops at the first c with a c a = a.  Such a c has rank at least
    rank(a), and so has every contiguous subword of a word for c, so the
    products of lower rank are never extended: every candidate is still
    reached one generator at a time.  Searches all the rest (up to
    DEFAULT_CLOSURE_CAP distinct products) before answering False.
    """
    cap = DEFAULT_CLOSURE_CAP
    raw = [g.images for g in G.generators] + [a.images]
    target = a.images
    rank = a.rank

    def is_witness(c: tuple[int, ...]) -> bool:
        return _mult(_mult(target, c), target) == target

    seen: set[tuple[int, ...]] = set(raw)
    for c in raw:
        if is_witness(c):
            return True
    queue = deque(raw)
    while queue:
        t = queue.popleft()
        for g in raw:
            for prod in (_mult(t, g), _mult(g, t)):
                if prod not in seen:
                    if len(seen) >= cap:
                        raise CapExceeded("closure cap exceeded", len(seen))
                    seen.add(prod)
                    if len(set(prod)) < rank:
                        continue
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


def regular_for_all_rank_k(G: PermGroup, k: int, method: str = "kut") -> bool:
    """Are all rank-k transformations regular in <a, G>?

    method="kut" delegates to the k-universal transversal decider (the two
    properties coincide); method="direct" skips its shortcuts and asks
    whether every k-set orbit (which covers every image, by G-equivariance)
    has a section of every k-partition (every kernel), by the decider's
    exact step, `ut_deciders.seeded_sweep(G, k)`: one search per orbit and
    seed representative, placing the points most constrained first for
    that orbit.  Either way an exhausted budget raises CapExceeded.
    """
    from .ut_deciders import has_kut, seeded_sweep

    n = G.degree
    if not 1 < k <= (n + 1) // 2:
        raise ValueError(f"need 1 < k <= floor((n+1)/2), got k={k}")
    if method == "kut":
        verdict = has_kut(G, k)
        if verdict.holds is None:
            raise CapExceeded(
                f"the {k}-ut decision exhausted its budget", verdict.detail["partial"]
            )
        return bool(verdict.holds)
    if method != "direct":
        raise ValueError(f"unknown method {method!r}")
    return seeded_sweep(G, k) is None
