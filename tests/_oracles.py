"""Independent oracles for the test suite.

These deliberately re-derive expected values with the dumbest possible code,
sharing nothing with the library implementations they check.
"""
from __future__ import annotations

import itertools


def s3_cayley_table() -> dict[tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]:
    """All products of S_3 elements, composed left to right by evaluation."""
    elems = [tuple(p) for p in itertools.permutations((1, 2, 3))]
    table = {}
    for p in elems:
        for q in elems:
            table[(p, q)] = tuple(q[p[i] - 1] for i in range(3))
    return table


def stirling_recurrence(n: int, k: int) -> int:
    """S(n,k) = k S(n-1,k) + S(n-1,k-1)."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling_recurrence(n - 1, k) + stirling_recurrence(n - 1, k - 1)


def brute_set_orbit(gen_images: list[tuple[int, ...]], start: frozenset[int]) -> set[frozenset[int]]:
    """Orbit of a point set by plain frozenset closure."""
    orbit = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for g in gen_images:
            image = frozenset(g[p - 1] for p in current)
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


def brute_orbit_universal(
    gen_images: list[tuple[int, ...]], rep: tuple[int, ...], n: int, k: int
) -> bool:
    """Does the orbit of rep contain a section of every k-partition of {1..n}?

    Exhaustive: every partition enumerated as a canonical block tuple.
    """
    orbit = brute_set_orbit(gen_images, frozenset(rep))

    def partitions(points: list[int], k: int):
        if not points:
            if k == 0:
                yield []
            return
        first, rest = points[0], points[1:]
        for blocks in partitions(rest, k):
            for i in range(len(blocks)):
                yield blocks[:i] + [blocks[i] | {first}] + blocks[i + 1 :]
        if k >= 1:
            for blocks in partitions(rest, k - 1):
                yield blocks + [{first}]

    for blocks in partitions(list(range(1, n + 1)), k):
        if len(blocks) != k:
            continue
        sectioned = False
        for member in orbit:
            if all(len(member & b) == 1 for b in blocks):
                sectioned = True
                break
        if not sectioned:
            return False
    return True


def brute_semigroup_closure(gens: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Pair-product saturation: multiply everything until nothing is new."""
    current = set(gens)
    while True:
        new = set()
        for a in current:
            for b in current:
                prod = tuple(b[x - 1] for x in a)
                if prod not in current:
                    new.add(prod)
        if not new:
            return current
        current |= new


def brute_group_elements(gen_images: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Every element of the group, by closure of the identity under the generators."""
    identity = tuple(range(1, len(gen_images[0]) + 1))
    elements = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gen_images:
            y = tuple(g[p - 1] for p in x)
            if y not in elements:
                elements.add(y)
                frontier.append(y)
    return elements


def brute_ij_homogeneous(
    gen_images: list[tuple[int, ...]], n: int, i: int, j: int
) -> tuple[bool, tuple[tuple[int, ...], tuple[int, ...]] | None]:
    """(i,j)-homogeneity by trying every group element on every i-set.

    On failure returns the lex-least j-set J that some i-set cannot be moved
    into, and the lex-least such i-set I, as (I, J).
    """
    elements = brute_group_elements(gen_images)
    images = {
        I: {frozenset(g[p - 1] for p in I) for g in elements}
        for I in itertools.combinations(range(1, n + 1), i)
    }
    for J in itertools.combinations(range(1, n + 1), j):
        inside = {frozenset(sub) for sub in itertools.combinations(J, i)}
        for I, moved in images.items():
            if moved.isdisjoint(inside):
                return False, (I, J)
    return True, None
