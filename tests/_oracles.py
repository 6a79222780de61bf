"""Independent oracles for the test suite.

These deliberately re-derive expected values with the dumbest possible code,
sharing nothing with the library implementations they check.  The
exceptions are the slower searches that the library replaced, kept here as
the reference the replacements must agree with: `scan_first_unsectioned`,
the plain scan of every partition, built on the library's RGS enumerator,
or of every completion of a seed;
`bfs_extension`, the breadth-first partition search, unseeded or seeded,
and `dfs_extension`, the depth-first one for one family, both in any
placement order, such as `search_order`, the library's most-constrained-first
rule re-derived by `brute_placement_order`;
`scan_regular_inside`, the scan of a whole semigroup for a regularity
witness; `RescanStabChain`, the Schreier-Sims chain that re-sifts every
Schreier generator of a dirty level; `closure_regular_unpruned`, the
closure search for a regularity witness through products of every rank;
`brute_two_graph`, the 4-set parity scan that the regular two-graph
test was before it read the members off one descendant graph;
`bfs_is_k_homogeneous`, the full orbit walk that k-homogeneity was before
the stabilizer chain answered it; `natural_generators`, the generators
each formula family of the catalog was built from before it was cut to a
pair of words in them, on the library's field labelling; `closure_block_system`, the all-beta
congruence closure that primitivity was before 2-transitive groups were
answered from the chain; and `point_byte_tables`, the point-by-point build
of the generator byte tables.

Four more checkers moved here from the library, which never ran them:
`is_section`, the exactly-once test of a point set against a partition;
`block_system_is_valid`, that the generators permute a block system's
blocks; `elements_bfs`, the closure of every group element; and
`quasi_regular_by_maps`, the regularity test of one quasi-permutation per
pair of orbit representatives, against which (n-k, n-k+1)-homogeneity
answers the rank-k quasi-permutation question.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter, deque


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


def _free_points(n: int, seed_blocks, free):
    """`free`, or the points of {1..n} outside the seed blocks, ascending."""
    if free is not None:
        return list(free)
    placed = {p for b in seed_blocks for p in b}
    return [p for p in range(1, n + 1) if p not in placed]


def scan_first_unsectioned(
    n: int, k: int, families: list[frozenset[int]], seed_blocks=None, free=None
):
    """Every k-partition against every family of k-set masks.

    Without seed blocks the partitions come in RGS order; with them, the
    completions of the seed come in block-choice order: the unplaced points
    in the order `free` gives (ascending by default), each trying blocks
    0..k-1 in turn.  Returns (first partition some family misses, index of
    the first such family), or None when every family sections every
    partition.
    """
    from ut_lab.partitions import SetPartition, enumerate_kpartitions

    if seed_blocks is None:
        candidates = (p.blocks for p in enumerate_kpartitions(n, k))
    else:
        free = _free_points(n, seed_blocks, free)
        candidates = (
            [tuple(b) + tuple(p for p, c in zip(free, choice) if c == i)
             for i, b in enumerate(seed_blocks)]
            for choice in itertools.product(range(len(seed_blocks)), repeat=len(free))
        )
    for blocks in candidates:
        for i, family in enumerate(families):
            if not _sectioned(family, blocks):
                return SetPartition.of(blocks), i
    return None


def _sectioned(masks, blocks) -> bool:
    """Does some k-set mask meet every one of k disjoint point blocks?

    Looks up the prod |B_i| candidate sections when they are no more than
    the masks, and scans the masks otherwise.
    """
    bits = [[1 << (p - 1) for p in b] for b in blocks]
    if math.prod(map(len, bits)) <= len(masks):
        return any(sum(c) in masks for c in itertools.product(*bits))
    block_masks = [sum(b) for b in bits]
    return any(all(m & b for b in block_masks) for m in masks)


def bfs_extension(families, n: int, seed_blocks, free=None):
    """Breadth-first partition search over families of k-set masks.

    `seed_blocks` are the k blocks at the root, some or all of them empty.
    The unplaced points of {1..n} go in the order `free` gives (ascending
    by default), each into every nonempty block in turn and then into the
    first empty one, as long as the points left can still fill every empty
    block; the children that some family does not section are kept.  So k
    empty blocks give the partitions in restricted-growth order, and k
    nonempty ones every completion of the seed.  A block that is still
    empty has no section, and a family of all C(n, k) k-sets, which
    sections every partition, is left out.  Returns (the first full partition of the last level as a
    block tuple, or None when a level empties; the index of the first
    family that misses it, or None; the frontier size per level, seed
    level first).
    """
    k = len(seed_blocks)
    kept = [(i, set(f)) for i, f in enumerate(families) if len(set(f)) < math.comb(n, k)]

    def missed(blocks):
        return [i for i, masks in kept if not _sectioned(masks, blocks)]

    free = _free_points(n, seed_blocks, free)
    start = tuple(tuple(b) for b in seed_blocks)
    frontier = [start] if missed(start) else []
    profile = [len(frontier)]
    for depth, x in enumerate(free):
        if not frontier:
            break
        left = len(free) - depth - 1  # points still unplaced after x
        children = []
        for blocks in frontier:
            empty = [i for i, b in enumerate(blocks) if not b]
            for i, b in enumerate(blocks):
                if (b and len(empty) > left) or (not b and i != empty[0]):
                    continue
                child = blocks[:i] + (b + (x,),) + blocks[i + 1:]
                if missed(child):
                    children.append(child)
        frontier = children
        profile.append(len(frontier))
    first = frontier[0] if frontier else None
    return first, (missed(first)[0] if first else None), profile


def dfs_extension(family, n: int, seed_blocks, free=None):
    """The first completion of the seed blocks, in block-choice order over
    `free` (ascending by default), that the family of k-set masks does not
    section, as a block tuple, or None.  Depth first; a node the family
    sections is not expanded, since every completion of it is sectioned."""
    free = _free_points(n, seed_blocks, free)

    def search(blocks, depth):
        if _sectioned(family, blocks):
            return None
        if depth == len(free):
            return blocks
        for v in range(len(blocks)):
            child = blocks[:v] + (blocks[v] + (free[depth],),) + blocks[v + 1:]
            found = search(child, depth + 1)
            if found:
                return found
        return None

    return search(tuple(tuple(b) for b in seed_blocks), 0)


def brute_placement_order(n: int, family, seed_blocks) -> list[int]:
    """The points outside the seed blocks, by the number of blocks v for
    which some k-set of the family contains x and meets every block once v
    is replaced by {x}, most first, ties ascending."""
    def fires(x):
        return sum(_sectioned(family, seed_blocks[:v] + ((x,),) + seed_blocks[v + 1:])
                   for v in range(len(seed_blocks)))

    free = _free_points(n, seed_blocks, None)
    return sorted(free, key=lambda x: (-fires(x), x))


def search_order(n: int, families, seed_blocks) -> list[int]:
    """The order in which the partition search places the points outside
    the seed blocks: most constrained first, by `brute_placement_order`, when
    the blocks are all nonempty and exactly one family neither sections
    them nor holds every k-set; ascending otherwise."""
    seed_blocks = tuple(tuple(b) for b in seed_blocks)
    k = len(seed_blocks)
    live = [f for f in families
            if len(set(f)) < math.comb(n, k) and not _sectioned(set(f), seed_blocks)]
    if all(seed_blocks) and len(live) == 1:
        return brute_placement_order(n, live[0], seed_blocks)
    return _free_points(n, seed_blocks, None)


def scan_regular_inside(b: tuple[int, ...], elements) -> bool:
    """Is b c b = b for some c in `elements`?  Tries every element."""
    # b c b == b iff every image point y of b returns to its own fiber
    image = set(b)
    return any(all(b[c[y - 1] - 1] == y for y in image) for c in elements)


class RescanStabChain:
    """Deterministic Schreier-Sims by full rescans, on 1-based images.

    Every pass over a dirty level re-sifts all of its Schreier generators,
    already sifted ones included, and every new generator rebuilds the
    level's whole orbit.  A sift residue stopping at level j is registered
    at every level from the scan level + 1 down to j.  Only `order()`,
    `base()` and `basic_orbit_sizes()` are offered.
    """

    def __init__(self, degree: int, gens):
        self.identity = tuple(range(1, degree + 1))
        self.levels: list[dict] = []
        todo = [g for g in dict.fromkeys(gens) if g != self.identity]
        if todo:
            self._construct(todo)

    @staticmethod
    def _mult(p, q):
        return tuple(q[x - 1] for x in p)

    @staticmethod
    def _inv(p):
        out = [0] * len(p)
        for i, x in enumerate(p):
            out[x - 1] = i + 1
        return tuple(out)

    @staticmethod
    def _smallest_moved(g) -> int:
        return next(i + 1 for i, x in enumerate(g) if x != i + 1)

    def _new_level(self, base: int, gens) -> dict:
        return {"base": base, "gens": list(gens), "orbit": {}}

    def _rebuild_orbit(self, level: dict) -> None:
        orbit = {level["base"]: self.identity}
        queue = [level["base"]]
        for p in queue:
            u = orbit[p]
            for g in level["gens"]:
                q = g[p - 1]
                if q not in orbit:
                    orbit[q] = self._mult(u, g)
                    queue.append(q)
        level["orbit"] = orbit

    def _strip(self, g, start: int):
        h = g
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            img = h[level["base"] - 1]
            if img not in level["orbit"]:
                return h, i
            h = self._mult(h, self._inv(level["orbit"][img]))
            if h == self.identity:
                return h, i + 1
        return h, len(self.levels)

    def _insert(self, residue, start: int, stop: int) -> None:
        if stop == len(self.levels):
            self.levels.append(self._new_level(self._smallest_moved(residue), []))
        for lvl in range(start, stop + 1):
            level = self.levels[lvl]
            if residue not in level["gens"]:
                level["gens"].append(residue)
                self._rebuild_orbit(level)

    def _scan_level(self, i: int) -> bool:
        level = self.levels[i]
        clean = True
        for p in list(level["orbit"]):
            u = level["orbit"][p]
            for s in level["gens"]:
                sg = self._mult(self._mult(u, s), self._inv(level["orbit"][s[p - 1]]))
                if sg == self.identity:
                    continue
                residue, stop = self._strip(sg, i + 1)
                if residue != self.identity:
                    self._insert(residue, i + 1, stop)
                    clean = False
        return clean

    def _construct(self, gens) -> None:
        base0 = min(self._smallest_moved(g) for g in gens)
        level0 = self._new_level(base0, gens)
        self.levels = [level0]
        self._rebuild_orbit(level0)
        dirty = {0}
        while dirty:
            i = min(dirty)
            dirty.discard(i)
            if i >= len(self.levels):
                continue
            if not self._scan_level(i):
                dirty.update(range(i, len(self.levels)))

    def order(self) -> int:
        return math.prod(len(level["orbit"]) for level in self.levels)

    def base(self) -> tuple[int, ...]:
        return tuple(level["base"] for level in self.levels)

    def basic_orbit_sizes(self) -> tuple[int, ...]:
        return tuple(len(level["orbit"]) for level in self.levels)


def closure_regular_unpruned(a: tuple[int, ...], gens) -> bool:
    """Is a c a = a for some c in the semigroup <a, gens>?  Walks the whole
    closure, products of every rank, until a witness turns up."""
    raw = list(gens) + [a]

    def mult(x, y):
        return tuple(y[i - 1] for i in x)

    seen = set(raw)
    frontier = list(raw)
    while frontier:
        for c in frontier:
            if mult(mult(a, c), a) == a:
                return True
        frontier = [
            prod
            for t in frontier
            for g in raw
            for prod in (mult(t, g), mult(g, t))
            if prod not in seen and not seen.add(prod)
        ]
    return False


def bfs_is_k_homogeneous(gen_images: list[tuple[int, ...]], n: int, k: int) -> bool:
    """Is the orbit of {1..k} every k-set?  Decided on the complements
    above n/2, by a full frozenset closure."""
    kk = min(k, n - k)
    if kk == 0:
        return True
    start = frozenset(range(1, kk + 1))
    return len(brute_set_orbit(gen_images, start)) == math.comb(n, kk)


def closure_block_system(gen_images: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]] | None:
    """The finest nontrivial block system with the most blocks over every
    {1, beta} closure, as sorted blocks in order of their least points, or
    None when every closure is the whole set (a primitive group)."""
    best = None
    for beta in range(2, n + 1):
        parent = list(range(n + 1))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        pending = [(1, beta)]
        while pending:
            a, b = pending.pop()
            ra, rb = find(a), find(b)
            if ra == rb:
                continue
            parent[max(ra, rb)] = min(ra, rb)
            pending.extend((g[a - 1], g[b - 1]) for g in gen_images)
        classes: dict[int, list[int]] = {}
        for p in range(1, n + 1):
            classes.setdefault(find(p), []).append(p)
        if len(classes) > 1 and (best is None or len(classes) > len(best)):
            best = sorted(tuple(c) for c in classes.values())
    return best


def brute_transitivity_degree(gen_images: list[tuple[int, ...]], n: int) -> int:
    """The largest t whose ordered t-tuples of distinct points form one orbit."""
    t = 0
    while t < n:
        start = tuple(range(1, t + 2))
        orbit = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for g in gen_images:
                y = tuple(g[p - 1] for p in x)
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        if len(orbit) != math.perm(n, t + 1):
            break
        t += 1
    return t


def point_byte_tables(images: tuple[int, ...], n: int) -> tuple[tuple[int, ...], ...]:
    """For each byte of a mask, byte value -> image mask, one value at a time
    from the value without its lowest bit."""
    tables = []
    for c in range(0, n, 8):
        table = [0] * (1 << min(8, n - c))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] | 1 << (images[c + low.bit_length() - 1] - 1)
        tables.append(tuple(table))
    return tuple(tables)


def brute_two_graph(n: int, members) -> int | None:
    """lambda when the 3-sets `members` (sorted tuples) form a regular
    two-graph on {1..n}, else None: every pair lies in lambda members, and
    every one of the C(n, 4) 4-sets holds an even number of them."""
    members = set(members)
    counts = Counter(pair for tri in members for pair in itertools.combinations(tri, 2))
    values = set(counts.values())
    if len(values) != 1 or len(counts) != math.comb(n, 2):
        return None
    for quad in itertools.combinations(range(1, n + 1), 4):
        if sum(tri in members for tri in itertools.combinations(quad, 3)) % 2:
            return None
    return values.pop()


def brute_kset_orbit_sizes(gen_images: list[tuple[int, ...]], n: int, k: int) -> list[int]:
    """The sorted sizes of the orbits on k-sets, each by frozenset closure."""
    seen: set[frozenset[int]] = set()
    sizes = []
    for combo in itertools.combinations(range(1, n + 1), k):
        if frozenset(combo) not in seen:
            orbit = brute_set_orbit(gen_images, frozenset(combo))
            seen |= orbit
            sizes.append(len(orbit))
    return sorted(sizes)


def natural_generators(kind: str, params: tuple) -> list[tuple[int, ...]] | None:
    """The generators that define a catalog formula family, as image tuples,
    or None for a family that never had more than two.

    Points are labelled as in the catalog: field element i of the library's
    GF(q) is point i + 1, q + 1 is infinity on the projective line, and
    vectors are numbered with the first coordinate most significant.
    """
    from ut_lab.gf import GF

    if kind in ("projective_line", "affine_1dim", "affine_gf9"):
        q = 9 if kind == "affine_gf9" else params[0]
        F = GF.of(q)
        g = F.generator
        frob = tuple(F.frobenius(x) + 1 for x in range(q))
        if kind == "affine_1dim":
            affine = [tuple(F.add(x, 1) + 1 for x in range(q)),
                      tuple(F.mul(g, x) + 1 for x in range(q))]
            return affine + [frob] if params[1:] == (True,) else None
        if kind == "affine_gf9":
            twists = {"3^2:4": [], "3^2:D(2*4)": [frob],
                      "M9": [tuple(F.mul(g, F.frobenius(x)) + 1 for x in range(q))]}
            return [tuple(F.add(x, 1) + 1 for x in range(q)),
                    tuple(F.mul(F.mul(g, g), x) + 1 for x in range(q))] + twists[params[0]]

        def moebius(a, b, c, d):
            images = []
            for x in range(q):
                den = F.add(F.mul(c, x), d)
                num = F.add(F.mul(a, x), b)
                images.append(q + 1 if den == 0 else F.mul(num, F.inv(den)) + 1)
            return tuple(images) + (q + 1 if c == 0 else F.mul(a, F.inv(c)) + 1,)

        psl = [moebius(1, 1, 0, 1), moebius(F.mul(g, g), 0, 0, 1), moebius(0, F.neg(1), 1, 0)]
        scale, frob = moebius(g, 0, 0, 1), frob + (q + 1,)
        twist = tuple(F.mul(g, F.frobenius(x)) + 1 for x in range(q)) + (q + 1,)
        extra = {"PSL": [], "PGL": [scale], "PSigmaL": [frob], "PGammaL": [scale, frob],
                 "M10": [twist]}
        return psl + extra[params[1]]
    if kind in ("affine_matrix", "psl32"):
        d, p, linear = params if kind == "affine_matrix" else (3, 2, "SL")
        vectors = list(itertools.product(range(p), repeat=d))
        if kind == "psl32":
            vectors = vectors[1:]
        index = {v: i + 1 for i, v in enumerate(vectors)}

        def act(f):
            return tuple(index[f(v)] for v in vectors)

        gens = []
        if kind == "affine_matrix":
            gens.append(act(lambda v: ((v[0] + 1) % p,) + v[1:]))
        for i, j in itertools.permutations(range(d), 2):
            # I + E(i, j): coordinate i gains coordinate j
            gens.append(act(lambda v, i=i, j=j: tuple(
                (v[r] + v[j]) % p if r == i else v[r] for r in range(d))))
        if linear == "GL" and p > 2:
            gens.append(act(lambda v: (v[0] * GF.of(p).generator % p,) + v[1:]))
        return gens
    return None


def is_section(points, partition) -> bool:
    """True iff the set meets every block of the partition exactly once."""
    pts = set(points)
    if len(pts) != len(partition.blocks):
        return False
    for b in partition.blocks:
        hits = sum(1 for p in b if p in pts)
        if hits != 1:
            return False
    return True


def block_system_is_valid(G, system) -> bool:
    """Direct assertion of the invariant: generators permute the blocks."""
    blocks = [frozenset(b) for b in system.blocks.blocks]
    sizes = {len(b) for b in blocks}
    if len(sizes) != 1 or G.degree % len(blocks) != 0:
        return False
    block_set = set(blocks)
    for g in G.generators:
        for b in blocks:
            image = frozenset(g.apply(p) for p in b)
            if image not in block_set:
                return False
    return True


# The elements `elements_bfs` may list.
ELEMENTS_BFS_CAP = 10**6


def elements_bfs(G):
    """All group elements, as `Permutation`s, by closure BFS over the
    generators, independent of the stabilizer chain.

    Raises CapExceeded beyond ELEMENTS_BFS_CAP elements.
    """
    from operator import itemgetter

    from ut_lab.errors import CapExceeded
    from ut_lab.perm_core import Permutation

    # Each generator is padded with a 0th entry, so that for 1-based images
    # p the left-to-right product p * g is itemgetter(*p)(g), one C-level
    # pass; at degree 1 that itemgetter would return an item, not a tuple.
    start = tuple(range(1, G.degree + 1))
    if G.degree == 1:
        return {Permutation(start)}
    gens = [(0,) + g for g in G.gen_images()]
    seen = {start}
    queue = deque([start])
    while queue:
        times = itemgetter(*queue.popleft())
        for g in gens:
            q = times(g)
            if q not in seen:
                if len(seen) >= ELEMENTS_BFS_CAP:
                    raise CapExceeded("element closure cap exceeded", len(seen))
                seen.add(q)
                queue.append(q)
    return {Permutation(p) for p in seen}


def quasi_regular_by_maps(G, k: int) -> bool:
    """Is every rank-k quasi-permutation regular in <a, G>?  One map per
    orbit representative of the big kernel class (an (n-k+1)-set, the
    other points singletons) and orbit representative of the image (a
    k-set), each asked of `is_regular_in`."""
    from ut_lab.semigroup import is_regular_in, transformation_from_parts
    from ut_lab.set_orbits import orbits_on_ksets

    n = G.degree
    for big in (o.representative for o in orbits_on_ksets(G, n - k + 1)):
        heads = [(p,) for p in range(1, n + 1) if p not in big]
        for image in (o.representative for o in orbits_on_ksets(G, k)):
            if not is_regular_in(transformation_from_parts(heads + [big], image), G).regular:
                return False
    return True
