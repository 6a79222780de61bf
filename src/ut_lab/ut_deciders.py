"""Deciders for the k-universal transversal property.

A group has the k-ut property when every orbit of k-sets contains a section
for every partition of {1..n} into k blocks.  The dispatcher `has_kut` runs
one chain for every 2 <= k < n: the primitivity criterion for k=2, the
k-homogeneity sufficient condition, the necessary-condition pruners
((k-1,k)-homogeneity, auxiliary-graph connectivity), and finally the exact
step.  Above the midpoint, k > (n+1)/2, k-ut is k-homogeneity: a group
that is not k-homogeneous there fails (k-1,k)-homogeneity, so the chain
ends before the exact step.

The exact step is `seeded_sweep(G, k)`, the one driver of seeded sweeps:
one `partitions.first_unsectioned` search per k-set orbit representative
of G and family, the representative placed in singleton blocks and the
other points most constrained first for that family
(`partitions.placement_order`).  The seeds depend on G and k alone; a
caller chooses only the families: every orbit here and in the direct
rank-k question, and one orbit at a time for weak k-ut and the
Higman-Sims step of C12.  `has_kut(method="extend")` is the exact step
without the chain before it.  `subpartition_extension_decider` runs
the same search for one orbit and one seed.  The naive decider runs it
unseeded, once per orbit in representative order, placing the points in
ascending order, so its witness is the first orbit that misses some
k-partition, with the first such partition in restricted-growth order.

Every negative verdict carries a witness pair (orbit representative, bad
partition) that is re-validated by exhaustive check before being returned;
"undecided" is a first-class outcome and never a guess.
"""
from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field

from .errors import CapExceeded
from .partitions import (
    SetPartition,
    SubPartition,
    # Not called here since the naive decider became a search, but
    # perfbench/spans.py wraps ut_deciders._rgs_stream, so the name stays.
    _rgs_stream,
    first_unsectioned,
    singleton_tail_partition,
)
from .perm_core import PermGroup, is_transitive, nontrivial_block_system, orbits_on_points
from .set_orbits import (
    KSet,
    KSetOrbit,
    as_kset,
    is_ij_homogeneous,
    is_k_homogeneous,
    kset_of_mask,
    mask_of,
    orbit_of_set,
    orbits_on_ksets,
)

# The growth rounds of `bad_partition_search_3ut` per seed vertex.
GROWTH_ROUNDS = 64


@dataclass(frozen=True)
class UtWitness:
    """A k-set orbit representative and a partition none of its orbit sections."""

    orbit_rep: KSet
    partition: SetPartition

    def __str__(self) -> str:
        rep = ",".join(map(str, self.orbit_rep))
        return f"orbit of {{{rep}}} has no section for {self.partition}"


@dataclass
class UtVerdict:
    """Outcome of a k-ut decision: holds True/False, or None for undecided."""

    holds: bool | None
    method: str
    witness: UtWitness | None = None
    detail: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        if self.holds is True:
            return "holds"
        if self.holds is False:
            return "fails"
        return "undecided"

    def __bool__(self) -> bool:
        return self.holds is True


# ---------------------------------------------------------------------------
# Witness re-check


def validate_ut_witness(G: PermGroup, witness: UtWitness) -> bool:
    """Exhaustively re-check a negative witness, independent of the decider.

    The orbit comes from a fresh BFS and every member is tested here, so
    neither the orbit cache nor the deciders' section probes are trusted.
    """
    blocks = witness.partition.blocks
    if witness.partition.n != G.degree or len(blocks) != len(witness.orbit_rep):
        return False
    orbit = orbit_of_set(G, witness.orbit_rep)
    block_masks = [mask_of(b) for b in blocks]
    for m in orbit.masks:
        if all(map(m.__and__, block_masks)):
            return False  # found a section; witness is bogus
    return True


def _checked_failure(G: PermGroup, rep: KSet, partition: SetPartition, method: str,
                     detail: dict | None = None) -> UtVerdict:
    witness = UtWitness(rep, partition)
    if not validate_ut_witness(G, witness):
        raise AssertionError(f"decider produced an invalid witness via {method}")
    return UtVerdict(False, method, witness, detail or {})


# ---------------------------------------------------------------------------
# Naive decider


def has_kut_naive(G: PermGroup, k: int) -> UtVerdict:
    """Exact k-ut decision: does every orbit section every k-partition?

    One unseeded `first_unsectioned` search over every k-partition per
    orbit, in representative order; a failure names the first orbit that
    misses some k-partition, with the first such partition in RGS order.
    An exhausted budget, k-set orbits or search nodes, raises CapExceeded.
    """
    n = G.degree
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    for orbit in orbits_on_ksets(G, k):
        partition, _ = first_unsectioned(n, k, orbit.masks)
        if partition is not None:
            return _checked_failure(G, orbit.representative, partition, "naive")
    return UtVerdict(True, "naive")


def _kut_k2_by_primitivity(G: PermGroup) -> UtVerdict:
    n = G.degree
    if not is_transitive(G):
        orbs = orbits_on_points(G)
        big = next((o for o in orbs if len(o) >= 2), None)
        if big is not None and len(big) < n:
            rest = tuple(p for p in range(1, n + 1) if p not in set(big))
            partition = SetPartition.of([big, rest])
            rep = (big[0], big[1])
        else:
            # trivial group: any pair is frozen in place
            partition = SetPartition.of([(1, 2), tuple(range(3, n + 1))])
            rep = (1, 2)
        return _checked_failure(G, rep, partition, "k2:intransitive")
    system = nontrivial_block_system(G)
    if system is None:
        return UtVerdict(True, "k2:primitivity")
    b1 = system.blocks.blocks[0]
    rest = tuple(p for p in range(1, n + 1) if p not in set(b1))
    partition = SetPartition.of([b1, rest])
    return _checked_failure(G, (b1[0], b1[1]), partition, "k2:imprimitive")


# ---------------------------------------------------------------------------
# Auxiliary graphs


def _bfs_distances(adj: dict[int, list[int]], sources) -> dict[int, int]:
    dist = {s: 0 for s in sources}
    queue = deque(sources)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@dataclass(frozen=True)
class AuxGraph:
    """Graph on {1..n} minus a base: pairs completing the base into a fixed orbit."""

    vertices: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for x, y in self.edges:
            adj[x].append(y)
            adj[y].append(x)
        return adj

    def components(self) -> list[tuple[int, ...]]:
        adj = self.adjacency()
        seen: set[int] = set()
        out = []
        for v in self.vertices:
            if v in seen:
                continue
            comp = _bfs_distances(adj, [v])
            seen.update(comp)
            out.append(tuple(sorted(comp)))
        out.sort(key=lambda c: c[0])
        return out


def aux_graph(G: PermGroup, B, c: int) -> AuxGraph:
    """The graph whose edges {x, y} satisfy {x, y} union B in the orbit of
    {1, ..., t, c}, where t = |B| + 1.  Requires a t-homogeneous group and
    an apex c outside {1..t}.
    """
    base = as_kset(B, G.degree)
    t = len(base) + 1
    if not 1 <= c <= G.degree or c <= t:
        raise ValueError(f"apex must lie outside {{1..{t}}}")
    if not is_k_homogeneous(G, t):
        raise ValueError("the group must be t-homogeneous for a base of size t-1")
    orbit = orbit_of_set(G, tuple(range(1, t + 1)) + (c,))
    return _graph_from_orbit(orbit, base, G.degree)


def _graph_from_orbit(orbit: KSetOrbit, base: KSet, n: int) -> AuxGraph:
    bmask = mask_of(base)
    base_set = set(base)
    vertices = tuple(v for v in range(1, n + 1) if v not in base_set)
    edges = set()
    for m in orbit.masks:
        if m & bmask == bmask:
            x, y = kset_of_mask(m & ~bmask)
            edges.add((x, y))
    return AuxGraph(vertices, frozenset(edges))


class _PairIndex:
    """For a fixed 3-set orbit: b -> list of pairs {x,y} with {x,y,b} in orbit.

    The gamma graphs, the growth diagnostic's graphs and the two-graph test
    are all read off it.
    """

    def __init__(self, orbit: KSetOrbit, n: int):
        self.pairs: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
        for m in orbit.masks:
            a, b, c = kset_of_mask(m)
            self.pairs[a].append((b, c))
            self.pairs[b].append((a, c))
            self.pairs[c].append((a, b))

    def gamma(self, C: set[int]) -> AuxGraph:
        """The graph on the points outside C whose edges {x, y} complete
        some b in C into the orbit."""
        vertices = tuple(v for v in self.pairs if v not in C)
        edges = frozenset(
            pair for b in C for pair in self.pairs[b] if C.isdisjoint(pair)
        )
        return AuxGraph(vertices, edges)


def connectivity_prune(G: PermGroup, k: int) -> UtVerdict | None:
    """Disconnection of some auxiliary graph disproves k-ut with a witness.

    For each k-set orbit, take a member containing {1..k-1}, set the base to
    {1..k-2}, and test connectivity of the resulting graph.  A disconnected
    component D yields the bad partition (singletons of base, D, rest).
    Returns None when every graph is connected (inconclusive).
    """
    n = G.degree
    t = k - 1
    if k < 3:
        raise ValueError("connectivity pruning applies for k >= 3")
    if not is_k_homogeneous(G, t):
        raise ValueError("the group must be (k-1)-homogeneous")
    tmask = mask_of(range(1, t + 1))
    base = tuple(range(1, t))
    for orbit in orbits_on_ksets(G, k):
        member_mask = min(m for m in orbit.masks if m & tmask == tmask)
        apex = kset_of_mask(member_mask & ~tmask)[0]
        graph = _graph_from_orbit(orbit, base, n)
        comps = graph.components()
        if len(comps) > 1:
            D = comps[0]
            rest = tuple(
                v for v in graph.vertices if v not in set(D)
            )
            partition = SetPartition.of([(b,) for b in base] + [D, rest])
            return _checked_failure(
                G,
                orbit.representative,
                partition,
                "prune:connectivity",
                {"apex": apex, "components": [len(c) for c in comps]},
            )
    return None


# ---------------------------------------------------------------------------
# The iterative 3-ut diagnostic (grow a candidate bad partition to a fixpoint)


@dataclass
class SeedReport:
    """Outcome of the bad-partition growth procedure for one seed vertex."""

    seed: int
    distance: int
    status: str  # "connected" | "bad_partition" | "exhausted"
    rounds: int
    partition: SetPartition | None = None
    note: str = ""


def _sides_connected(index: _PairIndex, C: set[int], A: set[int], Ap: set[int]) -> bool:
    """Are A and A' joined, outside C, by middle-block edges?

    An edge {x, y} exists when {x, b, y} lies in the orbit for some b in C.
    """
    if A & Ap:
        return True
    adj = index.gamma(C).adjacency()
    return not _bfs_distances(adj, A - C).keys().isdisjoint(Ap)


def bad_partition_search_3ut(G: PermGroup, c: int, d: int) -> list[SeedReport]:
    """Try to grow a bad 3-partition (A, C, A') for the orbit of {1, 2, c}.

    Starting from A = {1}, C = {n}, and each seed y at distance d from 1 in
    the pair graph on base {n}, membership constraints are propagated until
    the two sides land in a single component of the current middle-block
    graph ("connected": the candidate cannot stay section-free), a complete
    surviving partition is certified bad, or GROWTH_ROUNDS run out.  This is
    a diagnostic, not a decider: "connected"/"exhausted" never constitute a
    k-ut verdict on their own, which is why has_kut never calls it.
    """
    n = G.degree
    if not is_k_homogeneous(G, 2):
        raise ValueError("the procedure needs a 2-homogeneous group")
    if c in (1, 2) or not 3 <= c <= n:
        raise ValueError("apex must avoid {1, 2}")
    orbit = orbit_of_set(G, (1, 2, c))
    index = _PairIndex(orbit, n)
    # the base graph on {1..n-1}: pairs completing {n} into the orbit
    adj = index.gamma({n}).adjacency()
    dist1 = _bfs_distances(adj, [1])
    if len(dist1) < n - 1:
        raise ValueError("the base graph G(n, c) must be connected")

    reports = []
    for y in sorted(v for v, dv in dist1.items() if dv == d and v != 1):
        reports.append(
            _grow_candidate(G, orbit, index, adj, dist1, y, d, n)
        )
    return reports


def _grow_candidate(G, orbit, index, adj, dist1, y, d, n) -> SeedReport:
    A = {1}
    Ap = {y}
    C = {n}
    pool: set[int] = set()  # committed to A union A', side not yet forced
    disty = _bfs_distances(adj, [y])
    # interior vertices of 1-to-y geodesics are forced into C, else the
    # distance assumption D(A, A') = d would already be violated
    for x in range(1, n):
        if x in (1, y):
            continue
        if dist1.get(x, n + 1) + disty.get(x, n + 1) == d:
            C.add(x)

    rounds = 0
    while rounds < GROWTH_ROUNDS:
        rounds += 1
        changed = False
        # a point completing a committed A-A' pair into the orbit cannot lie
        # in C (it would hand the pair a section); the seed pair {1, y} is
        # the first instance, and growth of the sides forces more
        for a in sorted(A):
            for u, v in index.pairs[a]:
                if u in Ap:
                    third = v
                elif v in Ap:
                    third = u
                else:
                    continue
                if third in A or third in Ap or third in pool:
                    continue
                if third in C:
                    return SeedReport(y, d, "connected", rounds, note="forced overlap")
                pool.add(third)
                changed = True
        # (3) the sides landing in one component of the current graph ends
        # the growth: the candidate triple cannot stay section-free
        if _sides_connected(index, C, A, Ap):
            return SeedReport(y, d, "connected", rounds)
        # (4) a point whose move into C would join the sides must stay out of C
        unclassified = set(range(1, n + 1)) - C - A - Ap - pool
        for x in sorted(unclassified):
            if _sides_connected(index, C | {x}, A, Ap):
                pool.add(x)
                changed = True
        committed = A | Ap | pool
        # (5) distance constraints in the base graph: points within d-1 of a
        # side must lie on that side or in C
        near_A = {
            x for x, dx in _bfs_distances(adj, sorted(A)).items() if dx < d
        }
        near_Ap = {
            x for x, dx in _bfs_distances(adj, sorted(Ap)).items() if dx < d
        }
        # (6) committed points near A are in A; (7) likewise for A'
        for x in sorted((near_A & committed) - A):
            A.add(x)
            pool.discard(x)
            changed = True
        for x in sorted((near_Ap & committed) - Ap):
            Ap.add(x)
            pool.discard(x)
            changed = True
        # (8) points near both sides and not committed must be in C
        for x in sorted((near_A & near_Ap) - C - A - Ap - pool):
            C.add(x)
            changed = True
        if A & Ap or (A | Ap | pool) & C:
            return SeedReport(y, d, "connected", rounds, note="forced overlap")
        if not changed:
            if not pool and A | Ap | C == set(range(1, n + 1)):
                partition = SetPartition.of([tuple(A), tuple(C), tuple(Ap)])
                witness = UtWitness(orbit.representative, partition)
                if validate_ut_witness(G, witness):
                    return SeedReport(y, d, "bad_partition", rounds, partition)
            return SeedReport(y, d, "exhausted", rounds)
    return SeedReport(y, d, "exhausted", rounds)


# ---------------------------------------------------------------------------
# Subpartition extension decider


def subpartition_extension_decider(
    G: PermGroup,
    k: int,
    orbit: KSetOrbit,
    seed: SubPartition,
) -> UtVerdict:
    """Decide whether the orbit sections every partition refining the seed.

    A seeded `first_unsectioned` search with the orbit as its family,
    which places the points most constrained first.  Its first surviving
    full partition, a validated witness, is the first in lexicographic
    order of block choices in that order, the leaf a breadth-first search
    in the same order would list first; a search that ends without one
    certifies the verdict.  `detail["frontier_profile"]` is the search's
    profile.
    """
    if orbit.k != k:
        raise ValueError("orbit must consist of k-sets")
    partition, profile = first_unsectioned(G.degree, k, orbit.masks, seed)
    if partition is not None:
        return _checked_failure(
            G, orbit.representative, partition, "extension",
            {"frontier_profile": profile},
        )
    return UtVerdict(True, "extension", detail={"frontier_profile": profile})


def seeded_sweep(
    G: PermGroup, k: int, families: tuple[KSetOrbit, ...] | None = None
) -> tuple[KSet, SetPartition, KSetOrbit] | None:
    """(seed representative, partition, orbit) for a k-partition that some
    orbit of `families` (default: every k-set orbit of G) misses,
    unchecked, or None.  Each k-set orbit representative of G, placed in
    singleton blocks, seeds one `first_unsectioned` search per family, so
    that each search places the other points most constrained first for
    its family; representatives come first, families in the order given.
    A family that holds the representative sections the seed at the root
    and is skipped.

    Every k-partition is equivalent under G to one whose blocks separate
    some k-set orbit representative (pick a section of the partition and
    map it to its orbit representative).  So the representatives of every
    orbit cover every partition; an orbit's own representative seed is
    sectioned by that orbit, so a search for one orbit needs only the
    others' representatives, and the skip above drops its own.
    """
    orbits = orbits_on_ksets(G, k)
    for rep in (o.representative for o in orbits):
        # A representative is sorted, so its singletons are already canonical.
        seed, own = SubPartition(tuple((p,) for p in rep)), mask_of(rep)
        for family in orbits if families is None else families:
            if own in family.masks:
                continue
            partition, _ = first_unsectioned(G.degree, k, family.masks, seed)
            if partition is not None:
                return rep, partition, family
    return None


# ---------------------------------------------------------------------------
# Dispatcher


def has_kut(G: PermGroup, k: int, method: str = "auto") -> UtVerdict:
    """Decide the k-universal transversal property for 2 <= k < n.

    method="auto" runs the dispatcher chain of this module's docstring,
    the same chain for every k; "naive" runs the unseeded searches alone,
    one per orbit, and "extend" the chain's exact step alone, so wherever
    the chain reaches that step the two give the same verdict, witness and
    detail.  Whichever runs, an exhausted budget, k-set orbits
    (`set_orbits.DEFAULT_ORBIT_CAP`) or search nodes
    (`partitions.FRONTIER_CAP`, counted per search), gives
    "undecided:budget-exhausted".
    """
    n = G.degree
    if not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    if method not in ("auto", "naive", "extend"):
        raise ValueError(f"unknown method {method!r}")
    try:
        if method == "naive":
            return has_kut_naive(G, k)
        if method == "extend":
            return _exact_step(G, k)
        return _decide_auto(G, k)
    except CapExceeded as err:
        return UtVerdict(
            None, "undecided:budget-exhausted", detail={"partial": err.partial}
        )


def _decide_auto(G: PermGroup, k: int) -> UtVerdict:
    n = G.degree
    # k = 2 is primitivity
    if k == 2:
        return _kut_k2_by_primitivity(G)

    # sufficient: a k-homogeneous group sections everything
    if is_k_homogeneous(G, k):
        return UtVerdict(True, "k-homogeneous")

    # necessary prunes, cheapest first; above the midpoint a group that is
    # not k-homogeneous always fails the first
    ok, pair = is_ij_homogeneous(G, k - 1, k)
    if not ok:
        i_rep, j_set = pair
        partition = singleton_tail_partition(i_rep, n)
        return _checked_failure(G, j_set, partition, "prune:ij-homogeneity")
    if is_k_homogeneous(G, k - 1):
        pruned = connectivity_prune(G, k)
        if pruned is not None:
            return pruned

    return _exact_step(G, k)


def _exact_step(G: PermGroup, k: int) -> UtVerdict:
    """The chain's exact decision: `seeded_sweep` over every orbit."""
    failure = seeded_sweep(G, k)
    if failure is None:
        return UtVerdict(True, "extension")
    seed, partition, orbit = failure
    return _checked_failure(
        G, orbit.representative, partition, "extension", {"seed": seed}
    )


def has_weak_kut(G: PermGroup, k: int) -> tuple[bool | None, KSet | None]:
    """Does some single k-set orbit section every k-partition?

    Each orbit in turn is the one family of a `seeded_sweep`.  Returns
    (True, lex-least universal representative), (False, None), or
    (None, None) when a budget ran out, k-set orbits or search nodes, before
    the least universal orbit was found.  No witness is returned, so the
    partitions an orbit misses are dropped unchecked.
    """
    n = G.degree
    if not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    try:
        for orbit in orbits_on_ksets(G, k):
            if seeded_sweep(G, k, (orbit,)) is None:
                return True, orbit.representative
    except CapExceeded:
        return None, None
    return False, None


# ---------------------------------------------------------------------------
# Regular two-graph certificates


@dataclass(frozen=True)
class TwoGraphReport:
    lam: int
    certifies_sections: bool


def two_graph_check(G: PermGroup, orbit: KSetOrbit) -> TwoGraphReport | None:
    """Check a 3-set orbit for the regular two-graph property and certify.

    Returns None unless every pair lies in a constant number lambda of orbit
    members and every 4-set contains an even number of them.  The test is
    exact.  It rests on Seidel's fact that a two-graph is the set of 3-sets
    holding an odd number of edges of any of its descendants, one of which
    is the pair graph at n: the graph on {1..n-1} whose edges {x, y}
    complete {n} into the orbit.  So the orbit is a two-graph iff its
    members are exactly the odd 3-sets of that graph (those through n being
    its edges).  When n/3 - 2 < lambda < 2n/3 the two-graph argument rules
    out section-free 3-partitions for this orbit.
    """
    if orbit.k != 3:
        raise ValueError("two-graph checks apply to 3-set orbits")
    if not is_transitive(G):
        raise ValueError("the group must be transitive")
    n = G.degree
    index = _PairIndex(orbit, n)
    lams: set[int] = set()
    for pairs in index.pairs.values():
        counts = Counter(itertools.chain.from_iterable(pairs))
        if len(counts) != n - 1:
            return None
        lams.update(counts.values())
    if len(lams) != 1:
        return None
    (lam,) = lams
    # nbr[x]: the neighbours of x in the pair graph at n, as a point mask
    nbr = [0] * n
    for x, y in index.pairs[n]:
        nbr[x] |= 1 << (y - 1)
        nbr[y] |= 1 << (x - 1)
    below_n = (1 << (n - 1)) - 1
    # every odd 3-set must be a member, and the members off n no more
    odd = 0
    for x in range(1, n - 1):
        for y in range(x + 1, n - 1):
            # the z in (y, n) for which {x, y, z} holds an odd number of edges
            zs = nbr[x] ^ nbr[y] ^ (below_n if nbr[x] >> (y - 1) & 1 else 0)
            zs = zs >> y << y & below_n
            odd += zs.bit_count()
            xy = 1 << (x - 1) | 1 << (y - 1)
            while zs:
                z = zs & -zs
                if xy | z not in orbit.masks:
                    return None
                zs ^= z
    if odd != orbit.size - len(index.pairs[n]):
        return None
    certified = (3 * lam > n - 6) and (3 * lam < 2 * n)
    return TwoGraphReport(lam, certified)
