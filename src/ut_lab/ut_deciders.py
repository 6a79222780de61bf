"""Deciders for the k-universal transversal property.

A group has the k-ut property when every orbit of k-sets contains a section
for every partition of {1..n} into k blocks.  The dispatcher `has_kut` runs,
in order: the large-k homogeneity equivalence, the primitivity criterion for
k=2, the k-homogeneity sufficient condition, the necessary-condition pruners
(order bound, (k-1,k)-homogeneity, auxiliary-graph connectivity), and finally
an exact search: either the naive search of every k-partition against every
k-set orbit, which stops at the first partition some orbit misses, or the
subpartition extension decider seeded by k-set orbit representatives.

Every negative verdict carries a witness pair (orbit representative, bad
partition) that is re-validated by exhaustive check before being returned;
"undecided" is a first-class outcome and never a guess.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter, deque
from dataclasses import dataclass, field

from .errors import BudgetExceeded, CapExceeded
from .partitions import (
    SetPartition,
    SubPartition,
    # Not called here since the naive decider became a search, but
    # perfbench/spans.py wraps ut_deciders._rgs_stream, so the name stays.
    _rgs_stream,
    first_unsectioned,
    singleton_tail_partition,
    stirling2,
)
from .perm_core import PermGroup, is_transitive, nontrivial_block_system, orbits_on_points
from .set_orbits import (
    DEFAULT_ORBIT_CAP,
    KSet,
    KSetOrbit,
    as_kset,
    find_section,
    is_ij_homogeneous,
    is_k_homogeneous,
    kset_of_mask,
    mask_of,
    orbit_of_set,
    orbits_on_ksets,
    order_bound_pass,
)

NAIVE_PARTITION_BUDGET = 10**8
NAIVE_AUTO_LIMIT = 50_000
FRONTIER_CAP = 10**7
DEFAULT_SEED = 1108


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
    neither the orbit cache nor `find_section` is trusted.
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


def has_kut_naive(
    G: PermGroup,
    k: int,
    partition_budget: int = NAIVE_PARTITION_BUDGET,
    shortcut_k2: bool = False,
) -> UtVerdict:
    """Exact k-ut decision: does every orbit section every k-partition?

    A depth-first search over the k-partitions (`first_unsectioned`) that
    skips every branch in which all orbits already have a section; its
    first failure is the first partition in RGS order that an orbit misses,
    with the first such orbit.  Declares itself infeasible (BudgetExceeded)
    when the Stirling number S(n, k) exceeds the partition budget.
    """
    n = G.degree
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got k={k}, n={n}")
    if k == 2 and shortcut_k2:
        return _kut_k2_by_primitivity(G)
    count = stirling2(n, k)
    if count > partition_budget:
        raise BudgetExceeded(
            f"S({n},{k}) = {count} partitions exceed the naive budget {partition_budget}"
        )
    orbits = orbits_on_ksets(G, k)
    failure = first_unsectioned(n, k, [orbit.masks for orbit in orbits])
    if failure is None:
        return UtVerdict(True, "naive")
    partition, i = failure
    return _checked_failure(G, orbits[i].representative, partition, "naive")


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


@dataclass(frozen=True)
class AuxGraph:
    """Graph on {1..n} minus base: pairs completing the base into a fixed orbit."""

    base: KSet
    apex: int
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
            comp = {v}
            queue = deque([v])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if w not in comp:
                        comp.add(w)
                        queue.append(w)
            seen |= comp
            out.append(tuple(sorted(comp)))
        out.sort(key=lambda c: c[0])
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1


def aux_graph(
    G: PermGroup, B, c: int, cap: int = DEFAULT_ORBIT_CAP
) -> AuxGraph:
    """The graph whose edges {x, y} satisfy {x, y} union B in the orbit of
    {1, ..., t, c}, where t = |B| + 1.  Requires a t-homogeneous group and
    an apex c outside {1..t}.
    """
    base = as_kset(B, G.degree)
    t = len(base) + 1
    if not 1 <= c <= G.degree or c <= t:
        raise ValueError(f"apex must lie outside {{1..{t}}}")
    if not is_k_homogeneous(G, t, cap):
        raise ValueError("the group must be t-homogeneous for a base of size t-1")
    orbit = orbit_of_set(G, tuple(range(1, t + 1)) + (c,), cap)
    return _graph_from_orbit(orbit, base, c, G.degree)


def _graph_from_orbit(orbit: KSetOrbit, base: KSet, apex: int, n: int) -> AuxGraph:
    bmask = mask_of(base)
    base_set = set(base)
    vertices = tuple(v for v in range(1, n + 1) if v not in base_set)
    edges = set()
    for m in orbit.masks:
        if m & bmask == bmask:
            x, y = kset_of_mask(m & ~bmask)
            edges.add((x, y))
    return AuxGraph(base, apex, vertices, frozenset(edges))


def gamma_graph(G: PermGroup, C, c: int, cap: int = DEFAULT_ORBIT_CAP) -> AuxGraph:
    """Union over b in C of the pair-graphs G(b, c), restricted outside C."""
    if not is_k_homogeneous(G, 2, cap):
        raise ValueError("the gamma graph needs a 2-homogeneous group")
    C_set = set(as_kset(C, G.degree))
    if c in C_set or c in (1, 2):
        raise ValueError("apex must avoid C and {1, 2}")
    orbit = orbit_of_set(G, (1, 2, c), cap)
    vertices = tuple(v for v in range(1, G.degree + 1) if v not in C_set)
    edges = set()
    for member in orbit.members:
        inside = [p for p in member if p in C_set]
        if len(inside) == 1:
            x, y = (p for p in member if p not in C_set)
            edges.add((x, y) if x < y else (y, x))
    return AuxGraph(tuple(sorted(C_set)), c, vertices, frozenset(edges))


def connectivity_prune(
    G: PermGroup, k: int, cap: int = DEFAULT_ORBIT_CAP
) -> UtVerdict | None:
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
    if not is_k_homogeneous(G, t, cap):
        raise ValueError("the group must be (k-1)-homogeneous")
    tmask = mask_of(range(1, t + 1))
    base = tuple(range(1, t))
    for orbit in orbits_on_ksets(G, k, cap):
        member_mask = min(m for m in orbit.masks if m & tmask == tmask)
        apex = kset_of_mask(member_mask & ~tmask)[0]
        graph = _graph_from_orbit(orbit, base, apex, n)
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


class _PairIndex:
    """For a fixed 3-set orbit: b -> list of pairs {x,y} with {x,y,b} in orbit."""

    def __init__(self, orbit: KSetOrbit, n: int):
        self.pairs: dict[int, list[tuple[int, int]]] = {v: [] for v in range(1, n + 1)}
        for a, b, c in orbit.members:
            self.pairs[a].append((b, c))
            self.pairs[b].append((a, c))
            self.pairs[c].append((a, b))


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


def _sides_connected(
    index: _PairIndex, C: set[int], allowed: set[int], A: set[int], Ap: set[int]
) -> bool:
    """Are A and A' joined, within the allowed vertices, by middle-block edges?

    An edge {x, y} exists when {x, b, y} lies in the orbit for some b in C.
    """
    if A & Ap:
        return True
    adj: dict[int, list[int]] = {v: [] for v in allowed}
    for b in C:
        for x, y in index.pairs[b]:
            if x in allowed and y in allowed:
                adj[x].append(y)
                adj[y].append(x)
    seen = set(A & allowed)
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        if u in Ap:
            return True
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return bool(seen & Ap)


def bad_partition_search_3ut(
    G: PermGroup,
    c: int,
    d: int,
    max_rounds: int = 64,
    cap: int = DEFAULT_ORBIT_CAP,
) -> list[SeedReport]:
    """Try to grow a bad 3-partition (A, C, A') for the orbit of {1, 2, c}.

    Starting from A = {1}, C = {n}, and each seed y at distance d from 1 in
    the pair graph on base {n}, membership constraints are propagated until
    the two sides land in a single component of the current middle-block
    graph ("connected": the candidate cannot stay section-free), a complete
    surviving partition is certified bad, or the round cap is hit.  This is
    a diagnostic, not a decider: "connected"/"exhausted" never constitute a
    k-ut verdict on their own, which is why has_kut never calls it.
    """
    n = G.degree
    if not is_k_homogeneous(G, 2, cap):
        raise ValueError("the procedure needs a 2-homogeneous group")
    if c in (1, 2) or not 3 <= c <= n:
        raise ValueError("apex must avoid {1, 2}")
    orbit = orbit_of_set(G, (1, 2, c), cap)
    index = _PairIndex(orbit, n)
    # the base graph on {1..n-1}: pairs completing {n} into the orbit
    adj: dict[int, list[int]] = {v: [] for v in range(1, n)}
    for x, y in index.pairs[n]:
        adj[x].append(y)
        adj[y].append(x)
    dist1 = _bfs_distances(adj, [1])
    if len(dist1) < n - 1:
        raise ValueError("the base graph G(n, c) must be connected")

    reports = []
    for y in sorted(v for v, dv in dist1.items() if dv == d and v != 1):
        reports.append(
            _grow_candidate(G, orbit, index, adj, dist1, y, d, n, max_rounds)
        )
    return reports


def _grow_candidate(G, orbit, index, adj, dist1, y, d, n, max_rounds) -> SeedReport:
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
    while rounds < max_rounds:
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
        avail = set(range(1, n + 1)) - C
        # (3) the sides landing in one component of the current graph ends
        # the growth: the candidate triple cannot stay section-free
        if _sides_connected(index, C, avail, A, Ap):
            return SeedReport(y, d, "connected", rounds)
        # (4) a point whose move into C would join the sides must stay out of C
        unclassified = avail - A - Ap - pool
        for x in sorted(unclassified):
            if _sides_connected(index, C | {x}, avail - {x}, A, Ap):
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
    frontier_cap: int = FRONTIER_CAP,
) -> UtVerdict:
    """Decide whether the orbit sections every partition refining the seed.

    Breadth-first extension: the smallest unplaced point is added to each of
    the k blocks in turn, and any subpartition already sectioned by the orbit
    is pruned (a section of a subpartition stays a section of every
    completion).  An empty frontier certifies the verdict; a surviving full
    partition is a validated witness.
    """
    n = G.degree
    if seed.num_blocks != k:
        raise ValueError(f"seed must have exactly k={k} blocks")
    if orbit.k != k:
        raise ValueError("orbit must consist of k-sets")
    if any(p > n for p in seed.support):
        raise ValueError("seed places a point outside the domain")
    masks = orbit.masks
    placed = seed.support
    remaining = [p for p in range(1, n + 1) if p not in placed]
    profile: list[int] = []
    start = tuple(tuple(b) for b in seed.blocks)
    if find_section(masks, start) is not None:
        frontier: list[tuple[tuple[int, ...], ...]] = []
    else:
        frontier = [start]
    profile.append(len(frontier))
    for x in remaining:
        if not frontier:
            break
        children = []
        for blocks in frontier:
            for i in range(k):
                if find_section(masks, blocks[:i] + ((x,),) + blocks[i + 1:]) is None:
                    children.append(blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1:])
        if len(children) > frontier_cap:
            err = CapExceeded("extension frontier cap exceeded", len(children))
            err.profile = profile  # type: ignore[attr-defined]
            raise err
        frontier = children
        profile.append(len(frontier))
    detail = {"frontier_profile": profile}
    if frontier:
        partition = SetPartition.of(frontier[0])
        return _checked_failure(
            G, orbit.representative, partition, "extension", detail
        )
    return UtVerdict(True, "extension", detail=detail)


def _extension_universal(
    G: PermGroup,
    k: int,
    orbit: KSetOrbit,
    reps: list[KSet],
    frontier_cap: int,
) -> UtVerdict:
    """Run the extension decider for one orbit against every seed placement.

    Every k-partition is equivalent under G to one whose blocks separate some
    orbit representative (pick a section of the partition and map it to its
    orbit representative), so seeding with each representative in singleton
    blocks covers all partitions.  The orbit's own representative seed is
    trivially sectioned by it.
    """
    profiles = {}
    for rep in reps:
        if mask_of(rep) in orbit.masks:
            continue
        seed = SubPartition.of([(p,) for p in rep])
        verdict = subpartition_extension_decider(G, k, orbit, seed, frontier_cap)
        profiles[str(rep)] = verdict.detail.get("frontier_profile")
        if verdict.holds is False:
            verdict.detail["seed"] = rep
            return verdict
    return UtVerdict(True, "extension", detail={"frontier_profiles": profiles})


# ---------------------------------------------------------------------------
# Dispatcher


def has_kut(
    G: PermGroup,
    k: int,
    method: str = "auto",
    naive_auto_limit: int = NAIVE_AUTO_LIMIT,
    frontier_cap: int = FRONTIER_CAP,
    cap: int = DEFAULT_ORBIT_CAP,
) -> UtVerdict:
    """Decide the k-universal transversal property for 2 <= k < n."""
    n = G.degree
    if not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    if method not in ("auto", "naive", "extend"):
        raise ValueError(f"unknown method {method!r}")

    if method == "naive":
        return has_kut_naive(G, k)
    if method == "extend":
        return _decide_by_extension(G, k, frontier_cap, cap)

    # (a) above the midpoint, k-ut is exactly k-homogeneity
    if k > (n + 1) // 2:
        if is_k_homogeneous(G, k, cap):
            return UtVerdict(True, "bigk:k-homogeneous")
        ok, pair = is_ij_homogeneous(G, k - 1, k, cap)
        if ok:
            raise AssertionError("large k: not k-homogeneous yet (k-1,k)-homogeneous")
        i_rep, j_set = pair
        partition = singleton_tail_partition(i_rep, n)
        return _checked_failure(G, j_set, partition, "bigk:not-homogeneous")

    # (b) k = 2 is primitivity
    if k == 2:
        return _kut_k2_by_primitivity(G)

    # sufficient: a k-homogeneous group sections everything
    if is_k_homogeneous(G, k, cap):
        return UtVerdict(True, "k-homogeneous")

    # (c) necessary prunes, cheapest first
    method_tag = "prune:ij-homogeneity"
    if not order_bound_pass(G, k - 1):
        method_tag = "prune:order-bound"
    ok, pair = is_ij_homogeneous(G, k - 1, k, cap)
    if not ok:
        i_rep, j_set = pair
        partition = singleton_tail_partition(i_rep, n)
        return _checked_failure(G, j_set, partition, method_tag)
    if is_k_homogeneous(G, k - 1, cap):
        pruned = connectivity_prune(G, k, cap)
        if pruned is not None:
            return pruned

    # (d) exact decision
    if stirling2(n, k) <= naive_auto_limit:
        return has_kut_naive(G, k)
    try:
        return _decide_by_extension(G, k, frontier_cap, cap)
    except CapExceeded as err:
        return UtVerdict(
            None, "undecided:budget-exhausted", detail={"partial": err.partial}
        )


def _decide_by_extension(
    G: PermGroup, k: int, frontier_cap: int, cap: int
) -> UtVerdict:
    orbits = orbits_on_ksets(G, k, cap)
    reps = [o.representative for o in orbits]
    all_profiles = {}
    for orbit in orbits:
        verdict = _extension_universal(G, k, orbit, reps, frontier_cap)
        if verdict.holds is False:
            return verdict
        all_profiles[str(orbit.representative)] = verdict.detail.get(
            "frontier_profiles"
        )
    return UtVerdict(True, "extension", detail={"frontier_profiles": all_profiles})


def has_weak_kut(
    G: PermGroup,
    k: int,
    frontier_cap: int = FRONTIER_CAP,
    cap: int = DEFAULT_ORBIT_CAP,
) -> tuple[bool | None, KSet | None]:
    """Does some single k-set orbit section every k-partition?

    Returns (True, lex-least universal representative), (False, None), or
    (None, None) when the budget ran out.
    """
    n = G.degree
    if not 2 <= k < n:
        raise ValueError(f"need 2 <= k < n, got k={k}, n={n}")
    orbits = orbits_on_ksets(G, k, cap)
    reps = [o.representative for o in orbits]
    undecided = False
    for orbit in orbits:
        try:
            verdict = _extension_universal(G, k, orbit, reps, frontier_cap)
        except CapExceeded:
            undecided = True
            continue
        if verdict.holds:
            return True, orbit.representative
    return (None, None) if undecided else (False, None)


# ---------------------------------------------------------------------------
# Regular two-graph certificates


@dataclass(frozen=True)
class TwoGraphReport:
    lam: int
    certifies_sections: bool
    exhaustive: bool


def two_graph_check(
    G: PermGroup,
    orbit: KSetOrbit,
    sample: int = 100_000,
    seed: int = DEFAULT_SEED,
) -> TwoGraphReport | None:
    """Check a 3-set orbit for the regular two-graph property and certify.

    Returns None unless every pair lies in a constant number lambda of orbit
    members and every 4-set contains an even number of them (exhaustive for
    n <= 30, sampled above).  When n/3 - 2 < lambda < 2n/3 the two-graph
    argument rules out section-free 3-partitions for this orbit.
    """
    if orbit.k != 3:
        raise ValueError("two-graph checks apply to 3-set orbits")
    if not is_transitive(G):
        raise ValueError("the group must be transitive")
    n = G.degree
    counts: Counter[tuple[int, int]] = Counter()
    members = orbit.members
    for a, b, c in members:
        counts[(a, b)] += 1
        counts[(a, c)] += 1
        counts[(b, c)] += 1
    values = set(counts.values())
    if len(values) != 1 or len(counts) != math.comb(n, 2):
        return None
    lam = values.pop()
    if n <= 30:
        quads = itertools.combinations(range(1, n + 1), 4)
        exhaustive = True
    else:
        rng = random.Random(seed)
        pts = list(range(1, n + 1))
        quads = (tuple(sorted(rng.sample(pts, 4))) for _ in range(sample))
        exhaustive = False
    for quad in quads:
        inside = sum(1 for tri in itertools.combinations(quad, 3) if tri in members)
        if inside % 2:
            return None
    certified = (3 * lam > n - 6) and (3 * lam < 2 * n)
    return TwoGraphReport(lam, certified, exhaustive)
