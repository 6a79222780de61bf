#!/usr/bin/env python3
"""Derive the Higman-Sims group in its 2-transitive degree-176 action.

Pipeline, all validated as it goes:

1. PSL(3,4) on the 21 points of PG(2,4), from transvection generators.
2. The Steiner system S(3,6,22): line blocks through an added point plus one
   PSL(3,4)-orbit of 56 hyperovals (checked: every 3-set in exactly one block).
3. The 100-vertex graph on {star} + 22 points + 77 blocks (star ~ points,
   point ~ containing blocks, block ~ disjoint blocks), checked to be
   strongly regular with parameters (100, 22, 0, 6).
4. Graph automorphisms: the PSL(3,4) action extends naturally; a backtracking
   search supplies automorphisms moving the star vertex.  The full group is
   Aut = HS:2 (order 88704000); its derived subgroup is HS (order 44352000).
5. A 7-set of points meeting every block in 1 or 3 points yields a split of
   the 100 vertices into two 50-sets inducing Hoffman-Singleton graphs
   (checked: srg(50, 7, 0, 1)); the HS-orbit of one half has length 176 and
   the induced action is the 2-transitive degree-176 representation.
6. A seeded random pair of elements that generates the whole degree-176
   group replaces the generators inherited from step 4, so that every orbit
   computation applies two generators instead of dozens (checked: order,
   2-transitivity, 3-set orbit sizes 61600/369600/462000, all on the pair).

Writes src/ut_lab/data/hs_deg176.grp.  Run: python tools/gen_hs.py
"""
from __future__ import annotations

import itertools
import random
import sys
import time
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ut_lab.catalog import format_group_file
from ut_lab.gf import GF
from ut_lab.perm_core import PermGroup, Permutation, transitivity_degree
from ut_lab.set_orbits import orbits_on_ksets

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "ut_lab" / "data"

STAR = 0  # vertex indices 0..99: star, then 22 points, then 77 blocks


def pg24_points_and_lines():
    F = GF.of(4)
    vecs = [v for v in itertools.product(range(4), repeat=3) if any(v)]

    def normalize(v):
        lead = next(x for x in v if x)
        inv = F.inv(lead)
        return tuple(F.mul(inv, x) for x in v)

    points = sorted({normalize(v) for v in vecs})
    assert len(points) == 21
    pindex = {p: i for i, p in enumerate(points)}

    def collinear(a, b, c):
        # determinant over GF(4)
        m = [a, b, c]
        det = 0
        for perm, sign in (
            ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
            ((0, 2, 1), 1), ((2, 1, 0), 1), ((1, 0, 2), 1),
        ):
            term = 1
            for r, cidx in enumerate(perm):
                term = F.mul(term, m[r][cidx])
            det = F.add(det, term)  # char 2: signs vanish
        return det == 0

    lines = set()
    for a, b in itertools.combinations(points, 2):
        line = tuple(
            sorted(pindex[c] for c in points if c == a or c == b or collinear(a, b, c))
        )
        assert len(line) == 5
        lines.add(line)
    assert len(lines) == 21
    return points, pindex, sorted(lines), F


def psl34_generators(points, pindex, F):
    gens = []
    units = [1, F.generator]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for lam in units:
                mat = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
                mat[i][j] = lam
                imgs = []
                for p in points:
                    v = tuple(
                        _dot(F, mat[r], p) for r in range(3)
                    )
                    lead = next(x for x in v if x)
                    inv = F.inv(lead)
                    imgs.append(pindex[tuple(F.mul(inv, x) for x in v)])
                gens.append(tuple(imgs))
    return gens


def _dot(F, row, vec):
    s = 0
    for a, b in zip(row, vec):
        s = F.add(s, F.mul(a, b))
    return s


def steiner_22(points, pindex, lines, F, psl_gens):
    # standard hyperoval: the conic {(1, t, t^2)} plus (0,1,0), (0,0,1)
    conic = [(1, t, F.mul(t, t)) for t in range(4)] + [(0, 1, 0), (0, 0, 1)]
    oval = tuple(sorted(pindex[p] for p in conic))
    assert len(oval) == 6
    # orbit of the hyperoval under PSL(3,4)
    orbit = {oval}
    queue = deque([oval])
    while queue:
        o = queue.popleft()
        for g in psl_gens:
            img = tuple(sorted(g[x] for x in o))
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
    assert len(orbit) == 56, len(orbit)
    # blocks on 22 points: PG points are 0..20, the new point is 21
    blocks = [tuple(sorted(line + (21,))) for line in lines]
    blocks += [o for o in sorted(orbit)]
    assert len(blocks) == 77
    # Steiner property: every 3-subset of the 22 points in exactly one block
    seen = {}
    for b in blocks:
        for tri in itertools.combinations(b, 3):
            assert tri not in seen, "3-set covered twice"
            seen[tri] = b
    assert len(seen) == 1540
    return blocks


def higman_sims_graph(blocks):
    # vertices: 0 = star, 1..22 = points 0..21, 23..99 = blocks 0..76
    n = 100
    adj = [set() for _ in range(n)]

    def add(u, v):
        adj[u].add(v)
        adj[v].add(u)

    for p in range(22):
        add(STAR, 1 + p)
    block_sets = [set(b) for b in blocks]
    for bi, b in enumerate(block_sets):
        for p in b:
            add(1 + p, 23 + bi)
    for bi, bj in itertools.combinations(range(77), 2):
        if not (block_sets[bi] & block_sets[bj]):
            add(23 + bi, 23 + bj)
    # strong regularity check: srg(100, 22, 0, 6)
    for v in range(n):
        assert len(adj[v]) == 22, (v, len(adj[v]))
    for u in range(n):
        for v in range(u + 1, n):
            common = len(adj[u] & adj[v])
            assert common == (0 if v in adj[u] else 6), (u, v, common)
    return adj


def psl_action_on_graph(psl_gens, blocks):
    block_index = {b: i for i, b in enumerate(blocks)}
    out = []
    for g in psl_gens:
        imgs = [0] * 100
        imgs[STAR] = STAR
        for p in range(21):
            imgs[1 + p] = 1 + g[p]
        imgs[1 + 21] = 1 + 21  # the added point is fixed by PSL(3,4)
        for bi, b in enumerate(blocks):
            target = tuple(sorted(g[x] if x < 21 else 21 for x in b))
            imgs[23 + bi] = 23 + block_index[target]
        out.append(tuple(imgs))
    return out


def find_automorphism(adj, forbidden: set[tuple[int, ...]], map_star_to: int,
                      deadline: float) -> tuple[int, ...] | None:
    """Backtracking search for a graph automorphism sending STAR to the given
    vertex and different from everything in `forbidden`."""
    n = 100
    order = [STAR]
    placed = {STAR}
    # BFS order, always choosing a vertex with many placed neighbours
    while len(order) < n:
        best, best_score = None, -1
        for v in range(n):
            if v in placed:
                continue
            score = sum(1 for u in adj[v] if u in placed)
            if score > best_score:
                best, best_score = v, score
        order.append(best)
        placed.add(best)

    images = [-1] * n
    used = [False] * n

    def candidates(v):
        opts = None
        for u in adj[v]:
            iu = images[u]
            if iu >= 0:
                opts = adj[iu] if opts is None else (opts & adj[iu])
                if opts is not None and not opts:
                    return ()
        if opts is None:
            return tuple(w for w in range(n) if not used[w])
        return tuple(sorted(opts))

    def consistent(v, w):
        # w must be adjacent to exactly the images of v's placed neighbours
        for u in adj[v]:
            iu = images[u]
            if iu >= 0 and w not in adj[iu]:
                return False
        for u in range(n):
            iu = images[u]
            if iu >= 0 and u not in adj[v] and w in adj[iu]:
                return False
        return True

    def search(depth):
        if time.time() > deadline:
            raise TimeoutError
        if depth == n:
            perm = tuple(images)
            return None if perm in forbidden else perm
        v = order[depth]
        if depth == 0:
            opts = (map_star_to,)
        else:
            opts = candidates(v)
        for w in opts:
            if used[w] or not consistent(v, w):
                continue
            images[v] = w
            used[w] = True
            found = search(depth + 1)
            if found is not None:
                return found
            images[v] = -1
            used[w] = False
        return None

    try:
        return search(0)
    except TimeoutError:
        return None


def mul(p, q):
    return tuple(q[x] for x in p)


def derived_subgroup_gens(gens_1based, degree, target_order):
    def inv(p):
        out = [0] * len(p)
        for i, x in enumerate(p):
            out[x - 1] = i + 1
        return tuple(out)

    def mult(p, q):
        return tuple(q[x - 1] for x in p)

    base = [g.images for g in gens_1based]
    der = []
    for p in base:
        for q in base:
            c = mult(mult(inv(p), inv(q)), mult(p, q))
            if c != tuple(range(1, degree + 1)):
                der.append(Permutation(c))
    D = PermGroup.from_gens(der)
    rounds = 0
    while D.order != target_order and rounds < 8:
        rounds += 1
        extra = []
        for g in base:
            gp = Permutation(g)
            for h in der[:6]:
                extra.append(gp.inverse() * h * gp)
        der = der + extra
        D = PermGroup.from_gens(der)
    assert D.order == target_order, D.order
    return der


def two_generators(G: PermGroup):
    """A pair of random words of length 40 in G's generators that generates
    all of G.

    Seeded, so the tool writes the same file on every run.  The order check
    is the exact stabilizer-chain order, so a pair that generates a proper
    subgroup is rejected.
    """
    rng = random.Random(176)
    gens = G.generators

    def random_word():
        x = rng.choice(gens)
        for _ in range(39):
            x = x * rng.choice(gens)
        return x

    for _ in range(50):
        pair = (random_word(), random_word())
        if PermGroup.from_gens(pair).order == G.order:
            return pair
    raise RuntimeError("no generating pair in 50 tries")


def heptad_split(blocks, adj):
    """A 7-set of points meeting every block in 1 or 3 points, and the split
    of the 100 vertices it induces."""
    block_sets = [set(b) for b in blocks]
    for S in itertools.combinations(range(22), 7):
        sset = set(S)
        profile_ok = True
        for b in block_sets:
            inter = len(b & sset)
            if inter not in (1, 3):
                profile_ok = False
                break
        if not profile_ok:
            continue
        one_secant = [bi for bi, b in enumerate(block_sets) if len(b & sset) == 1]
        assert len(one_secant) == 42
        half = {STAR} | {1 + p for p in S} | {23 + bi for bi in one_secant}
        if _is_hosi(half, adj):
            return frozenset(half)
    raise RuntimeError("no Hoffman-Singleton split found")


def _is_hosi(half, adj):
    # induced subgraph must be srg(50, 7, 0, 1)
    if len(half) != 50:
        return False
    for v in half:
        if len(adj[v] & half) != 7:
            return False
    for u in half:
        for v in half:
            if u >= v:
                continue
            common = len(adj[u] & adj[v] & half)
            want = 0 if v in adj[u] else 1
            if common != want:
                return False
    return True


def main():
    t0 = time.time()
    print("PG(2,4) and PSL(3,4) ...")
    points, pindex, lines, F = pg24_points_and_lines()
    psl_gens = psl34_generators(points, pindex, F)
    psl21 = PermGroup.from_gens([Permutation(tuple(x + 1 for x in g)) for g in psl_gens])
    assert psl21.order == 20160, psl21.order

    print("S(3,6,22) ...")
    blocks = steiner_22(points, pindex, lines, F, psl_gens)

    print("the 100-vertex graph (checking strong regularity) ...")
    adj = higman_sims_graph(blocks)

    print("automorphisms moving the star vertex ...")
    gens0 = psl_action_on_graph(psl_gens, blocks)
    known: set[tuple[int, ...]] = set(gens0)
    group_gens = [Permutation(tuple(x + 1 for x in g)) for g in gens0]
    G = PermGroup.from_gens(group_gens)
    target_full = 88704000
    for target in range(1, 100):
        gamma = find_automorphism(adj, known, map_star_to=target, deadline=time.time() + 120)
        if gamma is None:
            continue
        known.add(gamma)
        group_gens.append(Permutation(tuple(x + 1 for x in gamma)))
        G = PermGroup.from_gens(group_gens)
        print(f"  with an automorphism sending star to {target}: order {G.order}")
        if G.order in (target_full, target_full // 2):
            break
    assert G.order in (target_full, target_full // 2), G.order

    if G.order == target_full:
        print("derived subgroup (index 2) ...")
        hs_gens = derived_subgroup_gens(G.generators, 100, target_full // 2)
    else:
        hs_gens = list(G.generators)
    HS100 = PermGroup.from_gens(hs_gens, name="HS@100")
    assert HS100.order == 44352000

    print("Hoffman-Singleton split ...")
    half = heptad_split(blocks, adj)

    print("orbit of the split and the degree-176 action ...")
    raw = [g.images for g in HS100.generators]
    everything = frozenset(range(100))

    def act_half(setv, g):  # g is 1-based on 100 points; vertices are 0-based
        return frozenset(g[v] - 1 for v in setv)

    def act_split(split, g):
        return frozenset(act_half(h, g) for h in split)

    start = frozenset({half, everything - half})
    orbit = {start: 1}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for g in raw:
            img = act_split(s, g)
            if img not in orbit:
                orbit[img] = len(orbit) + 1
                queue.append(img)
    print(f"  split orbit size: {len(orbit)}")
    assert len(orbit) == 176, len(orbit)

    perms176 = []
    for g in raw:
        imgs = [0] * 176
        for s, idx in orbit.items():
            imgs[idx - 1] = orbit[act_split(s, g)]
        perms176.append(Permutation(tuple(imgs)))
    HS176 = PermGroup.from_gens(perms176, name="HS")
    assert HS176.order == 44352000, HS176.order
    print(f"a generating pair in place of {len(perms176)} generators ...")
    HS176 = PermGroup.from_gens(two_generators(HS176), name="HS")
    assert HS176.order == 44352000, HS176.order
    assert transitivity_degree(HS176) >= 2
    print("validating 3-set orbit sizes (this enumerates C(176,3) sets) ...")
    sizes = sorted(o.size for o in orbits_on_ksets(HS176, 3))
    assert sizes == [61600, 369600, 462000], sizes

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    (DATA_DIR / "hs_deg176.grp").write_text(
        format_group_file(
            HS176,
            "Higman-Sims group in its 2-transitive action on the 176\n"
            "Hoffman-Singleton halves of the 100-vertex strongly regular graph.\n"
            "validated: order 44352000, 2-transitive, 3-set orbits "
            "61600/369600/462000",
        )
    )
    print(f"wrote hs_deg176.grp ({time.time()-t0:.0f}s total)")


if __name__ == "__main__":
    main()
