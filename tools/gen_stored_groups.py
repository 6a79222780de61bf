#!/usr/bin/env python3
"""Generate the stored permutation-group data files under src/ut_lab/data/.

Each group is derived from first principles and validated before writing.
Every file holds two generators, since an orbit walk applies each generator
to each member: a group found with more is reduced to a seeded pair of
words in those generators (`generating_pair`), checked by order and by
containment of the generators it was found with.

* M11 degree 11: the classical two-generator presentation, checked by order.
* M11 degree 12: the action of M11 on the cosets of a subgroup of order 660
  (found by closure search inside the enumerated group), checked by order,
  3-transitivity, and its two orbits on 4-sets.
* M12 degree 12: PSL(2,11) on the projective line plus one automorphism of
  the unique 132-block Steiner system S(5,6,12) it stabilizes, found by
  backtracking; reduced to a seeded pair, checked by order and
  5-transitivity.
* Sp(6,2) degrees 28 and 36: the symplectic group generated by transvections
  acting on the quadratic forms of minus and plus type; reduced to a seeded
  pair, checked by order and 2-transitivity.
* 2^6:G2(2) and 2^6:U3(3) degree 64: the affine groups whose linear parts
  are the automorphism group of the split octonion algebra over GF(2)
  (built by backtracking over images of algebra generators) and its derived
  subgroup; reduced to seeded pairs, checked by order, 2-transitivity, and
  orbit counts on 3-sets.

Run from the repository root:  python tools/gen_stored_groups.py
"""
from __future__ import annotations

import itertools
import random
import sys
import time
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ut_lab.catalog import format_group_file, projective_line
from ut_lab.perm_core import Permutation, PermGroup, transitivity_degree
from ut_lab.set_orbits import kset_of_mask, orbits_on_ksets

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "ut_lab" / "data"

Img = tuple[int, ...]


def mul(p: Img, q: Img) -> Img:
    return tuple(q[x - 1] for x in p)


def inv(p: Img) -> Img:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x - 1] = i + 1
    return tuple(out)


def close_group(gens: list[Img], cap: int = 10**6) -> list[Img]:
    n = len(gens[0])
    ident = tuple(range(1, n + 1))
    seen = {ident}
    queue = deque([ident])
    while queue:
        p = queue.popleft()
        for g in gens:
            q = mul(p, g)
            if q not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("closure cap hit")
                seen.add(q)
                queue.append(q)
    return sorted(seen)


def generating_pair(gens: list[Permutation], seed: int) -> tuple[Permutation, Permutation]:
    """A pair of random words of length 40 in `gens` that generates the same
    group as `gens`.

    Seeded, so the tools write the same file on every run.  The words lie in
    the group of `gens`, so the pair generates all of it iff the exact
    stabilizer-chain orders agree; each generator's membership in the pair's
    group is checked as well before the pair is returned.
    """
    rng = random.Random(seed)
    target = PermGroup.from_gens(gens).order

    def random_word():
        x = rng.choice(gens)
        for _ in range(39):
            x = x * rng.choice(gens)
        return x

    for _ in range(50):
        pair = (random_word(), random_word())
        H = PermGroup.from_gens(pair)
        if H.order == target:
            if not all(H.contains(g) for g in gens):
                raise RuntimeError("a generator lies outside the pair's group")
            return pair
    raise RuntimeError("no generating pair in 50 tries")


def write_group(filename: str, name: str, gens: list[Permutation], comment: str) -> PermGroup:
    G = PermGroup.from_gens(gens, name=name)
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    (DATA_DIR / filename).write_text(format_group_file(G, comment))
    print(f"  wrote {filename}: degree {G.degree}, order {G.order}, gens {len(gens)}")
    return G


# ---------------------------------------------------------------------------
# M11, degree 11 and 12


def gen_m11() -> None:
    print("M11 degree 11 ...")
    a = Permutation.parse("(1,2,3,4,5,6,7,8,9,10,11)")
    b = Permutation.parse("(3,7,11,8)(4,10,5,6)", 11)
    M11 = PermGroup.from_gens([a, b], name="M11")
    assert M11.order == 7920, M11.order
    assert transitivity_degree(M11) == 4
    write_group(
        "m11_deg11.grp",
        "M11",
        [a, b],
        "Mathieu group M11 on 11 points.\n"
        "validated: order 7920, 4-transitive",
    )

    print("M11 degree 12 (coset action on a subgroup of order 660) ...")
    elements = close_group([a.images, b.images])
    assert len(elements) == 7920
    ai = a.images
    # an element y conjugating the 11-cycle to its cube generates 11:5 with it
    a3 = ai
    a3 = mul(mul(a3, ai), ai)  # a^3
    y = None
    for e in elements:
        if mul(mul(inv(e), ai), e) == a3:
            y = e
            break
    assert y is not None
    sub55 = close_group([ai, y])
    assert len(sub55) == 55, len(sub55)
    # extend 11:5 by an involution to a subgroup of order 660 (= PSL(2,11))
    H: list[Img] | None = None
    for e in elements:
        if e != tuple(range(1, 12)) and mul(e, e) == tuple(range(1, 12)):
            try:
                cand = close_group([ai, y, e], cap=700)
            except RuntimeError:
                continue
            if len(cand) == 660:
                H = cand
                break
    assert H is not None
    Hset = set(H)
    # right cosets Hg, keyed by the lexicographically least member
    def coset_key(g: Img) -> Img:
        return min(mul(h, g) for h in H)

    keys = [coset_key(tuple(range(1, 12)))]
    index = {keys[0]: 1}
    queue = deque(keys)
    gens12: dict[int, list[int]] = {0: [0] * 12, 1: [0] * 12}
    while queue:
        key = queue.popleft()
        for gi, g in enumerate((a.images, b.images)):
            target = coset_key(mul(key, g))
            if target not in index:
                index[target] = len(index) + 1
                queue.append(target)
            gens12[gi][index[key] - 1] = index[target]
    assert len(index) == 12
    perms = [Permutation(tuple(gens12[i])) for i in (0, 1)]
    M11_12 = PermGroup.from_gens(perms, name="M11")
    assert M11_12.order == 7920
    assert transitivity_degree(M11_12) == 3
    orbs = orbits_on_ksets(M11_12, 4)
    assert sorted(o.size for o in orbs) == [165, 330], [o.size for o in orbs]
    write_group(
        "m11_deg12.grp",
        "M11",
        perms,
        "Mathieu group M11 in its transitive action on 12 points\n"
        "(cosets of a subgroup of order 660 in the 11-point action).\n"
        "validated: order 7920, 3-transitive, two orbits on 4-sets (165 + 330)",
    )


# ---------------------------------------------------------------------------
# M12 via the Steiner system S(5,6,12)


def steiner_blocks_12(psl: PermGroup) -> set[int]:
    """The 132-block orbit of 6-sets forming S(5,6,12) under PSL(2,11)."""
    orbits = orbits_on_ksets(psl, 6)
    for orb in orbits:
        if orb.size != 132:
            continue
        # Steiner check: every 5-set lies in exactly one block
        count: dict[tuple[int, ...], int] = {}
        good = True
        for block in map(kset_of_mask, orb.masks):
            for five in itertools.combinations(block, 5):
                count[five] = count.get(five, 0) + 1
                if count[five] > 1:
                    good = False
                    break
            if not good:
                break
        if good and len(count) == 792:
            return set(orb.masks)
    raise RuntimeError("no Steiner orbit found")


def automorphism_outside(blocks: set[int], psl: PermGroup) -> Permutation:
    """Backtracking search for a block-set automorphism outside PSL(2,11)."""
    n = 12
    block_sets = [frozenset(_bits(m)) for m in blocks]
    contain: dict[int, list[frozenset[int]]] = {p: [] for p in range(1, n + 1)}
    for b in block_sets:
        for p in b:
            contain[p].append(b)
    blocks_frozen = set(block_sets)

    images = [0] * (n + 1)
    used = [False] * (n + 1)

    def consistent(depth: int) -> bool:
        # every block fully inside the assigned domain must map to a block
        for b in block_sets:
            if all(p <= depth for p in b):
                if frozenset(images[p] for p in b) not in blocks_frozen:
                    return False
        return True

    def search(depth: int):
        if depth == n:
            perm = Permutation(tuple(images[1:]))
            if not psl.contains(perm):
                return perm
            return None
        point = depth + 1
        for target in range(1, n + 1):
            if used[target]:
                continue
            images[point] = target
            used[target] = True
            if consistent(point):
                found = search(depth + 1)
                if found is not None:
                    return found
            used[target] = False
            images[point] = 0
        return None

    out = search(0)
    if out is None:
        raise RuntimeError("no outside automorphism found")
    return out


def _bits(mask: int) -> list[int]:
    out = []
    p = 1
    while mask:
        if mask & 1:
            out.append(p)
        mask >>= 1
        p += 1
    return out


def gen_m12() -> None:
    print("M12 degree 12 (automorphisms of S(5,6,12)) ...")
    psl = projective_line(11, "PSL")
    blocks = steiner_blocks_12(psl)
    sigma = automorphism_outside(blocks, psl)
    pair = generating_pair(list(psl.generators) + [sigma], seed=12)
    M12 = PermGroup.from_gens(pair, name="M12")
    assert M12.order == 95040, M12.order
    assert transitivity_degree(M12) == 5
    write_group(
        "m12_deg12.grp",
        "M12",
        pair,
        "Mathieu group M12 on 12 points: PSL(2,11) on the projective line\n"
        "plus an automorphism of the invariant Steiner system S(5,6,12),\n"
        "reduced to a seeded pair of words in those generators.\n"
        "validated: order 95040, 5-transitive",
    )


# ---------------------------------------------------------------------------
# Sp(6,2) on quadratic forms of each type


def gen_sp62() -> None:
    print("Sp(6,2) degrees 28 and 36 (action on quadratic forms) ...")
    d = 6
    vecs = [tuple(v) for v in itertools.product((0, 1), repeat=d)]
    vindex = {v: i for i, v in enumerate(vecs)}

    def B(x, y):  # standard symplectic form: pairs (0,1), (2,3), (4,5)
        s = 0
        for i in range(0, d, 2):
            s ^= (x[i] & y[i + 1]) ^ (x[i + 1] & y[i])
        return s

    def Q0(x):  # plus-type quadratic form polarizing to B
        return (x[0] & x[1]) ^ (x[2] & x[3]) ^ (x[4] & x[5])

    # transvections T_v: x -> x + B(x,v) v generate Sp(6,2)
    def transvection(v):
        imgs = []
        for x in vecs:
            if B(x, v):
                imgs.append(tuple(a ^ b for a, b in zip(x, v)))
            else:
                imgs.append(x)
        return imgs

    # forms polarizing to B are Q_w(x) = Q0(x) + B(x, w); type by Q0(w)
    minus = [w for w in vecs if Q0(w) == 1]
    plus = [w for w in vecs if Q0(w) == 0]
    assert len(minus) == 28 and len(plus) == 36

    def action_on_forms(lin_images, forms):
        # Q -> Q o g^{-1}; on labels w, solve Q0(g^-1 x) + Q0(x) = B(x, u):
        # then w -> g w + u.  Work with the inverse map directly.
        ginv = [None] * len(vecs)
        for i, x in enumerate(vecs):
            ginv[vindex[lin_images[i]]] = x
        # h(x) = Q0(g^-1 x) + Q0(x) is linear; find u with h(x) = B(x, u)
        basis = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        hvals = [Q0(ginv[vindex[e]]) ^ Q0(e) for e in basis]
        u = None
        for cand in vecs:
            if all(B(e, cand) == hv for e, hv in zip(basis, hvals)):
                u = cand
                break
        assert u is not None
        findex = {w: i + 1 for i, w in enumerate(forms)}
        imgs = [0] * len(forms)
        for w in forms:
            gw = vecs[vindex[w]]
            # w -> g(w) + u
            gw = None
            for i, x in enumerate(vecs):
                if ginv[i] == w:
                    gw = vecs[i]
                    break
            target = tuple(a ^ b for a, b in zip(gw, u))
            imgs[findex[w] - 1] = findex[target]
        return tuple(imgs)

    sp_gens = [transvection(v) for v in vecs[1:]]
    target = 1451520
    for forms, degree, filename in ((minus, 28, "sp62_deg28.grp"), (plus, 36, "sp62_deg36.grp")):
        perms = [Permutation(action_on_forms(lin, forms)) for lin in sp_gens]
        pair = generating_pair(perms, seed=degree)
        G = PermGroup.from_gens(pair, name="Sp(6,2)")
        assert G.degree == degree
        assert G.order == target, (degree, G.order)
        assert transitivity_degree(G) >= 2
        write_group(
            filename,
            "Sp(6,2)",
            pair,
            f"Sp(6,2) acting 2-transitively on the {degree} quadratic forms of "
            f"{'minus' if degree == 28 else 'plus'} type,\n"
            "as a seeded pair of words in the 63 transvections.\n"
            "validated: order 1451520, 2-transitive",
        )


# ---------------------------------------------------------------------------
# 2^6:G2(2) via split octonions over GF(2)


def octonion_tables():
    """Multiplication on Zorn vector matrices (a, v; w, b) over GF(2)."""

    def cross(u, v):
        return (
            u[1] * v[2] ^ u[2] * v[1],
            u[2] * v[0] ^ u[0] * v[2],
            u[0] * v[1] ^ u[1] * v[0],
        )

    def dot(u, v):
        return (u[0] & v[0]) ^ (u[1] & v[1]) ^ (u[2] & v[2])

    elems = []
    for a in (0, 1):
        for v in itertools.product((0, 1), repeat=3):
            for w in itertools.product((0, 1), repeat=3):
                for b in (0, 1):
                    elems.append((a, v, w, b))
    index = {e: i for i, e in enumerate(elems)}

    def omul(x, y):
        a1, v1, w1, b1 = x
        a2, v2, w2, b2 = y
        a = (a1 & a2) ^ dot(v1, w2)
        v = tuple(
            (a1 & v2[i]) ^ (b2 & v1[i]) ^ cross(w1, w2)[i] for i in range(3)
        )
        w = tuple(
            (a2 & w1[i]) ^ (b1 & w2[i]) ^ cross(v1, v2)[i] for i in range(3)
        )
        b = (b1 & b2) ^ dot(w1, v2)
        return (a, v, w, b)

    def oadd(x, y):
        return (
            x[0] ^ y[0],
            tuple(p ^ q for p, q in zip(x[1], y[1])),
            tuple(p ^ q for p, q in zip(x[2], y[2])),
            x[3] ^ y[3],
        )

    def norm(x):
        a, v, w, b = x
        return (a & b) ^ dot(v, w)

    def trace(x):
        return x[0] ^ x[3]

    one = (1, (0, 0, 0), (0, 0, 0), 1)
    return elems, index, omul, oadd, norm, trace, one


def octonion_automorphisms(stop_at: int = 12096) -> list[Permutation]:
    """Automorphisms of the split octonions as permutations of the 64-point
    quotient space (trace-zero elements modulo the identity)."""
    elems, index, omul, oadd, norm, trace, one = octonion_tables()
    zero = (0, (0, 0, 0), (0, 0, 0), 0)

    # basis of the algebra, used to extend partial maps linearly
    basis = []
    for i in range(8):
        coords = [0] * 8
        coords[i] = 1
        a, b = coords[0], coords[7]
        v = tuple(coords[1:4])
        w = tuple(coords[4:7])
        basis.append((a, v, w, b))

    def coords_of(x):
        return (x[0],) + x[1] + x[2] + (x[3],)

    # generators of the algebra: extend greedily until products span
    def spans(gens):
        span = {zero}
        frontier = [zero]
        current = set(gens) | {one}
        # linear span of closure under multiplication
        words = set(current)
        changed = True
        while changed:
            changed = False
            # close under products
            for x in list(words):
                for y in list(words):
                    p = omul(x, y)
                    if p not in words:
                        words.add(p)
                        changed = True
            # close under addition
            newspan = {zero}
            for x in words:
                add = [oadd(s, x) for s in newspan]
                for s in add:
                    newspan.add(s)
            if len(newspan) > len(span):
                span = newspan
                changed = True
            words |= span
            if len(span) == 256:
                return True
        return len(span) == 256

    g1 = (1, (0, 0, 0), (0, 0, 0), 0)      # idempotent e11
    g2 = (0, (1, 0, 0), (0, 0, 0), 0)
    g3 = (0, (0, 1, 0), (0, 0, 0), 0)
    g4 = (0, (0, 0, 1), (0, 0, 0), 0)
    gens_alg = [g1, g2, g3, g4]
    assert spans(gens_alg), "chosen elements do not generate the algebra"

    # profile of an element under automorphisms: trace, norm, and the
    # multiplication-derived minimal data; candidates must match
    def profile(x):
        return (trace(x), norm(x), x == one, x == zero)

    cands = {g: [e for e in elems if profile(e) == profile(g)] for g in gens_alg}

    found: list[Permutation] = []
    seen_perms: set[tuple[int, ...]] = set()

    # the 64-point space: trace-zero elements modulo <one>
    v0 = [e for e in elems if trace(e) == 0]
    classes = {}
    reps = []
    for e in v0:
        pair = min(coords_of(e), coords_of(oadd(e, one)))
        if pair not in classes:
            classes[pair] = len(reps) + 1
            reps.append(e)

    def class_of(e):
        return classes[min(coords_of(e), coords_of(oadd(e, one)))]

    def perm_of_map(full_map):
        imgs = [0] * 64
        for e in v0:
            imgs[class_of(e) - 1] = class_of(full_map[e])
        return tuple(imgs)

    def extend_linear(assign):
        """Extend images of the algebra generators to a full linear+multiplicative
        map; return dict or None on inconsistency."""
        # build: basis of subalgebra via words in generators
        word_img = {zero: zero, one: one}
        # represent every element as reachable: BFS over add/mul
        frontier = list(assign.items())
        for src, dst in assign.items():
            word_img[src] = dst
        changed = True
        while changed and len(word_img) < 257:
            changed = False
            items = list(word_img.items())
            for (x, fx) in items:
                for (y, fy) in items:
                    for (z, fz) in ((omul(x, y), omul(fx, fy)), (oadd(x, y), oadd(fx, fy))):
                        prev = word_img.get(z)
                        if prev is None:
                            word_img[z] = fz
                            changed = True
                        elif prev != fz:
                            return None
        if len(word_img) != 256:
            return None
        # verify multiplicativity fully
        sample = list(word_img)
        for x in sample:
            fx = word_img[x]
            for y in sample:
                if word_img[omul(x, y)] != omul(fx, word_img[y]):
                    return None
        return word_img

    order_now = 0

    def current_order():
        if not found:
            return 1
        return PermGroup.from_gens(found).order

    t0 = time.time()
    for h1 in cands[g1]:
        for h2 in cands[g2]:
            partial = extend_partial({g1: h1, g2: h2})
            if partial is None:
                continue
            for h3 in cands[g3]:
                partial3 = extend_partial({g1: h1, g2: h2, g3: h3})
                if partial3 is None:
                    continue
                for h4 in cands[g4]:
                    full = extend_linear({g1: h1, g2: h2, g3: h3, g4: h4})
                    if full is None:
                        continue
                    perm = perm_of_map(full)
                    if perm in seen_perms:
                        continue
                    seen_perms.add(perm)
                    found.append(Permutation(perm))
                    order_now = current_order()
                    print(
                        f"    automorphisms: {len(seen_perms)} maps, group order {order_now}"
                        f" ({time.time()-t0:.0f}s)"
                    )
                    if order_now >= stop_at:
                        return found
    raise RuntimeError(f"search ended at order {order_now}")


def extend_partial(assign):
    """Cheap consistency filter for a partial generator assignment."""
    elems, index, omul, oadd, norm, trace, one = octonion_tables()
    zero = (0, (0, 0, 0), (0, 0, 0), 0)
    word_img = {zero: zero, one: one}
    for src, dst in assign.items():
        word_img[src] = dst
    for _ in range(3):
        items = list(word_img.items())
        for (x, fx) in items:
            for (y, fy) in items:
                for (z, fz) in ((omul(x, y), omul(fx, fy)), (oadd(x, y), oadd(fx, fy))):
                    prev = word_img.get(z)
                    if prev is None:
                        word_img[z] = fz
                    elif prev != fz:
                        return None
    return word_img


def gen_degree64() -> None:
    print("2^6:G2(2) degree 64 (split octonion automorphisms) ...")
    lin_perms = octonion_automorphisms()
    lin = PermGroup.from_gens(lin_perms)
    assert lin.order == 12096, lin.order

    # affine: translations by the 64-point vector space; the quotient class
    # labels are an F2-space via the class of the sum of representatives
    elems, index, omul, oadd, norm, trace, one = octonion_tables()
    v0 = [e for e in elems if trace(e) == 0]

    def coords_of(x):
        return (x[0],) + x[1] + x[2] + (x[3],)

    classes = {}
    reps = []
    for e in v0:
        key = min(coords_of(e), coords_of(oadd(e, one)))
        if key not in classes:
            classes[key] = len(reps) + 1
            reps.append(e)

    def class_of(e):
        return classes[min(coords_of(e), coords_of(oadd(e, one)))]

    translations = []
    for t in reps[1:3]:  # enough seeds; conjugates fill in the rest
        imgs = [0] * 64
        for e in reps:
            imgs[class_of(e) - 1] = class_of(oadd(e, t))
        translations.append(Permutation(tuple(imgs)))

    pair = generating_pair(translations[:1] + lin_perms, seed=64)
    H = PermGroup.from_gens(pair, name="2^6:G2(2)")
    assert H.order == 64 * 12096, H.order
    assert transitivity_degree(H) >= 2
    write_group(
        "aff64_g22.grp",
        "2^6:G2(2)",
        pair,
        "Affine 2-transitive group of degree 64 whose linear part is the\n"
        "automorphism group of the split octonions over GF(2), as a seeded\n"
        "pair of words in a translation and the automorphisms found.\n"
        "validated: order 774144, 2-transitive",
    )

    print("2^6:U3(3) degree 64 (derived subgroup) ...")
    # the derived subgroup of a group generated by a and b is the normal
    # closure of [a, b]: close its generators under conjugation by a and b
    a, b = pair
    der_gens = [a.inverse() * b.inverse() * a * b]
    for h in der_gens:  # the loop sees conjugates appended on the way
        for g in pair:
            c = g.inverse() * h * g
            if not PermGroup.from_gens(der_gens).contains(c):
                der_gens.append(c)
    assert PermGroup.from_gens(der_gens).order == 64 * 6048
    small = generating_pair(der_gens, seed=64)
    D = PermGroup.from_gens(small, name="2^6:U3(3)")
    assert transitivity_degree(D) >= 2
    n_orbits = len(orbits_on_ksets(D, 3))
    assert n_orbits == 3, n_orbits
    write_group(
        "aff64_u33.grp",
        "2^6:U3(3)",
        small,
        "Index-2 subgroup of the degree-64 affine group above (derived\n"
        "subgroup; linear part U3(3)), as a seeded pair of words in the\n"
        "conjugates of a commutator that generate it.\n"
        "validated: order 387072, 2-transitive, three orbits on 3-sets",
    )


def main() -> None:
    t0 = time.time()
    gen_m11()
    gen_m12()
    gen_sp62()
    gen_degree64()
    print(f"all stored groups generated in {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main()
