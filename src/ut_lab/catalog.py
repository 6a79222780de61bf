"""Constructors and stored generator data for the named group families.

Field-based constructions label points by field elements: GF(q) element i
becomes point i+1, and for projective lines the extra point q+1 is infinity.
Sporadic and exceptional groups load from stored .grp files (1-based image
arrays or cycle notation), validated against their known orders at build
time.  The UT_LAB_DATA environment variable overrides the bundled data
directory.

Every catalog group is built from at most two generators, because an orbit
walk applies each generator to each member.  A formula family builds a
fixed pair of words in its natural generators (the field maps, or the
transvections, that generate the group by definition), and a stored file
holds a seeded pair of words, chosen by `tools/gen_stored_groups.py`, in the
generators the group was found with.  The words generate a subgroup of the
group the natural generators do, so the order check at build time proves
that they generate all of it.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, Sequence

from .errors import MissingDataError
from .gf import GF, factor_prime_power, is_prime
from .perm_core import Permutation, PermGroup


# ---------------------------------------------------------------------------
# Group file format


def parse_group_file(text: str, name: str | None = None) -> PermGroup:
    """Parse the stored-group format: name/degree fields plus generator lines.

    Generators may be comma-separated image arrays ("2,3,1") or cycle
    notation ("(1,2,3)").  Lines starting with '#' are comments.
    """
    meta: dict[str, str] = {}
    gen_texts: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key == "generator":
            gen_texts.append(value)
        elif key in ("name", "degree"):
            meta[key] = value
        else:
            raise ValueError(f"unknown field {key!r} in group file")
    if "degree" not in meta:
        raise ValueError("group file missing degree")
    degree = int(meta["degree"])
    if not gen_texts:
        raise ValueError("group file has no generators")
    gens = []
    for t in gen_texts:
        if t.startswith("("):
            gens.append(Permutation.parse(t, degree))
        else:
            gens.append(Permutation(tuple(int(x) for x in t.split(","))))
    return PermGroup(degree, tuple(gens), name=name or meta.get("name"))


def format_group_file(G: PermGroup, comment: str | None = None) -> str:
    lines = []
    if comment:
        for c in comment.splitlines():
            lines.append(f"# {c}")
    lines.append(f"name: {G.name or 'group'}")
    lines.append(f"degree: {G.degree}")
    for g in G.generators:
        lines.append("generator: " + ",".join(map(str, g.images)))
    return "\n".join(lines) + "\n"


def load_group_file(path: str | Path) -> PermGroup:
    return parse_group_file(Path(path).read_text())


def _stored_text(filename: str) -> str:
    override = os.environ.get("UT_LAB_DATA")
    if override:
        candidate = Path(override) / filename
        if candidate.exists():
            return candidate.read_text()
    ref = resources.files("ut_lab").joinpath("data", filename)
    if not ref.is_file():
        raise MissingDataError(
            f"stored group data {filename!r} is not bundled; "
            "set UT_LAB_DATA to a directory providing it"
        )
    return ref.read_text()


# ---------------------------------------------------------------------------
# Elementary families


def cyclic(n: int) -> PermGroup:
    return PermGroup.from_gens(
        [Permutation.from_cycles(n, [range(1, n + 1)])], name=f"C{n}"
    )


def dihedral(n: int) -> PermGroup:
    """D(2*n): the dihedral group of order 2n on n points."""
    rot = Permutation.from_cycles(n, [range(1, n + 1)])
    ref = Permutation(tuple(n + 1 - i for i in range(1, n + 1)))
    return PermGroup.from_gens([rot, ref], name=f"D(2*{n})")


def symmetric(n: int) -> PermGroup:
    if n == 1:
        return PermGroup.from_gens([Permutation.identity(1)], name="S1")
    gens = [Permutation.from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [range(1, n + 1)]))
    return PermGroup.from_gens(gens, name=f"S{n}")


def alternating(n: int) -> PermGroup:
    if n < 3:
        return PermGroup.from_gens([Permutation.identity(max(n, 1))], name=f"A{n}")
    gens = [Permutation.from_cycles(n, [(1, 2, 3)])]
    if n > 3:
        if n % 2 == 1:
            gens.append(Permutation.from_cycles(n, [range(1, n + 1)]))
        else:
            gens.append(Permutation.from_cycles(n, [range(2, n + 1)]))
    return PermGroup.from_gens(gens, name=f"A{n}")


def action_on_pairs(G: PermGroup, name: str | None = None) -> PermGroup:
    """The induced action on unordered pairs of points, labelled lex."""
    n = G.degree
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    index = {pair: i + 1 for i, pair in enumerate(pairs)}
    gens = []
    for g in G.generators:
        images = [0] * len(pairs)
        for pair, i in index.items():
            a, b = sorted((g.apply(pair[0]), g.apply(pair[1])))
            images[i - 1] = index[(a, b)]
        gens.append(Permutation(tuple(images)))
    return PermGroup.from_gens(gens, name=name or f"{G.name}@pairs")


# ---------------------------------------------------------------------------
# Affine constructions on GF(q): field element i is point i+1


def _affine_perm(F: GF, scale: int, shift: int, power: int = 0) -> Permutation:
    # x -> scale * frob^power(x) + shift; power counts Frobenius applications
    imgs = []
    for x in range(F.q):
        y = x
        for _ in range(power):
            y = F.frobenius(y)
        imgs.append(F.add(F.mul(scale, y), shift) + 1)
    return Permutation(tuple(imgs))


def affine_1dim(q: int, gamma: bool = False) -> PermGroup:
    """AGL(1,q) = <x+1, gx>, optionally with the Frobenius adjoined (AGammaL).

    AGammaL(1,q) is built from x^p + 1 and gx: their linear parts generate
    GammaL(1,q), and no point is fixed by both, so the group they generate
    holds the translations.
    """
    F = GF.of(q)
    trans = _affine_perm(F, 1, 1)
    mult = _affine_perm(F, F.generator, 0)
    if gamma:
        return PermGroup.from_gens(
            [trans * _affine_perm(F, 1, 0, power=1), mult], name=f"AGammaL(1,{q})"
        )
    return PermGroup.from_gens([trans, mult], name=f"AGL(1,{q})")


def frobenius_group(p: int, multiplier: int, name: str) -> PermGroup:
    """<x+1, cx> on GF(p); e.g. 7:3 with a multiplier of order 3."""
    F = GF.of(p)
    return PermGroup.from_gens(
        [_affine_perm(F, 1, 1), _affine_perm(F, multiplier, 0)], name=name
    )


def affine_gf9(kind: str) -> PermGroup:
    """The degree-9 affine subgroups between 3^2:4 and AGammaL(1,9).

    kind: "3^2:4" (scalar part of order 4), "3^2:D(2*4)" (that plus the
    Frobenius), or "M9" (the quaternion variant, sharply 2-transitive).
    """
    F = GF.of(9)
    w = F.generator
    w2 = F.mul(w, w)
    trans = _affine_perm(F, 1, 1)
    mul_w2 = _affine_perm(F, w2, 0)
    if kind == "3^2:4":
        gens = [trans, mul_w2]
    elif kind == "3^2:D(2*4)":
        gens = [trans * _affine_perm(F, 1, 0, power=1), mul_w2]
    elif kind == "M9":
        gens = [trans * _affine_perm(F, w, 0, power=1), mul_w2]
    else:
        raise ValueError(f"unknown degree-9 affine kind {kind!r}")
    return PermGroup.from_gens(gens, name=kind)


# ---------------------------------------------------------------------------
# Matrix groups over GF(p): affine d-dimensional and PSL(3,2)


def _all_vectors(d: int, p: int) -> list[tuple[int, ...]]:
    # first coordinate most significant
    return [tuple(v) for v in itertools.product(range(p), repeat=d)]


def _mat_vec(mat: Sequence[Sequence[int]], vec: Sequence[int], p: int) -> tuple[int, ...]:
    return tuple(sum(mat[i][j] * vec[j] for j in range(len(vec))) % p for i in range(len(mat)))


Labels = dict[tuple[int, ...], int]  # vector -> point


def _matrix_perm(mat: Sequence[Sequence[int]], where: Labels, p: int) -> Permutation:
    """The action of a matrix on the vectors labelled by `where`."""
    return Permutation(tuple(where[_mat_vec(mat, v, p)] for v in where))


def _transvection_pair(where: Labels, d: int, p: int) -> tuple[Permutation, Permutation]:
    """T0 and T1 ... T(d-1), for the transvections Ti = I + E(i, i+1 mod d)."""
    perms = []
    for i in range(d):
        m = [[1 if a == b else 0 for b in range(d)] for a in range(d)]
        m[i][(i + 1) % d] = 1
        perms.append(_matrix_perm(m, where, p))
    return perms[0], functools.reduce(Permutation.__mul__, perms[1:])


def affine_matrix_group(d: int, p: int, linear_part: str) -> PermGroup:
    """AGL(d,p) or ASL(d,p) acting on the p^d points of the vector space.

    Its natural generators are the shift by e1, the transvections I + E(i,j),
    which generate SL(d,p), and for GL (p > 2) the scalar g on e1.  The
    group is built from T0 and shift T1 ... T(d-1), times the scalar for GL,
    with Ti = I + E(i, i+1 mod d); products apply left to right.
    """
    if linear_part not in ("GL", "SL"):
        raise ValueError("linear_part must be GL or SL")
    if d < 2:
        raise ValueError("need dimension d >= 2")
    where = {v: i + 1 for i, v in enumerate(_all_vectors(d, p))}
    shift = Permutation(tuple(where[((v[0] + 1) % p,) + v[1:]] for v in where))
    first, rest = _transvection_pair(where, d, p)
    second = shift * rest
    if linear_part == "GL" and p > 2:
        scalar = [[1 if a == b else 0 for b in range(d)] for a in range(d)]
        scalar[0][0] = GF.of(p).generator
        second = second * _matrix_perm(scalar, where, p)
    return PermGroup.from_gens([first, second], name=f"A{linear_part}({d},{p})")


def psl32_on_points() -> PermGroup:
    """PSL(3,2) acting on the 7 points of the Fano plane (nonzero vectors),
    built from T0 and T1 T2 as in affine_matrix_group."""
    where = {v: i + 1 for i, v in enumerate(v for v in _all_vectors(3, 2) if any(v))}
    return PermGroup.from_gens(_transvection_pair(where, 3, 2), name="PSL(3,2)")


# ---------------------------------------------------------------------------
# Projective line actions: points 1..q are GF(q), point q+1 is infinity


def _moebius_perm(F: GF, a: int, b: int, c: int, d: int) -> Permutation:
    """x -> (a x + b) / (c x + d) on GF(q) + {infinity}."""
    q = F.q
    inf = q + 1
    imgs = [0] * (q + 1)
    for x in range(q):
        num = F.add(F.mul(a, x), b)
        den = F.add(F.mul(c, x), d)
        imgs[x] = inf if den == 0 else F.mul(num, F.inv(den)) + 1
    imgs[q] = inf if c == 0 else F.mul(a, F.inv(c)) + 1
    return Permutation(tuple(imgs))


def _frobenius_on_line(F: GF) -> Permutation:
    imgs = [F.frobenius(x) + 1 for x in range(F.q)] + [F.q + 1]
    return Permutation(tuple(imgs))


def projective_line(q: int, level: str) -> PermGroup:
    """PSL/PGL/PSigmaL/PGammaL(2,q), or M10 for q=9, on the q+1 line points.

    The natural generators are x+1, -1/x and g^2 x (PSL), with g x for PGL,
    the Frobenius for PSigmaL, both for PGammaL, and g x^3 for M10.  PSL
    and PGL are built from x+1 and the diagonal map, g^2 x or g x, followed
    by -1/(x+1); the groups with a field twist from the diagonal map and
    -1/(x+1) followed by the twist.  Each pair generates its group at every
    q <= 128 that GF builds, and the order check confirms it for each
    catalog q.
    """
    F = GF.of(q)
    t = _moebius_perm(F, 1, 1, 0, 1)                                # x + 1
    sq = _moebius_perm(F, F.mul(F.generator, F.generator), 0, 0, 1)  # g^2 x
    neg_inv = _moebius_perm(F, 0, F.neg(1), 1, 0)                    # -1 / x
    scale = _moebius_perm(F, F.generator, 0, 0, 1)                   # g x
    frob = _frobenius_on_line(F)
    rot = t * neg_inv                                                # -1 / (x + 1)
    if level == "PSL":
        gens, name = [t, sq * rot], f"PSL(2,{q})"
    elif level == "PGL":
        gens, name = [t, scale * rot], f"PGL(2,{q})"
    elif level == "PSigmaL":
        gens, name = [sq, rot * frob], f"PSigmaL(2,{q})"
    elif level == "PGammaL":
        gens, name = [scale, rot * frob], f"PGammaL(2,{q})"
    elif level == "M10":
        if q != 9:
            raise ValueError("M10 lives on PG(1,9)")
        twist = Permutation(
            tuple(
                F.mul(F.generator, F.frobenius(x)) + 1 for x in range(q)
            )
            + (q + 1,)
        )
        gens, name = [sq, rot * twist], "M10"
    else:
        raise ValueError(f"unknown projective level {level!r}")
    return PermGroup.from_gens(gens, name=name)


# ---------------------------------------------------------------------------
# Group specs and the manifest


@dataclass(frozen=True)
class GroupSpec:
    """A named catalog entry: how to build the group plus expected invariants."""

    name: str
    degree: int
    kind: str
    params: tuple = ()
    expected_order: int | None = None
    min_transitivity: int = 1
    optional: bool = False

    @property
    def key(self) -> str:
        return f"{self.name}@{self.degree}"


_BUILDERS: dict[str, Callable[..., PermGroup]] = {
    "cyclic": cyclic,
    "dihedral": dihedral,
    "symmetric": symmetric,
    "alternating": alternating,
    "affine_1dim": affine_1dim,
    "affine_gf9": affine_gf9,
    "frobenius": frobenius_group,
    "affine_matrix": affine_matrix_group,
    "psl32": psl32_on_points,
    "projective_line": projective_line,
    "pairs_action": lambda base, name: action_on_pairs(_BUILDERS[base](5), name),
    "stored": lambda filename, name: parse_group_file(_stored_text(filename), name),
}


def build(spec: GroupSpec) -> PermGroup:
    """Realize a GroupSpec, validating degree and expected order."""
    G = _BUILDERS[spec.kind](*spec.params)
    if G.degree != spec.degree:
        raise ValueError(f"{spec.key}: built degree {G.degree}, expected {spec.degree}")
    if spec.expected_order is not None and G.order != spec.expected_order:
        raise ValueError(
            f"{spec.key}: built order {G.order}, expected {spec.expected_order}"
        )
    G.name = spec.name
    return G


def _pgl2_order(q: int) -> int:
    return (q + 1) * q * (q - 1)


def _psl2_order(q: int) -> int:
    return _pgl2_order(q) // math.gcd(2, q - 1)


def catalog_manifest() -> list[GroupSpec]:
    """Every named group of the catalog, smallest degrees first."""
    specs: list[GroupSpec] = []

    def add(name, degree, kind, params=(), order=None, trans=1, optional=False):
        specs.append(GroupSpec(name, degree, kind, params, order, trans, optional))

    # degree 4-5
    add("C4", 4, "cyclic", (4,), 4)
    add("D(2*4)", 4, "dihedral", (4,), 8)
    add("A4", 4, "alternating", (4,), 12, 2)
    add("S4", 4, "symmetric", (4,), 24, 4)
    add("C5", 5, "cyclic", (5,), 5)
    add("D(2*5)", 5, "dihedral", (5,), 10)
    add("AGL(1,5)", 5, "affine_1dim", (5,), 20, 2)
    add("A5", 5, "alternating", (5,), 60, 3)
    add("S5", 5, "symmetric", (5,), 120, 5)
    add("PSL(2,4)", 5, "projective_line", (4, "PSL"), 60, 3)
    add("PGL(2,4)", 5, "projective_line", (4, "PGL"), 60, 3)
    # degree 6
    add("C6", 6, "cyclic", (6,), 6)
    add("PSL(2,5)", 6, "projective_line", (5, "PSL"), 60, 2)
    add("PGL(2,5)", 6, "projective_line", (5, "PGL"), 120, 3)
    add("A6", 6, "alternating", (6,), 360, 4)
    add("S6", 6, "symmetric", (6,), 720, 6)
    # degree 7
    add("C7", 7, "cyclic", (7,), 7)
    add("D(2*7)", 7, "dihedral", (7,), 14)
    add("7:3", 7, "frobenius", (7, 2, "7:3"), 21)
    add("AGL(1,7)", 7, "affine_1dim", (7,), 42, 2)
    add("PSL(3,2)", 7, "psl32", (), 168, 2)
    add("A7", 7, "alternating", (7,), 2520, 5)
    add("S7", 7, "symmetric", (7,), 5040, 7)
    # degree 8
    add("AGL(1,8)", 8, "affine_1dim", (8,), 56, 2)
    add("AGammaL(1,8)", 8, "affine_1dim", (8, True), 168, 2)
    add("ASL(3,2)", 8, "affine_matrix", (3, 2, "SL"), 1344, 3)
    add("PSL(2,7)", 8, "projective_line", (7, "PSL"), 168, 2)
    add("PGL(2,7)", 8, "projective_line", (7, "PGL"), 336, 3)
    add("A8", 8, "alternating", (8,), 20160, 6)
    add("S8", 8, "symmetric", (8,), 40320, 8)
    # degree 9
    add("3^2:4", 9, "affine_gf9", ("3^2:4",), 36)
    add("3^2:D(2*4)", 9, "affine_gf9", ("3^2:D(2*4)",), 72)
    add("M9", 9, "affine_gf9", ("M9",), 72, 2)
    add("AGL(1,9)", 9, "affine_1dim", (9,), 72, 2)
    add("AGammaL(1,9)", 9, "affine_1dim", (9, True), 144, 2)
    add("ASL(2,3)", 9, "affine_matrix", (2, 3, "SL"), 216, 2)
    add("AGL(2,3)", 9, "affine_matrix", (2, 3, "GL"), 432, 2)
    add("PSL(2,8)", 9, "projective_line", (8, "PSL"), 504, 3)
    add("PGammaL(2,8)", 9, "projective_line", (8, "PGammaL"), 1512, 3)
    add("A9", 9, "alternating", (9,), 181440, 7)
    add("S9", 9, "symmetric", (9,), 362880, 9)
    # degree 10
    add("A5", 10, "pairs_action", ("alternating", "A5"), 60)
    add("S5", 10, "pairs_action", ("symmetric", "S5"), 120)
    add("PSL(2,9)", 10, "projective_line", (9, "PSL"), 360, 2)
    add("PGL(2,9)", 10, "projective_line", (9, "PGL"), 720, 3)
    add("M10", 10, "projective_line", (9, "M10"), 720, 3)
    add("S6", 10, "projective_line", (9, "PSigmaL"), 720, 2)
    add("PSigmaL(2,9)", 10, "projective_line", (9, "PSigmaL"), 720, 2)
    add("PGammaL(2,9)", 10, "projective_line", (9, "PGammaL"), 1440, 3)
    add("A10", 10, "alternating", (10,), 1814400, 8)
    add("S10", 10, "symmetric", (10,), 3628800, 10)
    # degree 11-12
    add("C11", 11, "cyclic", (11,), 11)
    add("11:5", 11, "frobenius", (11, 4, "11:5"), 55)
    add("M11", 11, "stored", ("m11_deg11.grp", "M11"), 7920, 4)
    add("A11", 11, "alternating", (11,), 19958400, 9)
    add("S11", 11, "symmetric", (11,), 39916800, 11)
    add("M11", 12, "stored", ("m11_deg12.grp", "M11"), 7920, 3)
    add("M12", 12, "stored", ("m12_deg12.grp", "M12"), 95040, 5)
    add("A12", 12, "alternating", (12,), 239500800, 10)
    add("S12", 12, "symmetric", (12,), 479001600, 12)
    # AGL(1,p) for p prime up to 200
    for p in range(5, 201):
        if is_prime(p) and p not in (5, 7, 9):
            add(f"AGL(1,{p})", p, "affine_1dim", (p,), p * (p - 1), 2)
    # projective lines for prime powers q <= 32
    for q in (11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32):
        p, e = factor_prime_power(q)
        add(f"PSL(2,{q})", q + 1, "projective_line", (q, "PSL"), _psl2_order(q), 2)
        add(f"PGL(2,{q})", q + 1, "projective_line", (q, "PGL"), _pgl2_order(q), 3)
        if e > 1:
            add(
                f"PGammaL(2,{q})",
                q + 1,
                "projective_line",
                (q, "PGammaL"),
                _pgl2_order(q) * e,
                3,
            )
            if p % 2 == 1:
                add(
                    f"PSigmaL(2,{q})",
                    q + 1,
                    "projective_line",
                    (q, "PSigmaL"),
                    _psl2_order(q) * e,
                    2,
                )
    # stored exceptional groups
    add("Sp(6,2)", 28, "stored", ("sp62_deg28.grp", "Sp(6,2)"), 1451520, 2)
    add("Sp(6,2)", 36, "stored", ("sp62_deg36.grp", "Sp(6,2)"), 1451520, 2)
    add("2^6:G2(2)", 64, "stored", ("aff64_g22.grp", "2^6:G2(2)"), 774144, 2)
    add("2^6:U3(3)", 64, "stored", ("aff64_u33.grp", "2^6:U3(3)"), 387072, 2)
    add("HS", 176, "stored", ("hs_deg176.grp", "HS"), 44352000, 2, optional=True)
    add("Co3", 276, "stored", ("co3_deg276.grp", "Co3"), 495766656000, 2, optional=True)
    return specs


@functools.cache
def _specs_by_name() -> dict[str, tuple[GroupSpec, ...]]:
    """The manifest indexed by name, built once.  The manifest reads no data
    directory (only `build` of a stored group does), so it never goes stale."""
    index: dict[str, list[GroupSpec]] = {}
    for spec in catalog_manifest():
        index.setdefault(spec.name, []).append(spec)
    return {name: tuple(specs) for name, specs in index.items()}


def find_spec(name: str, degree: int | None = None) -> GroupSpec:
    """Look up a manifest entry by name, disambiguated by degree if needed."""
    matches = list(_specs_by_name().get(name, ()))
    if degree is not None:
        matches = [s for s in matches if s.degree == degree]
    if not matches:
        raise KeyError(f"no catalog group named {name!r}" + (f" at degree {degree}" if degree else ""))
    if len(matches) > 1:
        degrees = sorted(s.degree for s in matches)
        raise KeyError(f"group {name!r} is ambiguous; specify degree from {degrees}")
    return matches[0]


def build_named(name: str, degree: int | None = None) -> PermGroup:
    return build(find_spec(name, degree))
