"""The acceptance suites: classification tables re-run as checks.

Each criterion is a function returning (ok, detail) where ok is True, False,
or None for "undecided" (budget or data genuinely unavailable; never a
failure).  The CLI `verify` command and the acceptance test module both run
these.
"""
from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

from .catalog import build, build_named, catalog_manifest
from .errors import MissingDataError
from .num_theory import agl_criterion, consecutive_qr_shortcut, primes_up_to, sixth_root_shortcut
from .perm_core import PermGroup
from .semigroup import (
    Transformation,
    is_regular_in,
    is_regular_semigroup,
    regular_for_all_rank_k,
    regular_in_closure,
    semigroup_closure,
)
from .set_orbits import is_ij_homogeneous, is_k_homogeneous, orbits_on_ksets
from .ut_deciders import (
    aux_graph,
    bad_partition_search_3ut,
    has_kut,
    seeded_sweep,
    two_graph_check,
    validate_ut_witness,
)


@dataclass
class CriterionResult:
    cid: str
    title: str
    ok: bool | None
    detail: str
    elapsed_s: float

    @property
    def status(self) -> str:
        return {True: "PASS", False: "FAIL", None: "UNDECIDED"}[self.ok]

    def line(self) -> str:
        return f"[{self.cid}] {self.status} ({self.elapsed_s:.1f}s) {self.title}: {self.detail}"


def catalog_groups(
    max_degree: int, min_degree: int = 1, include_optional: bool = False
) -> list[PermGroup]:
    """Built catalog groups in the degree window, deduplicated by construction."""
    out = []
    seen = set()
    for spec in catalog_manifest():
        if not min_degree <= spec.degree <= max_degree:
            continue
        if spec.optional and not include_optional:
            continue
        key = (spec.kind, spec.params, spec.degree)
        if key in seen:
            continue
        seen.add(key)
        try:
            out.append(build(spec))
        except MissingDataError:
            continue
    return out


# ---------------------------------------------------------------------------
# criteria


def criterion_1() -> tuple[bool | None, str]:
    """Universal transversal table: the nine listed groups hold k-ut for all k."""
    table = [
        ("C5", 5), ("D(2*5)", 5), ("AGL(1,5)", 5),
        ("PSL(2,5)", 6), ("PGL(2,5)", 6),
        ("AGL(1,7)", 7), ("PGL(2,7)", 8),
        ("PSL(2,8)", 9), ("PGammaL(2,8)", 9),
    ]
    checked = 0
    for name, degree in table:
        G = build_named(name, degree)
        for k in range(2, degree):
            verdict = has_kut(G, k)
            if verdict.holds is not True:
                return False, f"{name}@{degree} k={k}: {verdict.status}"
            checked += 1
    return True, f"{checked} (group, k) cells all hold"


_TH4A_EXCEPTIONS = [
    ("C5", 5, 2), ("D(2*5)", 5, 2),
    ("PSL(2,5)", 6, 3),
    ("C7", 7, 2), ("D(2*7)", 7, 2), ("AGL(1,7)", 7, 3),
    ("PGL(2,7)", 8, 4),
    ("3^2:4", 9, 2), ("3^2:D(2*4)", 9, 2),
    ("A5", 10, 2), ("S5", 10, 2), ("PSL(2,9)", 10, 3), ("S6", 10, 3),
]

_KUT_NON_EXAMPLES = [
    ("7:3", 7, 3), ("PSL(3,2)", 7, 3),
    ("AGL(1,8)", 8, 4), ("AGammaL(1,8)", 8, 4), ("ASL(3,2)", 8, 4),
    ("PSL(2,7)", 8, 4),
    ("M9", 9, 3), ("AGL(1,9)", 9, 3), ("AGammaL(1,9)", 9, 3),
    ("ASL(2,3)", 9, 3), ("AGL(2,3)", 9, 3),
    ("PGL(2,9)", 10, 4), ("M10", 10, 4), ("PGammaL(2,9)", 10, 4),
]


def criterion_2() -> tuple[bool | None, str]:
    """Small-degree table: exceptions have k-ut but not k-homogeneity; the
    named non-examples fail k-ut with a re-validated witness."""
    for name, degree, k in _TH4A_EXCEPTIONS:
        G = build_named(name, degree)
        verdict = has_kut(G, k)
        if verdict.holds is not True:
            return False, f"exception {name}@{degree} k={k}: {verdict.status}"
        if is_k_homogeneous(G, k):
            return False, f"exception {name}@{degree} is {k}-homogeneous"
    for name, degree, k in _KUT_NON_EXAMPLES:
        G = build_named(name, degree)
        verdict = has_kut(G, k)
        if verdict.holds is not False:
            return False, f"non-example {name}@{degree} k={k}: {verdict.status}"
        if verdict.witness is None or not validate_ut_witness(G, verdict.witness):
            return False, f"non-example {name}@{degree} k={k}: witness invalid"
    return True, (
        f"{len(_TH4A_EXCEPTIONS)} exceptions hold without homogeneity; "
        f"{len(_KUT_NON_EXAMPLES)} non-examples fail with validated witnesses"
    )


def criterion_3() -> tuple[bool | None, str]:
    """The (k,k+1)-homogeneity exceptions and the degree-9 corollary failure."""
    cases = [
        ("C5", 5, 2), ("D(2*5)", 5, 2),
        ("AGL(1,7)", 7, 3),
        ("ASL(2,3)", 9, 4), ("AGL(2,3)", 9, 4),
    ]
    for name, degree, k in cases:
        G = build_named(name, degree)
        ok, _ = is_ij_homogeneous(G, k, k + 1)
        if not ok:
            return False, f"{name} not ({k},{k + 1})-homogeneous"
        if is_k_homogeneous(G, k):
            return False, f"{name} is {k}-homogeneous"
    for name in ("ASL(2,3)", "AGL(2,3)"):
        G = build_named(name, 9)
        ok, pair = is_ij_homogeneous(G, 3, 4)
        if ok:
            return False, f"{name} is (3,4)-homogeneous"
    return True, "all five exceptions confirmed; degree-9 pair fails (3,4)-homogeneity"


def criterion_4() -> tuple[bool | None, str]:
    """M11 in degree 12: two orbits on 4-sets and the 4-ut property."""
    G = build_named("M11", 12)
    orbits = orbits_on_ksets(G, 4)
    if len(orbits) != 2:
        return False, f"{len(orbits)} orbits on 4-sets"
    if sum(o.size for o in orbits) != math.comb(12, 4):
        return False, "orbit sizes do not cover all 4-sets"
    verdict = has_kut(G, 4)
    if verdict.holds is not True:
        return False, f"4-ut: {verdict.status}"
    sizes = sorted(o.size for o in orbits)
    return True, f"orbits {sizes}, 4-ut holds via {verdict.method}"


def criterion_5() -> tuple[bool | None, str]:
    """AGL(1,17): a split auxiliary graph (two components of size 8) and the
    resulting 3-ut failure with the component partition as witness."""
    G = build_named("AGL(1,17)")
    # field labelling is f -> point f+1; the minimal failing multiplier c=2
    # labels point 3 (the graph for field 4, point 5, is connected)
    graph = aux_graph(G, B=(1,), c=3)
    comps = graph.components()
    if sorted(len(c) for c in comps) != [8, 8]:
        return False, f"components {[len(c) for c in comps]}"
    verdict = has_kut(G, 3)
    if verdict.holds is not False or verdict.witness is None:
        return False, f"3-ut: {verdict.status}"
    if not validate_ut_witness(G, verdict.witness):
        return False, "witness failed re-validation"
    shape = sorted(len(b) for b in verdict.witness.partition.blocks)
    if shape != [1, 8, 8]:
        return False, f"witness partition shape {shape}"
    return True, "two components of size 8; 3-ut fails with the component partition"


def criterion_6() -> tuple[bool | None, str]:
    """Criterion-decider equivalence for AGL(1,p), and the two shortcuts."""
    for p in primes_up_to(59):
        if p < 5:
            continue
        report = agl_criterion(p)
        verdict = has_kut(build_named(f"AGL(1,{p})"), 3)
        if verdict.holds is None:
            return None, f"p={p}: decider undecided"
        if report.verdict != verdict.holds:
            return False, f"p={p}: criterion {report.verdict} vs decider {verdict.holds}"
    for p in primes_up_to(200):
        if p < 5:
            continue
        report = agl_criterion(p, stop_early=True)
        if p % 3 == 1 and p > 7:
            c = sixth_root_shortcut(p)
            if c is None or report.verdict:
                return False, f"p={p}: sixth-root shortcut inconsistent"
        if p % 4 == 1 and p > 5:
            c = consecutive_qr_shortcut(p)
            if c is None or report.verdict:
                return False, f"p={p}: consecutive-residue shortcut inconsistent"
    return True, "criterion = decider for 5 <= p <= 59; shortcuts verified to 200"


def criterion_7() -> tuple[bool | None, str]:
    """PGammaL(2,32): three orbits on 5-sets, all certified 5-ut by extension."""
    G = build_named("PGammaL(2,32)")
    orbits = orbits_on_ksets(G, 5)
    if len(orbits) != 3:
        return False, f"{len(orbits)} orbits on 5-sets"
    verdict = has_kut(G, 5, method="extend")
    if verdict.holds is not True:
        return False, f"5-ut: {verdict.status}"
    return True, "3 orbits, 5-ut certified"


# C8 draws this many maps per degree-6 group, from this seed.
C8_SAMPLES_PER_GROUP = 2000
C8_SEED = 1108


def criterion_8() -> tuple[bool | None, str]:
    """Lemma-oracle equivalence: the orbit-section regularity test agrees
    with brute-force closure search, exhaustively for n <= 5."""
    checked = 0
    for G in catalog_groups(5):
        n = G.degree
        for images in itertools.product(range(1, n + 1), repeat=n):
            a = Transformation(images)
            fast = is_regular_in(a, G).regular
            slow = regular_in_closure(a, G)
            if fast != slow:
                return False, f"{G.name}@{n}: disagreement on {a}"
            checked += 1
    rng = random.Random(C8_SEED)
    for G in catalog_groups(6, min_degree=6):
        n = G.degree
        for _ in range(C8_SAMPLES_PER_GROUP):
            a = Transformation(tuple(rng.randint(1, n) for _ in range(n)))
            fast = is_regular_in(a, G).regular
            slow = regular_in_closure(a, G)
            if fast != slow:
                return False, f"{G.name}@{n}: disagreement on {a}"
            checked += 1
    return True, f"{checked} transformations agree"


def criterion_9() -> tuple[bool | None, str]:
    """Rank-k regularity (direct mode) coincides with the k-ut decider."""
    cells = 0
    for G in catalog_groups(10):
        n = G.degree
        for k in range(2, (n + 1) // 2 + 1):
            direct = regular_for_all_rank_k(G, k, method="direct")
            verdict = has_kut(G, k)
            if verdict.holds is None:
                return None, f"{G.name}@{n} k={k}: undecided"
            if direct != verdict.holds:
                return False, f"{G.name}@{n} k={k}: direct {direct} vs kut {verdict.holds}"
            cells += 1
    return True, f"{cells} (group, k) cells agree"


def criterion_10() -> tuple[bool | None, str]:
    """Monotonicity: k-ut implies (k-1)-ut, and k-homogeneous implies
    (k-1)-homogeneous, across the catalog up to degree 12."""
    kut_cells = 0
    hom_cells = 0
    for G in catalog_groups(12):
        n = G.degree
        if n < 5:
            continue
        top = (n + 1) // 2
        verdicts = {}
        for k in range(2, top + 1):
            verdicts[k] = has_kut(G, k).holds
        for k in range(3, top + 1):
            if verdicts[k] is True and verdicts[k - 1] is not True:
                return False, f"{G.name}@{n}: {k}-ut without {k - 1}-ut"
            kut_cells += 1
        homog = {k: is_k_homogeneous(G, k) for k in range(1, n // 2 + 1)}
        for k in range(2, n // 2 + 1):
            if homog[k] and not homog[k - 1]:
                return False, f"{G.name}@{n}: {k}-homogeneous but not {k - 1}-"
            hom_cells += 1
    return True, f"{kut_cells} k-ut cells and {hom_cells} homogeneity cells monotone"


def criterion_11() -> tuple[bool | None, str]:
    """Two-graph certificates for PSL(2,13) and PSL(2,17), with independent
    3-ut confirmation."""
    for q in (13, 17):
        G = build_named(f"PSL(2,{q})")
        lams = []
        for orbit in orbits_on_ksets(G, 3):
            report = two_graph_check(G, orbit)
            if report is None:
                return False, f"q={q}: orbit {orbit.representative} not a regular two-graph"
            if not report.certifies_sections:
                return False, f"q={q}: certificate inequality fails"
            lams.append(report.lam)
        if set(lams) != {(q - 1) // 2}:
            return False, f"q={q}: lambda {lams} != {(q - 1) // 2}"
        verdict = has_kut(G, 3)
        if verdict.holds is not True:
            return False, f"q={q}: 3-ut {verdict.status}"
    return True, "lambda = (q-1)/2 certificates and 3-ut confirmed for q = 13, 17"


def criterion_12() -> tuple[bool | None, str]:
    """Long/optional targets: the degree-64 growth procedure, the
    Higman-Sims 3-ut property (when the data is bundled) from an exact
    two-graph certificate and the extension search, and the degree-9
    non-regular semigroup witness."""
    notes = []
    # degree-64: every seed of every apex must terminate "connected"
    G64 = build_named("2^6:U3(3)")
    apices = []
    for orbit in orbits_on_ksets(G64, 3):
        member = min(m for m in orbit.masks if m & 3 == 3)
        apices.append(next(p for p in range(3, 65) if member >> (p - 1) & 1))
    for c in apices:
        for d in (2, 3):
            reports = bad_partition_search_3ut(G64, c, d)
            bad = [r for r in reports if r.status != "connected"]
            if bad:
                return False, f"degree 64, apex {c}, d={d}: {bad[0].status}"
    notes.append(f"degree-64 procedure: all seeds connected for apices {apices}")

    # ASL(2,3): locate a non-regular element of <a, G> by closure search
    G9 = build_named("ASL(2,3)")
    a = Transformation.parse("1,4,5,2,2,2,2,2,2")
    closure = semigroup_closure(
        [Transformation.from_permutation(g) for g in G9.generators] + [a]
    )
    regular, witness = is_regular_semigroup(closure)
    if regular:
        return False, "no non-regular element found in <a, ASL(2,3)>"
    notes.append(
        f"<a, ASL(2,3)> has {len(closure)} elements; non-regular witness of "
        f"rank {witness.rank}: {witness}"
    )

    # Higman-Sims, when the optional data is present
    try:
        HS = build_named("HS")
    except MissingDataError:
        notes.append("Higman-Sims: undecided (stored data not bundled)")
        return None, "; ".join(notes)
    orbits = orbits_on_ksets(HS, 3)
    reps = [o.representative for o in orbits]
    sizes = sorted(o.size for o in orbits)
    if sizes != [61600, 369600, 462000]:
        return False, f"HS 3-set orbit sizes {sizes}"
    # the middle orbit is a regular two-graph certifying its own sections,
    # checked exactly; the remaining two orbits go through the extension search
    certified = 0
    for orbit in orbits:
        report = two_graph_check(HS, orbit)
        if report is not None and report.certifies_sections:
            if report.lam != 72:
                return False, f"HS: certified orbit has lambda {report.lam}"
            certified += 1
            continue
        if seeded_sweep([orbit.masks], reps, HS.degree, 3) is not None:
            return False, f"HS orbit {orbit.representative}: fails"
    if certified != 1:
        return False, f"HS: {certified} two-graph orbits (expected exactly 1)"
    notes.append(
        "HS: 3 orbits (61600/369600/462000); exact lambda=72 two-graph "
        "certificate plus extension search give the 3-ut property"
    )
    return True, "; ".join(notes)


@dataclass(frozen=True)
class Criterion:
    cid: str
    title: str
    suites: frozenset[str]
    budget_s: float
    fn: Callable[[], tuple[bool | None, str]]


CRITERIA: list[Criterion] = [
    Criterion("C1", "universal transversal table", frozenset({"small", "paper", "long"}), 120, criterion_1),
    Criterion("C2", "small-degree exception table", frozenset({"paper", "long"}), 600, criterion_2),
    Criterion("C3", "(k,k+1)-homogeneity exceptions", frozenset({"small", "paper", "long"}), 300, criterion_3),
    Criterion("C4", "M11 degree 12", frozenset({"paper", "long"}), 600, criterion_4),
    Criterion("C5", "AGL(1,17) split graph", frozenset({"small", "paper", "long"}), 60, criterion_5),
    Criterion("C6", "AGL(1,p) criterion equivalence", frozenset({"paper", "long"}), 660, criterion_6),
    Criterion("C7", "PGammaL(2,32) degree 33", frozenset({"long"}), 4 * 3600, criterion_7),
    Criterion("C8", "regularity oracle equivalence", frozenset({"paper", "long"}), 900, criterion_8),
    Criterion("C9", "rank-k regularity vs k-ut", frozenset({"paper", "long"}), 1200, criterion_9),
    Criterion("C10", "monotonicity properties", frozenset({"paper", "long"}), 1200, criterion_10),
    Criterion("C11", "two-graph certificates", frozenset({"paper", "long"}), 600, criterion_11),
    Criterion("C12", "long/optional targets", frozenset({"long"}), 4 * 3600, criterion_12),
]


def run_criterion(criterion: Criterion) -> CriterionResult:
    t0 = time.time()
    ok, detail = criterion.fn()
    return CriterionResult(criterion.cid, criterion.title, ok, detail, time.time() - t0)


def run_suite(name: str, emit: Callable[[str], None] | None = None) -> list[CriterionResult]:
    if name not in ("small", "paper", "long"):
        raise ValueError(f"unknown suite {name!r}")
    results = []
    for criterion in CRITERIA:
        if name not in criterion.suites:
            continue
        result = run_criterion(criterion)
        results.append(result)
        if emit:
            emit(result.line())
    return results
