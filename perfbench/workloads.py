"""The benchmark's four workloads.

Each workload builds its inputs from the seed during set-up, then yields
rounds: lists of operations, in a seeded order, that together have the same
mix of work whatever the seed.  The run loop executes whole rounds, so the
seed moves which inputs are drawn and in what order, not how much work a
round holds.  The library only ever sees the generated inputs, and every call
into it goes through a module attribute (``ut_deciders.has_kut``, not a name
imported here), so the tracer's wrappers see it.

``check`` is the correctness gate for one distinct operation.  It runs after
the timed loop and re-derives each answer independently where one exists:
negative k-ut verdicts through ``validate_ut_witness``, regular maps through
rank(a g a) = rank(a) with g in G, non-regular maps through the orbit-section
lemma, and everything else against the expected table in ``expected.json``.
"""
from __future__ import annotations

import math
import os
import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator

# kut_sweep: catalog groups of degree 5-33 with 2 <= k <= min(5, ceil(n/2)),
# minus the cells with more than this many k-sets.  Those 35 cells (degree
# 23-33 at k = 4 or 5) cost up to 11 s each cold and together take 80% of
# the full sweep, so a few of them would fill a run.
KUT_MAX_KSETS = 20_000

# extension_deep: cells whose has_kut(method="extend") and has_weak_kut each
# finish in 0.1-600 ms once the k-set orbits are cached, spread evenly enough
# over that range that the median and p90 do not sit in a gap between two
# cells.  Holding and failing cells are both present.
EXTENSION_CELLS = [
    ("A5", 10, 3), ("A5", 10, 4), ("A5", 10, 5), ("S5", 10, 4), ("S5", 10, 5),
    ("PSL(2,9)", 10, 4), ("PSL(2,9)", 10, 5),
    ("11:5", 11, 4), ("AGL(1,11)", 11, 4), ("AGL(1,11)", 11, 5),
    ("M11", 12, 4), ("M11", 12, 5), ("PSL(2,11)", 12, 5), ("PGL(2,11)", 12, 5),
    ("AGL(1,13)", 13, 3), ("AGL(1,13)", 13, 4),
    ("PSL(2,13)", 14, 4), ("PSL(2,13)", 14, 5), ("PGL(2,13)", 14, 4), ("PGL(2,13)", 14, 5),
    ("PSL(2,16)", 17, 4), ("PSL(2,16)", 17, 5), ("PGammaL(2,16)", 17, 5),
    ("PSL(2,17)", 18, 4), ("PGL(2,17)", 18, 5),
    ("PSL(2,19)", 20, 4), ("PGL(2,19)", 20, 4), ("PGL(2,19)", 20, 5),
    ("AGL(1,23)", 23, 3), ("PSL(2,23)", 24, 4), ("PGL(2,23)", 24, 4),
    ("PGL(2,25)", 26, 4), ("Sp(6,2)", 28, 3), ("AGL(1,31)", 31, 3),
    ("PSL(2,32)", 33, 4), ("PGL(2,32)", 33, 4), ("AGL(1,41)", 41, 3), ("AGL(1,43)", 43, 3),
]

# regularity_maps: groups of degree 12-64 and the highest map rank each takes
# (the least is MAP_MIN_RANK); the caps keep one orbit BFS of the image under
# ~0.3 s.  Each group gets MAPS_PER_GROUP maps with ranks dealt in turn, the
# first one planted non-regular where expected.json has a k-ut witness.
MAP_GROUPS = [
    ("M11", 12, 6), ("M12", 12, 6), ("PSL(2,11)", 12, 6), ("PGL(2,13)", 14, 6),
    ("PGammaL(2,16)", 17, 6), ("AGL(1,17)", 17, 6), ("PSL(2,19)", 20, 6),
    ("AGL(1,23)", 23, 6), ("PGL(2,23)", 24, 6), ("PSL(2,25)", 26, 6),
    ("PSL(2,27)", 28, 6), ("Sp(6,2)", 28, 5), ("PSL(2,31)", 32, 6),
    ("PGammaL(2,32)", 33, 4), ("Sp(6,2)", 36, 3), ("2^6:G2(2)", 64, 3),
    ("2^6:U3(3)", 64, 3),
]
MAP_MIN_RANK = 3
MAPS_PER_GROUP = 4
RANK_K_MAX_DEGREE = 10

# agl_sieve: every prime 5 <= p <= AGL_LIMIT, once with the full order table
# and once verdict-only, so half the calls are each.  AGL_CROSS_CHECK primes
# are also decided by has_kut in the gate.
AGL_LIMIT = 700
AGL_CROSS_CHECK = (5, 7, 11, 13, 17, 19, 23)


def cell_key(name: str, degree: int, k: int) -> str:
    return f"{name}@{degree} k={k}"


def kut_cells(lib) -> list[tuple[str, int, int]]:
    cells = []
    for spec in lib.catalog.catalog_manifest():
        n = spec.degree
        if spec.optional or not 5 <= n <= 33:
            continue
        for k in range(2, min(5, math.ceil(n / 2)) + 1):
            if k < n and math.comb(n, k) <= KUT_MAX_KSETS:
                cells.append((spec.name, n, k))
    return cells


def rank_k_groups(lib) -> list:
    return lib.verify.catalog_groups(RANK_K_MAX_DEGREE)


def rank_k_cells(groups) -> list[tuple[object, int]]:
    return [(G, k) for G in groups for k in range(2, (G.degree + 1) // 2 + 1)]


@dataclass(frozen=True)
class Op:
    kind: str
    key: str  # what "already queried earlier in the run" compares
    args: tuple


class Workload:
    name = ""

    def __init__(self, lib, expected: dict, seed: int):
        self.lib = lib
        self.expected = expected
        self.rng = random.Random(seed)
        self.ops: list[Op] = []

    def round(self) -> list[Op]:
        return list(self.ops)

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            ops = self.round()
            self.rng.shuffle(ops)
            yield ops

    def run(self, op: Op):
        raise NotImplementedError

    def failed(self, result) -> bool:
        return False

    def check(self, op: Op, result) -> str | None:
        raise NotImplementedError

    def final_checks(self) -> list[str]:
        return []

    def layer_extras(self) -> dict[str, float]:
        """Per-layer values measured outside the traced loop."""
        return {"num_theory.sieve.scaling_efficiency": 0.0}  # only agl_sieve runs the sieve

    def _expect(self, table: str, key: str):
        try:
            return self.expected[table][key]
        except KeyError:
            raise KeyError(f"expected.json has no {table} entry for {key!r}") from None

    def _witness_error(self, G, witness, where: str) -> str | None:
        if witness is None:
            return f"{where}: negative verdict without a witness"
        if not self.lib.ut_deciders.validate_ut_witness(G, witness):
            return f"{where}: witness {witness} does not re-validate"
        return None


# ---------------------------------------------------------------------------


class KutSweep(Workload):
    """build_named + has_kut on a fresh group per operation, cold every time."""

    name = "kut_sweep"

    def __init__(self, lib, expected, seed):
        super().__init__(lib, expected, seed)
        self.ops = [
            Op("kut", cell_key(*cell), cell) for cell in kut_cells(lib)
        ]
        for op in self.ops:
            self._expect("kut", op.key)

    def run(self, op):
        name, degree, k = op.args
        G = self.lib.catalog.build_named(name, degree)
        return self.lib.ut_deciders.has_kut(G, k)

    def failed(self, verdict):
        return verdict.holds is None

    def check(self, op, verdict):
        want = self._expect("kut", op.key)
        if verdict.holds is not want:
            return f"{op.key}: has_kut says {verdict.holds}, expected {want}"
        if verdict.holds is False:
            name, degree, _ = op.args
            G = self.lib.catalog.build_named(name, degree)
            return self._witness_error(G, verdict.witness, op.key)
        return None


class ExtensionDeep(Workload):
    """The extension search and weak k-ut on groups whose orbits are cached."""

    name = "extension_deep"

    def __init__(self, lib, expected, seed):
        super().__init__(lib, expected, seed)
        groups = {}
        for name, degree, k in EXTENSION_CELLS:
            G = groups.get((name, degree)) or lib.catalog.build_named(name, degree)
            groups[(name, degree)] = G
            lib.set_orbits.orbits_on_ksets(G, k)
            key = cell_key(name, degree, k)
            self._expect("extend", key)
            self._expect("weak", key)
            self.ops.append(Op("extend", key, (G, k)))
            self.ops.append(Op("weak", key, (G, k)))

    def run(self, op):
        G, k = op.args
        if op.kind == "extend":
            return self.lib.ut_deciders.has_kut(G, k, method="extend")
        return self.lib.ut_deciders.has_weak_kut(G, k)

    def failed(self, result):
        holds = result[0] if isinstance(result, tuple) else result.holds
        return holds is None

    def check(self, op, result):
        G, _ = op.args
        if op.kind == "weak":
            holds, rep = result
            want_holds, want_rep = self._expect("weak", op.key)
            got = [holds, list(rep) if rep else None]
            if got != [want_holds, want_rep]:
                return f"{op.key}: has_weak_kut says {got}, expected {[want_holds, want_rep]}"
            return None
        want = self._expect("extend", op.key)
        if result.holds is not want:
            return f"{op.key}: extend says {result.holds}, expected {want}"
        if result.holds is False:
            return self._witness_error(G, result.witness, op.key)
        return None


class RegularityMaps(Workload):
    """is_regular_in on seeded maps plus direct rank-k regularity sweeps."""

    name = "regularity_maps"

    def __init__(self, lib, expected, seed):
        super().__init__(lib, expected, seed)
        self.map_ops = []
        for name, degree, max_rank in MAP_GROUPS:
            G = lib.catalog.build_named(name, degree)
            key = f"{name}@{degree}"
            planted = expected["planted"].get(key)
            ranks = range(MAP_MIN_RANK, max_rank + 1)
            for i in range(MAPS_PER_GROUP):
                if i == 0 and planted:
                    a = self._planted_map(G, *planted)
                    kind = "planted"
                else:
                    a = self._random_map(G, ranks[i % len(ranks)], i)
                    kind = "map"
                self.map_ops.append(Op(kind, key, (G, a)))
        self.rank_ops = []
        for G, k in rank_k_cells(rank_k_groups(lib)):
            lib.set_orbits.orbits_on_ksets(G, k)
            key = cell_key(G.name, G.degree, k)
            self._expect("rank_k", key)
            self.rank_ops.append(Op("rank_k", key, (G, k)))

    def _random_map(self, G, rank: int, i: int):
        """A random kernel with `rank` blocks and an image in a fixed orbit.

        The image is a random translate of {1..rank-1, rank} or, for odd i,
        of {1..rank-1, n}.  The cost of is_regular_in is mostly the BFS over
        the image's orbit, so fixing the orbit keeps a round's cost the same
        across seeds while the maps themselves change.
        """
        n = G.degree
        points = list(range(1, n + 1))
        self.rng.shuffle(points)
        blocks = [[p] for p in points[:rank]]
        for p in points[rank:]:
            blocks[self.rng.randrange(rank)].append(p)
        g = self._random_element(G)
        base = list(range(1, rank)) + [n if i % 2 else rank]
        image = [g[p - 1] for p in base]
        self.rng.shuffle(image)
        return self.lib.semigroup.transformation_from_parts(blocks, image)

    def _planted_map(self, G, rep, blocks):
        """A witness (rep, blocks) moved by random group elements.

        Moving the image inside its orbit or the kernel by an element of G
        keeps the orbit free of kernel sections, so the map stays
        non-regular by the orbit-section lemma.
        """
        g, h = self._random_element(G), self._random_element(G)
        image = [g[p - 1] for p in rep]
        self.rng.shuffle(image)
        kernel = [[h[p - 1] for p in b] for b in blocks]
        return self.lib.semigroup.transformation_from_parts(kernel, image)

    def _random_element(self, G, length: int = 24):
        gens = G.gen_images()
        images = tuple(range(1, G.degree + 1))
        for _ in range(length):
            g = self.rng.choice(gens)
            images = tuple(g[x - 1] for x in images)
        return images

    def round(self):
        return self.map_ops + self.rank_ops

    def run(self, op):
        G, x = op.args
        if op.kind == "rank_k":
            return self.lib.semigroup.regular_for_all_rank_k(G, x, method="direct")
        return self.lib.semigroup.is_regular_in(x, G)

    def check(self, op, result):
        G, x = op.args
        if op.kind == "rank_k":
            want = self._expect("rank_k", op.key)
            return None if result is want else f"{op.key}: direct says {result}, expected {want}"
        a = x
        where = f"{op.key} map {a}"
        if result.regular:
            if op.kind == "planted":
                return f"{where}: planted non-regular map reported regular"
            g = result.witness
            if not G.contains(g):
                return f"{where}: witness {g} is not in the group"
            aga = a * self.lib.semigroup.Transformation.from_permutation(g) * a
            if aga.rank != a.rank:
                return f"{where}: rank(a g a) = {aga.rank} != rank(a) = {a.rank}"
            return None
        witness = self.lib.ut_deciders.UtWitness(a.image_set(), a.kernel())
        if not self.lib.ut_deciders.validate_ut_witness(G, witness):
            return f"{where}: reported non-regular but its image orbit sections its kernel"
        return None


class AglSieve(Workload):
    """agl_criterion over the primes, half full tables and half verdict-only."""

    name = "agl_sieve"

    def __init__(self, lib, expected, seed):
        super().__init__(lib, expected, seed)
        self.primes = [p for p in lib.num_theory.primes_up_to(AGL_LIMIT) if p >= 5]
        for p in self.primes:
            self._expect("agl", str(p))

    def round(self):
        return [Op(kind, str(p), (p,)) for p in self.primes for kind in ("full", "early")]

    def run(self, op):
        (p,) = op.args
        report = self.lib.num_theory.agl_criterion(p, stop_early=op.kind == "early")
        return report.verdict, tuple(report.witnesses), len(report.orders)

    def check(self, op, result):
        (p,) = op.args
        verdict, witnesses, scanned = result
        want, want_witness = self._expect("agl", op.key)
        where = f"p={p} ({op.kind})"
        if verdict is not want:
            return f"{where}: verdict {verdict}, expected {want}"
        first = witnesses[0] if witnesses else None
        if first != want_witness:
            return f"{where}: least witness {first}, expected {want_witness}"
        if op.kind == "full" and scanned != p - 2:
            return f"{where}: full table has {scanned} entries, expected {p - 2}"
        if op.kind == "early" and witnesses and (len(witnesses) != 1 or scanned != first - 1):
            return f"{where}: verdict-only scan went past its first witness"
        return None

    def final_checks(self):
        errors = []
        for p in AGL_CROSS_CHECK:
            G = self.lib.catalog.build_named(f"AGL(1,{p})")
            holds = self.lib.ut_deciders.has_kut(G, 3).holds
            want = self._expect("agl", str(p))[0]
            if holds is not want:
                errors.append(f"p={p}: has_kut(AGL(1,p), 3) = {holds}, criterion table {want}")
        return errors

    def layer_extras(self):
        return {"num_theory.sieve.scaling_efficiency": sieve_scaling_efficiency(self.lib)}


SIEVE_PROBE_LIMIT = 300
SIEVE_PROBE_REPEATS = 3


def sieve_scaling_efficiency(lib) -> float:
    """Serial sieve time / (time with one thread per CPU x CPUs), median of 3."""
    targets = [p for p in lib.num_theory.primes_up_to(SIEVE_PROBE_LIMIT) if p % 12 == 11]
    threads = max(1, min(len(os.sched_getaffinity(0)), len(targets)))

    def timed(t: int) -> float:
        samples = []
        for _ in range(SIEVE_PROBE_REPEATS):
            start = perf_counter()
            lib.num_theory.sieve_problem1(SIEVE_PROBE_LIMIT, threads=t)
            samples.append(perf_counter() - start)
        return statistics.median(samples)

    return timed(1) / (timed(threads) * threads)


WORKLOADS = {w.name: w for w in (KutSweep, ExtensionDeep, RegularityMaps, AglSieve)}
