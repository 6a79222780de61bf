"""Per-layer spans for the benchmark, recorded from outside the library.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces the
names in ``WRAPS`` with timing wrappers *where the calling module looks them
up*: ``ut_deciders.orbits_on_ksets`` is the name ``has_kut`` calls, while
``set_orbits.orbits_on_ksets`` is the one ``is_ij_homogeneous`` calls, so both
are wrapped and both report as the span ``set_orbits.orbits_on_ksets``.
Names imported inside a function body (``semigroup`` imports ``has_kut`` and
``enumerate_kpartitions`` that way) resolve to the module attribute at call
time and pick up the wrapper from the defining module.

Each call records a span ``[name, start, end, parent span index, op id]`` in
memory; ``write`` dumps them as JSON when the run ends.  A span's self time is
its duration minus the time of its child spans.  Generator steps (the
partition streams) are timed per ``next`` and counted, but not stored as
spans: a naive scan yields tens of thousands of partitions per operation.
"""
from __future__ import annotations

import functools
import json
import math
from collections import Counter, defaultdict
from collections.abc import Mapping
from pathlib import Path
from time import perf_counter

VERDICT_FAMILIES = ("k2", "bigk", "khom", "prune", "naive", "extension", "undecided")
_DONE = object()


def verdict_family(method: str) -> str:
    """Map a ``UtVerdict.method`` string to its dispatcher family."""
    head = method.split(":", 1)[0]
    return {"k-homogeneous": "khom"}.get(head, head)


class Tracer:
    def __init__(self, modules):
        self.mods = modules
        self.spans: list[list] = []
        self.stack: list[list] = []  # [span index, child seconds]
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op: int | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _wrap(self, fn, name, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = pre(*args, **kwargs) if pre else None
            stack = tracer.stack
            frame = [len(tracer.spans), 0.0]
            record = [name, 0.0, 0.0, stack[-1][0] if stack else -1, tracer.op]
            tracer.spans.append(record)
            stack.append(frame)
            start = record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = record[2] = perf_counter()
                stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += (end - start) - frame[1]
                if stack:
                    stack[-1][1] += end - start
            if post:
                post(result, ctx, *args, **kwargs)
            return result

        return wrapper

    def _wrap_gen(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                start = perf_counter()
                item = next(it, _DONE)
                step = perf_counter() - start
                tracer.self_s[name] += step
                if tracer.stack:
                    tracer.stack[-1][1] += step
                if item is _DONE:
                    return
                tracer.counts["partitions.kpartitions_scanned"] += 1
                yield item

        return wrapper

    # -- counters attached to spans -----------------------------------------

    def _orbits_pre(self, G, k, *args, **kwargs):
        """Whether (G, k) is already cached; fails if the cache changed shape.

        A renamed or restructured cache must break the traced run rather than
        read as all misses.
        """
        cache = self.mods.set_orbits._ORBIT_CACHE
        if not isinstance(cache, Mapping):
            raise TypeError(f"set_orbits._ORBIT_CACHE is a {type(cache).__name__}, "
                            "not a mapping from group to {k: orbits}")
        per_group = cache.get(G, {})
        if not isinstance(per_group, dict):
            raise TypeError(f"set_orbits._ORBIT_CACHE[G] is a {type(per_group).__name__}, "
                            "not a dict keyed by k")
        return k in per_group

    def _orbits_post(self, result, hit, G, k, *args, **kwargs):
        if hit:
            self.counts["set_orbits.orbits_on_ksets.hits"] += 1
        else:
            self.counts["set_orbits.orbits_on_ksets.ksets"] += math.comb(G.degree, k)

    def _bfs_post(self, result, ctx, *args, **kwargs):
        self.counts["set_orbits.orbit_bfs.masks"] += len(result)

    def _has_kut_post(self, verdict, ctx, *args, **kwargs):
        family = "undecided" if verdict.holds is None else verdict_family(verdict.method)
        self.counts[f"ut_deciders.verdicts.{family}"] += 1

    def _prune_post(self, verdict, ctx, *args, **kwargs):
        if verdict is not None:
            self.counts["ut_deciders.connectivity_prune.hits"] += 1

    def _extension_post(self, verdict, ctx, *args, **kwargs):
        profile = verdict.detail.get("frontier_profile") or [0]
        self.counts["ut_deciders.extension.frontier_nodes"] += sum(profile)
        peak = self.counts["ut_deciders.extension.frontier_peak"]
        self.counts["ut_deciders.extension.frontier_peak"] = max(peak, max(profile))

    def _regular_post(self, result, ctx, *args, **kwargs):
        self.counts["semigroup.regular"] += bool(result.regular)

    # -- install / remove ---------------------------------------------------

    def wraps(self):
        """(owner, attribute, span name, kind, pre, post) for every wrapped name."""
        m = self.mods
        orbits = ("set_orbits.orbits_on_ksets", "call", self._orbits_pre, self._orbits_post)
        ij = ("set_orbits.is_ij_homogeneous", "call", None, None)
        return [
            (m.catalog, "build", "catalog.build", "call", None, None),
            (m.perm_core._StabChain, "__init__", "perm_core.chain", "call", None, None),
            (m.ut_deciders, "orbits_on_ksets", *orbits),
            (m.semigroup, "orbits_on_ksets", *orbits),
            (m.set_orbits, "orbits_on_ksets", *orbits),
            (m.ut_deciders, "orbit_of_set", "set_orbits.orbit_of_set", "call", None, None),
            (m.ut_deciders, "is_k_homogeneous", "set_orbits.is_k_homogeneous", "call", None, None),
            (m.ut_deciders, "is_ij_homogeneous", *ij),
            (m.set_orbits, "is_ij_homogeneous", *ij),
            (m.semigroup, "_orbit_masks", "set_orbits.orbit_bfs", "call", None, self._bfs_post),
            (m.semigroup, "trace_orbit_word", "semigroup.trace_orbit_word", "call", None, None),
            (m.semigroup, "is_regular_in", "semigroup.is_regular_in", "call", None, self._regular_post),
            (m.semigroup, "regular_for_all_rank_k", "semigroup.regular_for_all_rank_k", "call", None, None),
            (m.partitions, "enumerate_kpartitions", "partitions.enumerate_kpartitions", "gen", None, None),
            (m.ut_deciders, "_rgs_stream", "partitions.rgs_stream", "gen", None, None),
            (m.ut_deciders, "has_kut", "ut_deciders.has_kut", "call", None, self._has_kut_post),
            (m.ut_deciders, "has_kut_naive", "ut_deciders.has_kut_naive", "call", None, None),
            (m.ut_deciders, "connectivity_prune", "ut_deciders.connectivity_prune", "call", None, self._prune_post),
            (m.ut_deciders, "subpartition_extension_decider", "ut_deciders.subpartition_extension_decider", "call", None, self._extension_post),
            (m.ut_deciders, "has_weak_kut", "ut_deciders.has_weak_kut", "call", None, None),
            (m.ut_deciders, "validate_ut_witness", "ut_deciders.validate_ut_witness", "call", None, None),
            (m.num_theory, "agl_criterion", "num_theory.agl_criterion", "call", None, None),
            (m.num_theory, "subgroup_order", "num_theory.subgroup_order", "call", None, None),
        ]

    def install(self) -> None:
        for owner, attr, name, kind, pre, post in self.wraps():
            original = getattr(owner, attr)
            if kind == "gen":
                wrapped = self._wrap_gen(original, name)
            else:
                wrapped = self._wrap(original, name, pre, post)
            setattr(owner, attr, wrapped)
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def values(self) -> dict[str, float]:
        """Every per-layer value this tracer can report, by metric name."""
        out: dict[str, float] = {}
        for _, _, name, _, _, _ in self.wraps():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        c = self.counts
        orbit_calls = self.calls["set_orbits.orbits_on_ksets"]
        regular_calls = self.calls["semigroup.is_regular_in"]
        prune_calls = self.calls["ut_deciders.connectivity_prune"]
        out.update({
            "set_orbits.orbits_on_ksets.ksets": c["set_orbits.orbits_on_ksets.ksets"],
            "set_orbits.orbits_on_ksets.cache_hit_ratio": _ratio(
                c["set_orbits.orbits_on_ksets.hits"], orbit_calls),
            "set_orbits.orbit_bfs.masks": c["set_orbits.orbit_bfs.masks"],
            "semigroup.regular_share": _ratio(c["semigroup.regular"], regular_calls),
            "partitions.kpartitions_scanned": c["partitions.kpartitions_scanned"],
            "ut_deciders.connectivity_prune.hit_ratio": _ratio(
                c["ut_deciders.connectivity_prune.hits"], prune_calls),
            "ut_deciders.extension.frontier_nodes": c["ut_deciders.extension.frontier_nodes"],
            "ut_deciders.extension.frontier_peak": c["ut_deciders.extension.frontier_peak"],
        })
        for family in VERDICT_FAMILIES:
            out[f"ut_deciders.verdicts.{family}"] = c[f"ut_deciders.verdicts.{family}"]
        return out

    def write(self, path: Path, meta: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [index[n], round(s - t0, 7), round(e - t0, 7), parent, op]
            for n, s, e, parent, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"meta": meta, "names": names,
               "columns": ["name", "start_s", "end_s", "parent", "op"], "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
