"""Regenerate perfbench/expected.json, the benchmark's expected verdict table.

    python3 perfbench/make_expected.py

Run it only when a workload's input set changes.  The table pins the library's
answers so that a later change that flips a verdict fails the benchmark's
gate; the gate's independent checks (witness re-validation, the rank test for
regular maps) do not depend on it.
"""
from __future__ import annotations

import json
import math

from run import HERE, load_library
from workloads import (AGL_LIMIT, EXTENSION_CELLS, MAP_GROUPS, MAP_MIN_RANK,
                       cell_key, kut_cells, rank_k_cells, rank_k_groups)

PLANTED_MAX_KSETS = 50_000


def main() -> None:
    lib = load_library()
    build, ud = lib.catalog.build_named, lib.ut_deciders
    table: dict[str, dict] = {"kut": {}, "extend": {}, "weak": {}, "rank_k": {},
                              "planted": {}, "agl": {}}

    for name, degree, k in kut_cells(lib):
        table["kut"][cell_key(name, degree, k)] = ud.has_kut(build(name, degree), k).holds

    for name, degree, k in EXTENSION_CELLS:
        G = build(name, degree)
        key = cell_key(name, degree, k)
        table["extend"][key] = ud.has_kut(G, k, method="extend").holds
        holds, rep = ud.has_weak_kut(G, k)
        table["weak"][key] = [holds, list(rep) if rep else None]

    for G, k in rank_k_cells(rank_k_groups(lib)):
        key = cell_key(G.name, G.degree, k)
        table["rank_k"][key] = lib.semigroup.regular_for_all_rank_k(G, k, method="direct")

    # a k-ut failure witness (orbit representative, partition) per map group,
    # at the least failing rank, seeds that group's planted non-regular maps
    for name, degree, max_rank in MAP_GROUPS:
        G = build(name, degree)
        for k in range(MAP_MIN_RANK, max_rank + 1):
            if math.comb(degree, k) > PLANTED_MAX_KSETS:
                break
            verdict = ud.has_kut(G, k)
            if verdict.holds is False:
                w = verdict.witness
                table["planted"][f"{name}@{degree}"] = [
                    list(w.orbit_rep), [list(b) for b in w.partition.blocks]]
                break

    for p in lib.num_theory.primes_up_to(AGL_LIMIT):
        if p >= 5:
            report = lib.num_theory.agl_criterion(p, stop_early=True)
            table["agl"][str(p)] = [report.verdict, report.min_witness]

    # one entry per line, so a changed verdict shows as a one-line diff
    tables = [
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(entries.items())
        ) + "\n }"
        for name, entries in sorted(table.items())
    ]
    path = HERE / "expected.json"
    path.write_text("{\n" + ",\n".join(tables) + "\n}\n")
    print(f"wrote {path}: " + ", ".join(f"{k} {len(v)}" for k, v in table.items()))


if __name__ == "__main__":
    main()
