#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: is the change's gain real?

Usage, from anywhere:

    python3 tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload regularity_maps \\
        --seed 1 --pairs 10

Each pair runs ``perfbench/run.py`` once in each checkout, with the same
workload, seed and run length (``run_seconds`` of the change checkout's
``BENCHMARK.json``), and alternates which checkout goes first, so a drift
in the host's speed falls on both sides alike.  For every metric the
script prints both sides' median and quartiles and the number of pairs the
change won, and calls the metric a gain or a loss only when the change won
(or lost) at least nine pairs in ten and the medians differ by more than
the parent's interquartile range.  Only metrics both sides report are
compared; the others are listed by name.  Whether higher or lower is better
comes from the change checkout's ``BENCHMARK.json``.  Any run that does not
report ``"correct": true`` stops the script with an error.  Runs are
untraced; run ``perfbench/run.py --trace 1`` for per-layer figures.
Standard library only; the benchmark is run as a subprocess and nothing of
it is imported.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    return ap.parse_args(argv)


def run_once(checkout: Path, args, seconds: float) -> dict[str, float]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if out.returncode or report.get("correct") is not True:
        raise SystemExit(f"error: run in {checkout} failed (exit {out.returncode}):\n"
                         f"{out.stderr[-2000:]}")
    return {name: m["value"] for name, m in report["metrics"].items()}


def benchmark_spec(checkout: Path) -> tuple[float, dict[str, str]]:
    """The run length and each metric's better direction."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec["run_seconds"], better


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    args = parse_args(argv)
    seconds, better = benchmark_spec(args.change)
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args, seconds))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    new_names, old_names = runs["change"][0].keys(), runs["parent"][0].keys()
    for side, missing in (("parent", new_names - old_names), ("change", old_names - new_names)):
        if missing:
            print(f"not reported by the {side}, not compared: {', '.join(sorted(missing))}")
    print(f"{'metric':44} {'parent median [q1, q3]':>28} {'change median [q1, q3]':>28} "
          f"{'wins':>6}  verdict")
    for name in (n for n in new_names if n in old_names):
        sign = 1 if better.get(name, "lower") == "higher" else -1
        old = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
        clear = abs(nmed - omed) > oq3 - oq1
        if wins >= WIN_SHARE * args.pairs and clear and sign * (nmed - omed) > 0:
            verdict = "gain"
        elif losses >= WIN_SHARE * args.pairs and clear and sign * (nmed - omed) < 0:
            verdict = "loss"
        else:
            verdict = "-"
        print(f"{name:44} {omed:10.4g} [{oq1:.4g}, {oq3:.4g}]".ljust(73)
              + f" {nmed:10.4g} [{nq1:.4g}, {nq3:.4g}]".ljust(29)
              + f" {wins:>3}/{args.pairs:<3} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
