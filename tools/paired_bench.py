#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts: is the change's gain real?

Usage, from anywhere:

    python3 tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload regularity_maps \\
        --seed 1 --pairs 10
    python3 tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload all --seed 1 --pairs 10
    python3 tools/paired_bench.py PARENT_DIR CHANGE_DIR --workload kut_sweep \\
        --seed 1 --pairs 10 --concurrent

``--workload`` takes one or more workload names, or ``all`` for every
workload in the change checkout's ``BENCHMARK.json``; the workloads are run
one after the other, and each gets its own table.  Each pair runs
``perfbench/run.py`` once in each checkout, with the same workload, seed and
run length (``run_seconds`` of the change checkout's
``BENCHMARK.json``), and alternates which checkout goes first, so a drift
in the host's speed falls on both sides alike.  By default the two runs of
a pair are sequential.  With ``--concurrent`` both start at once, each
pinned to a CPU of its own, so a drift that outlasts a run falls on both
runs of the same pair; the side launched first takes the first CPU, so
each side alternates between the two CPUs as well.  This needs two CPUs
in the script's affinity set, and that nothing else keeps them busy.
For every metric the script prints both sides' median and quartiles, the
relative change of the medians, and the number of pairs the change won;
below the table it prints each pair's change/parent ratio, pair 1 first,
whichever side that pair launched first.  It calls the metric a
gain or a loss only when the change won (or lost) at least nine pairs in
ten and the medians differ by more than the parent's interquartile range.
Short of that, a metric whose parent runs spread wider than its bound, the
interquartile range over the median, is "unresolved" unless every change
run reads better than every parent run; the rest read "-".
For a metric with a ``bound`` in ``BENCHMARK.json`` it also says whether
the relative change is past that bound, and in which direction: a loss by
the pair rule can still lie inside the bound.  Only metrics both sides
report are compared; the others are listed by name.  Whether higher or
lower is better, and the bounds, come from the change checkout's
``BENCHMARK.json``.  Any run that does not report ``"correct": true``
stops the script with an error.  Runs are
untraced; run ``perfbench/run.py --trace 1`` for per-layer figures.
Standard library only; the benchmark is run as a subprocess and nothing of
it is imported.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", nargs="+", required=True,
                    help="workload names, or 'all' for every workload in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--concurrent", action="store_true",
                    help="run both sides of a pair at once, one per CPU")
    return ap.parse_args(argv)


def launch_order(i: int, cpus: tuple[int, int] | None) -> list[tuple[str, int | None]]:
    """The sides of pair i in the order they launch, each with the CPU it
    is pinned to (None when the runs are sequential).  Even pairs launch
    the parent first, odd pairs the change."""
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    return list(zip(order, cpus or (None, None)))


def launch(checkout: Path, workload: str, args, seconds: float,
           cpu: int | None) -> subprocess.Popen:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds)]
    pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
    return subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=pin)


def collect(proc: subprocess.Popen, checkout: Path) -> dict[str, float]:
    stdout, stderr = proc.communicate()
    lines = stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if proc.returncode or report.get("correct") is not True:
        raise SystemExit(f"error: run in {checkout} failed (exit {proc.returncode}):\n"
                         f"{stderr[-2000:]}")
    return {name: m["value"] for name, m in report["metrics"].items()}


def run_pair(i: int, workload: str, args, seconds: float,
             cpus: tuple[int, int] | None) -> dict[str, dict[str, float]]:
    """Both sides' metrics for pair i: one run after the other, or, with
    CPUs, both at once."""
    if cpus is None:
        return {side: collect(launch(getattr(args, side), workload, args, seconds, None),
                              getattr(args, side))
                for side, _ in launch_order(i, None)}
    procs = {side: launch(getattr(args, side), workload, args, seconds, cpu)
             for side, cpu in launch_order(i, cpus)}
    try:
        return {side: collect(proc, getattr(args, side)) for side, proc in procs.items()}
    finally:
        for proc in procs.values():  # the other run, when one failed
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def benchmark_spec(checkout: Path) -> tuple[float, list[str], dict[str, str], dict[str, float]]:
    """The run length, the workload names, each metric's better direction
    and the bounds."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"] + spec["per_layer"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    return spec["run_seconds"], workloads, better, bounds


def bound_note(rel: float | None, sign: int, bound: float | None) -> str:
    """Whether a relative change of the medians is past the metric's bound."""
    if bound is None:
        return ""
    if rel is None:
        return f"bound {bound:g}: parent median is 0"
    if abs(rel) <= bound:
        return f"inside bound {bound:g}"
    return f"past bound {bound:g}, {'better' if sign * rel > 0 else 'worse'}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_ratios(old: list[float], new: list[float]) -> list[float | None]:
    """Each pair's change/parent ratio, None where the parent read 0."""
    return [b / a if a else None for a, b in zip(old, new)]


def format_ratios(ratios: list[float | None]) -> str:
    return " ".join("n/a" if r is None else f"{r:.3f}" for r in ratios)


def metric_verdict(old: list[float], new: list[float], sign: int,
                   bound: float | None) -> str:
    """"gain", "loss", "unresolved" or "-" for one metric's paired runs.

    `sign` is 1 when higher is better and -1 when lower is.
    """
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
    losses = sum(sign * (b - a) < 0 for a, b in zip(old, new))
    (oq1, omed, oq3), (_, nmed, _) = quartiles(old), quartiles(new)
    clear = abs(nmed - omed) > oq3 - oq1
    if wins >= WIN_SHARE * len(old) and clear and sign * (nmed - omed) > 0:
        return "gain"
    if losses >= WIN_SHARE * len(old) and clear and sign * (nmed - omed) < 0:
        return "loss"
    wide = bound is not None and oq3 - oq1 > bound * abs(omed)
    if wide and not all(sign * (b - a) > 0 for a in old for b in new):
        return "unresolved"
    return "-"


def compare(workload: str, args, seconds: float, better: dict[str, str],
            bounds: dict[str, float], cpus: tuple[int, int] | None) -> None:
    """Run the pairs of one workload and print its table."""
    runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side, values in run_pair(i, workload, args, seconds, cpus).items():
            runs[side].append(values)
        print(f"{workload} pair {i + 1}/{args.pairs} done "
              f"({launch_order(i, cpus)[0][0]} first)", file=sys.stderr)

    mode = f"concurrent on CPUs {cpus[0]} and {cpus[1]}" if cpus else "sequential"
    print(f"{workload} seed {args.seed}, {args.pairs} {mode} pairs of {seconds:g} s runs")
    new_names, old_names = runs["change"][0].keys(), runs["parent"][0].keys()
    for side, missing in (("parent", new_names - old_names), ("change", old_names - new_names)):
        if missing:
            print(f"not reported by the {side}, not compared: {', '.join(sorted(missing))}")
    print(f"{'metric':44} {'parent median [q1, q3]':>28} {'change median [q1, q3]':>28} "
          f"{'change':>8} {'wins':>6}  verdict     bound")
    shared = [n for n in new_names if n in old_names]
    for name in shared:
        sign = 1 if better.get(name, "lower") == "higher" else -1
        old = [r[name] for r in runs["parent"]]
        new = [r[name] for r in runs["change"]]
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        (oq1, omed, oq3), (nq1, nmed, nq3) = quartiles(old), quartiles(new)
        verdict = metric_verdict(old, new, sign, bounds.get(name))
        rel = (nmed - omed) / abs(omed) if omed else None
        print(f"{name:44} {omed:10.4g} [{oq1:.4g}, {oq3:.4g}]".ljust(73)
              + f" {nmed:10.4g} [{nq1:.4g}, {nq3:.4g}]".ljust(29)
              + (f" {rel:+8.1%}" if rel is not None else f" {'n/a':>8}")
              + f" {wins:>3}/{args.pairs:<3} {verdict:10}  {bound_note(rel, sign, bounds.get(name))}")
    print("\nchange/parent ratio of each pair, pair 1 first")
    for name in shared:
        ratios = pair_ratios([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]])
        print(f"{name:44} {format_ratios(ratios)}")
    print(flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    seconds, known, better, bounds = benchmark_spec(args.change)
    workloads = known if args.workload == ["all"] else args.workload
    unknown = [w for w in workloads if w not in known]
    if unknown:
        raise SystemExit(f"error: unknown workload(s) {', '.join(unknown)}; "
                         f"BENCHMARK.json lists {', '.join(known)}")
    cpus = None
    if args.concurrent:
        allowed = sorted(os.sched_getaffinity(0))
        if len(allowed) < 2:
            raise SystemExit("error: --concurrent needs two CPUs")
        cpus = (allowed[0], allowed[1])
    for workload in workloads:
        compare(workload, args, seconds, better, bounds, cpus)
    return 0


if __name__ == "__main__":
    sys.exit(main())
