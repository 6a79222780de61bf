"""ut-lab benchmark: seeded decision workloads, timed in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kut_sweep --seed 1 --seconds 15 --trace 0

One client runs a closed loop: each operation starts when the previous one
returns.  The loop executes whole rounds (see ``workloads.py``) for about
``--seconds``, then the correctness gate re-checks every distinct operation
outside the timed region.

The set-up state (groups, warmed caches) is moved out of the collector's
reach with ``gc.freeze()``, as a long-running server would do after warming,
and a collection runs untimed before each operation.  Each operation then
pays for the garbage it makes itself, whatever ran before it; without this,
a full collection that traverses tens of megabytes of cached orbits lands on
whichever operation happens to trigger it, and the tail latencies swing by
10-20% between runs.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the ``end_to_end`` list of ``BENCHMARK.json``;
with ``--trace 1`` they are its ``per_layer`` list, measured by running the
same operations untraced and then traced (the spans go to
``perfbench/out/``).  The exit code is 0 only when every answer checked out.

Set-up time is the median of several set-ups: fresh child processes, so that
the import of the library is part of every sample, until the children have
spent about ``SETUP_BUDGET_S`` (at least two, at most ``SETUP_MAX_CHILDREN``),
plus the set-up of the measuring process itself.  A cheap set-up, which is
mostly the import, gets many samples; an expensive one gets three.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_BUDGET_S = 1.5
SETUP_MIN_CHILDREN = 2
SETUP_MAX_CHILDREN = 12
CHILD_TIMEOUT_S = 150


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up only and print the set-up time (used for set-up samples)")
    return ap.parse_args(argv)


def require_source() -> None:
    if not (SRC / "ut_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source at {SRC / 'ut_lab'}")


def load_library():
    """Import ut_lab from this checkout's src/, and nowhere else."""
    require_source()
    sys.path.insert(0, str(SRC))
    import ut_lab
    from ut_lab import (catalog, num_theory, partitions, perm_core, semigroup,
                        set_orbits, ut_deciders, verify)

    if Path(ut_lab.__file__).resolve().parent != (SRC / "ut_lab").resolve():
        raise SystemExit(f"error: imported ut_lab from {ut_lab.__file__}, not {SRC}")
    return SimpleNamespace(
        catalog=catalog, num_theory=num_theory, partitions=partitions,
        perm_core=perm_core, semigroup=semigroup, set_orbits=set_orbits,
        ut_deciders=ut_deciders, verify=verify,
    )


def set_up(args):
    """Import, catalog manifest, groups and cache warming; returns (lib, workload, seconds)."""
    start = perf_counter()
    lib = load_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    expected = json.loads((HERE / "expected.json").read_text())
    workload = WORKLOADS[args.workload](lib, expected, args.seed)
    return lib, workload, perf_counter() - start


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def setup_samples_in_children(args) -> list[float]:
    """An even number of child set-ups, so that with the parent's the count is odd."""
    samples = []
    while len(samples) < SETUP_MAX_CHILDREN and (
            len(samples) < SETUP_MIN_CHILDREN or len(samples) % 2
            or sum(samples) < SETUP_BUDGET_S):
        samples.append(setup_in_child(args))
    return samples


def measure(workload, seconds: float, ops=None, tracer=None) -> dict:
    """Closed loop over whole rounds for about `seconds`, or over `ops` exactly."""
    done, results, latencies = [], [], []
    failed = rounds = 0
    batches = [ops] if ops is not None else workload.rounds()
    start = perf_counter()
    for batch in batches:
        rounds += 1
        for op in batch:
            if tracer is not None:
                tracer.op = len(done)
            gc.collect()
            t0 = perf_counter()
            try:
                result = workload.run(op)
                bad = workload.failed(result)
            except Exception as exc:  # an error is a failed operation, not a crash
                result, bad = exc, True
            latencies.append(perf_counter() - t0)
            done.append(op)
            results.append(result)
            failed += bad
        elapsed = perf_counter() - start
        if ops is None and elapsed + elapsed / rounds / 2 >= seconds:
            break  # the round boundary nearest to `seconds`
    return {"ops": done, "results": results, "latencies": latencies,
            "failed": failed, "rounds": rounds, "wall": perf_counter() - start}


def gate(workload, runs) -> list[str]:
    """Check each distinct operation once; identical operations must agree."""
    errors, seen = [], {}
    for run in runs:
        for op, result in zip(run["ops"], run["results"]):
            if isinstance(result, Exception):
                continue  # already counted as failed
            if op in seen:
                if repr(seen[op]) != repr(result):
                    errors.append(f"{op.key}: answers differ between repeats")
                continue
            seen[op] = result
            error = workload.check(op, result)
            if error:
                errors.append(error)
    return errors + workload.final_checks()


def input_properties(run) -> dict:
    keys = [op.key for op in run["ops"]]
    repeats = len(keys) - len(set(keys))
    kinds = {}
    for op in run["ops"]:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return {"repeat_share": repeats / len(keys) if keys else 0.0, "op_kinds": kinds}


def end_to_end(run, setup_samples) -> dict[str, tuple[float, int]]:
    lat_ms = sorted(x * 1e3 for x in run["latencies"])
    n = len(lat_ms)
    completed = n - run["failed"]
    return {
        "ops_per_s": (completed / run["wall"], n),
        "latency_p50_ms": (statistics.median(lat_ms), n),
        "latency_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], n),
        "decided_share": (completed / n, n),
        "setup_s": (statistics.median(setup_samples), len(setup_samples)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def traced(lib, workload, seconds: float):
    """Untraced for half the time, then the same operations traced."""
    from spans import Tracer

    plain = measure(workload, seconds / 2)
    tracer = Tracer(lib)
    tracer.install()
    try:
        spanned = measure(workload, 0, ops=plain["ops"], tracer=tracer)
    finally:
        tracer.remove()
    values = tracer.values()
    values["trace.overhead_ratio"] = spanned["wall"] / plain["wall"]
    values.update(workload.layer_extras())
    return plain, spanned, tracer, values


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _, _, setup_s = set_up(args)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    require_source()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        setup_samples = []
    else:
        setup_samples = setup_samples_in_children(args)
    lib, workload, setup_s = set_up(args)
    setup_samples.append(setup_s)
    gc.collect()
    gc.freeze()

    if args.trace:
        plain, spanned, tracer, values = traced(lib, workload, args.seconds)
        runs = [plain, spanned]
        wanted = spec["per_layer"]
        counts = {}
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed})
    else:
        run = measure(workload, args.seconds)
        runs = [run]
        wanted = spec["end_to_end"]
        measured = end_to_end(run, setup_samples)
        values = {name: v for name, (v, _) in measured.items()}
        counts = {name: n for name, (_, n) in measured.items()}

    errors = gate(workload, runs)
    attempted = sum(len(r["ops"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise SystemExit(f"error: metric {m['name']!r} is not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"# workload {args.workload} seed {args.seed}: {attempted} operations "
          f"({runs[0]['rounds']} rounds in {runs[0]['wall']:.2f} s), {failed} failed, "
          f"{len(errors)} wrong; set-up samples {[round(s, 3) for s in setup_samples]}")
    print(f"# input {json.dumps(input_properties(runs[0]))}")
    for name, m in metrics.items():
        samples = f" (n={counts[name]})" if name in counts else ""
        print(f"# {name} = {m['value']:.6g} {m['unit']}{samples}")
    for error in errors[:20]:
        print(f"# WRONG {error}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
