"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

1. Every workload runs for one round, untraced and traced, exits 0, and
   prints every metric BENCHMARK.json names for that mode.
2. For each workload, one verdict flipped in the expected.json of a copied
   tree (BENCHMARK.json, perfbench/ and a link to the library source) makes
   that copy's run exit non-zero with "correct": false.
3. The same copy without the link, holding only BENCHMARK.json and
   perfbench/, makes the run exit non-zero without printing a result.

Scratch files go to perfbench/out/ and are removed afterwards.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out" / "smoke"
TIMEOUT_S = 180

# the table each workload's gate compares against, and one key to corrupt
CORRUPT = {
    "kut_sweep": ("kut", "AGL(1,17)@17 k=3"),
    "extension_deep": ("extend", "M11@12 k=4"),
    "regularity_maps": ("rank_k", "C7@7 k=3"),
    "agl_sieve": ("agl", "13"),
}


def bench(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    tree = OUT / "tree"
    shutil.copytree(HERE, tree / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree)
    (tree / "src").symlink_to(ROOT / "src", target_is_directory=True)
    copied_expected = tree / "perfbench" / "expected.json"
    pristine = copied_expected.read_text()
    try:
        for w in (x["name"] for x in spec["workloads"]):
            for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
                proc = bench(ROOT, w, trace)
                doc = last_json(proc.stdout)
                want = {m["name"] for m in spec[listed]}
                if proc.returncode or not doc or not doc["correct"]:
                    problems.append(f"{w} trace={trace}: exit {proc.returncode}\n{proc.stderr[-800:]}")
                elif set(doc) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"{w} trace={trace}: result keys {sorted(doc)}")
                elif set(doc["metrics"]) != want:
                    problems.append(f"{w} trace={trace}: metrics differ from {listed}")
                print(f"{w} trace={trace}: exit {proc.returncode}", flush=True)

            table, key = CORRUPT[w]
            expected = json.loads(pristine)
            entry = expected[table][key]
            expected[table][key] = [not entry[0], *entry[1:]] if isinstance(entry, list) else not entry
            copied_expected.write_text(json.dumps(expected))
            proc = bench(tree, w, 0)
            doc = last_json(proc.stdout)
            if proc.returncode == 0 or not doc or doc["correct"]:
                problems.append(f"{w}: corrupted {table}[{key!r}] did not trip the gate")
            print(f"{w} corrupted {table}: exit {proc.returncode}", flush=True)

        copied_expected.write_text(pristine)
        (tree / "src").unlink()
        proc = bench(tree, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            problems.append("a directory without the library source did not fail cleanly")
        print(f"bare directory: exit {proc.returncode}", flush=True)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    for p in problems:
        print(f"PROBLEM {p}")
    print("smoke check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
