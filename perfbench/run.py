"""Outside-in benchmark of bohrkit.

Run every workload, each in a fresh process, and print every metric with
its unit (from the repository root)::

    python3 perfbench/run.py [--seed 1] [--seconds 50] [--trace 0|1]

Run one workload; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload certify_scaled --seed 1 --seconds 50 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` makes a
separate traced run and reports the per-layer metrics.  Workloads:
certify_power, certify_scaled, table_sweep, table_scaled, lemma_suites;
``BENCHMARK.json`` gates certify_scaled and table_scaled, the two whose
figures stay steady on a shared host (see ``workloads.py``).  The program
is imported from ``src/`` next to this directory and is not modified.
Spans and a full result record (with the host, build and seed facts)
are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("certify_power", "certify_scaled", "table_sweep", "table_scaled", "lemma_suites")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def print_metrics(workload: str, result: dict):
    for name, m in result["metrics"].items():
        print(f"{workload:15s} {name:36s} {m['value']:>16.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"{workload:15s} {'error_rate':36s} {rate:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} ops)")


def run_one(args) -> int:
    for var in THREAD_VARS:  # before numpy is imported, so BLAS starts single-threaded
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import bohrkit
    if Path(bohrkit.__file__).resolve().parent != SRC / "bohrkit":
        print(f"bohrkit was imported from {bohrkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    env = harness.environment(args.workload, args.seed, args.seconds, bool(args.trace))
    harness.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = harness.run_traced(args.workload, args.seed, args.seconds,
                                    spans_path=harness.OUT_DIR / f"spans-{stem}.npz")
    else:
        result = harness.run_untraced(args.workload, args.seed, args.seconds)
    record = {"env": env, **result}
    (harness.OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    print("info " + json.dumps(result["info"], sort_keys=True))
    print_metrics(args.workload, result)
    print(json.dumps({k: result[k] for k in RESULT_KEYS}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process; print all metrics, then a summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print_metrics(name, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bohrkit" / "__init__.py").is_file():
        print(f"no bohrkit sources under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
