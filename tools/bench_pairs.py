"""Benchmark a git revision against the working tree in alternating pairs.

Run from anywhere::

    python3 tools/bench_pairs.py REV N > BENCH_<n>.json

REV's ``src/`` and ``perfbench/`` are unpacked with ``golden_diff.unpack``
into a temporary directory, and the working tree's ``src/`` and
``perfbench/`` are copied next to it when the script starts, so editing
the checkout during a run changes neither side.  Each side runs its own,
unmodified ``perfbench/run.py`` at its default run length, which each
record keeps as ``env.seconds``.  For every workload that
``BENCHMARK.json`` gates, the script runs N pairs with seeds 71, 72, ...;
the side that runs first alternates, REV first in the first pair.  Then
both sides make one traced run, ``--workload all --trace 1 --seed 41``.

The JSON document on standard output holds ``pairs`` (each side's
``perfbench/out/result-*.json`` record as written), ``traced`` (each
side's traced record per workload) and ``summary``: per gated workload
and end-to-end metric, the quartiles of each side
(``statistics.quantiles``, inclusive), the ratio of the medians, the
number of pairs the working tree wins and a ``verdict``:

* ``worse``: the change's median is past the metric's bound in the bad
  direction, as a fraction of the parent's median;
* ``better``: of at least ten pairs, the change wins nine tenths or more,
  a tie counting for neither side, and its median beats the parent's by
  more than the parent's q3 - q1;
* ``unresolved``: the parent's spread, (q3 - q1) / median, exceeds the
  bound, and not every change run beats every parent run;
* ``held``: anything else.

``summary`` also holds ``radius_above_oracle``: for every workload of the
traced run, each side's traced ``check.radius_above_oracle`` value, the
number of certificates whose radius lies above perfbench's oracle (None
where a side has no such value).

The traced record is one run per side, so each of its per-layer figures
is a single sample: it shows where the time goes, but it cannot tell a
change from run-to-run noise.  Compare per-layer times only with repeated,
alternating runs of the calls concerned.

It is written with ``json.dump(indent=1)``.  Progress goes to standard error.  Exit code: 0
on success, 2 when a side cannot be unpacked or run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from golden_diff import ROOT, unpack

FIRST_SEED = 71
TRACE_SEED = 41
CHANGE = "change"
PARENT = "parent"


def copy_worktree(dest: Path):
    """The working tree's src/ and perfbench/ under dest, without build or run output."""
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)


def run(side: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run on a side; each workload's result record by name."""
    cmd = [sys.executable, str(side / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    print(f"{side.name}: {' '.join(cmd[2:])}", file=sys.stderr, flush=True)
    subprocess.run(cmd, cwd=side, stdout=subprocess.DEVNULL, check=True)
    out = side / "perfbench" / "out"
    return {path.name.split("-seed")[0][len("result-"):]: json.loads(path.read_text())
            for path in sorted(out.glob(f"result-*-seed{seed}-trace{trace}.json"))}


def change_wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs whose change value beats the parent's; a tie counts for neither side."""
    return sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse``, ``better``, ``unresolved`` or ``held``: see the module docstring."""
    wins = change_wins(parent, change, better)
    if better == "higher":  # compare the negated values, where lower is better
        parent, change = [-v for v in parent], [-v for v in change]
    q1, med, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                   if len(parent) > 1 else parent * 3)
    if statistics.median(change) - med > bound * abs(med):
        return "worse"
    if len(parent) >= 10 and 10 * wins >= 9 * len(parent) \
            and med - statistics.median(change) > q3 - q1:
        return "better"
    if q3 - q1 > bound * abs(med) and not max(change) < min(parent):
        return "unresolved"
    return "held"


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Quartiles, median ratio, change wins and verdict per end-to-end metric."""
    out = {"pairs": len(pairs),
           "failed": [sum(p[side]["failed"] for p in pairs) for side in (PARENT, CHANGE)]}
    for spec in end_to_end:
        name, better = spec["name"], spec["better"]
        vals = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                for side in (PARENT, CHANGE)}
        out[name] = {"better": better, "bound": spec["bound"]}
        for side in (PARENT, CHANGE):
            v = vals[side]
            out[name][f"{side}_q1_median_q3"] = (
                statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3)
        out[name]["change_over_parent_median"] = (statistics.median(vals[CHANGE])
                                                  / statistics.median(vals[PARENT]))
        out[name]["change_wins"] = change_wins(vals[PARENT], vals[CHANGE], better)
        out[name]["verdict"] = verdict(vals[PARENT], vals[CHANGE], better, spec["bound"])
    return out


def above_oracle(traced: dict) -> dict:
    """Each side's traced ``check.radius_above_oracle`` value per workload."""
    workloads = sorted(set(traced[PARENT]) | set(traced[CHANGE]))
    return {workload: {side: traced[side].get(workload, {}).get("metrics", {})
                       .get("check.radius_above_oracle", {}).get("value")
                       for side in (PARENT, CHANGE)}
            for workload in workloads}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev")
    ap.add_argument("n", type=int, help="pairs per gated workload")
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error("N must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [w["name"] for w in spec["workloads"]]
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                                 f"{args.rev}^{{commit}}"], stdout=subprocess.PIPE,
                                text=True, check=True).stdout.strip()
        with tempfile.TemporaryDirectory() as tmp:
            sides = {PARENT: Path(tmp) / PARENT, CHANGE: Path(tmp) / CHANGE}
            for path in sides.values():
                path.mkdir()
            unpack(commit, sides[PARENT], "src", "perfbench")
            copy_worktree(sides[CHANGE])
            pairs, summary = [], {}
            for workload in gated:
                done = []
                for i in range(args.n):
                    seed = FIRST_SEED + i
                    order = (PARENT, CHANGE) if i % 2 == 0 else (CHANGE, PARENT)
                    res = {side: run(sides[side], workload, seed, 0)[workload]
                           for side in order}
                    done.append({"workload": workload, "seed": seed, "first": order[0],
                                 PARENT: res[PARENT], CHANGE: res[CHANGE]})
                pairs += done
                summary[workload] = summarize(done, spec["end_to_end"])
            traced = {"seed": TRACE_SEED}
            for side in (PARENT, CHANGE):
                traced[side] = run(sides[side], "all", TRACE_SEED, 1)
            summary["radius_above_oracle"] = above_oracle(traced)
    except subprocess.CalledProcessError as exc:
        print(f"bench_pairs: {' '.join(map(str, exc.cmd))} exited {exc.returncode}",
              file=sys.stderr)
        return 2
    doc = {
        "description": (f"perfbench results of {args.rev} ({PARENT}) and of the working tree "
                        f"({CHANGE}): {args.n} alternating pairs per gated workload "
                        "(first = the side run first in the pair) and one traced pair "
                        f"(--workload all --trace 1 --seed {TRACE_SEED}). Each result is "
                        "the perfbench/out/result-*.json record as written."),
        "parent_commit": commit,
        "command": "python3 perfbench/run.py --workload W --seed N --trace 0",
        "pairs": pairs,
        "traced": traced,
        "summary": summary,
    }
    json.dump(doc, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
