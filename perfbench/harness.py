"""Set-up, timed loop, traced loop and result assembly for one workload.

The untraced run builds its inputs several times before the timed ops and
again after them, and reports the median set-up time.  It runs one
untimed warm-up op, then runs the workload's op list round after round
until the summed op latency reaches the requested seconds.  Each distinct
op's latency is the best of its runs (best-of-k): the host's speed swings
by tens of percent over seconds, while each op's best run stays steady.
Latency percentiles and ``items_per_s`` are taken over the distinct ops.

The traced run executes a fixed number of ops (so its counts repeat
exactly for a given seed), each once untraced and once traced in
alternating order, which gives the tracing overhead on identical work.  Every op's output is checked either way.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPS = 3        # set-ups before the timed ops and again after them, at least
SETUP_BUDGET_S = 1.0  # this many and for at least this long each time

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_s.p50": "s",
                    "op_s.ptail": "s", "peak_rss_mb": "MB"}

PER_LAYER = (
    ("weights.tail", ("calls", "s")),
    ("weights.weighted_tail", ("calls", "s")),
    ("weights.weight_at", ("s",)),
    ("radii.psi_eval", ("calls", "points", "s")),
    ("radii.solve_radius", ("calls", "self_s")),
    ("functionals.evaluate_family", ("calls", "s")),
    ("functionals.bound_for", ("s",)),
    ("functionals.bohr_sum", ("s",)),
    ("functionals.a_refinement", ("s",)),
    ("series.random_blaschke", ("calls", "s")),
    ("series.moebius", ("s",)),
    ("series.evaluate", ("s",)),
    ("series.eval_derivative", ("s",)),
    ("verify.verify_below_radius", ("self_s",)),
    ("verify.sharpness_witness", ("self_s",)),
    ("verify.check_lemma_coeff", ("self_s",)),
    ("verify.check_schwarz_pick", ("self_s",)),
    ("verify.check_lemma_D", ("self_s",)),
    ("verify.standard_families", ("s",)),
    ("cli.main", ("self_s",)),
)
PER_LAYER_UNITS = {f"{name}.{field}": "s" if field in ("s", "self_s") else "count"
                   for name, fields in PER_LAYER for field in fields}
PER_LAYER_UNITS.update({"host.calib_ms": "ms", "trace.overhead_frac": "ratio",
                        "check.radius_above_oracle": "count"})


# -- host and build facts ------------------------------------------------

def calib_ms(reps: int = 5) -> list[float]:
    """Times of a fixed numpy-plus-Python kernel, so host drift shows."""
    x = np.linspace(0.0, 0.999, 1001)[None, :]
    n = np.arange(400, dtype=float)[:, None]
    m, s = np.empty((400, 1001)), np.empty((400, 1001))  # no allocation while timed
    out = []
    for _ in range(reps):
        t = time.perf_counter()
        np.power(x, n, out=m)
        np.cumsum(m, axis=0, out=s)
        acc = 0.0
        for i in range(20000):
            acc += (i % 7) * 0.5
        out.append((time.perf_counter() - t) * 1e3)
    return out


def _git_commit() -> str:
    if not (ROOT / ".git").exists():  # never report an enclosing repository's commit
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _src_facts() -> tuple[int, str]:
    lines, digest = 0, hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
    return lines, digest.hexdigest()


def _openblas_version() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        return str(cfg["Build Dependencies"]["blas"].get("version", "unknown"))
    except (TypeError, KeyError):
        return "unknown"


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    src_lines, src_sha = _src_facts()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": _git_commit(), "src_sha256": src_sha, "src_lines": src_lines,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "openblas": _openblas_version(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- running ops -----------------------------------------------------------

class Tally:
    """Counts attempted and failed ops and certificates above the oracle."""

    def __init__(self, workload: wl.Workload, setup: wl.Setup):
        self.workload, self.setup = workload, setup
        self.attempted = self.failed = 0
        self.above: set[str] = set()
        self.first_error: str | None = None

    def op(self, op) -> tuple[float, int]:
        """Run and check one op; return its latency in seconds and the items
        it completed (none when it failed)."""
        self.attempted += 1
        t = time.perf_counter()
        try:
            out = self.workload.run(self.setup, op)
        except Exception:  # an op that raises is a failed op, not a crash
            dt = time.perf_counter() - t
            self._fail(traceback.format_exc(limit=3))
            return dt, 0
        dt = time.perf_counter() - t
        try:
            items, above = self.workload.check(self.setup, op, out)
        except wl.CheckFailed as exc:
            self._fail(str(exc))
            return dt, 0
        self.above.update(above)
        return dt, items

    def _fail(self, message: str):
        self.failed += 1
        if self.first_error is None:
            self.first_error = message
        print(f"op failed: {message.strip()}", file=sys.stderr)


def _percentile_beyond(lat: np.ndarray, pct: int) -> tuple[float, int]:
    value = float(np.percentile(lat, pct))
    return value, int(np.sum(lat > value))


def _timed_setups(workload: wl.Workload, seed: int, tiny: bool, reference: dict | None):
    """Build the inputs repeatedly; return the last set-up and all the times."""
    setup, times = None, []
    while not times or not tiny and (len(times) < SETUP_REPS
                                     or sum(times) < SETUP_BUDGET_S):
        setup = None  # free the previous inputs first, so the peak holds one set
        t = time.perf_counter()
        setup = workload.setup(seed, tiny, reference)
        times.append(time.perf_counter() - t)
    return setup, times


def run_untraced(name: str, seed: int, seconds: float, tiny: bool = False,
                 reference: dict | None = None) -> dict:
    workload = wl.WORKLOADS[name]
    calib = calib_ms()
    setup, setup_times = _timed_setups(workload, seed, tiny, reference)
    tally = Tally(workload, setup)
    if not tiny:
        tally.op(setup.ops[0])  # warm-up: checked, not timed
    # the op list is run round after round; each op's latency is its best run
    best, items, elapsed, runs, raw_items = {}, {}, 0.0, 0, 0
    while not runs or elapsed < seconds:
        j = runs % len(setup.ops)
        dt, n = tally.op(setup.ops[j])
        best[j] = min(best.get(j, dt), dt)
        items[j] = n
        elapsed += dt
        runs += 1
        raw_items += n
    if not tiny:  # more set-ups, some seconds later, once the ops' inputs are freed
        tally.setup = setup = None
        setup_times += _timed_setups(workload, seed, tiny, reference)[1]
    calib += calib_ms()
    lat = np.array(list(best.values()))
    tail, beyond = _percentile_beyond(lat, workload.tail_pct)
    metrics = {"setup_s": statistics.median(setup_times),
               "items_per_s": sum(items.values()) / float(lat.sum()),
               "op_s.p50": float(np.median(lat)),
               "op_s.ptail": tail,
               "peak_rss_mb": peak_rss_mb()}
    info = {"timed_runs": runs, "distinct_ops": int(lat.size), "timed_s": elapsed,
            "raw_items_per_s": raw_items / elapsed,
            "tail_pct": workload.tail_pct, "ops_beyond_tail": beyond,
            "setup_s_samples": setup_times, "calib_ms_samples": calib}
    return _result(tally, metrics, END_TO_END_UNITS, info)


def run_traced(name: str, seed: int, seconds: float, tiny: bool = False,
               reference: dict | None = None, spans_path: Path | None = None) -> dict:
    workload = wl.WORKLOADS[name]
    calib = calib_ms()
    tracer = spans.Tracer()
    with tracer.active():
        setup = workload.setup(seed, tiny, reference)
    tally = Tally(workload, setup)
    if not tiny:
        tally.op(setup.ops[0])
    count = 1 if tiny else max(1, round(seconds * workload.ops_per_s / 2))
    plain = traced = 0.0
    for i in range(count):
        op = setup.ops[i % len(setup.ops)]
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.active():
                    traced += tally.op(op)[0]
            else:
                plain += tally.op(op)[0]
    calib += calib_ms()
    if spans_path is not None:
        tracer.save(spans_path)
    summary = tracer.summary()
    metrics = {}
    for span_name, fields in PER_LAYER:
        row = summary.get(span_name, {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0})
        for f in fields:
            metrics[f"{span_name}.{f}"] = row[f]
    metrics["host.calib_ms"] = statistics.median(calib)
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["check.radius_above_oracle"] = len(tally.above)
    info = {"traced_ops": count, "spans": len(tracer.t0), "calib_ms_samples": calib}
    return _result(tally, metrics, PER_LAYER_UNITS, info)


def _result(tally: Tally, metrics: dict, units: dict, info: dict) -> dict:
    info.update({"error_rate": tally.failed / tally.attempted,
                 "radius_above_oracle": len(tally.above),
                 "radius_above_oracle_first": sorted(tally.above)[:5],
                 "first_error": tally.first_error})
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "info": info}
