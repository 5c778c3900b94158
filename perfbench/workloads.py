"""The benchmark workloads, driven through bohrkit's public API.

certify_power (criteria 3+4), certify_scaled (criterion 7), table_sweep
(many cheap ``bohrkit table`` rows) and lemma_suites cover the package's
use cases; table_scaled runs ``bohrkit table`` over the criterion-7
weights.  ``BENCHMARK.json`` gates certify_scaled and table_scaled: their
ops are dominated by wide numpy scans, and their figures stay within a
few percent from run to run on a shared host, while the workloads made of
many small Python-level calls follow the host's speed swings of 1.3-1.9x.

Each workload builds its inputs from a seed (``setup``), runs one op at a
time (``run``) and checks every op's output (``check``) against the
certificates recorded in ``reference.json`` and, where one exists, an
independent polynomial or closed-form oracle.  ``check`` raises
:class:`CheckFailed` on a wrong output and returns the number of items
the op completed plus the keys of certificates whose radius lies above
the oracle root (a known defect that is counted, not failed).

All bohrkit functions are looked up on their modules at call time, so a
traced run sees the wrappers installed by :mod:`spans`.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial

from bohrkit import cli, errors, functionals, radii, verify
from bohrkit import weights as wt

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

CERT_TOL = 1e-12      # certificate against the recorded reference
ORACLE_TOL = 1e-10    # certificate against an independent oracle (criterion 2)
DELTA = 0.02          # sharpness offset above the radius (criterion 4)
R_POINTS = 256
BLASCHKE_COUNT = 100  # 22 extremal members + 100 Blaschke products = 122

PSI_FAMILIES = ("psi1", "psi2", "psi3", "psi4")

# table lattice: p = (k + 1) * P_STEP for k < P_COUNT, lambda from LAMBDAS
P_STEP = 0.025
P_COUNT = 80
P_WINDOW = 8
LAMBDAS = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)
TABLE_M = (1, 2, 3)
TABLE_Q = (2, 3, 4)
TABLE_CYCLE = 15  # commands per family in one cycle of ops

# table_scaled: p = (k + 1) * SCALED_P_STEP for k < SCALED_P_COUNT
SCALED_P_STEP = 0.25
SCALED_P_COUNT = 8
SCALED_TABLE_CYCLE = 48
WEIGHTS_JSON = Path(__file__).resolve().parent / "out" / "scaled-weights.json"

LEMMA_D_GRID = tuple(itertools.product(("phi_tail", "t5", "t6"), (0.5, 1.0, 2.0)))
LEMMA_COEFF_TRIALS = 40
LEMMA_SP_TRIALS = 8
LEMMA_CYCLE = 48


class CheckFailed(Exception):
    """An op's output disagrees with its reference or oracle."""


@dataclass
class Setup:
    """Everything a workload builds before timing starts."""

    ops: list
    reference: dict
    extra: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, bool, dict | None], Setup]
    run: Callable
    check: Callable
    ops_per_s: float   # measured op rate at the commit that defined the benchmark
    tail_pct: int      # highest of 90/75/50 with >= 10 distinct ops beyond it


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(got: float, want: float, tol: float, what: str):
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def stratified(groups: list[list], rng: np.random.Generator) -> list:
    """Interleave shuffled groups in proportion to their sizes, so that every
    prefix of the result holds each group in about its overall share."""
    keyed = []
    for group in groups:
        order = rng.permutation(len(group))
        jitter = rng.uniform(size=len(group))
        keyed += [((j + jitter[j]) / len(group), group[i]) for j, i in enumerate(order)]
    keyed.sort(key=lambda kv: kv[0])
    return [item for _, item in keyed]


# -- oracles (computed on first use while checking, outside the timed ops) --

@functools.lru_cache(maxsize=None)
def power_oracle(family: str, m: int, p: float, lam: float = 1.0, q: int = 2) -> float:
    """Minimal root in (0, 1) of the family's Psi under power weights,
    cleared of its positive denominators to a polynomial."""
    r, one = Polynomial([0.0, 1.0]), Polynomial([1.0])
    x = r ** m
    if family == "psi1":
        poly = p * (one - x) * (one - r) - 2.0 * r * (one + x)
    elif family == "psi2":
        poly = 0.5 * p * (one - r) * (one - x) - r * (one - x) - x * (one - r)
    elif family == "psi3":
        poly = 0.5 * p * (one - r) ** 2 - (one - (one - r) ** 2)
    elif family == "psi4":
        poly = ((0.5 * p * (one - r) ** 2 - (one - (one - r) ** 2)) * (one - x) ** 2
                - (one - (one - x) ** 2) * (one - r) ** 2)
    elif family == "psi5_t5":
        poly = p * (one - x) * (one - r) - 2.0 * lam * r * (one + x)
    elif family == "psi5_t6":
        poly = p * (one - x) * (one - r ** q) - 2.0 * lam * r ** (q + m) * (one + x)
    else:
        raise ValueError(f"no oracle for {family}")
    roots = poly.roots()
    real = roots[np.abs(roots.imag) < 1e-9].real
    root = float(real[(real > 0.0) & (real < 1.0)].min())
    slope = poly.deriv()
    for _ in range(3):
        root -= float(poly(root) / slope(root))
    return root


def scaled_psi3_root(p: float) -> float:
    """With c_n = 1/(n+1) the weighted tail is r/(1-r), so Psi3 vanishes at p/(2+p)."""
    return p / (2.0 + p)


# -- certify_power / certify_scaled ---------------------------------------

def problem_key(prob) -> str:
    pm = prob.params
    return f"{prob.family}|m={pm.m}|p={pm.p:g}|lam={pm.lam:g}|q={pm.q}"


def power_problems(w=None) -> list:
    """The criteria 3/4 grid: 120 problems under power weights."""
    w = wt.power() if w is None else w
    out = []
    for m in (1, 2, 3):
        for p in (0.5, 1.0, 1.5, 2.0):
            for fam in PSI_FAMILIES:
                out.append(radii.RadiusProblem(fam, functionals.FunctionalParams(m=m, p=p), w))
            for lam in (0.5, 1.0, 2.0):
                out.append(radii.RadiusProblem(
                    "psi5_t5", functionals.FunctionalParams(m=m, p=p, lam=lam)))
                out.append(radii.RadiusProblem(
                    "psi5_t6", functionals.FunctionalParams(m=m, p=p, lam=lam, q=m + 1)))
    return out


def scaled_weights():
    return wt.scaled_power(1.0 / (np.arange(4096) + 1.0), rho=1.0, C=1.0)


def scaled_problems(w) -> list:
    """The criterion-7 grid: psi1-psi4 x m x p under c_n = 1/(n+1)."""
    return [radii.RadiusProblem(fam, functionals.FunctionalParams(m=m, p=p), w)
            for m in (1, 2, 3) for p in (0.5, 1.0, 1.5, 2.0) for fam in PSI_FAMILIES]


def _certify_setup(problems, seed, tiny, reference, oracle):
    rng = np.random.default_rng(seed)
    pop_seed = int(rng.integers(0, 2 ** 31))
    fams = sorted({pr.family for pr in problems})
    ops = stratified([[pr for pr in problems if pr.family == f] for f in fams], rng)
    if tiny:
        ops = [next(pr for pr in ops if pr.family == f) for f in fams]
    count = 2 if tiny else BLASCHKE_COUNT
    populations = {f: verify.standard_families(f, seed=pop_seed, blaschke_count=count)
                   for f in fams}
    return Setup(ops, reference, {"populations": populations, "oracle": oracle,
                                  "r_points": 16 if tiny else R_POINTS})


def certify_run(s: Setup, prob):
    """Solve, verify below the radius, then look for a witness above it."""
    cert = radii.solve_radius(prob)
    report = verify.verify_below_radius(prob, families=s.extra["populations"][prob.family],
                                        r_points=s.extra["r_points"])
    try:
        witness = verify.sharpness_witness(prob, DELTA, cert)
    except errors.NotFalsifiableError:
        witness = None
    return cert, report, witness


def certify_check(s: Setup, prob, out):
    cert, report, witness = out
    key = problem_key(prob)
    ref = s.reference[key]
    for name in ("radius", "bracket_lo", "bracket_hi"):
        _close(getattr(cert, name), ref[name], CERT_TOL, f"{key} {name}")
    _close(report.radius, ref["radius"], CERT_TOL, f"{key} report radius")
    _require(report.verified,
             f"{key}: max violation {report.max_violation:.3g} > {verify.VIOLATION_TOL}")
    _require(report.n_functions == len(s.extra["populations"][prob.family])
             and report.r_grid_size == s.extra["r_points"], f"{key}: report grid sizes")
    if ref["witness_a"] is None:
        _require(witness is None, f"{key}: unexpected witness")
    else:
        _require(witness is not None, f"{key}: no witness")
        _close(witness.a, ref["witness_a"], 0.0, f"{key} witness a")
        _require(witness.excess > verify.WITNESS_EXCESS_TOL,
                 f"{key}: witness excess {witness.excess:.3g}")
    root = s.extra["oracle"](prob)
    above = []
    if root is not None:
        _close(cert.radius, root, ORACLE_TOL, f"{key} radius vs oracle")
        if prob.family == "psi3" and prob.weights.kind == wt.SCALED_POWER:
            _require(cert.bracket_lo <= root <= cert.bracket_hi,
                     f"{key}: exact root {root!r} outside the bracket")
        if cert.radius > root:
            above.append(key)
    return 1, above


def certify_power_setup(seed, tiny, reference=None):
    reference = load_reference() if reference is None else reference
    return _certify_setup(power_problems(), seed, tiny, reference["certify_power"],
                          lambda pr: power_oracle(pr.family, pr.params.m, pr.params.p,
                                                  pr.params.lam, pr.params.q))


def certify_scaled_setup(seed, tiny, reference=None):
    reference = load_reference() if reference is None else reference
    w = scaled_weights()
    problems = scaled_problems(w)
    if tiny:  # the single psi3 p = 1 problem: one 4096-term scan, and the 4(a) case
        problems = [pr for pr in problems
                    if pr.family == "psi3" and pr.params.m == 1 and pr.params.p == 1.0]
    oracle = lambda pr: scaled_psi3_root(pr.params.p) if pr.family == "psi3" else None
    return _certify_setup(problems, seed, tiny, reference["certify_scaled"], oracle)


# -- table_sweep -----------------------------------------------------------

def p_value(k: int) -> float:
    return round((k + 1) * P_STEP, 6)


def table_key(family: str, m: int, lam: float, q: int) -> str:
    return f"{family}|m={m}|lam={lam:g}|q={q}"


def _table_command(family, rng, tiny):
    width = 2 if tiny else P_WINDOW
    k0 = int(rng.integers(0, P_COUNT - width + 1))
    ks = list(range(k0, k0 + width))
    lam_count = {"psi1": 0, "psi5_t5": 3, "psi5_t6": 2}[family]
    lams = sorted(float(v) for v in rng.choice(LAMBDAS, size=lam_count, replace=False))
    argv = ["table", "--family", family, "--m", "1..3",
            "--p", f"{p_value(ks[0]):g}..{p_value(ks[-1]):g}:{P_STEP:g}"]
    if lams:
        argv += ["--lambda", ",".join(f"{v:g}" for v in lams)]
    if family == "psi5_t6":
        argv += ["--q", "2..4"]
    qs = TABLE_Q if family == "psi5_t6" else (2,)
    rows = [(family, m, k, lam, q) for m in TABLE_M for k in ks
            for lam in (lams or [1.0]) for q in qs]
    return {"argv": argv, "rows": rows}


def table_setup(seed, tiny, reference=None):
    reference = load_reference() if reference is None else reference
    rng = np.random.default_rng(seed)
    families = ("psi1", "psi5_t5", "psi5_t6")
    ops = [_table_command(f, rng, tiny)
           for _ in range(1 if tiny else TABLE_CYCLE) for f in families]
    return Setup(ops, reference["table"])


def table_run(s: Setup, op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op["argv"])
    return code, buf.getvalue()


def _check_table(op, out, p_step, reference, oracle):
    """Check a ``bohrkit table`` CSV against the requested grid; ``reference``
    and ``oracle`` map a row key (family, m, k, lambda, q) to a radius (the
    oracle may give None), where p = (k + 1) * p_step."""
    code, text = out
    cmd = " ".join(op["argv"])
    _require(code == cli.EXIT_OK, f"{cmd}: exit code {code}")
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == ["family", "m", "p", "lambda", "q", "radius",
                         "bracket_width", "status"], f"{cmd}: header {rows[0]}")
    got = {}
    for fam, m, p, lam, q, radius, width, status in rows[1:]:
        k = round(float(p) / p_step) - 1
        got[fam, int(m), k, float(lam), int(q)] = (radius, width, status)
    _require(sorted(got) == sorted(op["rows"]) and len(rows) - 1 == len(op["rows"]),
             f"{cmd}: rows differ from the requested grid")
    above = []
    for row, (radius, width, status) in got.items():
        fam, m, k, lam, q = row
        if fam == "psi5_t6" and m >= q:
            _require(status == "invalid", f"{cmd}: row {row} should be invalid")
            continue
        _require(status == "ok", f"{cmd}: row {row} status {status}")
        _require(0.0 < float(width) <= radii.BRACKET_WIDTH, f"{cmd}: row {row} width {width}")
        r = float(radius)
        _close(r, reference(row), CERT_TOL, f"{cmd} row {row}")
        root = oracle(row)
        if root is not None:
            _close(r, root, ORACLE_TOL, f"{cmd} row {row} vs oracle")
            if r > root:
                above.append("|".join(map(str, row)))
    return len(op["rows"]), above


def table_check(s: Setup, op, out):
    return _check_table(
        op, out, P_STEP,
        lambda row: s.reference[table_key(row[0], row[1], row[3], row[4])][row[2]],
        lambda row: power_oracle(row[0], row[1], p_value(row[2]), row[3], row[4]))


# -- table_scaled ------------------------------------------------------------

def scaled_p_value(k: int) -> float:
    return (k + 1) * SCALED_P_STEP


def scaled_table_setup(seed, tiny, reference=None):
    """Commands of two rows each over psi1-psi4 under the criterion-7 weights,
    which the CLI reads from a JSON file as a user would give it."""
    reference = load_reference() if reference is None else reference
    WEIGHTS_JSON.parent.mkdir(exist_ok=True)
    tmp = WEIGHTS_JSON.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({"kind": wt.SCALED_POWER,
                               "coeffs": scaled_weights().coeffs.tolist(),
                               "rho": 1.0, "C": 1.0}))
    os.replace(tmp, WEIGHTS_JSON)
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(1 if tiny else SCALED_TABLE_CYCLE):
        fam, m = PSI_FAMILIES[i % len(PSI_FAMILIES)], int(rng.integers(1, 4))
        ks = sorted(int(k) for k in rng.choice(SCALED_P_COUNT, size=1 if tiny else 2,
                                                replace=False))
        argv = ["table", "--family", fam, "--weights", str(WEIGHTS_JSON), "--m", str(m),
                "--p", ",".join(f"{scaled_p_value(k):g}" for k in ks)]
        ops.append({"argv": argv, "rows": [(fam, m, k, 1.0, 2) for k in ks]})
    return Setup(ops, reference["table_scaled"])


def scaled_table_check(s: Setup, op, out):
    return _check_table(
        op, out, SCALED_P_STEP,
        lambda row: s.reference[f"{row[0]}|m={row[1]}"][row[2]],
        lambda row: scaled_psi3_root(scaled_p_value(row[2])) if row[0] == "psi3" else None)


# -- lemma_suites ------------------------------------------------------------

def lemma_setup(seed, tiny, reference=None):
    reference = load_reference() if reference is None else reference
    rng = np.random.default_rng(seed)
    n = 1 if tiny else LEMMA_CYCLE
    seeds = rng.integers(0, 2 ** 31, size=(n, 2))
    ops = [{"coeff_seed": int(a), "sp_seed": int(b),
            "instance": LEMMA_D_GRID[i % len(LEMMA_D_GRID)][0],
            "p": LEMMA_D_GRID[i % len(LEMMA_D_GRID)][1]}
           for i, (a, b) in enumerate(seeds)]
    trials = (2, 2) if tiny else (LEMMA_COEFF_TRIALS, LEMMA_SP_TRIALS)
    return Setup(ops, reference["lemma_D"], {"trials": trials})


def lemma_run(s: Setup, op):
    coeff_trials, sp_trials = s.extra["trials"]
    coeff = verify.check_lemma_coeff(coeff_trials, op["coeff_seed"])
    sp = verify.check_schwarz_pick(sp_trials, op["sp_seed"])
    d = verify.check_lemma_D(op["instance"], m=1, p=op["p"])
    return coeff, sp, d


def lemma_check(s: Setup, op, out):
    coeff, sp, d = out
    tag = f"lemma round {op}"
    # the suite's own tolerances, as in the acceptance criterion 5
    _require(coeff <= 1e-9, f"{tag}: coefficient lemma slack {coeff:.3g}")
    _require(sp["trials"] == s.extra["trials"][1], f"{tag}: schwarz-pick trials")
    _require(sp["max_contraction_slack"] <= 1e-8 and sp["max_derivative_slack"] <= 1e-8
             and sp["moebius_equality_dev"] <= 1e-10, f"{tag}: schwarz-pick {sp}")
    _require(d["max_D"] <= 1e-10 and d["D_at_1_max_abs"] == 0.0, f"{tag}: D-lemma {d}")
    if op["p"] <= 1.0:
        _require(d["min_a_increment"] >= -1e-10, f"{tag}: D not monotone in a")
    key = (op["instance"], op["p"])
    _close(d["radius"], s.reference[f"{key[0]}|p={key[1]:g}"], CERT_TOL, f"{tag} D radius")
    # the D-lemma instances solve psi1 (power weights), psi5_t5 and psi5_t6 (q = 2)
    root = power_oracle({"phi_tail": "psi1", "t5": "psi5_t5", "t6": "psi5_t6"}[key[0]],
                        1, key[1])
    _close(d["radius"], root, ORACLE_TOL, f"{tag} D radius vs oracle")
    return 3, ([f"lemma_D|{key[0]}|p={key[1]:g}"] if d["radius"] > root else [])


WORKLOADS = {
    "certify_power": Workload(certify_power_setup, certify_run, certify_check,
                              ops_per_s=22.0, tail_pct=90),
    "certify_scaled": Workload(certify_scaled_setup, certify_run, certify_check,
                               ops_per_s=0.93, tail_pct=75),
    "table_sweep": Workload(table_setup, table_run, table_check,
                            ops_per_s=10.0, tail_pct=75),
    "table_scaled": Workload(scaled_table_setup, table_run, scaled_table_check,
                             ops_per_s=1.2, tail_pct=75),
    "lemma_suites": Workload(lemma_setup, lemma_run, lemma_check,
                             ops_per_s=8.0, tail_pct=75),
}
