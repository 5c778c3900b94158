"""Dump certificates and CLI output for a fixed problem and command set.

Run from anywhere; bohrkit is imported from the ``src/`` directory next to
this one::

    python3 tools/golden.py > golden.txt

Two checkouts whose dumps are byte-identical give the same radii, brackets,
bracket-end values and CLI output on every case listed here, so a change
meant to keep behaviour (a faster scan, a refactor) is checked by running
this on the parent checkout and on the change and comparing the files.
Every float is written with ``repr``, which round-trips exactly.

The problem set: the power-weight grid of criteria 3/4, the criterion-7
grid under c_n = 1/(n+1) with 4096 coefficients, the classical families,
closed forms (psi5_t5, psi5_t6 and classical_d) whose small lambda puts
the root in the scan's last 41 points, in its last cell or past R_EDGE,
further scaled weights (short lists, rho < 1), late roots near r = 1, a
weight whose Psi has no root, and then some criterion-7 problems twice:
on a fresh instance of c_n = 1/(n+1) and on the instance shared by the
grid, so a cold scan-tail cache and a warm one give their certificates
side by side.  The command set: ``radius``, ``table`` with
power weights and with a scaled-weights JSON file (including ``psi5_t6``
rows with m >= q, which are invalid), ``identity-check``, and small
``verify`` and ``sharpness`` runs for every family under power weights and
for the weighted families psi1-psi4 and classical_c under c_n = 1/(n+1),
and ``check-lemmas --trials 20`` under both weights.  The ``elapsed``
field of ``verify`` reports is dropped, since it is a timing.  Failure
paths end the command set: usage errors (exit 1), ``radius`` and ``table``
under the no-root weights and tables whose every row is invalid (exit 2),
a ``sharpness`` run whose window holds no witness (exit 3), a
``verify`` run near r = 1 that a Blaschke member's tail bound lets
verify, and one whose Moebius members' lacunary sum cannot be certified
(exit 4).  Only stdout and the exit code are dumped; stderr is not.

The functional set: ``evaluate_family`` for every family in both modes on
one extremal member of each kind, a Blaschke product and its Schwarz
shift, on a 7-point radius grid and at one scalar radius, under power
weights and (for the weighted families) under c_n = 1/(n+1); the
matching ``bound_for``, ``bohr_sum`` and ``a_refinement`` values; the
Blaschke product's lacunary sums at r = 0.999; and the error raised for
an unknown mode.  For ``psi5_t6`` with m = q, which its theorem excludes,
and for ``psi3`` on a member with a_0 != 0, the dump pins which check
raises first: the radius, then the mode, then the family's parameters
and the body's own Schwarz check.

The Psi set: ``psi_eval`` of psi1-psi4 and classical_c under power
weights, c_n = 1/(n+1) and each further scaled weight, at one scalar
radius, on the 7-point grid, on one 65-point scan chunk, on the 31
dyadic midpoints of a bisection bracket and on the unsorted midpoints a
bisection of that bracket visits toward a point a third of the way in,
so the radius functions' own bits are checked, not only the certificates
they steer.  Both batches are built here, so any checkout's ``src/``
dumps them.

The reuse set, dumped first: the criterion-7 grid verified in order
against one ``standard_families`` population per family, in envelope mode
and in pointwise mode on 16 radii, then the whole grid again, and each
problem's witness searched twice, with every ``max_violation`` and witness
written by ``repr``.  A population's second verify and a second search can
reuse what the first built, so these lines pin that the reused state gives
the first run's bits.  It calls the public API only, so any checkout's
``src/`` dumps it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bohrkit import cli, sharpness_witness, standard_families, verify_below_radius  # noqa: E402
from bohrkit import weights as wt  # noqa: E402
from bohrkit.errors import BohrkitError  # noqa: E402
from bohrkit.functionals import (ENVELOPE, POINTWISE, FunctionalParams,  # noqa: E402
                                 a_refinement, bohr_sum, bound_for, evaluate_family)
from bohrkit.radii import (_SCAN_GRID, RadiusProblem, RootCertificate,  # noqa: E402
                          psi_eval, solve_radius)
from bohrkit.series import (moebius_minus, moebius_plus, multiply_by_z,  # noqa: E402
                            random_blaschke, schwarz_moebius)

PSI = ("psi1", "psi2", "psi3", "psi4")
FAMILIES = PSI + ("psi5_t5", "psi5_t6", "classical_alpha", "classical_beta",
                  "classical_zeta", "classical_eta", "classical_c", "classical_d")
P_GRID = (0.5, 1.0, 1.5, 2.0)
WEIGHTED = PSI + ("classical_c",)
R_GRID = np.array([0.0, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6])
R_SCALAR = 0.25
CERT_FIELDS = tuple(f.name for f in dataclasses.fields(RootCertificate))
# c_0 = 1 and no other weight: Psi stays positive, so no radius exists
NO_ROOT_COEFFS = [1.0] + [0.0] * 63


def harmonic_weights():
    """The criterion-7 weights c_n = 1/(n+1), 4096 of them."""
    return wt.scaled_power(1.0 / (np.arange(4096) + 1.0), rho=1.0, C=1.0)


def scaled_weights() -> dict[str, wt.WeightSequence]:
    """Further scaled weights: short lists and rho < 1."""
    return {
        "short": wt.scaled_power([1.0, 0.5, 0.25], rho=0.5, C=1.0),
        "halves": wt.scaled_power(0.5 ** np.arange(64), rho=0.5, C=1.0),
        "slow": wt.scaled_power(0.9 ** np.arange(1024), rho=0.9, C=1.0),
        "late": wt.scaled_power(0.3 ** np.arange(64), rho=0.3, C=1.0),
    }


def problems() -> list[tuple[str, RadiusProblem]]:
    pw = wt.power()
    out = []

    def add(tag, family, w=None, **kw):
        out.append((tag, RadiusProblem(family, FunctionalParams(**kw), w)))

    for m in (1, 2, 3):
        for p in P_GRID:
            for fam in PSI:
                add("power", fam, pw, m=m, p=p)
            for lam in (0.5, 1.0, 2.0):
                add("power", "psi5_t5", m=m, p=p, lam=lam)
                add("power", "psi5_t6", m=m, p=p, lam=lam, q=m + 1)
    harmonic = harmonic_weights()
    for m in (1, 2, 3):
        for p in P_GRID:
            for fam in PSI:
                add("harmonic", fam, harmonic, m=m, p=p)
    for m in range(1, 9):
        for fam in ("classical_alpha", "classical_beta", "classical_zeta",
                    "classical_eta"):
            add("classical", fam, m=m)
    add("classical", "classical_c", pw)
    add("classical", "classical_c", harmonic)
    for lam in (0.5, 1.0, 2.0):
        for n in (1, 2, 3):
            add("classical", "classical_d", lam=lam, n_lacunary=n)
    # closed forms whose small lambda puts the root in the grid's last 41
    # points (lambda = 1e-4), in its last cell (0.999, R_EDGE] (1e-8 and
    # 1e-12) or past R_EDGE (1e-13, no root)
    for lam in (1e-4, 1e-8, 1e-12, 1e-13):
        add("edge", "psi5_t5", lam=lam)
        add("edge", "psi5_t6", lam=lam, q=2)
        add("edge", "classical_d", lam=lam, n_lacunary=2)
    for name, w in scaled_weights().items():
        for m in (1, 3):
            for p in (0.25, 1.0, 2.0):
                for fam in PSI:
                    add(f"scaled-{name}", fam, w, m=m, p=p)
        add(f"scaled-{name}", "classical_c", w)
    add("no-root", "psi1", wt.scaled_power(NO_ROOT_COEFFS, rho=0.5, C=1.0))
    # criterion-7 problems again, each on a fresh instance equal to the
    # shared one (its scan tails computed anew) and on the shared one (its
    # scan tails cached by the solves above)
    for m, p in ((1, 0.5), (3, 2.0)):
        for fam in PSI:
            add("harmonic-cold", fam, harmonic_weights(), m=m, p=p)
            add("harmonic-warm", fam, harmonic, m=m, p=p)
    add("harmonic-cold", "classical_c", harmonic_weights())
    add("harmonic-warm", "classical_c", harmonic)
    return out


def _key(prob: RadiusProblem) -> str:
    pm = prob.params
    return f"{prob.family} m={pm.m} p={pm.p!r}"


def reuse_lines() -> list[str]:
    harmonic = harmonic_weights()
    grid = [RadiusProblem(fam, FunctionalParams(m=m, p=p), harmonic)
            for m in (1, 2, 3) for p in P_GRID for fam in PSI]
    populations = {fam: standard_families(fam) for fam in PSI}
    lines = []
    for run in (1, 2):
        for prob in grid:
            for mode in (ENVELOPE, POINTWISE):
                report = verify_below_radius(prob, families=populations[prob.family],
                                             r_points=16, mode=mode)
                lines.append(f"reuse verify {run} {_key(prob)} {mode}: "
                             f"max_violation={report.max_violation!r}")
    for prob in grid:
        for run in (1, 2):
            try:
                found = repr(sharpness_witness(prob, 0.02))
            except BohrkitError as exc:
                found = f"{type(exc).__name__}: {exc}"
            lines.append(f"reuse witness {run} {_key(prob)}: {found}")
    return lines


def certificate_lines() -> list[str]:
    lines = []
    for tag, prob in problems():
        pm = prob.params
        key = (f"{tag} {prob.family} m={pm.m} p={pm.p!r} lam={pm.lam!r} "
               f"q={pm.q} n={pm.n_lacunary}")
        try:
            cert = solve_radius(prob)
        except BohrkitError as exc:
            lines.append(f"{key}: {type(exc).__name__}: {exc}")
            continue
        fields = " ".join(f"{f}={getattr(cert, f)!r}" for f in CERT_FIELDS)
        lines.append(f"{key}: {fields}")
    return lines


def commands(weights_json: str, no_root_json: str) -> list[list[str]]:
    radius = [["radius", "--family", fam, "--m", str(m), "--p", p]
              for fam in PSI for m in (1, 2) for p in ("0.5", "2")]
    radius += [["radius", "--family", fam, "--m", "2", "--p", "1",
                "--weights", weights_json] for fam in PSI]
    radius += [["radius", "--family", "psi5_t6", "--m", "1", "--q", "3",
                "--lambda", "0.5"],
               ["radius", "--family", "classical_d", "--n", "2"]]
    tables = [
        ["table", "--family", "psi1", "--m", "1..3", "--p", "0.25..2:0.25"],
        ["table", "--family", "psi5_t5", "--p", "0.5,1,2", "--lambda", "0.5..2:0.5"],
        ["table", "--family", "psi5_t6", "--weights", weights_json,
         "--m", "1..4", "--q", "2..4", "--lambda", "0.5,1"],
    ]
    tables += [["table", "--family", fam, "--weights", weights_json,
                "--m", "1..3", "--p", "0.5..2:0.5"] for fam in PSI]
    suites = []
    for fam, weights in ([(fam, "power") for fam in FAMILIES]
                         + [(fam, weights_json) for fam in WEIGHTED]):
        suites.append(["verify", "--family", fam, "--weights", weights,
                       "--r-points", "16", "--blaschke", "3"])
        suites.append(["sharpness", "--family", fam, "--weights", weights])
    suites += [["check-lemmas", "--trials", "20", "--weights", weights]
               for weights in ("power", weights_json)]
    failures = [
        ["radius", "--family", "psi9"],
        ["radius", "--family", "psi1", "--p", "3"],
        ["radius", "--family", "psi1", "--m", "1e400"],
        ["table", "--family", "psi1", "--m", "3..1"],
        ["table", "--family", "psi1", "--p", "0..2:1e-12"],
        ["verify", "--family", "psi1", "--margin", "nan"],
        ["check-lemmas", "--trials", "0"],
        ["identity-check", "--grid", "1001"],
        ["radius", "--family", "psi1", "--weights", no_root_json],
        ["table", "--family", "psi1", "--p", "1,2", "--weights", no_root_json],
        ["table", "--family", "psi5_t5", "--m", "0"],
        ["table", "--family", "psi1", "--lambda", "nan"],
        ["sharpness", "--family", "psi1", "--delta", "1e-300"],
        ["verify", "--family", "classical_d", "--n", "1000", "--r-points", "3",
         "--blaschke", "1"],
        ["verify", "--family", "classical_d", "--n", "100000", "--r-points", "3",
         "--blaschke", "0"],
    ]
    return radius + tables + [["identity-check"]] + suites + failures


def command_lines(weights_json: str, no_root_json: str) -> list[str]:
    shown_as = {weights_json: "WEIGHTS.json", no_root_json: "NO_ROOT.json"}
    lines = []
    for argv in commands(weights_json, no_root_json):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        text = buf.getvalue()
        if argv[0] == "verify" and text:
            report = json.loads(text)
            report.pop("elapsed")
            text = json.dumps(report, indent=2)
        shown = " ".join(shown_as.get(a, a) for a in argv)
        lines.append(f"$ bohrkit {shown}  # exit {code}")
        lines.extend(text.splitlines())
    return lines


def _floats(out) -> str:
    """Exact reprs of a functional's value(s), prefixed by the result type."""
    vals = np.atleast_1d(out)
    return f"{type(out).__name__} " + " ".join(repr(float(v)) for v in vals)


def _show(call) -> str:
    try:
        return _floats(call())
    except BohrkitError as exc:
        return f"{type(exc).__name__}: {exc}"


def functional_lines() -> list[str]:
    blaschke = random_blaschke(3, 7)
    members = {"plus": moebius_plus(0.6), "minus": moebius_minus(0.6),
               "schwarz": schwarz_moebius(0.6), "blaschke": blaschke,
               "z*blaschke": multiply_by_z(blaschke)}
    params = FunctionalParams(m=2, p=1.5, lam=0.75, q=3, n_lacunary=2)
    weights = {"power": wt.power(), "harmonic": harmonic_weights()}
    cases = ([(fam, "power") for fam in FAMILIES]
             + [(fam, "harmonic") for fam in WEIGHTED])
    lines = []
    for fam, wname in cases:
        w = weights[wname]
        for r in (R_GRID, R_SCALAR):
            where = f"{fam} {wname} r={'grid' if r is R_GRID else repr(r)}"
            lines.append(f"bound {where}: {_show(lambda: bound_for(fam, w, r))}")
            for mode in (ENVELOPE, POINTWISE):
                for name, f in members.items():
                    value = _show(lambda: evaluate_family(fam, f, w, params, r, mode))
                    lines.append(f"functional {where} {mode} {name}: {value}")
    for wname, w in weights.items():
        for name, f in members.items():
            for r in (R_GRID, R_SCALAR):
                where = f"{wname} {name} r={'grid' if r is R_GRID else repr(r)}"
                for N in (0, 1, 3):
                    lines.append(f"bohr_sum N={N} {where}: "
                                 f"{_show(lambda: bohr_sum(f, w, N, r))}")
                lines.append(f"a_refinement {where}: "
                             f"{_show(lambda: a_refinement(f, w, r))}")
    for fam in ("psi5_t6", "classical_d"):
        lines.append(f"functional {fam} power r=0.999 envelope blaschke: "
                     + _show(lambda: evaluate_family(fam, blaschke, wt.power(),
                                                     params, 0.999)))
        lines.append(f"functional {fam} mode=bogus: "
                     + _show(lambda: evaluate_family(fam, blaschke, wt.power(),
                                                     params, R_SCALAR, "bogus")))
    lacunary_bad = dataclasses.replace(params, m=params.q)
    for r, mode in ((R_SCALAR, ENVELOPE), (1.5, ENVELOPE), (R_SCALAR, "bogus")):
        lines.append(f"functional psi5_t6 m=q r={r!r} mode={mode}: "
                     + _show(lambda: evaluate_family("psi5_t6", blaschke, wt.power(),
                                                     lacunary_bad, r, mode)))
    lines.append("functional psi3 mode=bogus plus: "
                 + _show(lambda: evaluate_family("psi3", members["plus"], wt.power(),
                                                 params, R_SCALAR, "bogus")))
    return lines


def dyadic_midpoints(lo: float, hi: float) -> np.ndarray:
    """The 31 midpoints of five dyadic levels of (lo, hi), in ascending
    order, each built from its neighbours with the bisection's own
    ``0.5 * (a + b)``."""
    pts = np.empty(33)
    pts[0], pts[32] = lo, hi
    step = 32
    while step > 1:
        half = step // 2
        pts[half::step] = 0.5 * (pts[:-half:step] + pts[step::step])
        step = half
    return pts[1:-1]


def bisection_path(lo: float, hi: float, target: float) -> np.ndarray:
    """The midpoints a bisection of (lo, hi) visits, in order, down to a
    width of 1e-13 if the sign changes at target."""
    pts = []
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        pts.append(mid)
        lo, hi = (mid, hi) if mid < target else (lo, mid)
    return np.array(pts)


def psi_lines() -> list[str]:
    weights = {"power": wt.power(), "harmonic": harmonic_weights(), **scaled_weights()}
    grids = {repr(R_SCALAR): R_SCALAR, "grid": R_GRID,
             "scan[448:513]": _SCAN_GRID[448:513],
             "bisect(0.4, 0.401)": dyadic_midpoints(0.4, 0.401),
             "path(0.4, 0.401)": bisection_path(0.4, 0.401, 0.4 + 0.001 / 3.0)}
    params = FunctionalParams(m=2, p=1.5)
    lines = []
    for fam in WEIGHTED:
        for wname, w in weights.items():
            prob = RadiusProblem(fam, params, w)
            for where, r in grids.items():
                lines.append(f"psi {fam} {wname} r={where}: {_show(lambda: psi_eval(prob, r))}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        weights_json = str(Path(tmp) / "weights.json")
        Path(weights_json).write_text(json.dumps(
            {"kind": wt.SCALED_POWER, "coeffs": harmonic_weights().coeffs.tolist(),
             "rho": 1.0, "C": 1.0}))
        no_root_json = str(Path(tmp) / "no-root.json")
        Path(no_root_json).write_text(json.dumps(
            {"kind": wt.SCALED_POWER, "coeffs": NO_ROOT_COEFFS, "rho": 0.5, "C": 1.0}))
        lines = (reuse_lines() + certificate_lines() + command_lines(weights_json, no_root_json)
                 + functional_lines() + psi_lines())
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
