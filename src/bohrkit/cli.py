"""Command-line front end.

Subcommands: ``radius`` (one certified radius), ``table`` (parameter
sweep to CSV), ``verify`` / ``sharpness`` / ``check-lemmas`` /
``identity-check`` (verification suites emitting JSON).

Exit codes: 0 success, 1 usage error (an unwritable --output too), 2 no
root (a table whose every row fails, after its CSV), 3 verification
failure, 4 accuracy error; a nonzero exit prints one stderr line, "<name
of the exit>: <message>".  Set BOHRKIT_LOG to error (the default), info
or debug for progress messages on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import itertools
import json
import logging
import math
import os
import sys

import numpy as np

from . import weights as wt
from .errors import (AccuracyError, BohrkitError, DomainError, NoRootError,
                     NotFalsifiableError, NoWitnessError, UsageError)
from .functionals import FAMILIES, FunctionalParams, a_refinement
from .radii import RadiusProblem, classical_crosscheck, solve_radius
from .series import moebius_plus
from .verify import check_lemmas, sharpness_witness, verify_below_radius

log = logging.getLogger("bohrkit")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_ROOT = 2
EXIT_VERIFICATION = 3
EXIT_ACCURACY = 4

_IDENTITY_TOL = 1e-10


class _Violated(BohrkitError):
    """A suite ran to the end and its report says the check failed."""


# a failed run prints "<prefix>: <message>" of the first MRO class found here
_FAILURES = {
    UsageError: ("usage error", EXIT_USAGE),
    DomainError: ("usage error", EXIT_USAGE),
    OSError: ("usage error", EXIT_USAGE),  # an --output that cannot be written
    NoRootError: ("no root", EXIT_NO_ROOT),
    _Violated: ("verification failure", EXIT_VERIFICATION),
    AccuracyError: ("accuracy error", EXIT_ACCURACY),
}

# the most values one range, and the most rows one table, may have; both
# counts are worked out from the numbers before anything is built
MAX_TABLE_ROWS = 100_000
# the most radius points one verify run may use: in pointwise mode its weight
# block and every functional value hold one column per point
_MAX_R_POINTS = 100_000
# the most random Blaschke products one verify or check-lemmas run may build:
# each holds at most 1494 complex128 coefficients (23 KiB), about 6 KiB drawn;
# both runs keep their whole pool, 12 MiB at 2000
_MAX_PRODUCTS = 2000
# the largest identity-check grid: its lambda-family identity holds about five
# grid x grid float64 arrays at once, 40 MB at 1000
_MAX_IDENTITY_GRID = 1000


def _fmt(x: float) -> str:
    return format(float(x), ".15g")


def _parse_values(spec: str, cast) -> list:
    """Parse a single value, a comma list, or lo..hi:step."""
    spec = spec.strip()
    if not spec:
        raise UsageError("empty value list")
    if ".." in spec:
        head, _, step_s = spec.partition(":")
        lo_s, _, hi_s = head.partition("..")
        try:
            lo, hi = float(lo_s), float(hi_s)
            step = float(step_s) if step_s else 1.0
        except ValueError:
            raise UsageError(f"bad range {spec!r}") from None
        if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
            raise UsageError(f"bad range {spec!r}")
        count = (hi + 0.5 * step - lo) / step  # np.arange's length, rounded up
        if count > MAX_TABLE_ROWS:
            raise UsageError(f"range {spec!r} has {count:.3g} values, "
                             f"more than {MAX_TABLE_ROWS}")
        vals = np.arange(lo, hi + 0.5 * step, step)
        return [cast(v) for v in vals]
    try:
        return [cast(float(tok)) for tok in spec.split(",")]
    except ValueError:
        raise UsageError(f"bad value list {spec!r}") from None


def _cast_int(v: float) -> int:
    if not (math.isfinite(v) and v == int(v)):
        raise UsageError(f"expected an integer, got {v}")
    return int(v)


def _int_in(lo: int, hi: float = math.inf):
    """An argparse type: an integer from lo to hi."""
    def integer(text: str) -> int:  # argparse names the type after it
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        if value > hi:
            raise argparse.ArgumentTypeError(f"must be at most {hi}, got {value}")
        return value
    return integer


def _load_weights(spec: str) -> wt.WeightSequence:
    return wt.power() if spec == "power" else wt.from_json(spec)


def _emit(text: str, path: str | None):
    if path in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; contract wants 1
        raise UsageError(message)


def _add_param_flags(sp, multi: bool):
    helper = " (value, comma list, or lo..hi:step)" if multi else ""
    sp.add_argument("--family", required=True, choices=list(FAMILIES))
    sp.add_argument("--m", default="1", help="inner-map exponent" + helper)
    sp.add_argument("--p", default="1", help="modulus power in (0, 2]" + helper)
    sp.add_argument("--lambda", dest="lam", default="1",
                    help="scale parameter" + helper)
    sp.add_argument("--q", default="2", help="lacunary gap (psi5_t6)" + helper)
    sp.add_argument("--n", default="1", help="lacunary index (classical_d)")
    sp.add_argument("--weights", default="power",
                    help="'power' or a path to a scaled_power JSON file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; it keeps no state
    between parses.  Subcommand ``x-y`` runs ``cmd_x_y``."""
    parser = _Parser(prog="bohrkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("radius", help="compute one certified radius")
    _add_param_flags(sp, multi=False)

    sp = sub.add_parser("table", help="sweep a parameter grid to CSV")
    _add_param_flags(sp, multi=True)

    sp = sub.add_parser("verify", help="check the inequality below the radius")
    _add_param_flags(sp, multi=False)
    sp.add_argument("--r-points", type=_int_in(1, _MAX_R_POINTS), default=256)
    sp.add_argument("--margin", type=float, default=0.0)
    sp.add_argument("--mode", choices=("envelope", "pointwise"),
                    default="envelope")
    sp.add_argument("--blaschke", type=_int_in(0, _MAX_PRODUCTS), default=100,
                    help="number of random Blaschke products")
    sp.add_argument("--seed", type=_int_in(0), default=42)

    sp = sub.add_parser("sharpness", help="search a witness above the radius")
    _add_param_flags(sp, multi=False)
    sp.add_argument("--delta", type=float, default=0.01)

    sp = sub.add_parser("check-lemmas", help="run the three lemma suites")
    sp.add_argument("--trials", type=_int_in(1, _MAX_PRODUCTS), default=1000)
    sp.add_argument("--seed", type=_int_in(0), default=42)
    sp.add_argument("--weights", default="power")

    sp = sub.add_parser("identity-check",
                        help="closed-form identities and classical cross-checks")
    sp.add_argument("--grid", type=_int_in(1, _MAX_IDENTITY_GRID), default=50)
    for sp in sub.choices.values():  # every subcommand's last flag
        sp.add_argument("--output", default=None)
    return parser


def _single(args, name, cast):
    vals = _parse_values(getattr(args, name), cast)
    if len(vals) != 1:
        raise UsageError(f"--{name.replace('lam', 'lambda')} takes one value here")
    return vals[0]


def _problem(family, w, m, p, lam, q, n) -> RadiusProblem:
    # a classical family takes the p its theorem pins, whatever --p says
    return RadiusProblem(family, FunctionalParams(m=m, p=FAMILIES[family].p or p, lam=lam,
                                                  q=q, n_lacunary=n), w)


def _problem_from_args(args) -> RadiusProblem:
    return _problem(args.family, _load_weights(args.weights), p=_single(args, "p", float),
                    m=_single(args, "m", _cast_int), lam=_single(args, "lam", float),
                    q=_single(args, "q", _cast_int), n=_single(args, "n", _cast_int))


def _report(record: dict, ok: bool = True, why: str = ""):
    """A command's JSON text, and the error that ends the run once it is written."""
    return json.dumps(record, indent=2), None if ok else _Violated(why)


def cmd_radius(args):
    prob = _problem_from_args(args)
    cert = solve_radius(prob)
    return _report({
        "family": prob.family,
        "m": prob.params.m, "p": prob.params.p, "lambda": prob.params.lam,
        "q": prob.params.q,
        "radius": cert.radius,
        "bracket_lo": cert.bracket_lo, "bracket_hi": cert.bracket_hi,
    })


def cmd_table(args):
    w = _load_weights(args.weights)
    ms = _parse_values(args.m, _cast_int)
    ps = _parse_values(args.p, float)
    lams = _parse_values(args.lam, float)
    qs = _parse_values(args.q, _cast_int)
    n = _single(args, "n", _cast_int)
    rows = len(ms) * len(ps) * len(lams) * len(qs)
    if rows > MAX_TABLE_ROWS:
        raise UsageError(f"parameter grid has {rows} rows, more than {MAX_TABLE_ROWS}")
    grid = sorted(set(itertools.product(ms, ps, lams, qs)))
    if not grid:
        raise UsageError("empty parameter grid")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["family", "m", "p", "lambda", "q", "radius",
                     "bracket_width", "status"])
    failures, certs = 0, {}  # by params: a classical family's rows share the pinned p
    for m, p, lam, q in grid:
        try:
            prob = _problem(args.family, w, m, p, lam, q, n)
            cert = certs[prob.params] = certs.get(prob.params) or solve_radius(prob)
            # the radius in full: rounded to 15 digits it may read above the root
            cells = [repr(cert.radius), _fmt(cert.bracket_hi - cert.bracket_lo), "ok"]
        except (NoRootError, DomainError) as exc:
            cells = ["", "", "no-root" if isinstance(exc, NoRootError) else "invalid"]
            log.info("row (%s, %s, %s, %s) %s: %s", m, p, lam, q, cells[2], exc)
            failures += 1
        writer.writerow([args.family, m, _fmt(p), _fmt(lam), q, *cells])
    return buf.getvalue(), None if failures < len(grid) else NoRootError(
        f"none of the {failures} table rows has a radius")


def cmd_verify(args):
    prob = _problem_from_args(args)
    report = verify_below_radius(prob, r_points=args.r_points, margin=args.margin,
                                 mode=args.mode, seed=args.seed, blaschke_count=args.blaschke)
    return _report(report.to_dict(), report.verified,
                   f"max violation {report.max_violation:.3g} at family {prob.family}")


def cmd_sharpness(args):
    prob = _problem_from_args(args)
    cert = solve_radius(prob)
    record = {"family": prob.family, "radius": cert.radius, "witness": None}
    try:
        record["witness"] = dataclasses.asdict(sharpness_witness(prob, args.delta, cert))
    except (NotFalsifiableError, NoWitnessError) as exc:
        record["reason"] = str(exc)
    return _report(record, "reason" not in record, record.get("reason", ""))


def cmd_check_lemmas(args):
    out = check_lemmas(args.trials, args.seed, _load_weights(args.weights))
    return _report(out, out["status"] == "ok", "a lemma suite misses its documented bound")


def cmd_identity_check(args):
    n = args.grid
    a_grid = np.linspace(0.0, 0.98, n)
    r_grid = np.linspace(0.0, 0.9, n)
    a2 = 1.0 - a_grid[:, None] ** 2
    lhs = (a2 * r_grid[None, :] / (1.0 - a_grid[:, None] * r_grid[None, :])
           + a2 ** 2 * r_grid[None, :] ** 2
           / ((1.0 + a_grid[:, None]) * (1.0 - r_grid[None, :])
              * (1.0 - a_grid[:, None] * r_grid[None, :])))
    rhs = a2 * r_grid[None, :] / (1.0 - r_grid[None, :])
    t5_dev = float(np.abs(lhs - rhs).max())

    pw = wt.power()
    refine_dev = 0.0
    rs = np.linspace(0.0, 0.9, 33)
    for a in (0.0, 0.2, 0.5, 0.8, 0.95, 0.99):
        f = moebius_plus(a)
        generic = a_refinement(f, pw, rs)
        norm_sq = (1.0 - a * a) ** 2 * rs ** 2 / (1.0 - a * a * rs * rs)
        closed = (1.0 / (1.0 + a) + rs / (1.0 - rs)) * norm_sq
        refine_dev = max(refine_dev, float(np.abs(generic - closed).max()))

    pair_dev = 0.0
    pairs = []
    for m in range(1, 7):
        for p_case in (1, 2):
            for name, rc, rp in classical_crosscheck(m, p_case):
                pairs.append({"family": name, "m": m, "p_case": p_case,
                              "classical": rc, "psi": rp})
                pair_dev = max(pair_dev, abs(rc - rp))
    ok = max(t5_dev, refine_dev, pair_dev) <= _IDENTITY_TOL
    return _report({"t5_identity_max_dev": t5_dev,
                    "refinement_identity_max_dev": refine_dev,
                    "crosscheck_max_gap": pair_dev,
                    "crosscheck_pairs": pairs,
                    "status": "ok" if ok else "violated"},
                   ok, f"an identity deviates by more than {_IDENTITY_TOL:g}")


def main(argv=None) -> int:
    level = os.environ.get("BOHRKIT_LOG", "error").upper()
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s",
                        level=level if level in ("INFO", "DEBUG") else "ERROR")
    try:
        args = build_parser().parse_args(argv)
        # looked up on each run, so a patched command function is the one called
        command = globals()["cmd_" + args.command.replace("-", "_")]
        text, failure = command(args)
        _emit(text, args.output)
        if failure:
            raise failure
        return EXIT_OK
    except tuple(_FAILURES) as exc:
        prefix, code = next(_FAILURES[c] for c in type(exc).__mro__ if c in _FAILURES)
        print(f"{prefix}: {exc}".replace("\n", " "), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
