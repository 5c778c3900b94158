"""Desk-scale numerical certification of the radius theorems.

Below the radius the envelope functional is checked against its bound on
a grid of extremal family members plus random Blaschke products; above
the radius a sharpness witness is searched on the extremal family with
parameters approaching 1 geometrically.  The three lemma suites package
the coefficient lemma, the D-function lemma and the Schwarz-Pick lemma
as runnable property checks.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import weights as wt
from .errors import (DomainError, NoRootError, NotFalsifiableError,
                     NoWitnessError)
from .functionals import (ENVELOPE, POINTWISE, FunctionalParams, _a_refinement_arr,
                          _Block, _bohr_sum_arr, _family_evaluator, bound_for,
                          evaluate_family, get_family)
from .radii import RadiusProblem, RootCertificate, psi_eval, solve_radius
from .series import (BLASCHKE_ORDER, BoundedFunction, eval_derivative, evaluate,
                     moebius_minus, moebius_plus, multiply_by_z,
                     random_blaschke, schwarz_moebius)

MOEBIUS_A_GRID = tuple(np.round(np.arange(0.0, 1.0, 0.05), 2)) + (0.99, 0.999)

VIOLATION_TOL = 1e-9
WITNESS_EXCESS_TOL = 1e-12
MAX_WITNESS_STEPS = 40

_EXTREMAL_BUILDER = {
    "plus": moebius_plus,
    "minus": moebius_minus,
    "schwarz": schwarz_moebius,
}


def _draw_blaschke(rng) -> tuple[int, int]:
    """The degree and seed of the next random Blaschke product from rng."""
    return int(rng.integers(1, 9)), int(rng.integers(0, 2 ** 31))


def standard_families(family: str, seed: int = 42,
                      blaschke_count: int = 100) -> list[BoundedFunction]:
    """The documented test population: the extremal family on the a-grid
    plus seeded random Blaschke products (shifted to Schwarz functions
    where the theorem requires a_0 = 0)."""
    if blaschke_count < 0:
        raise DomainError("the Blaschke product count must be nonnegative")
    kind = get_family(family).extremal
    fams = [_EXTREMAL_BUILDER[kind](a) for a in MOEBIUS_A_GRID]
    rng = np.random.default_rng(seed)
    for _ in range(blaschke_count):
        f = random_blaschke(*_draw_blaschke(rng))
        if kind == "schwarz":
            f = multiply_by_z(f)
        fams.append(f)
    return fams


@dataclass(frozen=True)
class Witness:
    """A concrete configuration exceeding the bound above the radius."""

    a: float
    r: float
    excess: float


@dataclass
class VerificationReport:
    """Grid summary of one below-the-radius inequality check."""

    family: str
    params: FunctionalParams
    mode: str
    radius: float
    bracket: tuple[float, float]
    a_grid_size: int
    r_grid_size: int
    n_functions: int
    max_violation: float
    trials: int
    elapsed: float

    @property
    def verified(self) -> bool:
        return self.max_violation <= VIOLATION_TOL

    def to_dict(self) -> dict:
        return {
            "problem": {
                "family": self.family,
                "m": self.params.m, "p": self.params.p,
                "lambda": self.params.lam, "q": self.params.q,
                "n": self.params.n_lacunary,
            },
            "mode": self.mode,
            "radius": self.radius,
            "bracket": list(self.bracket),
            "a_grid_size": self.a_grid_size,
            "r_grid_size": self.r_grid_size,
            "n_functions": self.n_functions,
            "max_violation": self.max_violation,
            "witness": None,
            "trials": self.trials,
            "elapsed": self.elapsed,
            "status": "verified" if self.verified else "violated",
        }


def verify_below_radius(prob: RadiusProblem,
                        families: list[BoundedFunction] | None = None,
                        r_points: int = 256, margin: float = 0.0,
                        mode: str = ENVELOPE, seed: int = 42,
                        blaschke_count: int = 100,
                        cert: RootCertificate | None = None) -> VerificationReport:
    """Check functional <= bound on [0, R - margin] over the population,
    which must not be empty.

    One weight block of the problem's weights on the radius grid serves
    every member, which slices it to its kept range.  ``cert`` is the
    problem's certificate when the caller has already solved it;
    otherwise the problem is solved here.
    """
    if not margin >= 0.0:
        raise DomainError("margin must be nonnegative")
    if r_points < 1:
        raise DomainError("need at least one radius point")
    start = time.perf_counter()
    if cert is None:
        cert = solve_radius(prob)
    r_hi = cert.radius - margin
    if r_hi < 0.0:
        raise DomainError("margin exceeds the radius")
    if families is None:
        families = standard_families(prob.family, seed, blaschke_count)
    if not families:
        raise DomainError("the test population is empty")
    rs = np.linspace(0.0, r_hi, r_points)
    blk, functional = _family_evaluator(
        prob.family, prob.weights, prob.params, rs,
        max(f.truncation_order for f in families), mode)
    worst = -np.inf
    for f in families:
        worst = max(worst, float(np.max(functional(f) - blk.rows[0])))
    return VerificationReport(
        family=prob.family, params=prob.params, mode=mode,
        radius=cert.radius, bracket=(cert.bracket_lo, cert.bracket_hi),
        a_grid_size=len(MOEBIUS_A_GRID), r_grid_size=r_points,
        n_functions=len(families), max_violation=worst,
        trials=len(families) * r_points,
        elapsed=time.perf_counter() - start)


def sharpness_witness(prob: RadiusProblem, delta: float,
                      cert: RootCertificate | None = None) -> Witness:
    """Search the extremal family at r = R + delta for an excess over the
    bound, with a approaching 1 as 1 - 2**-k."""
    if not 0.0 < delta <= 0.05:
        raise DomainError("delta must lie in (0, 0.05]")
    if cert is None:
        cert = solve_radius(prob)
    r = cert.radius + delta
    if r == cert.radius:
        raise DomainError(f"delta {delta!r} is below the spacing of doubles "
                          f"at R = {cert.radius!r}")
    if r > wt.R_EDGE:
        raise DomainError("R + delta leaves the evaluation domain")
    if float(psi_eval(prob, r)) >= 0.0:
        raise NotFalsifiableError(
            f"{prob.family}: Psi is nonnegative at R + delta = {r:.6f}; "
            "the sharpness clause is vacuous there")
    bound = float(bound_for(prob.family, prob.weights, r))
    build = _EXTREMAL_BUILDER[get_family(prob.family).extremal]
    for k in range(1, MAX_WITNESS_STEPS + 1):
        a = 1.0 - 2.0 ** -k
        f = build(a)
        val = float(evaluate_family(prob.family, f, prob.weights,
                                    prob.params, r, POINTWISE))
        if val > bound + WITNESS_EXCESS_TOL:
            return Witness(a=a, r=r, excess=val - bound)
    raise NoWitnessError(
        f"{prob.family}: no witness found by a = 1 - 2**-{MAX_WITNESS_STEPS}")


def check_lemma_coeff(trials: int = 1000, seed: int = 42,
                      w: wt.WeightSequence | None = None) -> float:
    """Max slack of majorant + refinement <= (1 - |a_0|^2) * tail(1, r)
    over Moebius members and random Blaschke products; expected <= 1e-9.
    No product's truncation order exceeds BLASCHKE_ORDER, so the block is
    sized before any is drawn and each is built and dropped in turn."""
    if trials < 1:
        raise DomainError("need at least one trial")
    if w is None:
        w = wt.power()
    rs = np.linspace(0.0, 0.9, 19)
    rng = np.random.default_rng(seed)
    moebius = [moebius_plus(a) for a in MOEBIUS_A_GRID]
    moebius += [moebius_minus(a) for a in (0.3, 0.7, 0.95)]
    blk = _Block(w, rs, max([f.truncation_order for f in moebius] + [BLASCHKE_ORDER]))
    products = (random_blaschke(*_draw_blaschke(rng)) for _ in range(trials))
    tail1 = w.tail(1, rs)
    worst = -np.inf
    for f in itertools.chain(moebius, products):
        lhs = _bohr_sum_arr(f, blk, 1) + _a_refinement_arr(f, blk)
        rhs = (1.0 - abs(f.coeffs[0]) ** 2) * tail1
        worst = max(worst, float(np.max(lhs - rhs)))
    return worst


# instance -> (radius family, N(r) at lambda = 1)
_LEMMA_D_INSTANCES = {
    "phi_tail": ("psi1", lambda pm, w, rs: w.tail(1, rs)),
    "t5": ("psi5_t5", lambda pm, w, rs: rs / (1.0 - rs)),
    "t6": ("psi5_t6", lambda pm, w, rs: rs ** (pm.q + pm.m) / (1.0 - rs ** pm.q)),
}


def check_lemma_D(instance: str, m: int = 1, p: float = 1.0,
                  w: wt.WeightSequence | None = None) -> dict:
    """Property run for the one-variable comparison function

        D(a) = [((a + r^m)/(1 + a r^m))^p - 1] phi_0(r) + (1 - a^2) N(r)

    with N(r) the instance-specific tail: the weight tail (theorem-1
    form), r/(1-r) (theorem-5 form) or r^{q+m}/(1-r^q) with q = m + 1
    (theorem-6 form), all at lambda = 1.  Checks D <= 0 on 256 points
    below the radius, D(1) = 0 exactly, monotonicity in a for p <= 1, and
    the auxiliary envelope inequality for 1 < p <= 2.
    """
    if instance not in _LEMMA_D_INSTANCES:
        raise DomainError(f"instance must be one of {tuple(_LEMMA_D_INSTANCES)}")
    if w is None:
        w = wt.power()
    family, tail = _LEMMA_D_INSTANCES[instance]
    params = FunctionalParams(m=m, p=p, q=m + 1)
    radius = solve_radius(RadiusProblem(family, params, w)).radius
    rs = np.linspace(0.0, radius, 256)
    n_of_r = tail(params, w, rs)
    phi0 = bound_for(family, w, rs)
    a_grid = np.linspace(0.0, 1.0, 512)
    x = rs ** m
    ratio = (a_grid[:, None] + x[None, :]) / (1.0 + a_grid[:, None] * x[None, :])
    d = (ratio ** p - 1.0) * phi0[None, :] + (1.0 - a_grid[:, None] ** 2) * n_of_r[None, :]
    report = {
        "instance": instance, "m": m, "p": p, "lambda": 1.0,
        "radius": radius,
        "max_D": float(d.max()),
        "D_at_1_max_abs": float(np.abs(d[-1]).max()),
    }
    if p <= 1.0:
        report["min_a_increment"] = float(np.diff(d, axis=0).min())
    else:
        y = np.linspace(0.0, 0.999, 512)
        env = ((1.0 + y[None, :]) ** 2
               * (y[None, :] + a_grid[:, None]) ** (p - 1.0)
               / (1.0 + a_grid[:, None] * y[None, :]) ** (p + 1.0))
        report["min_aux_slack"] = float(
            (env - a_grid[:, None] ** (p - 1.0)).min())
    return report


def check_lemmas(trials: int, seed: int, w: wt.WeightSequence) -> dict:
    """The report of ``bohrkit check-lemmas``: the coefficient lemma, the
    Schwarz-Pick suite on trials // 5 products and the D-lemma on every
    instance at m = 1 and p in (0.5, 1, 2).  ``status`` is "ok" when
    every suite meets its documented bound, including the D-lemma's
    monotonicity (p <= 1) and auxiliary envelope (p > 1) checks, and
    "violated" otherwise."""
    coeff_slack = check_lemma_coeff(trials, seed, w)
    sp = check_schwarz_pick(max(1, trials // 5), seed)
    d_reports = [check_lemma_D(instance, m=1, p=p, w=w)
                 for instance in _LEMMA_D_INSTANCES for p in (0.5, 1.0, 2.0)]
    ok = (coeff_slack <= 1e-9
          and sp["max_contraction_slack"] <= 1e-8
          and sp["max_derivative_slack"] <= 1e-8
          and sp["moebius_equality_dev"] <= 1e-10
          and all(rep["max_D"] <= 1e-10 and rep["D_at_1_max_abs"] == 0.0
                  and rep.get("min_a_increment", 0.0) >= -1e-10
                  and rep.get("min_aux_slack", 0.0) >= -1e-12
                  for rep in d_reports))
    return {"coefficient_lemma_max_slack": coeff_slack,
            "schwarz_pick": sp,
            "d_function": d_reports,
            "status": "ok" if ok else "violated"}


def check_schwarz_pick(trials: int = 200, seed: int = 42) -> dict:
    """Pseudo-hyperbolic contraction and derivative-bound property run.

    Returns the max contraction slack and derivative slack over random
    Blaschke products (expected <= 1e-8), the worst deviation from
    equality on the Moebius family (expected <= 1e-10), and the number of
    degree >= 2 trials exhibiting a strictly contracted pair.
    """
    rng = np.random.default_rng(seed)
    max_contraction = -np.inf
    max_derivative = -np.inf
    mob_equality_dev = 0.0
    strict_found = 0
    strict_possible = 0

    def pseudo(u, v):
        return np.abs(u - v) / np.abs(1.0 - np.conj(u) * v)

    def sample_points(n):
        return (0.9 * np.sqrt(rng.uniform(size=n))
                * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n)))

    for _ in range(trials):
        degree, sub = _draw_blaschke(rng)
        f = random_blaschke(degree, sub)
        z1, z2 = sample_points(8), sample_points(8)
        near = np.abs(z1 - z2) < 1e-6
        z2 = np.where(near, z2 + 0.05, z2)
        w1, w2 = evaluate(f, z1), evaluate(f, z2)
        slack = pseudo(w1, w2) - pseudo(z1, z2)
        max_contraction = max(max_contraction, float(slack.max()))
        z = sample_points(8)
        fz = evaluate(f, z)
        deriv_slack = (np.abs(eval_derivative(f, z))
                       - (1.0 - np.abs(fz) ** 2) / (1.0 - np.abs(z) ** 2))
        max_derivative = max(max_derivative, float(deriv_slack.max()))
        if degree >= 2:
            strict_possible += 1
            if np.any(slack < -1e-6):
                strict_found += 1
    for a in (0.2, 0.5, 0.8, 0.95):
        f = moebius_plus(a)
        z1, z2 = sample_points(16), sample_points(16)
        w1, w2 = evaluate(f, z1), evaluate(f, z2)
        dev = np.abs(pseudo(w1, w2) - pseudo(z1, z2))
        mob_equality_dev = max(mob_equality_dev, float(dev.max()))
    return {
        "trials": trials,
        "max_contraction_slack": max_contraction,
        "max_derivative_slack": max_derivative,
        "moebius_equality_dev": mob_equality_dev,
        "strict_contraction_found": strict_found,
        "strict_contraction_possible": strict_possible,
    }
