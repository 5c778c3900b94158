"""Desk-scale numerical certification of the radius theorems.

Below the radius the functional is checked against its bound on extremal
family members plus random Blaschke products, at the top radius in
envelope mode (where it rises with r) and on a grid in pointwise mode;
above it a sharpness witness is searched on the extremal family with
parameters approaching 1 geometrically.  The three lemma suites package
the coefficient, D-function and Schwarz-Pick lemmas as property checks.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass

import numpy as np

from . import weights as wt
from .errors import BohrkitError, DomainError, NotFalsifiableError, NoWitnessError
# evaluate_family is unused here but stays bound: perfbench's tracer and its
# test patch and restore it in this module
from .functionals import (ENVELOPE, POINTWISE, FunctionalParams, Population,  # noqa: F401
                          _a_refinement_arr, _abs_pow, _Block, _bohr_sum_arr, _family_evaluator,
                          _is_count, _run, bound_for, evaluate_family, get_family)
from .radii import RadiusProblem, RootCertificate, psi_eval, solve_radius
from .series import (T_MAX, BoundedFunction, _rng, eval_derivative, evaluate,
                     moebius_minus, moebius_plus, multiply_by_z, random_blaschke,
                     schwarz_moebius)

MOEBIUS_A_GRID = tuple(np.round(np.arange(0.0, 1.0, 0.05), 2)) + (0.99, 0.999)

VIOLATION_TOL = 1e-9
WITNESS_EXCESS_TOL = 1e-12
MAX_WITNESS_STEPS = 40

# the most members x radius points one verify pass holds in a temporary
_CHUNK_ELEMENTS = 1 << 14

_EXTREMAL_BUILDER = {
    "plus": moebius_plus,
    "minus": moebius_minus,
    "schwarz": schwarz_moebius,
}

# builder -> the Population of its first pass (k = 1..4), which every witness
# search starts with; a wrapped builder starts empty
_WITNESS_PASSES = weakref.WeakKeyDictionary()


def _draw_blaschke(rng) -> tuple[int, int]:
    """The degree and seed of the next random Blaschke product from rng."""
    return int(rng.integers(1, 9)), int(rng.integers(0, 2 ** 31))


def _worst(values, pop: Population, columns: int) -> float:
    """The largest entry of values(chunk) over consecutive chunks of pop,
    each of the most members whose chunk x columns temporary stays under
    _CHUNK_ELEMENTS elements, at least one; a chunk's arrays are views of
    pop's, so no member is joined again."""
    chunk = max(1, _CHUNK_ELEMENTS // columns)
    return max(float(np.max(values(pop._chunk(i, i + chunk))))
               for i in range(0, len(pop), chunk))


def standard_families(family: str, seed: int = 42, blaschke_count: int = 100) -> Population:
    """The documented test population, joined once into an immutable
    :class:`Population` that every verify reuses: the extremal family on
    the a-grid plus seeded random Blaschke products (shifted to Schwarz
    functions where the theorem requires a_0 = 0)."""
    if not _is_count(blaschke_count, 0):
        raise DomainError("the Blaschke product count must be nonnegative, as an integer")
    kind = get_family(family).extremal
    fams = [_EXTREMAL_BUILDER[kind](a) for a in MOEBIUS_A_GRID]
    rng = _rng(seed)
    for _ in range(blaschke_count):
        f = random_blaschke(*_draw_blaschke(rng))
        fams.append(multiply_by_z(f) if kind == "schwarz" else f)
    return Population(fams)


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
    a_grid_size: int | None
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
    which must not be empty: in envelope mode at R - margin alone, where
    the monotonicity lemma of :mod:`bohrkit.functionals` puts the worst
    violation, so ``r_grid_size`` and ``trials`` count the grid points it
    covers; in pointwise mode on ``r_points`` equally spaced radii up to
    R - margin, from 0 if there are two or more.  One weight block serves
    every member, which slices it to its kept range, in :func:`_worst`'s
    chunks of one pass each.  ``families`` may be any iterable, joined
    once into a :class:`Population` unless it is one; a chunk's arrays are
    views of the population's.  ``cert`` is the problem's
    certificate if the caller has solved it; ``a_grid_size`` is None for a
    caller's ``families``.
    """
    if not margin >= 0.0:
        raise DomainError("margin must be nonnegative")
    if not _is_count(r_points):
        raise DomainError("need at least one radius point, as an integer count")
    start = time.perf_counter()
    if cert is None:
        cert = solve_radius(prob)
    r_hi = cert.radius - margin
    if r_hi < 0.0:
        raise DomainError("margin exceeds the radius")
    pop = (standard_families(prob.family, seed, blaschke_count) if families is None
           else families if isinstance(families, Population) else Population(families))
    if not pop:
        raise DomainError("the test population is empty")
    rs = (np.linspace(0.0, r_hi, r_points) if mode == POINTWISE and r_points > 1
          else np.array([r_hi]))
    phi0, functional = _family_evaluator(prob.family, prob.weights, prob.params, rs,
                                         int(pop.order.max()), mode)
    worst = _worst(lambda fs: functional(fs) - phi0, pop, len(rs))
    return VerificationReport(
        family=prob.family, params=prob.params, mode=mode,
        radius=cert.radius, bracket=(cert.bracket_lo, cert.bracket_hi),
        a_grid_size=len(MOEBIUS_A_GRID) if families is None else None,
        r_grid_size=r_points, n_functions=len(pop), trials=len(pop) * r_points,
        max_violation=worst, elapsed=time.perf_counter() - start)


def sharpness_witness(prob: RadiusProblem, delta: float,
                      cert: RootCertificate | None = None) -> Witness:
    """Search the extremal family at r = R + delta for an excess over the
    bound phi_0(r), row 0 of one weight block, with a = 1 - 2**-k, k = 1, 2,
    ..., four per pass; a failing pass is replayed through its one-member
    chunks, as a lone search runs.  _WITNESS_PASSES keeps the first pass."""
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
    build = _EXTREMAL_BUILDER[get_family(prob.family).extremal]
    # no extremal member's order exceeds T_MAX + 1 (the Schwarz shift)
    phi0, functional = _family_evaluator(prob.family, prob.weights, prob.params,
                                         np.array([r]), T_MAX + 1, POINTWISE)
    bound, first = float(phi0[0]), _WITNESS_PASSES.get(build, ())
    for k in range(1, MAX_WITNESS_STEPS + 1, 4):
        batch = tuple(1.0 - 2.0 ** -j for j in range(k, min(k + 4, MAX_WITNESS_STEPS + 1)))
        # a kept first pass is k = 1..4 unless MAX_WITNESS_STEPS was below 4
        members = first if k == 1 and len(first) == len(batch) else Population(map(build, batch))
        if k == 1:
            _WITNESS_PASSES[build] = members
        try:
            vals = functional(members)[:, 0]
        except BohrkitError:  # the failing member raises after any witness before it
            vals = (functional(members._chunk(i, i + 1))[0, 0] for i in range(len(batch)))
        for a, val in zip(batch, vals):
            if val > bound + WITNESS_EXCESS_TOL:
                return Witness(a=a, r=r, excess=float(val) - bound)
    raise NoWitnessError(
        f"{prob.family}: no witness found by a = 1 - 2**-{MAX_WITNESS_STEPS}")


def check_lemma_coeff(trials: int = 1000, seed: int = 42,
                      w: wt.WeightSequence | None = None) -> float:
    """Max slack of majorant + refinement <= (1 - |a_0|^2) * tail(1, r)
    over Moebius members and random Blaschke products; expected <= 1e-9.
    The pool is psi1's :func:`standard_families` population, then three
    moebius_minus members, each joined once and checked in verify's chunks
    on one weight block: a row does not depend on the rest of its
    population, so the max over the two is the whole pool's."""
    if not _is_count(trials):
        raise DomainError("need at least one trial, as an integer count")
    if w is None:
        w = wt.power()
    rs = np.linspace(0.0, 0.9, 19)
    pools = (standard_families("psi1", seed, trials),
             Population(moebius_minus(a) for a in (0.3, 0.7, 0.95)))
    blk = _Block(w, rs, max(int(pool.order.max()) for pool in pools))
    tail1 = w.tail(1, rs)

    def slack(fs):
        return _run(fs, lambda pop: _bohr_sum_arr(pop, blk, 1) + _a_refinement_arr(pop, blk)
                    - (1.0 - _abs_pow(pop, 0, 2)) * tail1)
    return max(_worst(slack, pool, len(rs)) for pool in pools)


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
    if not _is_count(trials):
        raise DomainError("need at least one trial, as an integer count")
    rng = _rng(seed)
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
