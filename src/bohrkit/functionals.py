"""The Bohr-type building blocks, the composite functionals and the
registry of radius families that use them.

Every sum over the series coefficients is truncated adaptively and the
discarded mass is bounded through the weight sequence's geometric
dominator; an :class:`~bohrkit.errors.AccuracyError` is raised whenever
the certified remainder cannot be pushed below 1e-12.  A sum keeps the
indices n <= min(T, K), with T the series' truncation order and K the
cut-off of the weights' geometric ratio at the largest r (the derivative
sum, which reads a_{n+1}, keeps n < T); the quadratic refinement, whose
weights run to index 2n, keeps n <= min(T, K//2 + 1).  Every index above
the kept range is bounded by the worst |a_n| there, the series' tail
bound included.  The weight rows and tails all come from one block per
(weights, radius grid), which each function slices to its kept range.

The composite functionals come in two evaluation modes:

* ``envelope``: the modulus terms |f(w(z))|, |f(w(z)) - a_0|, ... are
  replaced by their sharp upper envelopes over the inner-map class; this
  is the quantity the validity statements bound.
* ``pointwise``: the same terms are evaluated on the positive axis at
  z = r with w(z) = z**m; this is what the sharpness arguments need on
  the extremal families.

Envelope mode dominates pointwise mode for every disk self-map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import weights as wt
from .errors import AccuracyError, DomainError
from .series import BoundedFunction, eval_derivative, evaluate

REMAINDER_TOL = 1e-12
_CUT_TOL = 1e-18

_POWER = wt.power()

ENVELOPE = "envelope"
POINTWISE = "pointwise"


@dataclass(frozen=True)
class FunctionalParams:
    """Parameter bundle; each functional reads only the fields it needs."""

    m: int = 1
    p: float = 1.0
    lam: float = 1.0
    q: int = 2
    n_lacunary: int = 1

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 1:
            raise DomainError("m must be a positive integer")
        if not 0.0 < self.p <= 2.0:
            raise DomainError("p must lie in (0, 2]")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise DomainError("lambda must be a positive finite number")
        if not isinstance(self.q, (int, np.integer)) or self.q < 1:
            raise DomainError("q must be a positive integer")
        if not isinstance(self.n_lacunary, (int, np.integer)) or self.n_lacunary < 1:
            raise DomainError("n must be a positive integer")


def _on_grid(r, compute):
    """compute(rs) on the 1-d radius grid of r; a float for a scalar r."""
    rs = wt._as_r(r)
    out = compute(rs)
    return float(out[0]) if np.ndim(r) == 0 else out


def _cutoff(x: float) -> int:
    """Smallest useful truncation index for geometric ratio x, padded."""
    if x <= 0.0:
        return 8
    return max(8, math.ceil(math.log(_CUT_TOL * (1.0 - x)) / math.log(x))) + 64


def _trunc(f: BoundedFunction, n: int):
    """The kept index min(T, n) plus the worst coefficient bound over
    every index above it."""
    n = min(f.truncation_order, n)
    return n, max(f.tail_bound, float(np.abs(f.coeffs[n + 1:]).max(initial=0.0)))


def _guard(bound: float, what: str):
    if bound > REMAINDER_TOL:
        raise AccuracyError(f"certified remainder {bound:.3g} of {what} "
                            f"exceeds {REMAINDER_TOL}")


class _Block:
    """w_n(rs) (row 0 is phi_0), the refinement's tail(2n + 1, rs) and the
    guards' tails at max(rs), for each index kept up to truncation order;
    AccuracyError when the largest of them, the weighted tail from 0 at
    max(rs), is past the double range."""

    def __init__(self, w, rs, order):
        self.w, self.rs, rmax = w, rs, float(rs.max())
        self.x = w.ratio(rmax)
        self.cut = _cutoff(self.x)
        top, half = min(order, self.cut), min(order, self.cut // 2 + 1)
        with np.errstate(over="ignore"):
            self.guard_tails = [w._tail2(np.arange(top + 2), np.array([rmax]), weighted)[:, 0]
                                for weighted in (False, True)]
        if not math.isfinite(self.guard_tails[1][0]):
            raise AccuracyError(f"the weight tails at r = {rmax!r} overflow a double")
        self.rows = w._weight2(np.arange(max(top, 2 * half) + 1), rs)
        self.tails = w._tail2(2 * np.arange(1, half + 1) + 1, rs, weighted=False)


def _bohr_sum_arr(f, blk, start, step=1, what="the weighted coefficient sum"):
    """sum of |a_n| w_n(r) over n = start, start + step, start + 2 step, ..."""
    n_hi, U = _trunc(f, blk.cut)
    _guard(U * blk.guard_tails[0][n_hi + 1], what)
    return np.abs(f.coeffs[start:n_hi + 1:step]) @ blk.rows[start:n_hi + 1:step]


def _a_refinement_arr(f, blk):
    """Keeps n <= min(T, K//2 + 1) for the cut-off K, as the weights run to
    index 2n; each n above is bounded by U^2 C [x^2n + x^(2n+1)/(1-x)]."""
    x = blk.x
    n_half, U = _trunc(f, blk.cut // 2 + 1)
    _guard(U * U * blk.w.dominator * (x ** (2 * n_half + 2) / (1.0 - x * x)
                                      + x ** (2 * n_half + 3) / ((1.0 - x) * (1.0 - x * x))),
           "the quadratic refinement term")
    blocks = blk.rows[2:2 * n_half + 1:2] / (1.0 + abs(f.coeffs[0])) + blk.tails[:n_half]
    return (np.abs(f.coeffs[1:n_half + 1]) ** 2) @ blocks


def _weighted_coeff_sum_arr(f, blk):
    """sum_{n>=1} (n+1) |a_{n+1}| w_n(r) -- the derivative-type middle sum."""
    n_hi, U = _trunc(f, blk.cut)
    _guard(U * blk.guard_tails[1][max(n_hi, 1)], "the derivative coefficient sum")
    top = min(n_hi, f.truncation_order - 1)
    ns = np.arange(1, top + 1)
    return ((ns + 1.0) * np.abs(f.coeffs[2:top + 2])) @ blk.rows[1:top + 1]


def bohr_sum(f: BoundedFunction, w: wt.WeightSequence, N: int, r):
    """The majorant series sum_{n>=N} |a_n| w_n(r)."""
    if N < 0:
        raise DomainError("start index must be nonnegative")
    return _on_grid(r, lambda rs: _bohr_sum_arr(f, _Block(w, rs, f.truncation_order), N))


def a_refinement(f: BoundedFunction, w: wt.WeightSequence, r):
    """The quadratic refinement sum_{n>=1} |a_n|^2 [w_2n/(1+|a_0|) + tail(2n+1)]."""
    return _on_grid(r, lambda rs: _a_refinement_arr(f, _Block(w, rs, f.truncation_order)))


def _head_modulus(f, m, rs, mode):
    """|f(w(z))| on |z| = r: sharp envelope or the value at z = r."""
    x = rs ** m
    if mode == ENVELOPE:
        a = abs(f.coeffs[0])
        return (x + a) / (1.0 + a * x)
    return np.abs(evaluate(f, x))


def _require_schwarz(f):
    if abs(f.coeffs[0]) > 1e-12:
        raise DomainError("this functional requires a Schwarz function (a_0 = 0)")


def _t1(f, blk, params, mode):
    """|f(w(z))|**p * phi_0 + majorant + refinement."""
    head = _head_modulus(f, params.m, blk.rs, mode) ** params.p * blk.rows[0]
    return head + _bohr_sum_arr(f, blk, 1) + _a_refinement_arr(f, blk)


def _t2(f, blk, params, mode):
    """|a_0|**p * phi_0 + majorant + refinement + |f(w(z)) - a_0|."""
    a0 = f.coeffs[0]
    a = abs(a0)
    x = blk.rs ** params.m
    if mode == ENVELOPE:
        dev = (1.0 - a * a) * x / (1.0 - a * x)
    else:
        dev = np.abs(evaluate(f, x) - a0)
    return a ** params.p * blk.rows[0] + _bohr_sum_arr(f, blk, 1) \
        + _a_refinement_arr(f, blk) + dev


def _t3(f, blk, params, mode):
    """|a_1|**p * phi_0 + sum (n+1)|a_{n+1}| w_n(r); needs a_0 = 0."""
    _require_schwarz(f)
    return abs(f.coeffs[1]) ** params.p * blk.rows[0] + _weighted_coeff_sum_arr(f, blk)


def _t4(f, blk, params, mode):
    """T3 plus the derivative deviation |f'(w(z)) - a_1|; needs a_0 = 0."""
    _require_schwarz(f)
    a1 = f.coeffs[1]
    x = blk.rs ** params.m
    if mode == ENVELOPE:
        dev = (1.0 - abs(a1) ** 2) * x * (2.0 - x) / (1.0 - x) ** 2
    else:
        dev = np.abs(eval_derivative(f, x) - a1)
    return abs(a1) ** params.p * blk.rows[0] + _weighted_coeff_sum_arr(f, blk) + dev


def _t5(f, blk, params, mode):
    """|f(w(z))|**p + lambda * [majorant + refinement], power weights."""
    head = _head_modulus(f, params.m, blk.rs, mode) ** params.p
    return head + params.lam * (_bohr_sum_arr(f, blk, 1) + _a_refinement_arr(f, blk))


def _check_lacunary(params: FunctionalParams):
    """The theorem-6 constraint on the lacunary gap q and the inner exponent m."""
    if params.q < 2 or not 0 < params.m < params.q:
        raise DomainError("psi5_t6 needs q >= 2 and 0 < m < q")


def _t6(f, blk, params, mode):
    """|f(w(z))|**p + lambda * lacunary majorant over indices qk + m."""
    head = _head_modulus(f, params.m, blk.rs, mode) ** params.p
    q = params.q
    return head + params.lam * _bohr_sum_arr(f, blk, q + params.m, q, "the lacunary sum")


def _td(f, blk, params, mode):
    """|f(z)| + lambda * lacunary majorant over indices nk, power weights."""
    n = params.n_lacunary
    return _head_modulus(f, 1, blk.rs, mode) + params.lam * _bohr_sum_arr(
        f, blk, n, n, "the lacunary sum")


@dataclass(frozen=True)
class Family:
    """Everything bohrkit knows about one radius family.

    ``psi(params, w, rs, x, t)`` is the radius function on the grid
    ``rs`` with ``x = rs**m``, positive in the validity regime; ``t`` is
    the tail from index 1 that ``tail`` names: "plain" (sum phi_n), "n+1"
    (sum (n+1) phi_n) or None (a closed form, passed t = None).
    ``functional(f, blk, params, mode)`` is the composite functional's
    body on the weight block ``blk`` of a radius grid.  A family with a
    tail is ``weighted``: it gives the problem's weights to Psi, to
    ``functional`` and to its bound phi_0(r); the others use power
    weights r**n throughout, where phi_0 = 1.  ``p`` pins the modulus
    power of a classical theorem.  ``extremal`` names the extremal family
    for sharpness ("plus", "minus" or "schwarz"); Schwarz families are
    tested on functions with a_0 = 0.  ``check`` rejects parameters the
    family's theorem excludes.
    """

    psi: Callable
    functional: Callable
    extremal: str
    p: float | None = None
    check: Callable = lambda params: None
    tail: str | None = None

    @property
    def weighted(self) -> bool:
        return self.tail is not None


FAMILIES: dict[str, Family] = {
    "psi1": Family(
        lambda pm, w, rs, x, t: pm.p * (1.0 - x) / (1.0 + x) * w._phi0 - 2.0 * t,
        _t1, extremal="plus", tail="plain"),
    "psi2": Family(
        lambda pm, w, rs, x, t: 0.5 * pm.p * w._phi0 - t - x / (1.0 - x),
        _t2, extremal="minus", tail="plain"),
    "psi3": Family(
        lambda pm, w, rs, x, t: 0.5 * pm.p * w._phi0 - t,
        _t3, extremal="schwarz", tail="n+1"),
    "psi4": Family(
        lambda pm, w, rs, x, t: 0.5 * pm.p * w._phi0 - t - x * (2.0 - x) / (1.0 - x) ** 2,
        _t4, extremal="schwarz", tail="n+1"),
    "psi5_t5": Family(
        lambda pm, w, rs, x, t: (pm.p * (1.0 - x) / (1.0 + x)
                                 - 2.0 * pm.lam * rs / (1.0 - rs)),
        _t5, extremal="plus"),
    # sign flipped relative to the source convention, which is positive
    # past the radius, so that every Psi is positive at 0
    "psi5_t6": Family(
        lambda pm, w, rs, x, t: (pm.p * (1.0 - x) / (1.0 + x) - 2.0 * pm.lam
                                 * rs ** (pm.q + pm.m) / (1.0 - rs ** pm.q)),
        _t6, extremal="plus", check=_check_lacunary),
    "classical_alpha": Family(
        lambda pm, w, rs, x, t: (1.0 - rs) * (1.0 - x) - 2.0 * rs * (1.0 + x),
        _t1, extremal="plus", p=1.0),
    "classical_beta": Family(
        lambda pm, w, rs, x, t: 1.0 - 2.0 * rs - x,
        _t1, extremal="plus", p=2.0),
    "classical_zeta": Family(
        lambda pm, w, rs, x, t: 1.0 - 3.0 * rs - x * (3.0 - 5.0 * rs),
        _t2, extremal="minus", p=1.0),
    "classical_eta": Family(
        lambda pm, w, rs, x, t: 1.0 - 2.0 * rs - x * (2.0 - 3.0 * rs),
        _t2, extremal="minus", p=2.0),
    # theorem C under general weights: twice psi3 at p = 1
    "classical_c": Family(
        lambda pm, w, rs, x, t: w._phi0 - 2.0 * t,
        _t3, extremal="schwarz", p=1.0, tail="n+1"),
    "classical_d": Family(
        lambda pm, w, rs, x, t: (1.0 - rs - (2.0 * pm.lam + 1.0) * rs ** pm.n_lacunary
                                 - (2.0 * pm.lam - 1.0) * rs ** (pm.n_lacunary + 1)),
        _td, extremal="plus"),
}


def get_family(name: str) -> Family:
    """The registry record of a family name; DomainError for unknown names."""
    try:
        return FAMILIES[name]
    except KeyError:
        raise DomainError(f"unknown radius family {name!r}") from None


def _family_evaluator(family, w, params, rs, order, mode):
    """evaluate_family's weight block on the grid rs and f -> its value
    there, for every f of truncation order <= ``order``."""
    fam = get_family(family)
    if mode not in (ENVELOPE, POINTWISE):
        raise DomainError(f"mode must be {ENVELOPE!r} or {POINTWISE!r}")
    fam.check(params)
    if fam.p is not None:
        params = replace(params, p=fam.p)
    blk = _Block(w if fam.weighted else _POWER, rs, order)
    return blk, lambda f: fam.functional(f, blk, params, mode)


def evaluate_family(family: str, f, w, params: FunctionalParams, r,
                    mode: str = ENVELOPE):
    """Evaluate a radius family's composite functional.

    Unweighted families evaluate with power weights, and classical
    families with the p-case fixed by their theorem.
    """
    return _on_grid(r, lambda rs: _family_evaluator(
        family, w, params, rs, f.truncation_order, mode)[1](f))


def bound_for(family: str, w, r):
    """The right-hand side each family's inequality is checked against:
    phi_0(r) of the weights its functional uses."""
    return (w if get_family(family).weighted else _POWER).weight_at(0, r)
