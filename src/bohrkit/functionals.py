"""The Bohr-type building blocks, the composite functionals and the
registry of radius families that use them.

Every sum over the series coefficients is truncated adaptively and the
discarded mass is bounded through the weight sequence's geometric
dominator; an :class:`~bohrkit.errors.AccuracyError` is raised whenever
the certified remainder cannot be pushed below 1e-12.  A sum keeps the
indices n <= min(T, K), with T the series' truncation order and K 8 past
the first index where the dominator's tail C x^K / (1 - x), x = rho
max(r), falls to 1e-18 (the derivative sum, which reads a_{n+1}, keeps
n < T); the quadratic refinement, whose weights run to index 2n, keeps
n <= min(T, K//2 + 1).  Every index above the kept range is bounded by
the worst |a_n| there, the series' tail bound included.  The weight rows
and tails all come from one block per (weights, radius grid), which each
function slices to its kept range: both kinds of guard tail at max(r) are
one ``_tails2`` table's, which on a one-point grid holds the refinement's.

Every body evaluates a whole population f_1..f_k at once and returns a
k x len(rs) matrix, row i for f_i; a single function is the case k = 1.
Members with the same kept length share one stacked product, in which
numpy gives each member the gemv it would get alone, so a row does not
depend on the rest of the population.  The refinement is

    sum_n |a_n|^2 [w_2n/(1 + |a_0|) + tail(2n + 1)]
        = (|a|^2 @ W2) / (1 + |a_0|) + |a|^2 @ T,

two products of the squared moduli per member: with the rows W2 = w_2n,
a strided view of the block's weight rows, and with the block's tails T
= tail(2n + 1), stored from the highest n down so that these decaying
terms, the larger part near the radius, are summed smallest first.  No
n x len(rs) temporary is divided.  The guards run on the whole
population too; :func:`_run` turns a failed one into the error that
evaluating the members one by one would raise first.

The composite functionals come in two evaluation modes:

* ``envelope``: the modulus terms |f(w(z))|, |f(w(z)) - a_0|, ... are
  replaced by their sharp upper envelopes over the inner-map class; this
  is the quantity the validity statements bound.
* ``pointwise``: the same terms are evaluated on the positive axis at
  z = r with w(z) = z**m; this is what the sharpness arguments need on
  the extremal families.

Envelope mode dominates pointwise mode for every disk self-map.

*Lemma (monotonicity).*  In envelope mode every functional is
nondecreasing in r on [0, 1), while its bound phi_0 = c_0 is constant.
Each is a sum of nonnegative terms, with factors |a_n|, lambda, ... free
of r, and each term rises with r: every weight c_n r^n and every tail;
the head ((x + a)/(1 + a x))^p, a = |a_0| <= 1, whose base has the
derivative (1 - a^2)/(1 + a x)^2 in x = r^m; and the deviations
(1 - a^2) x/(1 - a x) and (1 - |a_1|^2) x (2 - x)/(1 - x)^2, the last
(1 - |a_1|^2) [1/(1 - x)^2 - 1].  So on [0, R] the worst violation is at R.
No such lemma holds in pointwise mode: |f(r^m)| need not rise with r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import weights as wt
from .errors import AccuracyError, BohrkitError, DomainError
from .series import BoundedFunction, _is_count, eval_derivative, evaluate

REMAINDER_TOL = 1e-12
_CUT_TOL = 1e-18

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
        if not _is_count(self.m):
            raise DomainError("m must be a positive integer")
        if isinstance(self.p, bool) or not 0.0 < self.p <= 2.0:
            raise DomainError("p must lie in (0, 2]")
        if isinstance(self.lam, bool) or not (  # Psi reads 2 lam + 1
                self.lam > 0.0 and math.isfinite(2.0 * self.lam + 1.0)):
            raise DomainError("lambda must be positive, with 2*lambda + 1 finite")
        if not _is_count(self.q):
            raise DomainError("q must be a positive integer")
        if not _is_count(self.n_lacunary):
            raise DomainError("n must be a positive integer")


def _on_grid(r, compute):
    """compute(rs) on the 1-d radius grid of r; a float for a scalar r."""
    rs = wt._as_r(r)
    out = compute(rs)
    return float(out[0]) if np.ndim(r) == 0 else out


def _cutoff(x: float, C: float) -> int:
    """First K >= 8 with C x^K/(1 - x) <= _CUT_TOL, plus 8; in logs: _CUT_TOL/C can underflow."""
    if x <= 0.0:
        return 8
    b = math.log(_CUT_TOL * (1.0 - x)) - math.log(max(C, _CUT_TOL))
    return max(8, math.ceil(b / math.log(x))) + 8


class Population(tuple):
    """An immutable population of test functions f_0..f_(k-1), each a
    BoundedFunction, joined once, at construction, for evaluations that
    return a row each.

    ``mag`` holds every |a_n| in one flat array, member i's from
    ``start[i]``, then a 0 that is the max of any empty suffix: the only
    copy of the moduli, numpy's array abs of each member's coefficients as
    its self-map check takes it.  ``a0`` and ``a1`` hold |a_0| and |a_1|
    by scalar abs, like the heads' other scalar terms (numpy's vectorized
    complex abs and pow can round differently, and the heads keep the
    scalar bits).  The arrays are read-only, as the members' own are.
    """

    def __init__(self, fs=()):  # tuple.__new__ has taken the members from fs
        if not all(isinstance(f, BoundedFunction) for f in self):
            raise DomainError("every population member must be a BoundedFunction")
        sizes = np.array([f.coeffs.size for f in self], dtype=np.intp)
        self.order = sizes - 1
        self.start = np.zeros(len(self) + 1, dtype=np.intp)
        np.cumsum(sizes, out=self.start[1:])
        self.mag = np.concatenate([np.abs(f.coeffs) for f in self] + [[0.0]])
        self.tail_bound = np.array([f.tail_bound for f in self])
        self.a0 = np.array([abs(f.coeffs[0]) for f in self])
        self.a1 = np.array([abs(f.coeffs[1]) for f in self])
        for joined in (self.order, self.start, self.mag, self.tail_bound, self.a0, self.a1):
            joined.flags.writeable = False

    def _chunk(self, lo: int, hi: int) -> Population:
        """Members lo..hi-1 as a population whose arrays are views of these,
        but for its own ``start``.  Its ``mag`` ends in the next member's
        |a_0| (the final 0 for the last chunk), which :meth:`trunc` reads
        only where it drops the value."""
        hi = min(hi, len(self))
        part = tuple.__new__(Population, self[lo:hi])
        part.order, part.tail_bound, part.a0, part.a1 = (
            self.order[lo:hi], self.tail_bound[lo:hi], self.a0[lo:hi], self.a1[lo:hi])
        part.start = self.start[lo:hi + 1] - self.start[lo]
        part.mag = self.mag[self.start[lo]:self.start[hi] + 1]
        return part

    def trunc(self, n: int):
        """Each member's kept index min(T, n) and the worst bound on its
        coefficients above that index, its tail bound included."""
        n = np.minimum(self.order, n)
        edges = np.empty(2 * len(n), dtype=np.intp)
        edges[::2], edges[1::2] = self.start[:-1] + n + 1, self.start[1:]
        top = np.maximum.reduceat(self.mag, edges)[::2]
        return n, np.maximum(self.tail_bound, np.where(edges[::2] < edges[1::2], top, 0.0))


def _run(fs, body):
    """body's k x len(rs) value on the population fs, or the error that
    evaluating its members one by one would raise first.  A check raises
    as soon as any member fails it, and a member's rows and guard bounds
    do not depend on the rest of the population: so the members before
    the last are then run alone, in order, and if none fails, the last
    member alone failed and the population's error is its first."""
    pop = fs if isinstance(fs, Population) else Population(fs)
    try:
        return body(pop)
    except BohrkitError as exc:
        error = exc
    for i in range(len(pop) - 1):
        body(pop._chunk(i, i + 1))
    raise error


def _guard(bound, what: str):
    bad = bound > REMAINDER_TOL
    if bad.any():
        raise AccuracyError(f"certified remainder {bound[bad.argmax()]:.3g} of {what} "
                            f"exceeds {REMAINDER_TOL}")


class _Block:
    """w_n(rs) (row 0 is phi_0), the refinement's tail(2n + 1, rs) with
    rows n = half, ..., 2, 1, and the guards' plain and weighted tails at
    max(rs), one table's, which on a one-point grid hold the refinement's,
    for each index kept up to truncation order; AccuracyError when the
    largest, the weighted tail from 0, is past the double range."""

    def __init__(self, w, rs, order):
        if not isinstance(w, wt.WeightSequence):
            raise DomainError("the weighted sums need a weight sequence")
        self.w, self.rs, rmax = w, rs, float(rs.max())
        self.x = w.rho * rmax
        self.cut = _cutoff(self.x, w.C)
        top, half = min(order, self.cut), min(order, self.cut // 2 + 1)
        with np.errstate(over="ignore"):
            self.guard_tails = [t[:, 0] for t in w._tails2(
                np.arange(max(top + 2, 2 * half + 2)), np.array([rmax]), (False, True))]
        if not math.isfinite(self.guard_tails[1][0]):
            raise AccuracyError(f"the weight tails at r = {rmax!r} overflow a double")
        self.rows = w._weight2(np.arange(max(top, 2 * half) + 1), rs)
        odd = 2 * np.arange(half, 0, -1) + 1
        self.tails = self.guard_tails[0][odd, None] if rs.size == 1 else w._tail2(odd, rs, False)


def _products(pop, keys, part, term=lambda mag, idx: mag):
    """Row i: term(|a_j|, j) over the coefficient indices j of
    part(keys[i]) = (indices, rows), times those rows.  Members with one
    key share a stacked product, which hands each member the gemv a lone
    vector gets, so a row is its one-member value bit for bit."""
    out = None
    for key in dict.fromkeys(keys.tolist()):  # first-seen order
        members = np.flatnonzero(keys == key)
        idx, rows = part(key)
        terms = term(pop.mag[pop.start[members][:, None] + idx], idx)
        if out is None:
            out = np.empty((len(keys), rows.shape[1]))
        out[members] = (terms[:, None, :] @ rows)[:, 0]
    return out


def _bohr_sum_arr(pop, blk, start, step=1, what="the weighted coefficient sum"):
    """sum of |a_n| w_n(r) over n = start, start + step, start + 2 step, ..."""
    n_hi, U = pop.trunc(blk.cut)
    _guard(U * blk.guard_tails[0][n_hi + 1], what)
    return _products(pop, n_hi, lambda n: (np.arange(start, n + 1, step),
                                           blk.rows[start:n + 1:step]))


def _a_refinement_arr(pop, blk):
    """Keeps n <= min(T, K//2 + 1) for the cut-off K, as the weights run to
    index 2n; each n above is bounded by U^2 C [x^2n + x^(2n+1)/(1-x)].
    The value is (|a|^2 @ w_2n) / (1 + |a_0|) + |a|^2 @ tail(2n + 1), the
    tails summed from the highest kept n down."""
    x = blk.x
    n_half, U = pop.trunc(blk.cut // 2 + 1)
    with np.errstate(over="ignore"):
        _guard(U * U * blk.w.C * (x ** (2 * n_half + 2) / (1.0 - x * x)
                                  + x ** (2 * n_half + 3) / ((1.0 - x) * (1.0 - x * x))),
               "the quadratic refinement term")
    w2 = _products(pop, n_half, lambda n: (np.arange(1, n + 1), blk.rows[2:2 * n + 1:2]),
                   lambda mag, idx: mag ** 2)
    tails = _products(pop, n_half, lambda n: (np.arange(n, 0, -1),
                                              blk.tails[len(blk.tails) - n:]),
                      lambda mag, idx: mag ** 2)
    return w2 / (1.0 + pop.a0[:, None]) + tails


def _weighted_coeff_sum_arr(pop, blk):
    """sum_{n>=1} (n+1) |a_{n+1}| w_n(r) -- the derivative-type middle sum."""
    n_hi, U = pop.trunc(blk.cut)
    _guard(U * blk.guard_tails[1][np.maximum(n_hi, 1)], "the derivative coefficient sum")
    return _products(pop, np.minimum(n_hi, pop.order - 1),
                     lambda n: (np.arange(2, n + 2), blk.rows[1:n + 1]),
                     lambda mag, idx: idx * mag)


def bohr_sum(f: BoundedFunction, w: wt.WeightSequence, N: int, r):
    """The majorant series sum_{n>=N} |a_n| w_n(r)."""
    if np.ndim(N) != 0:
        raise DomainError("N must be one integer")
    N = wt._as_n(N, 0).item()
    return _on_grid(r, lambda rs: _run([f], lambda pop: _bohr_sum_arr(
        pop, _Block(w, rs, f.truncation_order), N))[0])


def a_refinement(f: BoundedFunction, w: wt.WeightSequence, r):
    """The quadratic refinement sum_{n>=1} |a_n|^2 [w_2n/(1+|a_0|) + tail(2n+1)]."""
    return _on_grid(r, lambda rs: _run([f], lambda pop: _a_refinement_arr(
        pop, _Block(w, rs, f.truncation_order)))[0])


def _abs_pow(pop, j, p):
    """The column of |a_j|**p, j = 0 or 1, each a scalar pow (libm's, on a
    Python float as on a numpy one): numpy's array pow may round differently."""
    return np.array([a ** p for a in (pop.a0, pop.a1)[j].tolist()])[:, None]


def _head_modulus(pop, m, rs, mode):
    """|f(w(z))| on |z| = r: sharp envelope or the value at z = r."""
    x = rs ** m
    if mode == ENVELOPE:
        a = pop.a0[:, None]
        return (x + a) / (1.0 + a * x)
    return np.array([np.abs(evaluate(f, x)) for f in pop])


def _require_schwarz(pop):
    if (pop.a0 > 1e-12).any():
        raise DomainError("this functional requires a Schwarz function (a_0 = 0)")


def _t1(pop, blk, params, mode):
    """|f(w(z))|**p * phi_0 + majorant + refinement."""
    head = _head_modulus(pop, params.m, blk.rs, mode) ** params.p * blk.rows[0]
    return head + _bohr_sum_arr(pop, blk, 1) + _a_refinement_arr(pop, blk)


def _t2(pop, blk, params, mode):
    """|a_0|**p * phi_0 + majorant + refinement + |f(w(z)) - a_0|."""
    a = pop.a0[:, None]
    x = blk.rs ** params.m
    if mode == ENVELOPE:
        dev = (1.0 - a * a) * x / (1.0 - a * x)
    else:
        dev = np.array([np.abs(evaluate(f, x) - f.coeffs[0]) for f in pop])
    return _abs_pow(pop, 0, params.p) * blk.rows[0] + _bohr_sum_arr(pop, blk, 1) \
        + _a_refinement_arr(pop, blk) + dev


def _t3(pop, blk, params, mode):
    """|a_1|**p * phi_0 + sum (n+1)|a_{n+1}| w_n(r); needs a_0 = 0."""
    _require_schwarz(pop)
    return _abs_pow(pop, 1, params.p) * blk.rows[0] + _weighted_coeff_sum_arr(pop, blk)


def _t4(pop, blk, params, mode):
    """T3 plus the derivative deviation |f'(w(z)) - a_1|; needs a_0 = 0."""
    t3 = _t3(pop, blk, params, mode)
    x = blk.rs ** params.m
    if mode == ENVELOPE:
        dev = (1.0 - _abs_pow(pop, 1, 2)) * x * (2.0 - x) / (1.0 - x) ** 2
    else:
        dev = np.array([np.abs(eval_derivative(f, x) - f.coeffs[1]) for f in pop])
    return t3 + dev


def _t5(pop, blk, params, mode):
    """|f(w(z))|**p + lambda * [majorant + refinement], power weights."""
    head = _head_modulus(pop, params.m, blk.rs, mode) ** params.p
    return head + params.lam * (_bohr_sum_arr(pop, blk, 1) + _a_refinement_arr(pop, blk))


def _check_lacunary(params: FunctionalParams):
    """The theorem-6 constraint on the lacunary gap q and the inner exponent m."""
    if params.q < 2 or not 0 < params.m < params.q:
        raise DomainError("psi5_t6 needs q >= 2 and 0 < m < q")


def _t6(pop, blk, params, mode):
    """|f(w(z))|**p + lambda * lacunary majorant over indices qk + m."""
    head = _head_modulus(pop, params.m, blk.rs, mode) ** params.p
    q = params.q
    return head + params.lam * _bohr_sum_arr(pop, blk, q + params.m, q, "the lacunary sum")


def _td(pop, blk, params, mode):
    """|f(z)| + lambda * lacunary majorant over indices nk, power weights."""
    n = params.n_lacunary
    return _head_modulus(pop, 1, blk.rs, mode) + params.lam * _bohr_sum_arr(
        pop, blk, n, n, "the lacunary sum")


@dataclass(frozen=True)
class Family:
    """Everything bohrkit knows about one radius family.

    ``psi(params, w, rs, x, t)`` is the radius function on the grid
    ``rs`` with ``x = rs**m``, positive in the validity regime; ``t`` is
    the tail from index 1 that ``tail`` names: "plain" (sum phi_n), "n+1"
    (sum (n+1) phi_n) or None (a closed form, passed t = None).
    ``functional(pop, blk, params, mode)`` is the composite functional's
    body: one row per member of the population ``pop`` on the weight
    block ``blk`` of a radius grid.  A family with a
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


@dataclass(frozen=True)
class RadiusProblem:
    """One radius family plus its parameters and (where used) weights; a
    classical family's params carry the p its theorem pins."""

    family: str
    params: FunctionalParams = FunctionalParams()
    weights: wt.WeightSequence | None = None

    def __post_init__(self):
        fam = get_family(self.family)
        if fam.weighted and not isinstance(self.weights, wt.WeightSequence):
            raise DomainError(f"family {self.family} needs a weight sequence")
        if not isinstance(self.params, FunctionalParams):
            raise DomainError("params must be a FunctionalParams")
        fam.check(self.params)
        if fam.p is not None:
            object.__setattr__(self, "params", replace(self.params, p=fam.p))


def _family_evaluator(family, w, params, rs, order, mode):
    """evaluate_family's weight block on the grid rs, whose row 0 is the
    bound phi_0 there, and fs -> the len(fs) x len(rs) values there, for
    every population fs of truncation orders <= ``order``."""
    fam = get_family(family)
    if mode not in (ENVELOPE, POINTWISE):
        raise DomainError(f"mode must be {ENVELOPE!r} or {POINTWISE!r}")
    params = RadiusProblem(family, params, w).params
    blk = _Block(w if fam.weighted else wt.power(), rs, order)
    return blk, lambda fs: _run(fs, lambda pop: fam.functional(pop, blk, params, mode))


def evaluate_family(family: str, f, w, params: FunctionalParams, r,
                    mode: str = ENVELOPE):
    """Evaluate a radius family's composite functional.

    Unweighted families evaluate with power weights, and classical
    families with the p-case fixed by their theorem.
    """
    pop = Population([f])
    return _on_grid(r, lambda rs: _family_evaluator(
        family, w, params, rs, int(pop.order[0]), mode)[1](pop)[0])


def bound_for(family: str, w, r):
    """The right-hand side each family's inequality is checked against:
    phi_0(r) of the weights its functional uses."""
    RadiusProblem(family, weights=w)  # rejects a weighted family without weights
    return (w if FAMILIES[family].weighted else wt.power()).weight_at(0, r)
