"""Radius-defining functions and certified minimal positive roots.

Each family's Psi function is arranged so that Psi(0) > 0, and the solver
checks that it is.  The first sign change on a fixed 1e-3 grid over
[0, R_EDGE] is sharpened by bisection to a bracket of width 1e-13, whose
lower end is the reported radius.  Every scan evaluates Psi in one call
on the grid padded with R_EDGE to 16 rows of 64 cells, where a repeated
value holds no sign change.  A weighted family cuts each row's tail at
the row's largest point, and the first scan of a tail kind on a weights
instance computes every row's tail once.  The about 34 bisection steps
are predicted: one :func:`psi_eval` call holds the midpoints the
bisection would visit if Psi changed sign at a guess, and the sequential
bisection is replayed on their values for as long as each point is the
step's own midpoint.  The first guess is the
zero of the polynomial in Psi through the six scan values nearest the
sign change (inverse interpolation, as in Brent's method), at no Psi
call; where those values are not finite and strictly decreasing it is
the cell's regula-falsi guess.  A mispredicted step is still taken, the
points after it are dropped, and the next call aims at the regula-falsi
guess of the narrower bracket; each criterion-7 root takes one call, as
the guess only sets how many calls a solve makes.  A scaled-power batch
cuts its tail at its largest point, so a lower point may sum stored terms
that its one-point cut treats as numerically silent; the tests pin the
certificates to the step-by-step bisection's.  The bracket, the signed
values at its ends and the scan step are returned as a certificate, with
``psi_lo > 0 >= psi_hi``: the first sign change lies in
``(bracket_lo, bracket_hi]``, and ``psi_hi`` is 0.0 where Psi vanishes on
the end point.  The Psi functions themselves live in
:data:`bohrkit.functionals.FAMILIES`.

Each family's Psi decreases on [0, its root], so Psi > 0 at a point
shows Psi > 0 below it (the tests check these lemmas numerically):

* psi1-psi4, psi5_t5, psi5_t6, classical_alpha, classical_beta and
  classical_c: phi_0 is constant, and every tail and closed-form term it
  subtracts rises with r, for any c_n >= 0;
* classical_zeta: Psi' = -3 + r^(m-1) (5(m+1) r - 3m) <= 0 on [0, 0.6],
  and its root lies below 1/3, as Psi(1/3) = -(4/3) (1/3)^m;
* classical_eta: Psi' = -2 + r^(m-1) (3(m+1) r - 2m) <= 0 on [0, 2/3],
  and its root lies below 1/2, as Psi(1/2) = -(1/2)^(m+1);
* classical_d: Psi' <= -1 + r^(n-1) (1 - 2 lambda (2n + 1)) < 0 on [0, 1)
  for every lambda > 0;
* under scaled-power weights the cut Psi is at most the Psi of all the
  stored terms, as the dominator dominates every coefficient past the cut.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from . import weights as wt
from .errors import DomainError, NoRootError
from .functionals import FAMILIES, FunctionalParams, RadiusProblem, _on_grid

SCAN_STEP = 1e-3
BRACKET_WIDTH = 1e-13

# grid cells per scan row: each row's weight tail is cut at the row's
# largest r, so this sets the cuts, and with them the tails' bits
_SCAN_CHUNK = 64
# the scan grid 0, SCAN_STEP, ..., R_EDGE; arange stops below R_EDGE
_SCAN_GRID = np.append(np.arange(0.0, wt.R_EDGE, SCAN_STEP), wt.R_EDGE)
_SCAN_GRID.flags.writeable = False
# the grid padded with R_EDGE to 16 rows of _SCAN_CHUNK cells, which share
# their end points, as a read-only view: a repeated value holds no sign change
_SCAN_ROWS = np.lib.stride_tricks.sliding_window_view(
    np.pad(_SCAN_GRID, (0, -(_SCAN_GRID.size - 1) % _SCAN_CHUNK), mode="edge"),
    _SCAN_CHUNK + 1)[::_SCAN_CHUNK]
# per weights and tail kind, a read-only block whose row k is _SCAN_ROWS[k]'s tail
_SCAN_TAILS = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class RootCertificate:
    """A bracketed minimal positive root with verified sign change.

    The contract is ``psi_lo > 0 >= psi_hi``: Psi is positive at
    ``bracket_lo`` and not positive at ``bracket_hi``, so the sign change
    lies in ``(bracket_lo, bracket_hi]``.  ``psi_hi`` is exactly 0.0 where
    Psi vanishes on the end point (power ``psi2`` at m = 1, p = 1 has
    ``bracket_hi = 0.2``), so the two signs are not always strictly opposite.
    Both values are Psi as evaluated in double precision.  ``radius`` is
    ``bracket_lo``, the bracket's conservative end: it lies below the root
    wherever the two signs are exact.
    """

    radius: float
    bracket_lo: float
    bracket_hi: float
    psi_lo: float
    psi_hi: float
    scan_step: float


def psi_eval(prob: RadiusProblem, r):
    """The family's radius function, positive in the validity regime."""
    return _on_grid(r, lambda rs: _psi(prob, rs, None))


# Psi overflows quietly: a tail past the double range is +inf, as its terms
# are >= 0, and Psi subtracts it from terms that stay finite there, so -inf
# has the exact sign
@np.errstate(over="ignore")
def _psi(prob: RadiusProblem, rs: np.ndarray, tail: np.ndarray | None) -> np.ndarray:
    """Psi on the validated grid rs, given the tail there or None to compute it."""
    fam, w = FAMILIES[prob.family], prob.weights
    if fam.tail and tail is None:
        tail = w._tail2(np.array([1]), rs, fam.tail == "n+1")[0]
    return fam.psi(prob.params, w, rs, rs ** prob.params.m, tail)


def _scan(prob: RadiusProblem) -> np.ndarray:
    """Psi on _SCAN_ROWS, in one call; a weighted family reads the tails
    that the first scan of its kind on the weights computed."""
    fam, w = FAMILIES[prob.family], prob.weights
    if not fam.tail:
        return _psi(prob, _SCAN_ROWS, None)
    tails = _SCAN_TAILS.setdefault(w, {})
    if fam.tail not in tails:
        block = np.empty(_SCAN_ROWS.shape)
        for cells, row in zip(_SCAN_ROWS, block):
            # each row's tail is cut at its own largest point, as psi_eval's is
            k = np.searchsorted(cells, cells[-1]) + 1
            with np.errstate(over="ignore"):  # a tail past the double range: see _psi
                row[:k] = w._tail2(np.array([1]), cells[:k], fam.tail == "n+1")[0]
            row[k:] = row[k - 1]  # the R_EDGE padding: its tail, taken once
        block.flags.writeable = False
        tails[fam.tail] = block
    return _psi(prob, _SCAN_ROWS, tails[fam.tail])


def solve_radius(prob: RadiusProblem) -> RootCertificate:
    """Certified minimal positive root of the family's Psi function.

    Scans the grid ``0, SCAN_STEP, 2*SCAN_STEP, ..., R_EDGE`` for the
    first sign change, then bisects that cell.  The scan is one
    :func:`_scan` call on the rows of ``_SCAN_CHUNK`` cells, which share
    their end points, read in row-major order.  The first bisection call
    evaluates the midpoints the bisection visits toward
    :func:`_seed_guess`, each later one toward the regula-falsi guess
    ``lo - flo*(hi - lo)/(fhi - flo)`` of the current bracket, and replays
    the steps on them up to the first one whose sign the guess got wrong.
    Each path is one :func:`psi_eval` call, whose scaled-power tail is cut
    at the path's largest point.  Raises :class:`DomainError` when Psi(0)
    is not positive and :class:`NoRootError` when Psi keeps its sign on
    the whole evaluation domain.
    """
    vals = _scan(prob)
    if not vals[0, 0] > 0.0:
        raise DomainError(f"{prob.family}: Psi(0) = {float(vals[0, 0])!r} is not positive")
    s = np.sign(vals)
    # the sign changes, a NaN none, in row-major order: the grid's order
    flip = (abs(s[:, :-1] - s[:, 1:]) > 0).ravel().nonzero()[0]
    if not flip.size:
        raise NoRootError(f"no sign change of {prob.family} on (0, {wt.R_EDGE})")
    row, i = divmod(int(flip[0]), _SCAN_CHUNK)
    cells, vals = _SCAN_ROWS[row], vals[row]
    lo, hi = float(cells[i]), float(cells[i + 1])
    flo, fhi = float(vals[i]), float(vals[i + 1])
    guess = _seed_guess(cells, vals, i)
    while hi - lo > BRACKET_WIDTH:
        # one call holds the path the bisection takes if Psi changes sign at
        # the guess; the sequential steps replay on its values while the
        # path's next point is the step's own midpoint
        pts = _bisection_path(lo, hi, guess)
        for mid, fm in zip(pts.tolist(), psi_eval(prob, pts).tolist()):
            if not (hi - lo > BRACKET_WIDTH and mid == 0.5 * (lo + hi)):
                break
            # flo > 0 throughout, so this is the sign test, a NaN fm included
            if fm > 0.0:
                lo, flo = mid, fm
            else:
                hi, fhi = mid, fm
        guess = lo - flo * (hi - lo) / (fhi - flo)  # regula falsi after a miss
    return RootCertificate(lo, lo, hi, flo, fhi, SCAN_STEP)


def _seed_guess(cells: np.ndarray, vals: np.ndarray, i: int) -> float:
    """The zero of the polynomial x(Psi) through the six scan points
    nearest the flip cell i, points i-2 .. i+3 moved inside the row
    (inverse Lagrange interpolation), or the cell's regula-falsi guess
    where those six values are not finite and strictly decreasing."""
    k = min(max(i - 2, 0), vals.size - 6)
    xs, ys = cells[k:k + 6].tolist(), vals[k:k + 6].tolist()
    if all(map(math.isfinite, ys)) and all(a > b for a, b in zip(ys, ys[1:])):
        guess = 0.0  # sum() and math.prod() in their order, without their generators
        for x, yx in zip(xs, ys):
            prod = 1.0
            for y in ys:
                prod *= y / (y - yx) if y != yx else 1.0
            guess += x * prod
        return guess
    lo, hi, flo, fhi = xs[i - k], xs[i - k + 1], ys[i - k], ys[i - k + 1]
    return lo - flo * (hi - lo) / (fhi - flo)


def _bisection_path(lo: float, hi: float, guess: float) -> np.ndarray:
    """The midpoints ``0.5 * (lo + hi)`` the bisection visits down to
    ``BRACKET_WIDTH`` if Psi changes sign at guess, in the order visited;
    a guess that is NaN or outside [lo, hi] is taken as the midpoint."""
    if not lo <= guess <= hi:
        guess = 0.5 * (lo + hi)
    pts = []
    while hi - lo > BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        pts.append(mid)
        if mid < guess:
            lo = mid
        else:
            hi = mid
    return np.array(pts)


def classical_crosscheck(m: int, p_case: int):
    """Pair each classical polynomial radius with its Psi specialization.

    Returns a list of ``(classical_family, classical_root, psi_root)``
    triples; the contract is agreement to 1e-10.  The theorem-C and
    theorem-D pairs do not depend on m and are attached to the m = 1,
    p_case = 1 call.
    """
    if not 1 <= m <= 8:
        raise DomainError("m must lie in 1..8")
    if isinstance(p_case, bool) or p_case not in (1, 2):
        raise DomainError("p_case must be 1 or 2")
    pw = wt.power()
    params = FunctionalParams(m=m, p=float(p_case))
    pairs = [("classical_alpha" if p_case == 1 else "classical_beta", params, "psi1", params),
             ("classical_zeta" if p_case == 1 else "classical_eta", params, "psi2", params)]
    if m == 1 and p_case == 1:
        # theorem C's radius equation is the p = 1 specialization (its first
        # functional term carries |a_1| to the first power)
        pairs.append(("classical_c", FunctionalParams(), "psi3", FunctionalParams(p=1.0)))
        d_params = FunctionalParams(m=1, p=1.0, lam=1.0, n_lacunary=1)
        pairs.append(("classical_d", d_params, "psi5_t5", d_params))
    return [(classical, solve_radius(RadiusProblem(classical, c_params, pw)).radius,
             solve_radius(RadiusProblem(psi, psi_params, pw)).radius)
            for classical, c_params, psi, psi_params in pairs]
