"""Radius-defining functions and certified minimal positive roots.

Each family's Psi function is arranged so that Psi(0) > 0, and the solver
checks that it is.  The reported radius is the first sign change on a
fixed 1e-3 grid over [0, R_EDGE], sharpened by bisection to a bracket of
width 1e-13.  Where a weighted family reads scaled-power weights, the grid
is evaluated in chunks of 64 cells and the scan stops at the chunk holding
the first sign change, so the points above the root are never evaluated;
every other Psi is in closed form and is evaluated in one call.  The about
34 bisection steps go in batches of five: one :func:`psi_eval` call holds
the 31 dyadic midpoints of the bracket, and the sequential bisection is
replayed on their values, so it reaches the same bracket in about seven
calls.  Each value equals the one-point value at its midpoint; under
scaled-power weights that holds where the batch's points share one tail
cut, which the solver checks before each call.  The bracket,
the signed values at its ends and the scan step are returned as a
certificate, with ``psi_lo > 0 >= psi_hi``: the first sign change lies in
``(bracket_lo, bracket_hi]``, and ``psi_hi`` is 0.0 where Psi vanishes
on the end point.  The Psi functions themselves live in
:data:`bohrkit.functionals.FAMILIES`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import weights as wt
from .errors import DomainError, NoRootError
from .functionals import FAMILIES, FunctionalParams, _on_grid, get_family

SCAN_STEP = 1e-3
BRACKET_WIDTH = 1e-13

# grid cells per scan chunk under scaled-power weights: small enough that
# the tail is cut to a few hundred terms by the chunk's largest r, large
# enough that the per-call overhead of psi_eval stays below the work
_SCAN_CHUNK = 64
# bisection steps per psi_eval call: the 2**5 - 1 dyadic midpoints of the
# bracket cost about one call's fixed work, and the steps replay on them
_BISECT_LEVELS = 5
# the scan grid 0, SCAN_STEP, ..., R_EDGE; arange stops below R_EDGE
_SCAN_GRID = np.append(np.arange(0.0, wt.R_EDGE, SCAN_STEP), wt.R_EDGE)
_SCAN_GRID.flags.writeable = False


@dataclass(frozen=True)
class RadiusProblem:
    """One radius family plus its parameters and (where used) weights."""

    family: str
    params: FunctionalParams = FunctionalParams()
    weights: wt.WeightSequence | None = None

    def __post_init__(self):
        fam = get_family(self.family)
        if fam.weighted and self.weights is None:
            raise DomainError(f"family {self.family} needs a weight sequence")
        fam.check(self.params)


@dataclass(frozen=True)
class RootCertificate:
    """A bracketed minimal positive root with verified sign change.

    The contract is ``psi_lo > 0 >= psi_hi``: Psi is positive at
    ``bracket_lo`` and not positive at ``bracket_hi``, so the sign change
    lies in ``(bracket_lo, bracket_hi]``.  ``psi_hi`` is exactly 0.0 where
    Psi vanishes on the end point (power ``psi2`` at m = 1, p = 1 has
    ``bracket_hi = 0.2``), so the two signs are not always strictly opposite.
    Both values are Psi as evaluated in double precision.
    """

    radius: float
    bracket_lo: float
    bracket_hi: float
    psi_lo: float
    psi_hi: float
    scan_step: float


def psi_eval(prob: RadiusProblem, r):
    """The family's radius function, positive in the validity regime."""
    psi = FAMILIES[prob.family].psi
    return _on_grid(r, lambda rs: psi(prob.params, prob.weights, rs, rs ** prob.params.m))


def solve_radius(prob: RadiusProblem) -> RootCertificate:
    """Certified minimal positive root of the family's Psi function.

    Scans the grid ``0, SCAN_STEP, 2*SCAN_STEP, ..., R_EDGE`` upward for
    the first sign change, then bisects that cell.  Where a weighted
    family reads scaled-power weights the grid goes in chunks of
    ``_SCAN_CHUNK`` cells and the scan stops in the first chunk whose
    values change sign; consecutive chunks share their boundary point, so
    every grid cell is examined.  The bisection evaluates
    ``_BISECT_LEVELS`` steps per call on the bracket's dyadic midpoints
    and replays the steps on them; a scaled-power batch whose points do
    not share one tail cut is split into calls that do, so the
    certificate is the one a step-by-step bisection gives.  Raises
    :class:`DomainError` when Psi(0) is not positive and
    :class:`NoRootError` when Psi keeps its sign on the whole evaluation
    domain.
    """
    # a scaled-power tail costs in proportion to the largest r it is asked
    # for; a closed-form Psi costs one call whatever the grid
    scaled = FAMILIES[prob.family].weighted and prob.weights.kind == wt.SCALED_POWER
    chunk = _SCAN_CHUNK if scaled else _SCAN_GRID.size - 1
    for start in range(0, _SCAN_GRID.size - 1, chunk):
        cells = _SCAN_GRID[start:start + chunk + 1]
        vals = psi_eval(prob, cells)
        if start == 0 and not vals[0] > 0.0:
            raise DomainError(f"{prob.family}: Psi(0) = {float(vals[0])!r} is not positive")
        flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0)[0]
        flip = flip[np.sign(vals[flip]) != np.sign(vals[flip + 1])]
        if flip.size:
            break
    else:
        raise NoRootError(f"no sign change of {prob.family} on (0, {wt.R_EDGE})")
    i = int(flip[0])
    lo, hi = float(cells[i]), float(cells[i + 1])
    flo, fhi = float(vals[i]), float(vals[i + 1])
    while hi - lo > BRACKET_WIDTH:
        # replay _BISECT_LEVELS steps of the sequential bisection on one batch
        pts = _dyadic_points(lo, hi)
        fs = _bisect_values(prob, pts[1:-1], scaled)
        a, b = 0, pts.size - 1
        while b - a > 1 and hi - lo > BRACKET_WIDTH:
            k = (a + b) // 2
            mid, fm = float(pts[k]), fs[k - 1]
            if np.sign(fm) == np.sign(flo):
                a, lo, flo = k, mid, fm
            else:
                b, hi, fhi = k, mid, fm
    return RootCertificate(0.5 * (lo + hi), lo, hi, flo, fhi, SCAN_STEP)


def _dyadic_points(lo: float, hi: float) -> np.ndarray:
    """lo, the 2**_BISECT_LEVELS - 1 dyadic midpoints of (lo, hi) and hi,
    built level by level with the bisection's own ``0.5 * (a + b)``, so
    that ``pts[(i + j) // 2]`` is the midpoint of ``pts[i]`` and ``pts[j]``
    for every bracket the bisection can reach."""
    n = 2 ** _BISECT_LEVELS
    pts = np.empty(n + 1)
    pts[0], pts[n] = lo, hi
    step = n
    while step > 1:
        half = step // 2
        pts[half::step] = 0.5 * (pts[:-half:step] + pts[step::step])
        step = half
    return pts


def _bisect_values(prob: RadiusProblem, mids: np.ndarray, scaled: bool) -> list:
    """Psi at each of the ascending midpoints, each equal to its value on
    a one-point grid.  A scaled-power tail cuts its sum at an index set by
    the grid's largest r, so a batch is one call only where the cut at
    its first and last point agree (the cut is nondecreasing in r > 0);
    otherwise each run of equal cut is its own call.  Power weights and
    closed-form Psi always take one call."""
    w = prob.weights
    if not scaled or w._tail_cut(mids[0]) == w._tail_cut(mids[-1]):
        return psi_eval(prob, mids).tolist()
    out = []
    for _, run in itertools.groupby(mids.tolist(), w._tail_cut):
        out += psi_eval(prob, np.array(list(run))).tolist()
    return out


def classical_crosscheck(m: int, p_case: int):
    """Pair each classical polynomial radius with its Psi specialization.

    Returns a list of ``(classical_family, classical_root, psi_root)``
    triples; the contract is agreement to 1e-10.  The theorem-C and
    theorem-D pairs do not depend on m and are attached to the m = 1,
    p_case = 1 call.
    """
    if not 1 <= m <= 8:
        raise DomainError("m must lie in 1..8")
    if p_case not in (1, 2):
        raise DomainError("p_case must be 1 or 2")
    pw = wt.power()
    p = float(p_case)
    pairs = [("classical_alpha" if p_case == 1 else "classical_beta", "psi1"),
             ("classical_zeta" if p_case == 1 else "classical_eta", "psi2")]
    out = []
    for classical, psi in pairs:
        params = FunctionalParams(m=m, p=p)
        rc = solve_radius(RadiusProblem(classical, params)).radius
        rp = solve_radius(RadiusProblem(psi, params, pw)).radius
        out.append((classical, rc, rp))
    if m == 1 and p_case == 1:
        # theorem C's radius equation is the p = 1 specialization (its first
        # functional term carries |a_1| to the first power)
        rc = solve_radius(RadiusProblem("classical_c", FunctionalParams(), pw)).radius
        rp = solve_radius(RadiusProblem("psi3", FunctionalParams(p=1.0), pw)).radius
        out.append(("classical_c", rc, rp))
        params = FunctionalParams(m=1, p=1.0, lam=1.0, n_lacunary=1)
        rc = solve_radius(RadiusProblem("classical_d", params)).radius
        rp = solve_radius(RadiusProblem("psi5_t5", params)).radius
        out.append(("classical_d", rc, rp))
    return out
