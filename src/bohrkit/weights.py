"""Weight sequences with certified (overestimating) tails.

Two kinds are supported:

* ``scaled_power``: ``w_n(r) = c_n * r**n`` with a declared geometric
  dominator ``c_n <= C * rho**n``.  Beyond the stored coefficient list the
  dominator itself is used, so every tail is a certified overestimate.
  The check is made in doubles with a relative slack of 1e-15; where a
  coefficient uses the slack, C is raised to the smallest double for
  which every ``c_n <= C * rho**n`` holds in doubles.
* ``power``: the classical basis ``w_n(r) = r**n``, which is the scaled
  rule with rho = C = 1 and nothing stored.  Its tails take the dominator's
  exact closed forms.

Overestimating tails is the conservative direction: the radius equations
consume tails negatively, so reported radii can only shrink.

A scaled-power tail adds its stored terms from the last index down, as
the reversed cumsum of its suffix matrix does.  A tail from one start on
two or more radii skips that matrix: ``np.add.reduce`` over the start's
rows, last index first, adds them into the result one row at a time, in
the cumsum's own order, so its bits are the suffix row's.  Both paths
build the terms with the same ``np.power`` call, whose rounding can
depend on the array's shape.  On one radius numpy would add the column
pairwise, so a one-point grid keeps the suffix matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError

R_EDGE = 1.0 - 1e-6
MAX_COEFFS = 4096

# absolute size below which a dominated term cannot affect 1e-12 contracts
_NEGLIGIBLE = 1e-18

POWER = "power"
SCALED_POWER = "scaled_power"
# the last four file texts read and their weights, found by ==: a new text's hash costs more
_TEXTS: list = []


def _reject_bools(*values):
    """DomainError for a bool, or a list or array that holds one, which
    numpy would read as the number 0 or 1."""
    for x in values:
        a = x if isinstance(x, np.ndarray) else np.array(x, dtype=object)
        if a.dtype == bool or (a.dtype == object and {bool, np.bool_} & set(map(type, a.flat))):
            raise DomainError("weight coefficients, rho and C must be numbers, not bools")


def _as_r(r) -> np.ndarray:
    rs = np.atleast_1d(np.asarray(r, dtype=float))
    if rs.size == 0:
        raise DomainError("empty radius grid")
    if not (rs.min() >= 0.0 and rs.max() <= R_EDGE):  # NaN fails both
        raise DomainError(f"radius outside [0, {R_EDGE}]")
    return rs


def _as_n(n, minimum: int) -> np.ndarray:
    ns = np.atleast_1d(np.asarray(n))
    if not np.issubdtype(ns.dtype, np.integer):
        # bools, NaN, +-inf and floats or Python ints (numpy's objects) past int64 fail it
        if ns.dtype == bool or not ((np.abs(ns) < 2.0 ** 63).all() and (ns == np.floor(ns)).all()):
            raise DomainError("index must be an integer inside the int64 range")
        ns = ns.astype(int)
    if (ns < minimum).any():
        raise DomainError(f"index must be >= {minimum}")
    return ns


def _squeeze(out: np.ndarray, n, r):
    out = out.reshape(np.shape(n) + np.shape(r))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class WeightSequence:
    """A sequence of nonnegative weight functions on [0, 1).

    Construct through :func:`power`, :func:`scaled_power` or
    :func:`from_json` rather than directly.
    """

    kind: str
    coeffs: np.ndarray | None = None
    rho: float = 1.0
    C: float = 1.0

    def __post_init__(self):
        if self.kind not in (POWER, SCALED_POWER):
            raise DomainError(f"unknown weight kind {self.kind!r}")
        if self.kind == POWER:
            if self.coeffs is not None or (self.rho, self.C) != (1.0, 1.0):
                raise DomainError("power weights take no coefficients, rho or C")
        else:
            c = np.array(self.coeffs, dtype=float)  # a copy: the caller's array may change
            c.flags.writeable = False
            if c.ndim != 1 or c.size < 1:
                raise DomainError("scaled_power needs a 1-d coefficient list")
            if c.size > MAX_COEFFS:
                raise DomainError(f"coefficient list longer than {MAX_COEFFS}")
            if not (np.all(np.isfinite(c)) and math.isfinite(self.rho)
                    and math.isfinite(self.C)):
                raise DomainError("weight coefficients, rho and C must be finite")
            if np.any(c < 0.0):
                raise DomainError("weight coefficients must be nonnegative")
            if not (0.0 < self.rho <= 1.0):
                raise DomainError("rho must lie in (0, 1]")
            if self.C < 0.0:
                raise DomainError("dominator constant must be nonnegative")
            powers = self.rho ** np.arange(c.size)
            # a relative slack of a few ulps, as a coefficient built as
            # f*C*rho**n can round above the same product here
            if np.any(c * (1.0 - 1e-15) > self.C * powers):
                raise DomainError("coefficients exceed the declared dominator C*rho**n")
            C = self.C
            while np.any(c > C * powers):  # C rises to dominate in these products
                C = math.nextafter(C, math.inf)
                if C == math.inf:
                    raise DomainError("the dominator C*rho**n overflows a double")
            object.__setattr__(self, "coeffs", c)
            object.__setattr__(self, "C", C)

    # -- basic descriptors ------------------------------------------------

    @property
    def _phi0(self) -> float:
        """w_0(r) = c_0 * r**0, which is c_0 at every r: 0.0 ** 0.0 is 1.0."""
        return 1.0 if self.kind == POWER else self.coeffs[0]

    # -- public operations ------------------------------------------------

    def weight_at(self, n, r):
        """The n-th weight at radius r.  Broadcasts over 1-d n and r."""
        ns, rs = _as_n(n, 0), _as_r(r)
        out = self._weight2(ns, rs)
        return _squeeze(out, n, r)

    def tail(self, N, r):
        """Certified overestimate of the weight mass from index N on."""
        Ns, rs = _as_n(N, 0), _as_r(r)
        out = self._tail2(Ns, rs, weighted=False)
        return _squeeze(out, N, r)

    def weighted_tail(self, N, r):
        """Certified overestimate of ``sum_{n>=N} (n+1) w_n(r)``."""
        Ns, rs = _as_n(N, 1), _as_r(r)
        out = self._tail2(Ns, rs, weighted=True)
        return _squeeze(out, N, r)

    # -- 2-d internals (shape: len(ns) x len(rs)) -------------------------

    def _coeff_eff(self, ns: np.ndarray) -> np.ndarray:
        """Effective series coefficient: the dominator bound C * rho**n,
        replaced by the stored value inside the list.  Power weights store
        none, and their C * 1.0**n is exactly 1.0."""
        out = self.C * self.rho ** ns.astype(float)
        if self.coeffs is not None:
            inside = ns < self.coeffs.size
            out[inside] = self.coeffs[ns[inside]]
        return out

    def _weight2(self, ns: np.ndarray, rs: np.ndarray) -> np.ndarray:
        powers = np.power(rs[None, :], ns[:, None].astype(float))
        powers *= self._coeff_eff(ns)[:, None]
        return powers

    def _geom_tail(self, starts: np.ndarray, x: np.ndarray, weighted: bool) -> np.ndarray:
        """Tail of the dominating geometric series from the given start
        indices; starts broadcasts against x."""
        s = starts.astype(float)
        lead = x ** s  # 0.0 ** 0.0 is 1.0: the term at x = 0
        lead *= self.C  # in place, as below, to hold fewer tails-sized arrays
        if weighted:
            lead *= (s + 1.0) - s * x
            lead /= (1.0 - x) ** 2
        else:
            lead /= 1.0 - x
        return lead

    def _tail_cut(self, rmax: float) -> int:
        """How many stored terms a scaled-power tail sums on a grid whose
        largest radius is rmax; beyond them the dominated terms are
        numerically silent.  Nondecreasing in rmax > 0."""
        L = self.coeffs.size
        xmax = self.rho * rmax
        if not 0.0 < xmax < 1.0:
            return L
        scale = _NEGLIGIBLE * (1.0 - xmax) / max(self.C, _NEGLIGIBLE)
        if scale == 0.0:  # C past about 2e305: no term is silent
            return L
        return min(L, max(1, math.ceil(math.log(scale) / math.log(xmax)) + 8))

    def _tail2(self, Ns: np.ndarray, rs: np.ndarray, weighted: bool) -> np.ndarray:
        if self.kind == POWER:
            return self._geom_tail(Ns[:, None], rs[None, :], weighted)
        L_eff = self._tail_cut(float(rs.max()))
        n = np.arange(L_eff)
        # row L_eff stays 0: a start past the cut keeps the geometric tail alone
        M = np.zeros((L_eff + 1, rs.size))
        np.power(rs[None, :], n[:, None].astype(float), out=M[:L_eff])
        M[:L_eff] *= self.coeffs[:L_eff, None]
        if weighted:
            M[:L_eff] *= (n + 1.0)[:, None]
        if Ns.size == 1 < rs.size:
            # the one suffix row the cumsum below gives, added in its order
            head = np.add.reduce(M[Ns[0]:L_eff][::-1])[None]
        else:
            np.cumsum(M[L_eff - 1::-1], axis=0, out=M[L_eff - 1::-1])
            head = M[np.minimum(Ns, L_eff)]
        del M
        head += self._geom_tail(np.maximum(Ns, L_eff)[:, None], self.rho * rs[None, :], weighted)
        return head


def power() -> WeightSequence:
    """The classical power-weight sequence r**n: one shared instance, which
    is immutable, so the scan tails its first solves keep serve every caller."""
    return _POWER


_POWER = WeightSequence(POWER)


def scaled_power(coeffs, rho: float = 1.0, C: float = 1.0) -> WeightSequence:
    """Weights c_n * r**n with declared dominator c_n <= C * rho**n; a bool
    rho, C or coefficient is refused, not read as 1.0 or 0.0."""
    _reject_bools(coeffs, rho, C)
    try:
        coeffs, rho, C = np.asarray(coeffs, dtype=float), float(rho), float(C)
    except (TypeError, ValueError, OverflowError):  # an int too large for a double
        raise DomainError("weight coefficients, rho and C must be numbers") from None
    return WeightSequence(SCALED_POWER, coeffs=coeffs, rho=rho, C=C)


def from_json(source) -> WeightSequence:
    """Load a weight sequence from a JSON document or file path.

    Expected schema::

        {"kind": "scaled_power", "coeffs": [...], "rho": 0.9, "C": 2.0}

    ``{"kind": "power"}`` returns :func:`power`'s shared instance, with no
    other field but ``"rho": 1`` or ``"C": 1``.  A file is read on every call;
    a text among the last four read returns the same (immutable) instance.
    """
    if isinstance(source, (str, Path)):
        try:
            text = Path(source).read_text()
            w = (next((kept for seen, kept in _TEXTS if seen == text), None)
                 or _from_document(json.loads(text)))
        except DomainError:  # a ValueError too: the document was read but is invalid
            raise
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read weight JSON {str(source)!r}: {exc}") from None
        _TEXTS[:] = [(seen, v) for seen, v in _TEXTS if v is not w][-3:] + [(text, w)]
        return w
    return _from_document(source)


def _from_document(obj) -> WeightSequence:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("weight JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == POWER:
        _reject_bools(obj.get("rho"), obj.get("C"))
        WeightSequence(POWER, obj.get("coeffs"), obj.get("rho", 1.0), obj.get("C", 1.0))
        return power()  # its fields checked, the one shared instance
    if kind == SCALED_POWER:
        try:
            return scaled_power(obj["coeffs"], obj.get("rho", 1.0), obj.get("C", 1.0))
        except KeyError as exc:
            raise DomainError(f"weight JSON missing field {exc}") from exc
    raise DomainError(f"unknown weight kind {kind!r}")
