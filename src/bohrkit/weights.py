"""Weight sequences with certified (overestimating) tails.

Two kinds are supported:

* ``power``: the classical basis ``w_n(r) = r**n``, with rho = C = 1 and
  no stored coefficients.  Tails have exact closed forms.
* ``scaled_power``: ``w_n(r) = c_n * r**n`` with a declared geometric
  dominator ``c_n <= C * rho**n``.  Beyond the stored coefficient list the
  dominator itself is used, so every tail is a certified overestimate.

Overestimating tails is the conservative direction: the radius equations
consume tails negatively, so reported radii can only shrink.
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
        if not (ns == np.floor(ns)).all():
            raise DomainError("index must be an integer")
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
            c = np.asarray(self.coeffs, dtype=float)
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
            bound = self.C * self.rho ** np.arange(c.size)
            if np.any(c > bound + 1e-12):
                raise DomainError("coefficients exceed the declared dominator C*rho**n")
            object.__setattr__(self, "coeffs", c)

    # -- basic descriptors ------------------------------------------------

    def ratio(self, r: float) -> float:
        """Geometric ratio bounding w_{n+1}/w_n from above at radius r."""
        return self.rho * float(r)

    @property
    def dominator(self) -> float:
        return self.C

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
        """Effective series coefficient: stored value inside the list, the
        dominator bound beyond it."""
        if self.kind == POWER:
            return np.ones(ns.shape)
        L = self.coeffs.size
        inside = ns < L
        out = np.where(inside, self.coeffs[np.minimum(ns, L - 1)], 0.0)
        beyond = ~inside
        if beyond.any():
            out = out + np.where(beyond, self.C * self.rho ** ns.astype(float), 0.0)
        return out

    def _weight2(self, ns: np.ndarray, rs: np.ndarray) -> np.ndarray:
        powers = np.power(rs[None, :], ns[:, None].astype(float))
        return self._coeff_eff(ns)[:, None] * powers

    def _geom_tail(self, starts: np.ndarray, x: np.ndarray, weighted: bool) -> np.ndarray:
        """Tail of the dominating geometric series from the given start
        indices; starts broadcasts against x."""
        s = starts.astype(float)
        lead = self.dominator * x ** s  # 0.0 ** 0.0 is 1.0: the term at x = 0
        if weighted:
            return lead * ((s + 1.0) - s * x) / (1.0 - x) ** 2
        return lead / (1.0 - x)

    def _tail_cut(self, rmax: float) -> int:
        """How many stored terms a scaled-power tail sums on a grid whose
        largest radius is rmax; beyond them the dominated terms are
        numerically silent.  Nondecreasing in rmax > 0."""
        L = self.coeffs.size
        xmax = self.rho * rmax
        if not 0.0 < xmax < 1.0:
            return L
        cut = math.log(_NEGLIGIBLE * (1.0 - xmax) / max(self.C, _NEGLIGIBLE))
        return min(L, max(1, math.ceil(cut / math.log(xmax)) + 8))

    def _tail2(self, Ns: np.ndarray, rs: np.ndarray, weighted: bool) -> np.ndarray:
        if self.kind == POWER:
            return self._geom_tail(Ns[:, None], rs[None, :], weighted)
        x = self.rho * rs
        L_eff = self._tail_cut(float(rs.max()))
        n = np.arange(L_eff)
        M = self.coeffs[:L_eff, None] * np.power(rs[None, :], n[:, None].astype(float))
        if weighted:
            M = M * (n + 1.0)[:, None]
        suffix = np.zeros((L_eff + 1, rs.size))
        suffix[:L_eff] = np.cumsum(M[::-1], axis=0)[::-1]
        # suffix[L_eff] is 0: a start past the cut keeps the geometric tail alone
        starts = np.maximum(Ns, L_eff)[:, None]
        return suffix[np.minimum(Ns, L_eff)] + self._geom_tail(starts, x[None, :], weighted)


def power() -> WeightSequence:
    """The classical power-weight sequence r**n."""
    return WeightSequence(POWER)


def scaled_power(coeffs, rho: float = 1.0, C: float = 1.0) -> WeightSequence:
    """Weights c_n * r**n with declared dominator c_n <= C * rho**n."""
    try:
        coeffs, rho, C = np.asarray(coeffs, dtype=float), float(rho), float(C)
    except (TypeError, ValueError):
        raise DomainError("weight coefficients, rho and C must be numbers") from None
    return WeightSequence(SCALED_POWER, coeffs=coeffs, rho=rho, C=C)


def from_json(source) -> WeightSequence:
    """Load a weight sequence from a JSON document or file path.

    Expected schema::

        {"kind": "scaled_power", "coeffs": [...], "rho": 0.9, "C": 2.0}

    ``{"kind": "power"}`` is accepted as well, with no other field but
    ``"rho": 1`` or ``"C": 1``.
    """
    if isinstance(source, (str, Path)):
        try:
            obj = json.loads(Path(source).read_text())
        except (OSError, ValueError) as exc:
            raise DomainError(f"cannot read weight JSON {str(source)!r}: {exc}") from None
    else:
        obj = source
    if not isinstance(obj, dict) or "kind" not in obj:
        raise DomainError("weight JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == POWER:
        return WeightSequence(POWER, obj.get("coeffs"), obj.get("rho", 1.0), obj.get("C", 1.0))
    if kind == SCALED_POWER:
        try:
            return scaled_power(obj["coeffs"], obj.get("rho", 1.0), obj.get("C", 1.0))
        except KeyError as exc:
            raise DomainError(f"weight JSON missing field {exc}") from exc
    raise DomainError(f"unknown weight kind {kind!r}")
