"""Truncated power series for analytic self-maps of the unit disk.

A :class:`BoundedFunction` stores finitely many Taylor coefficients plus a
certified bound on every discarded coefficient, so downstream sums can
account for truncation honestly.  The extremal families used in the
sharpness arguments (disk automorphisms and their Schwarz variant) have
closed-form coefficients; finite Blaschke products provide randomizable
members for property testing.  A Blaschke product is cut where Cauchy's
estimate bounds every later coefficient by 1e-25, and that bound, padded
for the rounding of float log and exp, is its tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

T_MAX = 200_000
EVAL_EDGE = 1.0 - 1e-6
SP_COEFF_SLACK = 1e-12

BLASCHKE_ORDER = 4096
BLASCHKE_ZERO_RADIUS = 0.9
MAX_BLASCHKE_DEGREE = 16

_MOEBIUS_TAIL_TARGET = 1e-15
_BLASCHKE_TAIL_TARGET = 1e-25
_CAUCHY_PAD = 1e-6  # added to the exponent of a Blaschke tail bound
_CAUCHY_T = np.linspace(0.0, 1.0, 51)[1:-1]  # R = 1 + t (min(1/max|z_k|, 1e6) - 1)
# series evaluation drops terms once they are below this absolute size
_EVAL_NEGLIGIBLE = 1e-19


@dataclass(frozen=True, eq=False)
class BoundedFunction:
    """A disk self-map given by coefficients a_0..a_T and a tail bound.

    The tail bound M certifies |a_n| <= M for every n > T.
    """

    coeffs: np.ndarray
    tail_bound: float
    family_tag: str = "custom"

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 2:
            raise DomainError("coefficients must be a 1-d array a0..aT with T >= 1")
        if not np.all(np.isfinite(c)):
            raise DomainError("coefficients must be finite")
        mags = np.abs(c)
        if mags.max() > 1.0 + SP_COEFF_SLACK:
            raise DomainError("coefficient modulus exceeds 1; not a disk self-map")
        head = mags[0]
        if mags[1:].max(initial=0.0) > 1.0 - head * head + SP_COEFF_SLACK:
            raise DomainError("coefficients violate the |a_n| <= 1 - |a_0|**2 bound")
        if not (0.0 <= self.tail_bound <= 1.0):
            raise DomainError("tail bound must lie in [0, 1]")
        object.__setattr__(self, "coeffs", c)

    @property
    def truncation_order(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self):  # keep reprs short; coefficient arrays can be huge
        return (f"BoundedFunction(tag={self.family_tag!r}, "
                f"T={self.truncation_order}, tail_bound={self.tail_bound:.3g})")


def _moebius(a: float, sign: float, shift: int, name: str) -> BoundedFunction:
    """z**shift * (a + sign z) / (1 + sign a z): a at index shift, then
    sign * (1 - a**2) * (-sign a)**k, cut where the tail falls below
    _MOEBIUS_TAIL_TARGET (T = 1 at a = 0, where the map is sign z**(shift + 1))."""
    a = float(a)
    if not 0.0 <= a < 1.0:
        raise DomainError("family parameter must lie in [0, 1)")
    a = abs(a)  # -0.0 passes the range check; its sign would reach the coefficients
    T = 1 if a == 0.0 else int(min(max(64, math.ceil(
        math.log(_MOEBIUS_TAIL_TARGET / (1.0 - a * a)) / math.log(a))), T_MAX))
    coeffs = np.zeros(T + shift + 1, dtype=complex)
    coeffs[shift] = a
    coeffs[shift + 1:] = sign * (1.0 - a * a) * np.power(-sign * a, np.arange(T, dtype=float))
    return BoundedFunction(coeffs, (1.0 - a * a) * a ** T,
                           f"{name}({0 if a == 0.0 else a})")


def moebius_plus(a: float) -> BoundedFunction:
    """The automorphism (z + a) / (1 + a z)."""
    return _moebius(a, 1.0, 0, "moebius_plus")


def moebius_minus(a: float) -> BoundedFunction:
    """The automorphism (a - z) / (1 - a z)."""
    return _moebius(a, -1.0, 0, "moebius_minus")


def schwarz_moebius(a: float) -> BoundedFunction:
    """The Schwarz-class extremal z * (a - z) / (1 - a z)."""
    return _moebius(a, -1.0, 1, "schwarz_moebius")


def _blaschke_factor(zero: complex, length: int) -> np.ndarray:
    """At most length Taylor coefficients of (zero - z) / (1 - conj(zero) z),
    trimmed where the geometric decay makes further terms numerically silent."""
    mag = abs(zero)
    if mag == 0.0:
        return np.array([0.0, -1.0], dtype=complex)
    length = min(length, max(2, math.ceil(math.log(_BLASCHKE_TAIL_TARGET) / math.log(mag)) + 2))
    c = np.empty(length, dtype=complex)
    c[0] = zero
    c[1:] = (mag * mag - 1.0) * np.conj(zero) ** np.arange(length - 1, dtype=float)
    return c


def _blaschke_cut(mags: np.ndarray) -> tuple[int, float]:
    """The order T at which a Blaschke product with zero moduli mags is cut,
    and a bound on each coefficient above T: on |z| = R < 1/max(mags),
    |B| <= M(R) = prod (R + |z_k|)/(1 - |z_k| R), so |b_n| <= M(R) R**-n."""
    rho = float(mags.max())
    if rho == 0.0:  # B = +-z**d
        return mags.size, 0.0
    R = 1.0 + _CAUCHY_T[:, None] * (min(1.0 / rho, 1e6) - 1.0)
    log_m = np.log((R + mags) / (1.0 - R * mags)).sum(axis=1)
    log_r = np.log(R[:, 0])
    need = np.ceil((log_m + 2.0 * _CAUCHY_PAD - math.log(_BLASCHKE_TAIL_TARGET)) / log_r) - 1.0
    T = int(max(1.0, min(need.min(), BLASCHKE_ORDER)))
    return T, math.exp(float((log_m - (T + 1) * log_r).min()) + _CAUCHY_PAD)


def blaschke(zeros, rotation: complex = 1.0) -> BoundedFunction:
    """Finite Blaschke product with the given zeros and unimodular rotation,
    cut at the first order T <= BLASCHKE_ORDER whose Cauchy bound over 49
    radii R is at most 1e-25.  That bound is its tail bound: float log and
    exp are assumed to err by a few ulps, which moves its exponent by under
    1e-10 (as 1 - |z_k| R >= 0.002), and the exponent is raised by 1e-6."""
    zeros = np.asarray(zeros, dtype=complex)
    if zeros.ndim != 1 or not 1 <= zeros.size <= MAX_BLASCHKE_DEGREE:
        raise DomainError(f"need between 1 and {MAX_BLASCHKE_DEGREE} zeros")
    if not np.all(np.abs(zeros) <= BLASCHKE_ZERO_RADIUS + 1e-12):  # NaN fails it
        raise DomainError(f"Blaschke zeros must satisfy |z| <= {BLASCHKE_ZERO_RADIUS}")
    rot = complex(rotation)
    if not 0.0 < abs(rot) < math.inf:  # NaN fails it
        raise DomainError("rotation must be nonzero and finite")
    rot /= abs(rot)
    T, tail = _blaschke_cut(np.abs(zeros))
    prod = np.array([1.0 + 0.0j])
    for zero in zeros:
        prod = np.convolve(prod, _blaschke_factor(zero, T + 1))[: T + 1]
    return BoundedFunction(rot * prod, tail, f"blaschke(deg={zeros.size})")


def random_blaschke(degree: int, seed: int) -> BoundedFunction:
    """Seeded random Blaschke product; zeros uniform in |z| <= 0.9."""
    if not 1 <= degree <= MAX_BLASCHKE_DEGREE:
        raise DomainError(f"degree must lie in 1..{MAX_BLASCHKE_DEGREE}")
    rng = np.random.default_rng(seed)
    radii = BLASCHKE_ZERO_RADIUS * np.sqrt(rng.uniform(size=degree))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=degree)
    rotation = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return blaschke(radii * np.exp(1j * angles), rotation)


def multiply_by_z(f: BoundedFunction) -> BoundedFunction:
    """The Schwarz function z * f(z)."""
    coeffs = np.concatenate([[0.0 + 0.0j], f.coeffs])
    return BoundedFunction(coeffs, f.tail_bound, f"z*{f.family_tag}")


def _eval_points(z) -> np.ndarray:
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(np.abs(zs) > EVAL_EDGE):
        raise DomainError(f"evaluation point outside |z| <= {EVAL_EDGE}")
    return zs


def _eval_cutoff(f: BoundedFunction, amax: float) -> int:
    size = f.coeffs.size
    if amax <= 0.0:
        return 1
    cut = math.ceil(math.log(_EVAL_NEGLIGIBLE * (1.0 - amax)) / math.log(amax)) + 8
    return min(size, max(2, cut))


def evaluate(f: BoundedFunction, z):
    """Series value of f at z (scalar or 1-d array), |z| <= 1 - 1e-6.

    Absolute error is at most tail_bound * |z|**(T+1) / (1 - |z|) plus the
    numerically silent terms dropped below 1e-19.
    """
    zs = _eval_points(z)
    n_eff = _eval_cutoff(f, float(np.abs(zs).max()))
    powers = np.power(zs[None, :], np.arange(n_eff, dtype=float)[:, None])
    vals = f.coeffs[:n_eff] @ powers
    return complex(vals[0]) if np.ndim(z) == 0 else vals


def eval_derivative(f: BoundedFunction, z):
    """Series value of f' at z via coefficient differentiation."""
    zs = _eval_points(z)
    n_eff = max(2, _eval_cutoff(f, float(np.abs(zs).max())))
    ns = np.arange(1, n_eff, dtype=float)
    powers = np.power(zs[None, :], (ns - 1.0)[:, None])
    vals = (ns * f.coeffs[1:n_eff]) @ powers
    return complex(vals[0]) if np.ndim(z) == 0 else vals

