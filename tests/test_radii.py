"""Radius functions, certified roots, and classical cross-checks."""

import math
from dataclasses import replace
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bohrkit import (DomainError, FunctionalParams, NoRootError,
                     RadiusProblem, classical_crosscheck, power, psi_eval,
                     radii, scaled_power, solve_radius)
from bohrkit import weights as wt
from bohrkit.functionals import FAMILIES
from bohrkit.weights import R_EDGE

PW = power()
# c_n = 1/(n+1): the weighted tail is r/(1-r), so the psi3 root is p/(2+p)
HARMONIC = scaled_power(1.0 / (np.arange(4096) + 1.0), rho=1.0, C=1.0)
# puts the psi3 p = 2 root late, near 0.9763
LATE = scaled_power(0.3 ** np.arange(64), rho=0.3, C=1.0)

GOLDEN = math.sqrt(5.0) - 2.0


def prob(family, w=None, **kw):
    return RadiusProblem(family, FunctionalParams(**kw), w)


class TestPsiEval:
    def test_psi1_at_origin(self):
        assert psi_eval(prob("psi1", PW, m=1, p=1.0), 0.0) == pytest.approx(1.0)

    def test_psi1_closed_form(self):
        rs = np.linspace(0.0, 0.9, 33)
        want = (1 - rs) / (1 + rs) - 2 * rs / (1 - rs)
        got = psi_eval(prob("psi1", PW, m=1, p=1.0), rs)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_psi2_zero_at_third(self):
        val = psi_eval(prob("psi2", PW, m=1, p=2.0), 1.0 / 3.0)
        assert abs(val) < 1e-12

    def test_positive_at_origin_all_families(self):
        families = {
            "psi1": prob("psi1", PW), "psi2": prob("psi2", PW),
            "psi3": prob("psi3", PW), "psi4": prob("psi4", PW),
            "psi5_t5": prob("psi5_t5"), "psi5_t6": prob("psi5_t6", m=1, q=2),
            "classical_alpha": prob("classical_alpha"),
            "classical_beta": prob("classical_beta"),
            "classical_zeta": prob("classical_zeta"),
            "classical_eta": prob("classical_eta"),
            "classical_c": prob("classical_c", PW),
            "classical_d": prob("classical_d"),
        }
        for name, pr in families.items():
            assert psi_eval(pr, 0.0) > 0.0, name


# each weighted Psi written through the public, validating weight methods
PUBLIC_PSI = {
    "psi1": lambda pm, w, rs, x: (pm.p * (1.0 - x) / (1.0 + x) * w.weight_at(0, rs)
                                  - 2.0 * w.tail(1, rs)),
    "psi2": lambda pm, w, rs, x: (0.5 * pm.p * w.weight_at(0, rs) - w.tail(1, rs)
                                  - x / (1.0 - x)),
    "psi3": lambda pm, w, rs, x: 0.5 * pm.p * w.weight_at(0, rs) - w.weighted_tail(1, rs),
    "psi4": lambda pm, w, rs, x: (0.5 * pm.p * w.weight_at(0, rs) - w.weighted_tail(1, rs)
                                  - x * (2.0 - x) / (1.0 - x) ** 2),
    "classical_c": lambda pm, w, rs, x: w.weight_at(0, rs) - 2.0 * w.weighted_tail(1, rs),
}
# power weights, c_n = 1/(n+1), and a weight with rho < 1 and C > 1
LEAN_WEIGHTS = [PW, HARMONIC, scaled_power(1.5 * 0.9 ** np.arange(40), rho=0.9, C=2.0)]


class TestLeanPsi:
    def test_every_weighted_family_listed(self):
        assert set(PUBLIC_PSI) == {k for k, fam in FAMILIES.items() if fam.weighted}

    @pytest.mark.parametrize("w", LEAN_WEIGHTS)
    @pytest.mark.parametrize("family", list(PUBLIC_PSI))
    def test_equals_public_formula(self, family, w):
        params = FunctionalParams(m=2, p=1.5)
        if FAMILIES[family].p is not None:
            params = replace(params, p=FAMILIES[family].p)
        pr = RadiusProblem(family, params, w)
        chunk = np.linspace(0.0, 64 * radii.SCAN_STEP, 65) + 0.3
        assert np.array_equal(psi_eval(pr, chunk),
                              PUBLIC_PSI[family](params, w, chunk, chunk ** 2))
        for r in (0.0, 0.3, 0.8):
            # psi_eval computes a scalar on the one-point grid [r]
            rs = np.array([r])
            assert psi_eval(pr, r) == PUBLIC_PSI[family](params, w, rs, rs ** 2)[0]

    @pytest.mark.parametrize("w", LEAN_WEIGHTS)
    @pytest.mark.parametrize("family", list(PUBLIC_PSI))
    def test_one_grid_check_per_psi_eval(self, monkeypatch, family, w):
        calls = []
        as_r = wt._as_r
        monkeypatch.setattr(wt, "_as_r", lambda r: calls.append(r) or as_r(r))
        pr = prob(family, w)
        psi_eval(pr, 0.3)
        psi_eval(pr, np.linspace(0.0, 0.064, 65))
        assert len(calls) == 2

    @pytest.mark.parametrize("r", [float("nan"), [0.1, float("nan")]])
    def test_nan_radius_rejected(self, r):
        for pr in (prob("psi3", HARMONIC), prob("psi1", PW), prob("psi5_t5")):
            with pytest.raises(DomainError, match="radius outside"):
                psi_eval(pr, r)


class TestSolveRadius:
    def test_psi1_p1(self):
        assert solve_radius(prob("psi1", PW, m=1, p=1.0)).radius == \
            pytest.approx(GOLDEN, abs=1e-12)

    def test_psi1_p2(self):
        assert solve_radius(prob("psi1", PW, m=1, p=2.0)).radius == \
            pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_psi2_p1(self):
        assert solve_radius(prob("psi2", PW, m=1, p=1.0)).radius == \
            pytest.approx(0.2, abs=1e-12)

    def test_psi3_p2(self):
        # root of 2r^2 - 4r + 1 = 0
        assert solve_radius(prob("psi3", PW, p=2.0)).radius == \
            pytest.approx(1.0 - math.sqrt(2.0) / 2.0, abs=1e-10)

    def test_classical_d(self):
        # lambda = 1, n = 1: r^2 + 4r - 1 = 0
        assert solve_radius(prob("classical_d", lam=1.0)).radius == \
            pytest.approx(GOLDEN, abs=1e-12)

    def test_certificate_invariants(self):
        # psi2 at m = 1, p = 1 has psi_hi == 0.0 at bracket_hi = 0.2
        for problem in (prob("psi2", PW, m=2, p=1.5), prob("psi2", PW, m=1, p=1.0)):
            cert = solve_radius(problem)
            assert cert.bracket_hi - cert.bracket_lo <= 1e-13
            assert cert.bracket_lo <= cert.radius <= cert.bracket_hi
            assert cert.psi_lo > 0.0 >= cert.psi_hi
            assert 0.0 < cert.radius < 1.0

    def test_minimality_on_fine_grid(self):
        for pr in (prob("psi1", PW, m=2, p=1.0),
                   prob("psi5_t6", m=1, q=2, lam=0.5),
                   prob("classical_alpha", m=3)):
            cert = solve_radius(pr)
            grid = np.linspace(1e-9, cert.bracket_lo, 4096)
            assert np.all(psi_eval(pr, grid) > 0.0)

    def test_psi0_not_positive_rejected(self):
        # c_0 = 0 makes Psi3(0) = 0.5 * p * c_0 = 0
        w = scaled_power([0.0, 0.5, 0.25], rho=0.5, C=1.0)
        with pytest.raises(DomainError, match=r"Psi\(0\)"):
            solve_radius(prob("psi3", w))

    def test_no_root_raises(self):
        # a weight whose tail is numerically zero keeps Psi1 positive on
        # the whole evaluation domain
        w = scaled_power(np.r_[1.0, np.zeros(63)], rho=0.5, C=1.0)
        with pytest.raises(NoRootError):
            solve_radius(prob("psi1", w))

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            RadiusProblem("psi9")

    def test_missing_weights_rejected(self):
        with pytest.raises(DomainError):
            RadiusProblem("psi1")


def scan_grid():
    return radii._SCAN_GRID


class TestChunkedScan:
    @pytest.mark.parametrize("pr", [
        prob("psi1", PW, m=2, p=1.0),
        prob("psi5_t6", m=1, q=2, lam=0.5),
        prob("classical_alpha", m=3),
        *(prob(fam, HARMONIC, m=2, p=1.5)
          for fam in ("psi1", "psi2", "psi3", "psi4")),
        prob("psi3", LATE, p=2.0),
    ], ids=lambda pr: f"{pr.family}-{pr.weights and pr.weights.kind}")
    def test_bracket_in_first_sign_change_cell(self, pr):
        grid = scan_grid()
        vals = psi_eval(pr, grid)
        flips = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        i = int(flips[0])
        cert = solve_radius(pr)
        assert grid[i] <= cert.bracket_lo < cert.bracket_hi <= grid[i + 1]

    def test_late_root_value(self):
        assert solve_radius(prob("psi3", LATE, p=2.0)).radius == pytest.approx(0.9763, abs=1e-4)

    @pytest.mark.parametrize("cell_offset", (-1, 0))
    @pytest.mark.parametrize("chunks", (1, 2))
    def test_root_next_to_chunk_boundary(self, cell_offset, chunks):
        # the boundary point is shared by two chunks; a root in the cell on
        # either side of it must be found.  The psi3 root p/(2+p) is put in
        # that cell by p = 2r/(1-r).
        grid = scan_grid()
        k = chunks * radii._SCAN_CHUNK + cell_offset
        root = 0.5 * (grid[k] + grid[k + 1])
        cert = solve_radius(prob("psi3", HARMONIC, p=2.0 * root / (1.0 - root)))
        assert grid[k] <= cert.bracket_lo < cert.bracket_hi <= grid[k + 1]
        assert cert.radius == pytest.approx(root, abs=1e-12)

    @staticmethod
    def record_calls(monkeypatch):
        calls = []

        def recording_psi_eval(pr, r):
            calls.append(np.atleast_1d(np.asarray(r, dtype=float)))
            return psi_eval(pr, r)

        monkeypatch.setattr(radii, "psi_eval", recording_psi_eval)
        return calls

    @staticmethod
    def root_cell(cert):
        grid = scan_grid()
        i = int(np.searchsorted(grid, cert.bracket_lo, side="right")) - 1
        return grid[i], grid[i + 1]

    def test_scan_stops_after_root(self, monkeypatch):
        # scan calls hold only grid points; bisection calls lie strictly
        # inside the root's cell, so no point is both
        calls = self.record_calls(monkeypatch)
        cert = solve_radius(prob("psi3", HARMONIC, p=1.0))
        assert cert.radius == pytest.approx(1.0 / 3.0, abs=1e-12)
        on_grid = [np.isin(pts, scan_grid()).all() for pts in calls]
        scan = [pts.size for pts, g in zip(calls, on_grid) if g]
        # the root 1/3 lies in cell 333, in the sixth chunk of 64 cells
        assert scan == [radii._SCAN_CHUNK + 1] * 6
        assert on_grid == [True] * len(scan) + [False] * (len(calls) - len(scan))
        lo, hi = self.root_cell(cert)
        bisect = calls[len(scan):]
        assert all(np.all((lo < pts) & (pts < hi)) for pts in bisect)
        assert 0 < len(bisect) <= BISECT_CALLS

    def test_closed_form_scan_is_one_call(self, monkeypatch):
        # power weights have closed-form tails: one call over the whole grid
        # costs less than several chunk calls
        calls = self.record_calls(monkeypatch)
        cert = solve_radius(prob("psi1", PW, m=2, p=1.0))
        assert np.array_equal(calls[0], scan_grid())
        lo, hi = self.root_cell(cert)
        assert all(np.all((lo < pts) & (pts < hi)) for pts in calls[1:])
        assert 0 < len(calls) - 1 <= BISECT_CALLS

    def test_unweighted_family_ignores_scaled_weights(self, monkeypatch):
        # psi5_t5 never reads the weights, so carrying them neither chunks
        # the scan nor changes the certificate
        params = FunctionalParams(m=2, p=1.5, lam=0.5)
        plain = solve_radius(RadiusProblem("psi5_t5", params, None))
        calls = self.record_calls(monkeypatch)
        cert = solve_radius(RadiusProblem("psi5_t5", params, HARMONIC))
        assert cert == plain
        assert np.array_equal(calls[0], scan_grid())
        assert not any(np.isin(pts, scan_grid()).all() for pts in calls[1:])

    def test_scan_grid(self):
        grid = scan_grid()
        assert np.array_equal(grid[:-1], np.arange(0.0, R_EDGE, radii.SCAN_STEP))
        assert (grid.size, grid[-1]) == (1001, R_EDGE)
        assert not grid.flags.writeable


class TestMonotonicity:
    def test_radius_grows_with_m(self):
        for p in (1.0, 2.0):
            radii = [solve_radius(prob("psi1", PW, m=m, p=p)).radius
                     for m in range(1, 9)]
            assert np.all(np.diff(radii) >= 0.0)

    def test_radius_grows_with_p(self):
        ps = np.arange(0.25, 2.01, 0.25)
        for family, w in (("psi1", PW), ("psi2", PW), ("psi3", PW),
                          ("psi4", PW), ("psi5_t5", None)):
            radii = [solve_radius(prob(family, w, p=float(p))).radius
                     for p in ps]
            assert np.all(np.diff(radii) >= 0.0), family

    def test_radius_shrinks_with_lambda(self):
        for family, kw in (("psi5_t5", {}), ("psi5_t6", {"m": 1, "q": 2})):
            radii = [solve_radius(prob(family, lam=lam, **kw)).radius
                     for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
            assert np.all(np.diff(radii) <= 0.0), family


def classical_poly_roots(family, m, lam=1.0, n=1):
    """Independent oracle: minimal positive root via numpy's companion
    matrix solver on the expanded polynomial."""
    if family == "classical_alpha":
        # (1 - r)(1 - r^m) - 2r(1 + r^m)
        c = np.zeros(m + 2)
        c[0] += 1.0
        c[1] -= 3.0
        c[m] -= 1.0
        c[m + 1] -= 1.0
    elif family == "classical_beta":
        c = np.zeros(m + 1)
        c[0] += 1.0
        c[1] -= 2.0
        c[m] -= 1.0
    elif family == "classical_zeta":
        # 1 - 3r - r^m (3 - 5r)
        c = np.zeros(m + 2)
        c[0] += 1.0
        c[1] -= 3.0
        c[m] -= 3.0
        c[m + 1] += 5.0
    elif family == "classical_eta":
        c = np.zeros(m + 2)
        c[0] += 1.0
        c[1] -= 2.0
        c[m] -= 2.0
        c[m + 1] += 3.0
    elif family == "classical_d":
        c = np.zeros(n + 2)
        c[0] += 1.0
        c[1] -= 1.0
        c[n] -= 2.0 * lam + 1.0
        c[n + 1] -= 2.0 * lam - 1.0
    else:
        raise ValueError(family)
    roots = np.roots(c[::-1])
    real = roots[np.abs(roots.imag) < 1e-12].real
    return float(real[(real > 0) & (real < 1)].min())


class TestCrosscheck:
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("p_case", (1, 2))
    def test_pairs_agree(self, m, p_case):
        for name, rc, rp in classical_crosscheck(m, p_case):
            assert abs(rc - rp) < 1e-10, name

    def test_against_polynomial_oracle(self):
        for m in (1, 2, 4):
            for family in ("classical_alpha", "classical_beta",
                           "classical_zeta", "classical_eta"):
                got = solve_radius(prob(family, m=m)).radius
                assert got == pytest.approx(
                    classical_poly_roots(family, m), abs=1e-10)

    def test_beta_m2_value(self):
        assert solve_radius(prob("classical_beta", m=2)).radius == \
            pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_theorem_c_matches_derivative_family(self):
        # both reduce to 3r^2 - 6r + 1 = 0 with power weights
        want = (3.0 - math.sqrt(6.0)) / 3.0
        rc = solve_radius(prob("classical_c", PW)).radius
        rp = solve_radius(prob("psi3", PW, p=1.0)).radius
        assert rc == pytest.approx(want, abs=1e-10)
        assert rp == pytest.approx(want, abs=1e-10)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            classical_crosscheck(0, 1)
        with pytest.raises(DomainError):
            classical_crosscheck(1, 3)


def harmonic_tail(r):
    """sum_{n>=1} r**n / (n+1), the tail of c_n = 1/(n+1), in closed form."""
    return -mpmath.log(1 - r) / r - 1


# Psi of each family under power weights, in exact rational arithmetic:
# phi_0 = 1, tail(1) = r/(1-r), weighted_tail(1) = 1/(1-r)**2 - 1
EXACT_PSI = {
    "psi1": lambda pm, r, x: pm.p * (1 - x) / (1 + x) - 2 * r / (1 - r),
    "psi2": lambda pm, r, x: pm.p / 2 - r / (1 - r) - x / (1 - x),
    "psi3": lambda pm, r, x: pm.p / 2 - (1 / (1 - r) ** 2 - 1),
    "psi4": lambda pm, r, x: (pm.p / 2 - (1 / (1 - r) ** 2 - 1)
                              - x * (2 - x) / (1 - x) ** 2),
    "psi5_t5": lambda pm, r, x: pm.p * (1 - x) / (1 + x) - 2 * pm.lam * r / (1 - r),
    "psi5_t6": lambda pm, r, x: (pm.p * (1 - x) / (1 + x)
                                 - 2 * pm.lam * r ** (pm.q + pm.m) / (1 - r ** pm.q)),
    "classical_alpha": lambda pm, r, x: (1 - r) * (1 - x) - 2 * r * (1 + x),
    "classical_beta": lambda pm, r, x: 1 - 2 * r - x,
    "classical_zeta": lambda pm, r, x: 1 - 3 * r - x * (3 - 5 * r),
    "classical_eta": lambda pm, r, x: 1 - 2 * r - x * (2 - 3 * r),
    "classical_c": lambda pm, r, x: 1 - 2 * (1 / (1 - r) ** 2 - 1),
    "classical_d": lambda pm, r, x: (1 - r - (2 * pm.lam + 1) * r ** pm.n_lacunary
                                     - (2 * pm.lam - 1) * r ** (pm.n_lacunary + 1)),
}


def power_problems():
    """The power-weight and classical problems of the golden dump, each a
    pytest param; the one whose bracket misses the exact root is xfail."""
    out = []
    for m in (1, 2, 3):
        for p in (0.5, 1.0, 1.5, 2.0):
            out += [prob(fam, PW, m=m, p=p) for fam in ("psi1", "psi2", "psi3", "psi4")]
            for lam in (0.5, 1.0, 2.0):
                out += [prob("psi5_t5", m=m, p=p, lam=lam),
                        prob("psi5_t6", m=m, p=p, lam=lam, q=m + 1)]
    for m in range(1, 9):
        out += [prob(fam, m=m) for fam in ("classical_alpha", "classical_beta",
                                           "classical_zeta", "classical_eta")]
    out.append(prob("classical_c", PW))
    for lam in (0.5, 1.0, 2.0):
        out += [prob("classical_d", lam=lam, n_lacunary=n) for n in (1, 2, 3)]
    # the exact root is r = 1/5; the grid point 0.2 is the double just
    # above it, where the rounded Psi is +2.2e-16 but the exact Psi is
    # -9.3e-17, so the bracket (0.2, 0.2 + 5.8e-14] lies above the root
    misses_root = prob("psi5_t5", m=1, p=1.5, lam=2.0)
    xfail = pytest.mark.xfail(strict=True, reason="rounding puts the sign change "
                                                   "below bracket_lo")
    return [pytest.param(problem, marks=[xfail] if problem == misses_root else [],
                         id=(f"{problem.family}-m{pm.m}-p{pm.p}-lam{pm.lam}"
                             f"-q{pm.q}-n{pm.n_lacunary}"))
            for problem in out for pm in [problem.params]]


def exact_scaled_weights(w, r):
    """phi_0, tail(1) and weighted_tail(1) of scaled-power weights at the
    double r, exactly from the stored coefficients: the sums stop at the
    same cut w._tail_cut(r) and add the same dominator tail as _tail2."""
    R, cut = Fraction(r), w._tail_cut(r)
    c = [Fraction(float(v)) for v in w.coeffs[:cut]]
    X, C = Fraction(w.rho) * R, Fraction(w.C)
    start = max(1, cut)
    terms = [c[n] * R ** n for n in range(1, cut)]
    tail = sum(terms) + C * X ** start / (1 - X)
    weighted = (sum((n + 1) * t for n, t in enumerate(terms, 1))
                + C * X ** start * ((start + 1) - start * X) / (1 - X) ** 2)
    return c[0], tail, weighted


# psi1-psi4 from the exact phi_0 and tails of scaled-power weights
EXACT_SCALED_PSI = {
    "psi1": lambda pm, phi0, t, wt1, x: pm.p * (1 - x) / (1 + x) * phi0 - 2 * t,
    "psi2": lambda pm, phi0, t, wt1, x: pm.p / 2 * phi0 - t - x / (1 - x),
    "psi3": lambda pm, phi0, t, wt1, x: pm.p / 2 * phi0 - wt1,
    "psi4": lambda pm, phi0, t, wt1, x: (pm.p / 2 * phi0 - wt1
                                         - x * (2 - x) / (1 - x) ** 2),
    "classical_c": lambda pm, phi0, t, wt1, x: phi0 - 2 * wt1,
}


def harmonic_problems():
    """Criterion 7's 48 problems under c_n = 1/(n+1), each a pytest param;
    the three whose bracket_hi lies below the exact root are xfail."""
    # the stored 1/(n+1) are rounded, so the root of the stored weights lies
    # just above 0.5, where the rounded psi3 is 0.0 and the exact one +1.29e-17
    misses_root = [prob("psi3", HARMONIC, m=m, p=2.0) for m in (1, 2, 3)]
    xfail = pytest.mark.xfail(strict=True, reason="rounding puts bracket_hi "
                                                   "below the sign change")
    return [pytest.param(pr, marks=[xfail] if pr in misses_root else [],
                         id=f"harmonic-{fam}-m{m}-p{p}")
            for m in (1, 2, 3) for p in (0.5, 1.0, 1.5, 2.0)
            for fam in ("psi1", "psi2", "psi3", "psi4")
            for pr in [prob(fam, HARMONIC, m=m, p=p)]]


def exact_psi(problem):
    """Psi of the problem as an exact rational function of a double r."""
    pm = replace(problem.params, p=Fraction(problem.params.p), lam=Fraction(problem.params.lam))
    w = problem.weights
    if w is not None and w.kind == wt.SCALED_POWER:
        return lambda r: EXACT_SCALED_PSI[problem.family](
            pm, *exact_scaled_weights(w, r), Fraction(r) ** pm.m)
    return lambda r: EXACT_PSI[problem.family](pm, Fraction(r), Fraction(r) ** pm.m)


class TestOracles:
    @pytest.mark.parametrize("family", ("psi1", "psi2"))
    @pytest.mark.parametrize("m", (1, 2, 3))
    @pytest.mark.parametrize("p", (0.5, 1.0, 2.0))
    def test_harmonic_root_matches_findroot(self, family, m, p):
        psi = {"psi1": lambda r: p * (1 - r ** m) / (1 + r ** m) - 2 * harmonic_tail(r),
               "psi2": lambda r: p / 2 - harmonic_tail(r) - r ** m / (1 - r ** m)}[family]
        with mpmath.workdps(30):
            root = mpmath.findroot(psi, (mpmath.mpf("0.001"), mpmath.mpf("0.99")),
                                   solver="anderson")
        assert solve_radius(prob(family, HARMONIC, m=m, p=p)).radius == \
            pytest.approx(float(root), abs=1e-12)

    @pytest.mark.parametrize("problem", power_problems() + harmonic_problems())
    def test_exact_signs_at_bracket_ends(self, problem):
        # the bracket ends are doubles, so Psi has an exact rational value
        # there; some vanish exactly (psi5_t6 at r = 0.5), which no rounded
        # evaluation could place on either side of zero
        cert = solve_radius(problem)
        psi = exact_psi(problem)
        assert psi(cert.bracket_lo) > 0 >= psi(cert.bracket_hi)


@st.composite
def scaled_weights(draw):
    """Scaled-power weights of at most 64 coefficients, each a drawn
    fraction of its dominator bound C * rho**n."""
    rho = draw(st.floats(0.0, 1.0, exclude_min=True))
    C = draw(st.floats(0.0, 4.0))
    fracs = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
    return scaled_power([f * C * rho ** n for n, f in enumerate(fracs)], rho=rho, C=C)


SCALED_PROBLEMS = st.builds(
    lambda family, m, p, w: prob(family, w, m=m, p=p),
    st.sampled_from(sorted(EXACT_SCALED_PSI)), st.integers(1, 3),
    st.floats(0.0, 2.0, exclude_min=True), scaled_weights())


class TestScaledProperty:
    # the two examples are draws of this strategy whose float Psi takes the
    # wrong sign at bracket_hi; the first has subnormal weights, the second
    # rounds Psi to 0.0 where its exact value is +1.15e-19
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="rounding puts bracket_hi below the sign change")
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(problem=SCALED_PROBLEMS)
    @example(problem=prob("classical_c", scaled_power([2.2250738585e-313], C=2.2250738585e-313)))
    @example(problem=prob("psi3", scaled_power([0.014191729785794053, 0.011814661431842996],
                                               rho=0.39557251734633186, C=0.3761974024901137),
                          p=1.4872859073577824))
    def test_exact_signs_at_bracket_ends(self, problem):
        # a problem whose Psi keeps its sign, or whose c_0 = 0 makes
        # Psi(0) = 0, has no certificate to check
        try:
            cert = solve_radius(problem)
        except (NoRootError, DomainError):
            return
        psi = exact_psi(problem)
        assert psi(cert.bracket_lo) > 0 >= psi(cert.bracket_hi)


# a 1e-3 cell takes 34 sequential steps to a 1e-13 bracket, and each call
# replays radii._BISECT_LEVELS of them
BISECT_CALLS = math.ceil(34 / radii._BISECT_LEVELS)


def sequential_certificate(pr):
    """The solver with one Psi call per bisection step: the oracle of the
    batched bisection, which must reach the same certificate."""
    grid = scan_grid()
    scaled = FAMILIES[pr.family].weighted and pr.weights.kind == wt.SCALED_POWER
    chunk = radii._SCAN_CHUNK if scaled else grid.size - 1
    for start in range(0, grid.size - 1, chunk):
        cells = grid[start:start + chunk + 1]
        vals = psi_eval(pr, cells)
        flip = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0)[0]
        flip = flip[np.sign(vals[flip]) != np.sign(vals[flip + 1])]
        if flip.size:
            break
    i = int(flip[0])
    lo, hi = float(cells[i]), float(cells[i + 1])
    flo, fhi = float(vals[i]), float(vals[i + 1])
    while hi - lo > radii.BRACKET_WIDTH:
        mid = 0.5 * (lo + hi)
        fm = float(psi_eval(pr, mid))
        if np.sign(fm) == np.sign(flo):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return radii.RootCertificate(0.5 * (lo + hi), lo, hi, flo, fhi, radii.SCAN_STEP)


def chunk_boundary_problem(chunks, cell_offset):
    """psi3 under c_n = 1/(n+1) with its root p/(2+p) in the middle of the
    cell next to a chunk boundary, by p = 2r/(1-r)."""
    grid = scan_grid()
    k = chunks * radii._SCAN_CHUNK + cell_offset
    root = 0.5 * (grid[k] + grid[k + 1])
    return prob("psi3", HARMONIC, p=2.0 * root / (1.0 - root))


def cut_change_problem():
    """psi3 under c_n = 1/(n+1) with its root in the middle of the first
    cell past 0.3 whose tail cut changes inside it, so that the first
    batch of midpoints spans two cuts."""
    grid = scan_grid()
    for k in range(300, grid.size - 1):
        root = 0.5 * (grid[k] + grid[k + 1])
        mids = radii._dyadic_points(grid[k], grid[k + 1])[1:-1]
        if HARMONIC._tail_cut(mids[0]) != HARMONIC._tail_cut(mids[-1]):
            return prob("psi3", HARMONIC, p=2.0 * root / (1.0 - root))
    raise AssertionError("no cell with a cut change")


def oracle_problems():
    """Problems whose batched certificate must equal the sequential one."""
    out = [param.values[0] for param in power_problems()]
    out += [prob(fam, HARMONIC, m=m, p=p) for fam in ("psi1", "psi2", "psi3", "psi4")
            for m in (1, 2) for p in (1.0, 1.5)]
    out += [prob("psi3", LATE, p=2.0), cut_change_problem()]
    out += [chunk_boundary_problem(chunks, offset) for chunks in (1, 2) for offset in (-1, 0)]
    return out


class TestBatchedBisection:
    @pytest.mark.parametrize("pr", oracle_problems(),
                             ids=lambda pr: f"{pr.family}-{pr.weights and pr.weights.kind}")
    def test_certificate_equals_sequential(self, pr):
        assert solve_radius(pr) == sequential_certificate(pr)

    @pytest.mark.parametrize("pr, end", [
        (prob("psi2", PW, m=1, p=1.0), 0.2),
        (prob("psi5_t6", m=1, p=1.0, lam=1.0, q=2), 0.5),
    ], ids=("psi2", "psi5_t6"))
    def test_exact_zero_end(self, pr, end):
        # Psi vanishes on the end point, where the bracket must stop
        cert = solve_radius(pr)
        assert (cert.bracket_hi, cert.psi_hi) == (end, 0.0)
        assert cert == sequential_certificate(pr)

    def test_cut_change_splits_the_batch(self, monkeypatch):
        calls = TestChunkedScan.record_calls(monkeypatch)
        pr = cut_change_problem()
        cert = solve_radius(pr)
        lo, hi = TestChunkedScan.root_cell(cert)
        cuts = [{HARMONIC._tail_cut(r) for r in pts} for pts in calls
                if np.all((lo < pts) & (pts < hi))]
        # each call holds one cut, and the first batch spans two
        assert all(len(c) == 1 for c in cuts)
        assert len(set.union(*cuts)) > 1
        assert cert == sequential_certificate(pr)

    @pytest.mark.parametrize("w", LEAN_WEIGHTS, ids=("power", "harmonic", "rho0.9"))
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_batch_equals_one_point_values(self, family, w):
        rng = np.random.default_rng(7)
        pr = RadiusProblem(family, FunctionalParams(m=2, p=1.5, q=3), w)
        checked = 0
        for _ in range(8):
            lo = rng.uniform(0.01, 0.95)
            mids = radii._dyadic_points(lo, lo + 10.0 ** rng.uniform(-13, -3))[1:-1]
            if w.kind == wt.SCALED_POWER and w._tail_cut(mids[0]) != w._tail_cut(mids[-1]):
                continue
            checked += 1
            assert np.array_equal(psi_eval(pr, mids), [psi_eval(pr, r) for r in mids])
        assert checked >= 6

    def test_criterion_7_solve_call_count(self, monkeypatch):
        calls = TestChunkedScan.record_calls(monkeypatch)
        solve_radius(prob("psi3", HARMONIC, p=1.0))
        bisect = [pts for pts in calls if not np.isin(pts, scan_grid()).all()]
        assert len(bisect) <= BISECT_CALLS
