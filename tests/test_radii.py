"""Radius functions, certified roots, and classical cross-checks."""

import gc
import math
import weakref
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
            assert cert.radius == cert.bracket_lo
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

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_params_carry_the_pinned_p(self, family):
        params = FunctionalParams(m=2, p=0.5, lam=1.5, q=3)
        pinned = FAMILIES[family].p
        got = RadiusProblem(family, params, PW).params
        assert got == (params if pinned is None else replace(params, p=pinned))


def scan_grid():
    return radii._SCAN_GRID


# every scan evaluates Psi once, on the grid padded with R_EDGE to 16 rows
# of 64 cells
SCAN_SHAPE = (16, 65)


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
        """The grid of every Psi evaluation: psi_eval and the scan both
        evaluate through radii._psi."""
        calls = []
        psi = radii._psi

        def recording_psi(pr, rs, tail):
            calls.append(rs)
            return psi(pr, rs, tail)

        monkeypatch.setattr(radii, "_psi", recording_psi)
        return calls

    @staticmethod
    def root_cell(cert):
        grid = scan_grid()
        i = int(np.searchsorted(grid, cert.bracket_lo, side="right")) - 1
        return grid[i], grid[i + 1]

    def test_scan_stops_after_root(self, monkeypatch):
        # scan calls hold only grid points; bisection calls lie strictly
        # inside the root's cell, so no point is both.  The root 1/3 lies
        # in cell 333, in the sixth row of 64 cells: a cold and a warm scan
        # alike make one call over all 16 rows
        w = fresh(HARMONIC)
        calls = self.record_calls(monkeypatch)
        for _ in range(2):
            calls.clear()
            cert = solve_radius(prob("psi3", w, p=1.0))
            assert cert.radius == pytest.approx(1.0 / 3.0, abs=1e-12)
            on_grid = [np.isin(pts, scan_grid()).all() for pts in calls]
            scan = [pts.shape for pts, g in zip(calls, on_grid) if g]
            assert scan == [SCAN_SHAPE]
            assert on_grid == [True] * len(scan) + [False] * (len(calls) - len(scan))
            lo, hi = self.root_cell(cert)
            bisect = calls[len(scan):]
            assert all(np.all((lo < pts) & (pts < hi)) for pts in bisect)
            assert 0 < len(bisect) <= MAX_BISECT_CALLS

    def test_closed_form_scan_is_one_call(self, monkeypatch):
        # power weights' closed-form tails scan the rows scaled weights do,
        # in one call
        calls = self.record_calls(monkeypatch)
        cert = solve_radius(prob("psi1", PW, m=2, p=1.0))
        assert calls[0].shape == SCAN_SHAPE
        assert np.array_equal(calls[0], radii._SCAN_ROWS)
        lo, hi = self.root_cell(cert)
        assert all(np.all((lo < pts) & (pts < hi)) for pts in calls[1:])
        assert 0 < len(calls) - 1 <= MAX_BISECT_CALLS

    def test_unweighted_family_ignores_scaled_weights(self, monkeypatch):
        # psi5_t5 never reads the weights, so carrying them neither changes
        # the one scan call nor the certificate
        params = FunctionalParams(m=2, p=1.5, lam=0.5)
        plain = solve_radius(RadiusProblem("psi5_t5", params, None))
        calls = self.record_calls(monkeypatch)
        cert = solve_radius(RadiusProblem("psi5_t5", params, HARMONIC))
        assert cert == plain
        assert calls[0].shape == SCAN_SHAPE
        assert np.array_equal(calls[0], radii._SCAN_ROWS)
        assert not any(np.isin(pts, scan_grid()).all() for pts in calls[1:])

    def test_scan_grid(self):
        grid = scan_grid()
        assert np.array_equal(grid[:-1], np.arange(0.0, R_EDGE, radii.SCAN_STEP))
        assert (grid.size, grid[-1]) == (1001, R_EDGE)
        assert not grid.flags.writeable

    def test_scan_rows(self):
        # rows of 64 cells that share their end points, the last one the
        # grid's last 41 points and then 24 copies of R_EDGE
        rows, grid = radii._SCAN_ROWS, scan_grid()
        assert rows.shape == SCAN_SHAPE and not rows.flags.writeable
        for k, row in enumerate(rows[:-1]):
            assert np.array_equal(row, grid[64 * k:64 * k + 65])
        assert np.array_equal(rows[-1], np.append(grid[960:], [R_EDGE] * 24))


def scan_chunks():
    """Every scan row's grid points, without the padding."""
    grid, chunk = scan_grid(), radii._SCAN_CHUNK
    return [grid[start:start + chunk + 1] for start in range(0, grid.size - 1, chunk)]


def fresh(w):
    """A new instance equal to w, whose scan-tail cache is empty."""
    return replace(w)


# weights whose scan tails are kept: LEAN_WEIGHTS' scaled weights, a short
# list, a late root with rho < 1 and power weights
KEPT_WEIGHTS = dict(zip(("harmonic", "rho0.9", "short", "late", "power"), [
    *LEAN_WEIGHTS[1:], scaled_power([1.0, 0.5, 0.25], rho=0.5, C=1.0), LATE, PW]))


class TestScanTailCache:
    @pytest.mark.parametrize("family, w", [
        *(pytest.param(fam, w, id=f"{fam}-{name}")
          for name, w in KEPT_WEIGHTS.items() for fam in PUBLIC_PSI),
        *(pytest.param(fam, None, id=fam) for fam in ("psi5_t5", "classical_d")),
    ])
    def test_cached_chunk_equals_psi_eval(self, family, w):
        # the first scan, which computes the tails, and a later one alike
        # take all 16 rows in one call.  Each row is psi_eval on its own
        # grid points, the last row's first 41 entries on the grid's last
        # 41, and its padding repeats the value at R_EDGE
        for m in range(1, 9):
            pr = RadiusProblem(family, FunctionalParams(m=m, p=1.5), w and fresh(w))
            for vals in (radii._scan(pr), radii._scan(pr)):
                assert vals.shape == SCAN_SHAPE
                for row, cells in zip(vals, scan_chunks(), strict=True):
                    assert np.array_equal(row[:cells.size], psi_eval(pr, cells))
                assert np.array_equal(vals[-1, 40:], np.full(25, vals[-1, 40]))

    def test_certificates_do_not_depend_on_the_cache(self):
        problems = [prob(fam, HARMONIC, m=m, p=p) for fam in PUBLIC_PSI
                    for m, p in ((1, 0.5), (2, 2.0), (3, 1.25))]
        cold = [solve_radius(replace(pr, weights=fresh(HARMONIC))) for pr in problems]
        shared = fresh(HARMONIC)
        # each solve after the problems before it filled part of the cache,
        # then every solve again on the full cache, in the reverse order
        assert [solve_radius(replace(pr, weights=shared)) for pr in problems] == cold
        assert [solve_radius(replace(pr, weights=shared))
                for pr in problems[::-1]] == cold[::-1]
        assert cold == [sequential_certificate(pr) for pr in problems]

    def test_cached_rows_are_read_only_and_never_returned(self):
        w = fresh(HARMONIC)
        returned = [psi_eval(prob(fam, w, p=2.0), scan_grid()) for fam in PUBLIC_PSI]
        returned += [solve_radius(prob(fam, w, p=2.0)) for fam in PUBLIC_PSI]
        returned += [radii._scan(prob(fam, w, p=2.0)) for fam in PUBLIC_PSI]
        tails = radii._SCAN_TAILS[w]
        assert set(tails) == {"plain", "n+1"}
        for kind, block in tails.items():
            assert block.shape == SCAN_SHAPE
            assert not block.flags.writeable
            for row, cells in zip(block, radii._SCAN_ROWS, strict=True):
                public = (w.tail if kind == "plain" else w.weighted_tail)(1, cells)
                assert np.array_equal(public, row)
                returned.append(public)
            assert not any(np.shares_memory(block, out)
                           for out in returned if isinstance(out, np.ndarray))

    def test_tails_are_computed_once_and_whole(self, monkeypatch):
        # the first scan of a tail kind computes each of the 16 rows' tails,
        # the padded last row's on its 41 distinct points; later solves of
        # either kind compute none.  Bisection tails lie strictly inside a
        # cell, off the grid
        w, calls = fresh(HARMONIC), []
        tail2 = wt.WeightSequence._tail2

        def counting_tail2(self, Ns, rs, weighted):
            if self is w and np.isin(rs, scan_grid()).all():
                calls.append(rs.size)
            return tail2(self, Ns, rs, weighted)

        monkeypatch.setattr(wt.WeightSequence, "_tail2", counting_tail2)
        sizes = [SCAN_SHAPE[1]] * (SCAN_SHAPE[0] - 1) + [41]
        for family, expected in (("psi3", sizes), ("psi1", sizes), ("psi3", []), ("psi1", []),
                                 ("psi4", []), ("psi2", [])):
            calls.clear()
            solve_radius(prob(family, w, m=2, p=1.0))
            assert calls == expected, family

    def test_cache_does_not_keep_the_weights(self):
        w = fresh(HARMONIC)
        solve_radius(prob("psi3", w, p=1.0))
        gone = weakref.ref(w)
        assert w in radii._SCAN_TAILS
        del w
        gc.collect()
        assert gone() is None

    def test_power_weights_and_closed_forms_bypass_the_cache(self):
        # closed forms read no tail, so they keep none; the one shared
        # power instance keeps one block per tail kind, as scaled weights do
        scaled = fresh(HARMONIC)
        solve_radius(prob("psi5_t5", scaled))
        solve_radius(prob("classical_d", scaled))
        assert scaled not in radii._SCAN_TAILS
        solve_radius(prob("psi3", power(), p=1.0))
        solve_radius(prob("psi1", power(), p=1.0))
        blocks = dict(radii._SCAN_TAILS[PW])
        assert set(blocks) == {"plain", "n+1"}
        assert all(b.shape == SCAN_SHAPE and not b.flags.writeable for b in blocks.values())
        for family in ("psi2", "psi4", "classical_c"):
            solve_radius(prob(family, power(), p=1.0))
        assert all(radii._SCAN_TAILS[PW][kind] is b for kind, b in blocks.items())

    @pytest.mark.parametrize("w", KEPT_WEIGHTS.values(), ids=KEPT_WEIGHTS.keys())
    def test_last_row_tail_equals_the_last_chunk_alone(self, w):
        # the padding repeats the largest point, so the last row's cut is
        # that of the grid's last 41 points, and so are their tails' bits
        w = fresh(w)
        solve_radius(prob("psi3", w, p=1.0))
        solve_radius(prob("psi1", w, p=1.0))
        for kind, block in radii._SCAN_TAILS[w].items():
            alone = w._tail2(np.array([1]), scan_grid()[960:], kind == "n+1")[0]
            assert np.array_equal(block[-1, :41], alone)


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
        with pytest.raises(DomainError, match="p_case must be 1 or 2"):
            classical_crosscheck(1, True)  # would pass as p_case 1


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
    pytest param; the one whose bracket misses the exact root is xfail.
    An id names the requested parameters, not the p a classical theorem
    pins in the problem."""
    out = []

    def add(family, w=None, **kw):
        out.append((prob(family, w, **kw), FunctionalParams(**kw)))

    for m in (1, 2, 3):
        for p in (0.5, 1.0, 1.5, 2.0):
            for fam in ("psi1", "psi2", "psi3", "psi4"):
                add(fam, PW, m=m, p=p)
            for lam in (0.5, 1.0, 2.0):
                add("psi5_t5", m=m, p=p, lam=lam)
                add("psi5_t6", m=m, p=p, lam=lam, q=m + 1)
    for m in range(1, 9):
        for fam in ("classical_alpha", "classical_beta", "classical_zeta", "classical_eta"):
            add(fam, m=m)
    add("classical_c", PW)
    for lam in (0.5, 1.0, 2.0):
        for n in (1, 2, 3):
            add("classical_d", lam=lam, n_lacunary=n)
    # the exact root is r = 1/5; the grid point 0.2 is the double just
    # above it, where the rounded Psi is +2.2e-16 but the exact Psi is
    # -9.3e-17, so the bracket (0.2, 0.2 + 5.8e-14] lies above the root
    misses_root = prob("psi5_t5", m=1, p=1.5, lam=2.0)
    xfail = pytest.mark.xfail(strict=True, reason="rounding puts the sign change "
                                                   "below bracket_lo")
    return [pytest.param(problem, marks=[xfail] if problem == misses_root else [],
                         id=(f"{problem.family}-m{pm.m}-p{pm.p}-lam{pm.lam}"
                             f"-q{pm.q}-n{pm.n_lacunary}"))
            for problem, pm in out]


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


# bisection calls per solve: with the six-point seed guess each of
# criterion 7's 48 problems takes one predicted path and criteria 3/4's 120
# one or two (measured), against one to three with a regula-falsi first guess
MAX_BISECT_CALLS = 2


def power_bits_depend_on_shape() -> bool:
    """np.power gives a row of a batch other bits than the same powers
    alone: 1 of these 65 squares differs on numpy's AVX-512 loops, none
    on its AVX2 or baseline loops."""
    rs = np.linspace(0.3, 0.45, 65)
    batch = np.power(rs[None, :], np.array([[1.0], [2.0], [3.0]]))[1]
    return batch.tobytes() != np.power(rs, 2.0).tobytes()


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
    return radii.RootCertificate(lo, lo, hi, flo, fhi, radii.SCAN_STEP)


def chunk_boundary_problem(chunks, cell_offset):
    """psi3 under c_n = 1/(n+1) with its root p/(2+p) in the middle of the
    cell next to a chunk boundary, by p = 2r/(1-r)."""
    grid = scan_grid()
    k = chunks * radii._SCAN_CHUNK + cell_offset
    root = 0.5 * (grid[k] + grid[k + 1])
    return prob("psi3", HARMONIC, p=2.0 * root / (1.0 - root))


def cut_change_problem():
    """psi3 under c_n = 1/(n+1) with its root p/(2+p) put, by p = 2r/(1-r),
    on the smallest double past 0.3 where the tail cut steps up, so that
    the first predicted bisection path, which closes in on the root from
    both sides, spans two cuts."""
    grid = scan_grid()
    cut = HARMONIC._tail_cut
    k = next(k for k in range(300, grid.size - 1) if cut(grid[k]) != cut(grid[k + 1]))
    lo, hi = float(grid[k]), float(grid[k + 1])
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if cut(mid) == cut(lo) else (lo, mid)
    return prob("psi3", HARMONIC, p=2.0 * hi / (1.0 - hi))


def criterion_7_problems():
    """harmonic_problems() without their pytest marks."""
    return [param.values[0] for param in harmonic_problems()]


def criteria_3_4_problems():
    """The power-weight grid of criteria 3 and 4: the first 120 of
    power_problems()."""
    return [param.values[0] for param in power_problems()[:120]]


def oracle_problems():
    """Problems whose batched certificate must equal the sequential one."""
    out = [param.values[0] for param in power_problems()]
    out += [prob(fam, HARMONIC, m=m, p=p) for fam in ("psi1", "psi2", "psi3", "psi4")
            for m in (1, 2) for p in (1.0, 1.5)]
    out += [prob("psi3", LATE, p=2.0), cut_change_problem()]
    out += [chunk_boundary_problem(chunks, offset) for chunks in (1, 2) for offset in (-1, 0)]
    return out + [pr for pr in criterion_7_problems() if pr not in out]


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

    def test_each_path_is_one_call(self, monkeypatch):
        # a path spanning two tail cuts is still one Psi call, cut at the
        # path's largest point; test_certificate_equals_sequential pins the
        # certificate of this problem
        calls = TestChunkedScan.record_calls(monkeypatch)
        paths, bisection_path = [], radii._bisection_path

        def recording_path(lo, hi, guess):
            paths.append(bisection_path(lo, hi, guess))
            return paths[-1]

        monkeypatch.setattr(radii, "_bisection_path", recording_path)
        solve_radius(cut_change_problem())
        bisect = [pts for pts in calls if not np.isin(pts, scan_grid()).all()]
        assert len(bisect) == len(paths) > 0
        assert all(np.array_equal(a, b) for a, b in zip(bisect, paths))
        assert any(len({HARMONIC._tail_cut(r) for r in pts}) > 1 for pts in bisect)

    @pytest.mark.parametrize("w", LEAN_WEIGHTS, ids=("power", "harmonic", "rho0.9"))
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_batch_equals_one_point_values(self, family, w):
        # the solver's batches: unsorted bisection paths toward a guess that
        # may lie inside the bracket, outside it or be NaN
        rng = np.random.default_rng(7)
        pr = RadiusProblem(family, FunctionalParams(m=2, p=1.5, q=3), w)
        checked = 0
        for i in range(8):
            lo = rng.uniform(0.01, 0.95)
            hi = lo + 10.0 ** rng.uniform(-12.5, -3)
            guess = np.nan if i % 4 == 3 else rng.uniform(2 * lo - hi, 2 * hi - lo)
            mids = radii._bisection_path(lo, hi, guess)
            if w.kind == wt.SCALED_POWER and w._tail_cut(mids.min()) != w._tail_cut(mids.max()):
                continue
            checked += 1
            assert np.array_equal(psi_eval(pr, mids), [psi_eval(pr, r) for r in mids])
        assert checked >= 6

    @staticmethod
    def bisection_calls(monkeypatch, problems):
        """The number of bisection calls each problem's solve takes."""
        calls = TestChunkedScan.record_calls(monkeypatch)
        counts = []
        for pr in problems:
            calls.clear()
            solve_radius(pr)
            counts.append(sum(not np.isin(pts, scan_grid()).all() for pts in calls))
        return counts

    def test_criterion_7_solve_call_count(self, monkeypatch):
        # the seed guess puts every root's whole path in the first call
        assert self.bisection_calls(monkeypatch, criterion_7_problems()) == [1] * 48

    def test_criteria_3_4_solve_call_count(self, monkeypatch):
        counts = self.bisection_calls(monkeypatch, criteria_3_4_problems())
        assert all(0 < c <= MAX_BISECT_CALLS for c in counts), counts

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(problem=SCALED_PROBLEMS)
    def test_scaled_certificate_equals_sequential(self, problem):
        # mispredicted paths under drawn scaled weights must still replay
        # the step-by-step bisection
        try:
            cert = solve_radius(problem)
        except (NoRootError, DomainError):
            return
        assert cert == sequential_certificate(problem)

    # a plain test where the cause is absent, so every dispatch gives one verdict
    @pytest.mark.xfail(power_bits_depend_on_shape(), strict=True, reason=(
        "psi_lo near 2e295 is a difference of terms near 1e308 whose np.power "
        "bits depend on the array's shape: the batch reads 2.1974e295 where "
        "one point reads 2.1994e295"))
    def test_huge_weights_certificate_equals_sequential(self):
        pr = prob("psi3", scaled_power([1.7e308, 1e308], rho=1.0, C=1.7e308), m=1, p=2.0)
        assert solve_radius(pr) == sequential_certificate(pr)


def regula_falsi(cells, vals, i):
    lo, hi, flo, fhi = float(cells[i]), float(cells[i + 1]), float(vals[i]), float(vals[i + 1])
    return lo - flo * (hi - lo) / (fhi - flo)


class TestSeedGuess:
    CHUNK = scan_grid()[:radii._SCAN_CHUNK + 1]
    LAST = scan_grid()[15 * radii._SCAN_CHUNK:]

    @pytest.mark.parametrize("cells", (CHUNK, LAST), ids=("chunk", "last-chunk"))
    def test_exact_where_psi_is_linear(self, cells):
        # x is then a polynomial of degree 1 in Psi, which a centred or a
        # one-sided six-point stencil interpolates exactly
        for i in (0, 1, 2, cells.size // 2, cells.size - 4, cells.size - 3, cells.size - 2):
            root = 0.5 * (cells[i] + cells[i + 1])
            vals = 3.0 * (root - cells)
            assert radii._seed_guess(cells, vals, i) == pytest.approx(root, rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("i", (0, 1, 30, 62, 63))
    @pytest.mark.parametrize("bad", ["flat", "rising", "nan", "inf", "-inf"])
    def test_falls_back_to_regula_falsi(self, bad, i):
        # RuntimeWarning is an error under pytest's settings, so this also
        # shows that no fallback path warns
        cells = self.CHUNK
        vals = 0.1 * (cells[i] - cells) + 1e-5
        k = min(max(i - 2, 0), vals.size - 6)
        j = k if k != i else k + 5  # a stencil point off the flip cell
        vals[j] = {"flat": vals[j + 1 if j < k + 5 else j - 1], "rising": -vals[j],
                   "nan": np.nan, "inf": np.inf, "-inf": -np.inf}[bad]
        got, want = radii._seed_guess(cells, vals, i), regula_falsi(cells, vals, i)
        assert got == want or (math.isnan(got) and math.isnan(want))

    def test_non_finite_flip_cell_gives_no_warning(self):
        vals = 1.0 - self.CHUNK * 100.0
        vals[:5], vals[5:] = np.inf, -np.inf
        assert math.isnan(radii._seed_guess(self.CHUNK, vals, 4))

    @pytest.mark.parametrize("pr, size, i", [
        (chunk_boundary_problem(0, 0), 65, 0),
        (chunk_boundary_problem(1, -1), 65, 63),
        (chunk_boundary_problem(1, 0), 65, 0),
        (chunk_boundary_problem(2, -1), 65, 63),
        (chunk_boundary_problem(2, 0), 65, 0),
        (prob("psi3", LATE, p=2.0), 65, 16),
    ], ids=("cell0", "chunk0-last", "chunk1-first", "chunk1-last", "chunk2-first", "late"))
    def test_edge_stencils_give_sequential_certificate(self, monkeypatch, pr, size, i):
        seen, seed_guess = [], radii._seed_guess

        def recording_seed(cells, vals, flip):
            seen.append((vals.size, flip))
            return seed_guess(cells, vals, flip)

        monkeypatch.setattr(radii, "_seed_guess", recording_seed)
        assert solve_radius(pr) == sequential_certificate(pr)
        assert seen == [(size, i)]


def monotone_problems():
    """Criteria 3/4's and 7's problems and the classical families."""
    return [param.values[0] for param in power_problems()] + criterion_7_problems()


class TestMonotoneLemmas:
    """The monotonicity lemmas of the radii module docstring."""

    @pytest.mark.parametrize("pr", monotone_problems(), ids=lambda pr: (
        f"{pr.family}-{pr.weights and pr.weights.kind}-m{pr.params.m}-p{pr.params.p}"
        f"-lam{pr.params.lam}-q{pr.params.q}-n{pr.params.n_lacunary}"))
    def test_psi_decreases_up_to_bracket_lo(self, pr):
        lo = solve_radius(pr).bracket_lo
        grid = scan_grid()
        pts = np.unique(np.append(grid[grid <= lo], lo))
        assert np.all(np.diff(psi_eval(pr, pts)) < 0.0)

    @pytest.mark.parametrize("family, edge, past_root, slope", [
        ("classical_zeta", 0.6, 1.0 / 3.0,
         lambda m, r: -3.0 + r ** (m - 1) * (5.0 * (m + 1) * r - 3.0 * m)),
        ("classical_eta", 2.0 / 3.0, 0.5,
         lambda m, r: -2.0 + r ** (m - 1) * (3.0 * (m + 1) * r - 2.0 * m)),
    ], ids=("zeta", "eta"))
    @pytest.mark.parametrize("m", range(1, 9))
    def test_zeta_and_eta_slopes_are_not_positive(self, family, edge, past_root, slope, m):
        rs = np.linspace(0.0, edge, 6001)
        assert np.all(slope(m, rs) <= 0.0)
        # the stated Psi' is the derivative of the family's Psi
        pr, h = prob(family, m=m), 1e-6
        mids = rs[1:-1]
        central = (psi_eval(pr, mids + h) - psi_eval(pr, mids - h)) / (2.0 * h)
        assert np.allclose(central, slope(m, mids), rtol=0.0, atol=1e-6)
        # and the root lies inside [0, edge]
        assert psi_eval(pr, past_root) < 0.0 and solve_radius(pr).bracket_hi < past_root
