"""Building-block sums and the composite functionals, each reached
through ``evaluate_family`` by the name of a family that uses it."""

import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from bohrkit import (AccuracyError, BoundedFunction, DomainError,
                     FunctionalParams, RadiusProblem, a_refinement, bohr_sum,
                     evaluate_family, moebius_minus, moebius_plus, multiply_by_z,
                     power, random_blaschke, scaled_power, schwarz_moebius)
from bohrkit.functionals import (_CUT_TOL, ENVELOPE, FAMILIES, POINTWISE, Population, _abs_pow,
                                 _Block, _cutoff, _family_evaluator, bound_for)
from bohrkit.series import MAX_BLASCHKE_DEGREE, T_MAX
from bohrkit.verify import standard_families

PW = power()


class TestBohrSum:
    def test_identity_function(self):
        assert bohr_sum(moebius_plus(0.0), PW, 1, 0.4) == pytest.approx(0.4)

    def test_moebius_closed_form(self):
        # (1 - a^2) r / (1 - a r)
        assert bohr_sum(moebius_plus(0.5), PW, 1, 0.4) == pytest.approx(
            0.375, abs=1e-13)
        for a in (0.2, 0.7, 0.95):
            for r in (0.1, 0.5, 0.9):
                want = (1 - a * a) * r / (1 - a * r)
                assert bohr_sum(moebius_plus(a), PW, 1, r) == pytest.approx(
                    want, abs=1e-12)

    def test_zero_radius(self):
        for f in (moebius_plus(0.3), random_blaschke(4, 3)):
            assert bohr_sum(f, PW, 1, 0.0) == 0.0

    def test_start_beyond_truncation_order(self):
        f = moebius_plus(0.0)  # f(z) = z, T = 1
        assert bohr_sum(f, PW, 2, 0.5) == 0.0
        got = bohr_sum(f, PW, 2, np.array([0.0, 0.5, 0.9]))
        assert isinstance(got, np.ndarray) and np.array_equal(got, np.zeros(3))

    def test_weight_tails_past_the_double_range_rejected(self):
        w = scaled_power([1.0], C=1e307)
        with pytest.raises(AccuracyError, match="overflow a double"):
            bohr_sum(moebius_plus(0.3), w, 1, 0.9)

    def test_negative_start_rejected(self):
        with pytest.raises(DomainError):
            bohr_sum(moebius_plus(0.3), PW, -1, 0.5)

    @pytest.mark.parametrize("start", [1.5, float("nan"), float("inf"), True, False])
    def test_non_integer_start_rejected(self, start):
        with pytest.raises(DomainError, match="index must be an integer"):
            bohr_sum(moebius_plus(0.5), PW, start, 0.3)

    @pytest.mark.parametrize("start", [[1, 2], [1], np.array([2])])
    def test_start_that_is_not_one_number_rejected(self, start):
        with pytest.raises(DomainError, match="N must be one integer"):
            bohr_sum(moebius_plus(0.5), PW, start, 0.3)

    def test_integral_start_of_any_type(self):
        f = moebius_plus(0.5)
        assert bohr_sum(f, PW, 2.0, 0.3) == bohr_sum(f, PW, np.int64(2), 0.3) == \
            bohr_sum(f, PW, 2, 0.3)

    @pytest.mark.parametrize("r", [float("nan"), [0.1, float("nan")]])
    def test_nan_radius_rejected(self, r):
        w = scaled_power(1.0 / (np.arange(64) + 1.0))
        for call in (lambda: bohr_sum(moebius_plus(0.3), PW, 1, r),
                     lambda: bohr_sum(moebius_plus(0.3), w, 1, r),
                     lambda: evaluate_family("psi1", moebius_plus(0.3), w,
                                             FunctionalParams(), r),
                     lambda: evaluate_family("psi5_t5", moebius_plus(0.3), PW,
                                             FunctionalParams(), r)):
            with pytest.raises(DomainError, match="radius outside"):
                call()


class TestARefinement:
    def test_identity_function(self):
        # f(z) = z: value is r^2 + r^3 / (1 - r)
        assert a_refinement(moebius_plus(0.0), PW, 0.5) == pytest.approx(
            0.5, abs=1e-13)

    def test_power_weight_closed_form(self):
        # (1/(1+|a0|) + r/(1-r)) * sum |a_n|^2 r^(2n)
        rs = np.linspace(0.0, 0.9, 25)
        for a in (0.0, 0.3, 0.8, 0.99):
            f = moebius_plus(a)
            norm_sq = (1 - a * a) ** 2 * rs ** 2 / (1 - a * a * rs * rs)
            want = (1.0 / (1.0 + a) + rs / (1.0 - rs)) * norm_sq
            got = a_refinement(f, PW, rs)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_zero_radius(self):
        assert a_refinement(moebius_plus(0.7), PW, 0.0) == 0.0

    @pytest.mark.parametrize("n, a, T, r", ((12, 0.9, 20, 0.5), (60, 0.5, 100, 0.99)))
    def test_series_shorter_than_cutoff_keeps_every_coefficient(self, n, a, T, r):
        # one coefficient a_n of a series a_0..a_T with no tail: the sum is
        # a^2 (r^2n + r^(2n+1) / (1 - r)), with no index above T // 2 + 1 dropped
        coeffs = np.zeros(T + 1)
        coeffs[n] = a
        f = BoundedFunction(coeffs, 0.0)
        want = a * a * (r ** (2 * n) + r ** (2 * n + 1) / (1 - r))
        assert a_refinement(f, PW, r) == pytest.approx(want, rel=1e-12)


class TestCutoff:
    @pytest.mark.parametrize("C", [1e-3, 1.0, 1e6, 1e20, 1e307])
    @pytest.mark.parametrize("x", [0.01, 0.33, 0.9, 0.999])
    def test_first_index_whose_dominated_tail_is_silent_plus_8(self, x, C):
        def silent(K):  # C x^K / (1 - x) <= _CUT_TOL, exact to 60 digits
            with localcontext() as ctx:
                ctx.prec = 60
                return Decimal(C) * Decimal(x) ** K <= Decimal(_CUT_TOL) * (1 - Decimal(x))
        K = _cutoff(x, C) - 8
        assert K >= 8 and silent(K)
        assert K == 8 or not silent(K - 1)

    @pytest.mark.parametrize("r", [0.6, 0.9])
    @pytest.mark.parametrize("C", [1e12, 1e20])
    def test_large_dominator_is_certified(self, C, r):
        # a cut blind to C leaves remainders above 1e-12 here
        w = scaled_power([1.0, 0.5], rho=0.9, C=C)
        got = evaluate_family("psi1", moebius_plus(0.999), w, FunctionalParams(),
                              np.linspace(0.0, r, 5))
        assert np.isfinite(got).all()


class TestT1:
    def test_hand_value(self):
        params = FunctionalParams(m=1, p=1.0)
        got = evaluate_family("psi1", moebius_plus(0.0), PW, params, 0.2)
        assert got == pytest.approx(0.45, abs=1e-13)

    def test_value_at_origin(self):
        for a, p in ((0.0, 1.0), (0.6, 1.0), (0.6, 0.5)):
            got = evaluate_family("psi1", moebius_plus(a), PW,
                                  FunctionalParams(p=p), 0.0)
            assert got == pytest.approx(a ** p, abs=1e-13)

    def test_approaches_bound_as_a_grows(self):
        # near a = 1 the envelope value hugs phi_0(r) from the side fixed
        # by the sign of the radius function
        r = 0.2  # below the radius for m = p = 1
        params = FunctionalParams(m=1, p=1.0)
        vals = [evaluate_family("psi1", moebius_plus(a), PW, params, r)
                for a in (0.9, 0.99, 0.999)]
        bound = bound_for("psi1", PW, r)
        gaps = [bound - v for v in vals]
        assert all(g > 0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]


class TestT2:
    def test_identity_function_value(self):
        r = 0.4
        want = r + (r * r + r ** 3 / (1 - r)) + r
        got = evaluate_family("psi2", moebius_plus(0.0), PW, FunctionalParams(), r)
        assert got == pytest.approx(want, abs=1e-13)

    def test_deviation_block_closed_form(self):
        a, r, m = 0.5, 0.3, 2
        f = moebius_minus(a)
        base = evaluate_family("psi2", f, PW, FunctionalParams(m=m), r)
        no_dev = (a + bohr_sum(f, PW, 1, r) + a_refinement(f, PW, r))
        assert base - no_dev == pytest.approx(
            (1 - a * a) * r ** m / (1 - a * r ** m), abs=1e-13)

    def test_value_at_origin(self):
        got = evaluate_family("psi2", moebius_minus(0.7), PW,
                              FunctionalParams(p=2.0), 0.0)
        assert got == pytest.approx(0.49, abs=1e-13)


class TestT3:
    def test_zero_parameter_hand_value(self):
        # f(z) = -z^2: single term 2 * r
        got = evaluate_family("psi3", schwarz_moebius(0.0), PW, FunctionalParams(), 0.3)
        assert got == pytest.approx(0.6, abs=1e-13)

    def test_moebius_closed_form(self):
        # head a^p plus (1 - a^2) sum (n+1) a^(n-1) r^n
        a, r, p = 0.4, 0.25, 1.0
        ns = np.arange(1, 200)
        want = a ** p + (1 - a * a) * float(
            ((ns + 1.0) * a ** (ns - 1.0) * r ** ns).sum())
        got = evaluate_family("psi3", schwarz_moebius(a), PW, FunctionalParams(p=p), r)
        assert got == pytest.approx(want, abs=1e-12)

    def test_first_order_series_is_head_only(self):
        # f(z) = z has T = 1, so the derivative sum is empty: |a_1|**p * phi_0
        w = scaled_power([0.5, 0.25], rho=0.5, C=1.0)
        rs = np.array([0.0, 0.3, 0.6])
        for p in (0.5, 2.0):
            params = FunctionalParams(p=p)
            got = evaluate_family("psi3", moebius_plus(0.0), w, params, rs)
            assert np.array_equal(got, np.full(3, 0.5))
            assert evaluate_family("psi3", moebius_plus(0.0), w, params, 0.3) == 0.5

    def test_requires_schwarz_function(self):
        with pytest.raises(DomainError):
            evaluate_family("psi3", moebius_plus(0.3), PW, FunctionalParams(), 0.2)


class TestT4:
    def test_zero_parameter_hand_value(self):
        r = 0.3
        want = 0.6 + r * (2 - r) / (1 - r) ** 2
        got = evaluate_family("psi4", schwarz_moebius(0.0), PW, FunctionalParams(), r)
        assert got == pytest.approx(want, abs=1e-13)

    def test_requires_schwarz_function(self):
        with pytest.raises(DomainError):
            evaluate_family("psi4", moebius_plus(0.3), PW, FunctionalParams(), 0.2)

    def test_deviation_scales_with_head(self):
        r = 0.2
        lo = evaluate_family("psi4", schwarz_moebius(0.9), PW, FunctionalParams(), r)
        hi = evaluate_family("psi4", schwarz_moebius(0.1), PW, FunctionalParams(), r)
        # smaller |a_1| leaves more room in the derivative deviation
        assert hi - 0.1 > lo - 0.9 - 1e-12


class TestT5:
    def test_extremal_closed_form(self):
        # ((a + r)/(1 + a r))^p + lambda (1 - a^2) r / (1 - r)
        for a in (0.0, 0.4, 0.9):
            for lam in (0.5, 1.0, 2.0):
                for p in (0.5, 1.0, 2.0):
                    r = 0.3
                    params = FunctionalParams(m=1, p=p, lam=lam)
                    want = ((a + r) / (1 + a * r)) ** p \
                        + lam * (1 - a * a) * r / (1 - r)
                    got = evaluate_family("psi5_t5", moebius_plus(a), PW, params, r)
                    assert got == pytest.approx(want, abs=1e-11)

    def test_value_at_origin(self):
        got = evaluate_family("psi5_t5", moebius_plus(0.5), PW,
                              FunctionalParams(p=2.0), 0.0)
        assert got == pytest.approx(0.25, abs=1e-13)


class TestT6:
    def test_lacunary_sum_hand_value(self):
        # f_a with q = 2, m = 1: lambda (1-a^2) sum_k a^(2k) r^(2k+1)
        a, lam, r = 0.5, 2.0, 0.4
        params = FunctionalParams(m=1, p=1.0, lam=lam, q=2)
        ks = np.arange(1, 100)
        want = (a + r) / (1 + a * r) + lam * (1 - a * a) * float(
            (a ** (2.0 * ks) * r ** (2.0 * ks + 1)).sum())
        got = evaluate_family("psi5_t6", moebius_plus(a), PW, params, r)
        assert got == pytest.approx(want, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            evaluate_family("psi5_t6", moebius_plus(0.3), PW,
                            FunctionalParams(m=1, q=1), 0.2)
        with pytest.raises(DomainError):
            evaluate_family("psi5_t6", moebius_plus(0.3), PW,
                            FunctionalParams(m=2, q=2), 0.2)

    def test_lacunary_indices_beyond_truncation_order(self):
        # f(z) = z has T = 1 < q + m = 3: only the head term r**p is left
        rs = np.array([0.0, 0.3, 0.6])
        params = FunctionalParams(m=1, p=1.5, lam=2.0, q=2)
        got = evaluate_family("psi5_t6", moebius_plus(0.0), PW, params, rs)
        assert np.array_equal(got, rs ** 1.5)

    def test_zero_radius(self):
        got = evaluate_family("psi5_t6", moebius_plus(0.3), PW,
                              FunctionalParams(m=1, q=2), 0.0)
        assert got == pytest.approx(0.3, abs=1e-13)


def _population(family):
    if family in ("psi3", "psi4", "classical_c"):
        return [schwarz_moebius(a) for a in (0.0, 0.3, 0.8, 0.95)] + \
            [multiply_by_z(random_blaschke(d, 5 * d)) for d in (1, 3, 6)]
    return [moebius_plus(a) for a in (0.0, 0.3, 0.8, 0.95)] + \
        [moebius_minus(0.5)] + \
        [random_blaschke(d, 5 * d) for d in (1, 3, 6)]


ALL = ("psi1", "psi2", "psi3", "psi4", "psi5_t5", "psi5_t6",
       "classical_alpha", "classical_beta", "classical_zeta",
       "classical_eta", "classical_c", "classical_d")


class TestModeAndMonotonicity:
    @pytest.mark.parametrize("family", ALL)
    def test_envelope_dominates_pointwise(self, family):
        rs = np.linspace(0.0, 0.8, 17)
        params = FunctionalParams(m=2, p=1.0, lam=1.0, q=3)
        for f in _population(family):
            env = evaluate_family(family, f, PW, params, rs, ENVELOPE)
            pw = evaluate_family(family, f, PW, params, rs, POINTWISE)
            assert np.all(env >= pw - 1e-12)

    @pytest.mark.parametrize("family", ALL)
    def test_nondecreasing_in_r(self, family):
        rs = np.linspace(0.0, 0.9, 61)
        params = FunctionalParams(m=1, p=1.0, lam=1.0, q=2)
        for f in _population(family)[:4]:
            vals = evaluate_family(family, f, PW, params, rs, ENVELOPE)
            assert np.all(np.diff(vals) >= -1e-12)

    def test_invalid_mode_rejected(self):
        with pytest.raises(DomainError):
            evaluate_family("psi1", moebius_plus(0.3), PW, FunctionalParams(), 0.2,
                            mode="exact")

    def test_unknown_family_rejected(self):
        with pytest.raises(DomainError):
            evaluate_family("psi9", moebius_plus(0.3), PW,
                            FunctionalParams(), 0.2)


HARMONIC = scaled_power(1.0 / (np.arange(4096) + 1.0), rho=1.0, C=1.0)
UNIT = 2.0 ** -53


def _kept_terms(f, w, rs):
    """Exact Fractions of the terms each sum keeps, column by column, from
    the same float moduli, weight rows and tails: the majorant's |a_n| w_n
    and the refinement's |a_n|^2 w_2n / (1 + |a_0|) and |a_n|^2 tail(2n+1)."""
    blk = _Block(w, rs, f.truncation_order)
    n_hi = min(f.truncation_order, blk.cut)
    n_half = min(f.truncation_order, blk.cut // 2 + 1)
    mags = [Fraction(float(m)) for m in np.abs(f.coeffs)]
    one_a0 = 1 + Fraction(float(abs(f.coeffs[0])))
    half = len(blk.tails)  # rows n = half, ..., 1
    majorant, refinement = [], []
    for j in range(len(rs)):
        majorant.append([mags[n] * Fraction(float(blk.rows[n, j]))
                         for n in range(1, n_hi + 1)])
        refinement.append([mags[n] ** 2 * Fraction(float(blk.rows[2 * n, j])) / one_a0
                           for n in range(1, n_half + 1)]
                          + [mags[n] ** 2 * Fraction(float(blk.tails[half - n, j]))
                             for n in range(1, n_half + 1)])
    return majorant, refinement


def _assert_within_sum_bound(got, columns):
    """|got - sum| <= (n + 4) u sum|terms| for the n exact terms of each
    column (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    for value, terms in zip(got, columns):
        total = sum(terms, Fraction(0))
        size = sum((abs(t) for t in terms), Fraction(0))
        assert abs(Fraction(float(value)) - total) <= (len(terms) + 4) * Fraction(UNIT) * size


class TestAccuracyOracle:
    """The refinement and the psi1/psi2 functionals against an exact sum of
    the terms they keep, with the head and deviation terms taken as the
    floats the same formulas give."""

    MEMBERS = (moebius_plus(0.0), moebius_plus(0.6), moebius_minus(0.95),
               random_blaschke(3, 11), random_blaschke(7, 12))

    @pytest.mark.parametrize("w", [PW, HARMONIC], ids=["power", "harmonic"])
    def test_refinement(self, w):
        rs = np.linspace(0.0, 0.8, 9)
        for f in self.MEMBERS:
            _, refinement = _kept_terms(f, w, rs)
            _assert_within_sum_bound(a_refinement(f, w, rs), refinement)

    @pytest.mark.parametrize("w", [PW, HARMONIC], ids=["power", "harmonic"])
    @pytest.mark.parametrize("family", ["psi1", "psi2"])
    def test_functional(self, family, w):
        rs = np.linspace(0.0, 0.5, 6)
        params = FunctionalParams(m=2, p=1.5)
        phi0 = bound_for(family, w, rs)
        for f in self.MEMBERS:
            a = abs(f.coeffs[0])
            x = rs ** params.m
            if family == "psi1":
                extra = [((x + a) / (1.0 + a * x)) ** params.p * phi0]
            else:
                extra = [a ** params.p * phi0, (1.0 - a * a) * x / (1.0 - a * x)]
            majorant, refinement = _kept_terms(f, w, rs)
            columns = [[Fraction(float(e[j])) for e in extra] + majorant[j] + refinement[j]
                       for j in range(len(rs))]
            _assert_within_sum_bound(evaluate_family(family, f, w, params, rs), columns)


class TestPopulationErrors:
    """A population raises the error its members, evaluated one by one,
    would raise first: the first failing member's first failing check."""

    @staticmethod
    def _run(family, members, rs, mode=ENVELOPE):
        _, functional = _family_evaluator(family, HARMONIC, FunctionalParams(), rs,
                                          max(f.truncation_order for f in members), mode)
        return functional(members)

    def test_first_failing_member_wins(self):
        rs = np.linspace(0.0, 0.3, 5)
        members = [schwarz_moebius(a) for a in (0.0, 0.3, 0.6, 0.2, 0.8, 0.5)]
        members[3] = BoundedFunction(np.array([0.0, 0.5, 0.2]), 0.5)  # its tail bound fails
        members[5] = moebius_plus(0.5)  # not a Schwarz function
        with pytest.raises(AccuracyError) as alone:
            evaluate_family("psi3", members[3], HARMONIC, FunctionalParams(), rs)
        assert "derivative coefficient sum" in str(alone.value)
        with pytest.raises(AccuracyError) as together:
            self._run("psi3", members, rs)
        assert str(together.value) == str(alone.value)
        # a member's first check in body order wins: the Schwarz check
        members[3] = BoundedFunction(np.array([0.5, 0.5, 0.2]), 0.5)
        with pytest.raises(DomainError, match="Schwarz function"):
            self._run("psi3", members, rs)

    def test_each_member_guarded_at_its_own_bound(self):
        rs = np.linspace(0.0, 0.3, 5)
        members = [moebius_plus(0.3), BoundedFunction(np.array([0.0, 0.3]), 0.1),
                   BoundedFunction(np.array([0.0, 0.3]), 0.4)]
        with pytest.raises(AccuracyError) as alone:
            evaluate_family("psi1", members[1], HARMONIC, FunctionalParams(), rs)
        with pytest.raises(AccuracyError) as together:
            self._run("psi1", members, rs)
        assert str(together.value) == str(alone.value)
        assert self._run("psi1", members[:1], rs).shape == (1, len(rs))

    def test_only_the_last_member_fails(self):
        rs = np.linspace(0.0, 0.3, 5)
        members = [moebius_plus(0.3), moebius_plus(0.6),
                   BoundedFunction(np.array([0.0, 0.3]), 0.2)]
        with pytest.raises(AccuracyError) as alone:
            evaluate_family("psi1", members[-1], HARMONIC, FunctionalParams(), rs)
        with pytest.raises(AccuracyError) as together:
            self._run("psi1", members, rs)
        assert str(together.value) == str(alone.value)

    @pytest.mark.parametrize("family", ["psi1", "psi4"])
    def test_pointwise_raises_the_first_lone_error(self, family):
        rs = np.linspace(0.0, 0.3, 5)
        members = [schwarz_moebius(0.3), BoundedFunction(np.array([0.0, 0.5, 0.2]), 0.3),
                   schwarz_moebius(0.6), moebius_plus(0.5),
                   BoundedFunction(np.array([0.0, 0.5, 0.2]), 0.1)]
        errors = []
        for f in members:
            try:
                evaluate_family(family, f, HARMONIC, FunctionalParams(), rs, POINTWISE)
            except (AccuracyError, DomainError) as exc:
                errors.append(exc)
        first = errors[0]
        with pytest.raises(type(first)) as together:
            self._run(family, members, rs, POINTWISE)
        assert str(together.value) == str(first)

    @pytest.mark.parametrize("entry", ["evaluate_family", "bohr_sum", "a_refinement"])
    def test_member_that_is_not_a_function_rejected(self, entry):
        calls = {"evaluate_family": lambda f: evaluate_family("psi1", f, PW, FunctionalParams(),
                                                              0.3),
                 "bohr_sum": lambda f: bohr_sum(f, PW, 1, 0.3),
                 "a_refinement": lambda f: a_refinement(f, PW, 0.3)}
        with pytest.raises(DomainError, match="must be a BoundedFunction"):
            calls[entry](3)


class TestScalarInequality:
    def test_power_mean_bound(self):
        # (1 - x^p) / (1 - x^2) >= p / 2 on (0, 1) for p in (0, 2]
        xs = np.linspace(1e-6, 1.0 - 1e-6, 1000)
        for p in np.linspace(0.1, 2.0, 20):
            lhs = (1.0 - xs ** p) / (1.0 - xs * xs)
            assert np.all(lhs >= p / 2.0 - 1e-12)


class TestParams:
    def test_p_range(self):
        with pytest.raises(DomainError):
            FunctionalParams(p=0.0)
        with pytest.raises(DomainError):
            FunctionalParams(p=2.5)

    def test_lambda_positive(self):
        with pytest.raises(DomainError):
            FunctionalParams(lam=0.0)

    # 2 * 1e308 + 1 overflows, and Psi reads 2 lambda + 1
    @pytest.mark.parametrize("lam", (float("nan"), float("inf"), 1e308))
    def test_lambda_finite(self, lam):
        with pytest.raises(DomainError):
            FunctionalParams(lam=lam)

    def test_m_positive_integer(self):
        with pytest.raises(DomainError):
            FunctionalParams(m=0)

    def test_q_positive_integer(self):
        with pytest.raises(DomainError, match="q must be a positive integer"):
            FunctionalParams(q=0)

    def test_lacunary_step_positive_integer(self):
        with pytest.raises(DomainError, match="n must be a positive integer"):
            FunctionalParams(n_lacunary=0)

    @pytest.mark.parametrize("field", ["m", "q", "n_lacunary"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_counts_rejected(self, field, flag):
        with pytest.raises(DomainError, match="must be a positive integer"):
            FunctionalParams(**{field: flag})

    @pytest.mark.parametrize("field, message", [("p", "p must lie"), ("lam", "lambda must")])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_floats_rejected(self, field, flag, message):
        # True would pass as 1.0, and a report would print "p": true
        with pytest.raises(DomainError, match=message):
            FunctionalParams(**{field: flag})

    @pytest.mark.parametrize("field", ["m", "q", "n_lacunary"])
    def test_numpy_integer_counts_accepted(self, field):
        assert getattr(FunctionalParams(**{field: np.int64(3)}), field) == 3

    def test_scaled_weights_accepted(self):
        w = scaled_power(1.0 / (np.arange(32) + 1.0), rho=1.0, C=1.0)
        got = evaluate_family("psi1", moebius_plus(0.5), w, FunctionalParams(), 0.3)
        assert got > 0.0

    @pytest.mark.parametrize("family", ["psi1", "psi5_t5"])
    def test_params_must_be_functional_params(self, family):
        with pytest.raises(DomainError, match="params must be a FunctionalParams"):
            RadiusProblem(family, None, PW)
        with pytest.raises(DomainError, match="params must be a FunctionalParams"):
            evaluate_family(family, moebius_plus(0.5), PW, None, 0.3)


class TestOneProblemRule:
    """The family check and the pinned p live in RadiusProblem alone."""

    def test_one_radius_problem_class(self):
        import bohrkit
        from bohrkit import functionals, radii
        assert bohrkit.RadiusProblem is radii.RadiusProblem is functionals.RadiusProblem

    def test_lacunary_check_is_radius_problems(self):
        bad = FunctionalParams(m=2, q=2)
        with pytest.raises(DomainError) as problem:
            RadiusProblem("psi5_t6", bad)
        with pytest.raises(DomainError) as functional:
            evaluate_family("psi5_t6", moebius_plus(0.5), None, bad, 0.3)
        assert str(functional.value) == str(problem.value) == "psi5_t6 needs q >= 2 and 0 < m < q"
        # the mode is checked before the parameters
        with pytest.raises(DomainError, match="mode must be"):
            evaluate_family("psi5_t6", moebius_plus(0.5), None, bad, 0.3, "bogus")

    @pytest.mark.parametrize("family", ["classical_alpha", "classical_beta", "classical_zeta",
                                        "classical_eta", "classical_c"])
    @pytest.mark.parametrize("mode", [ENVELOPE, POINTWISE])
    def test_classical_functional_reads_the_pinned_p(self, family, mode):
        fam = FAMILIES[family]
        f = (schwarz_moebius if fam.extremal == "schwarz" else moebius_plus)(0.5)
        rs = np.linspace(0.0, 0.3, 7)
        asked = evaluate_family(family, f, PW, FunctionalParams(m=2, p=0.5), rs, mode)
        pinned = evaluate_family(family, f, PW, FunctionalParams(m=2, p=fam.p), rs, mode)
        assert asked.tobytes() == pinned.tobytes()


class TestMissingWeights:
    """A sum that reads weights and is given none is a DomainError."""

    def test_bohr_sum(self):
        with pytest.raises(DomainError, match="need a weight sequence"):
            bohr_sum(moebius_plus(0.5), None, 1, 0.3)

    def test_a_refinement(self):
        with pytest.raises(DomainError, match="need a weight sequence"):
            a_refinement(moebius_plus(0.5), None, 0.3)

    def test_evaluate_family(self):
        with pytest.raises(DomainError, match="family psi1 needs a weight sequence"):
            evaluate_family("psi1", moebius_plus(0.5), None, FunctionalParams(), 0.3)

    def test_bound_for(self):
        with pytest.raises(DomainError, match="family psi1 needs a weight sequence"):
            bound_for("psi1", None, 0.3)

    @pytest.mark.parametrize("weights", [[1.0, 0.5], np.ones(3), "power"],
                             ids=["list", "array", "str"])
    def test_weights_of_the_wrong_type(self, weights):
        # a list would reach solve_radius's weakref and bohr_sum's attribute reads
        with pytest.raises(DomainError, match="family psi1 needs a weight sequence"):
            RadiusProblem("psi1", FunctionalParams(), weights)
        with pytest.raises(DomainError, match="family psi1 needs a weight sequence"):
            evaluate_family("psi1", moebius_plus(0.3), weights, FunctionalParams(), 0.3)
        for call in (lambda: bohr_sum(moebius_plus(0.3), weights, 1, 0.5),
                     lambda: a_refinement(moebius_plus(0.3), weights, 0.5)):
            with pytest.raises(DomainError, match="the weighted sums need a weight sequence"):
                call()

    def test_unweighted_family_ignores_weights_of_any_type(self):
        assert RadiusProblem("psi5_t5", FunctionalParams(), [1.0, 0.5]).weights == [1.0, 0.5]
        assert bound_for("classical_d", [1.0], 0.3) == 1.0

    @pytest.mark.parametrize("family", ["psi5_t5", "psi5_t6", "classical_beta", "classical_d"])
    def test_family_without_a_tail_takes_no_weights(self, family):
        f = moebius_plus(0.5)
        assert bound_for(family, None, 0.3) == 1.0
        assert evaluate_family(family, f, None, FunctionalParams(), 0.3) == \
            evaluate_family(family, f, PW, FunctionalParams(), 0.3)


def _drawn_weights(seed):
    """Scaled-power weights with a drawn length, rho, C and coefficients."""
    rng = np.random.default_rng(seed)
    rho, C = rng.uniform(0.3, 1.0), rng.uniform(0.5, 3.0)
    n = np.arange(rng.integers(1, 600))
    return scaled_power(C * rho ** n * rng.uniform(size=n.size), rho=rho, C=C)


class TestOnePointBlock:
    """On a one-point grid a block's guard tails of both kinds come from
    one table of terms, and its refinement tails are rows 2n + 1 of the
    plain guard tails: each has the bits of a direct _tail2 call."""

    WEIGHTS = {"power": PW, "harmonic": HARMONIC,
               **{f"drawn{seed}": _drawn_weights(seed) for seed in range(4)}}
    RADII = np.r_[np.linspace(0.0, 0.95, 51), 0.3172, 0.99, 0.999]

    @pytest.mark.parametrize("name", WEIGHTS)
    def test_tails_equal_direct_tail2_calls(self, name):
        w = self.WEIGHTS[name]
        for r in self.RADII:
            rs = np.array([r])
            for order in (1, 2, 7, 40, T_MAX + 1):
                blk = _Block(w, rs, order)
                top, half = min(order, blk.cut), min(order, blk.cut // 2 + 1)
                odd = 2 * np.arange(half, 0, -1) + 1
                want = w._tail2(odd, rs, False)
                assert blk.tails.shape == want.shape and np.array_equal(blk.tails, want)
                for weighted, got in zip((False, True), blk.guard_tails):
                    assert got.size == max(top + 2, 2 * half + 2)
                    assert np.array_equal(got, w._tail2(np.arange(got.size), rs, weighted)[:, 0])


def test_power_block_peak_is_its_rows_and_tails():
    # the geometric tails are built in place while the rows are alive, so
    # the block holds no second tails-sized array at its peak
    rs = np.linspace(0.0, 0.33, 100_000)
    tracemalloc.start()
    try:
        blk = _Block(PW, rs, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (blk.rows.nbytes + blk.tails.nbytes)


def test_scaled_block_peak_is_near_its_rows_and_tails():
    # the scaled tails' term matrix takes its suffix sums in place and is
    # freed before the geometric tails are added, so at most one term
    # matrix, of _tail_cut + 1 rows, and one tails-sized array live beside
    # the rows
    rs = np.linspace(0.0, 0.33, 50_000)
    tracemalloc.start()
    try:
        blk = _Block(HARMONIC, rs, 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    terms = (HARMONIC._tail_cut(0.33) + 1) * rs.size * 8
    assert peak <= 1.1 * (blk.rows.nbytes + blk.tails.nbytes + terms)


def test_every_exported_name_resolves():
    import bohrkit
    missing = [name for name in bohrkit.__all__ if not hasattr(bohrkit, name)]
    assert missing == []
    assert "evaluate_family" in bohrkit.__all__
    assert not any(name.startswith("functional_") for name in bohrkit.__all__)


class TestChunks:
    """A chunk of a population, whose arrays are views of the population's,
    has the arrays a fresh population of its members would have."""

    @staticmethod
    def members():
        """27 members of every kind: Moebius maps with short and long
        series, the same maps again, Blaschke products and their Schwarz
        shifts, and a member of order 1."""
        fs = [moebius_plus(0.0), moebius_minus(0.5), schwarz_moebius(0.9), moebius_plus(0.999)]
        fs += [random_blaschke(1 + k % 8, k) for k in range(8)]
        fs += [multiply_by_z(f) for f in fs[4:8]] + fs[:4] + [moebius_minus(a) for a in
                                                                (0.1, 0.3, 0.7, 0.95, 0.99)]
        fs += [BoundedFunction(np.array([0.5, 0.25]), 0.0), moebius_plus(0.05)]
        return fs

    def test_every_split_matches_a_fresh_population(self):
        fs = self.members()
        pop = Population(fs)
        assert len(pop) == 27
        for lo in range(len(fs)):
            for hi in range(lo + 1, len(fs) + 1):
                part, fresh = pop._chunk(lo, hi), Population(fs[lo:hi])
                assert type(part) is Population and tuple(part) == tuple(fresh)
                for name in ("order", "start", "tail_bound", "a0", "a1"):
                    got, want = getattr(part, name), getattr(fresh, name)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
                end = fresh.start[-1]
                assert part.mag[:end].tobytes() == fresh.mag[:end].tobytes()
                for n in (0, 1, 5, 10 ** 6):
                    for got, want in zip(part.trunc(n), fresh.trunc(n)):
                        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), n

    def test_chunk_past_the_end_is_the_rest(self):
        pop = Population(self.members())
        assert tuple(pop._chunk(20, 64)) == pop[20:]
        assert pop._chunk(0, 64).mag.tobytes() == pop.mag.tobytes()

    def test_chunk_arrays_are_views(self):
        pop = Population(self.members())
        part = pop._chunk(3, 9)
        for name in ("order", "mag", "tail_bound", "a0", "a1"):
            assert np.shares_memory(getattr(part, name), getattr(pop, name)), name


def _moduli_cases():
    """Thirty members: each extremal builder at four a, a Blaschke product
    of each degree, a shifted one and a caller's complex coefficients."""
    for a in (0.0, 0.5, 0.999, 1.0 - 2.0 ** -40):
        for build in (moebius_plus, moebius_minus, schwarz_moebius):
            yield build(a)
    for degree in range(1, MAX_BLASCHKE_DEGREE + 1):
        yield random_blaschke(degree, 100 + degree)
    yield multiply_by_z(random_blaschke(5, 7))
    yield BoundedFunction([0.3 + 0.4j, 0.2 - 0.6j, -0.1j], 0.01)


def _moduli_members(kind):
    return list(_moduli_cases()) if kind == "cases" else standard_families(kind)


class TestKeptModuli:
    """A population holds the only copy of its members' moduli, in the
    bits the abs of the joined coefficients gives."""

    KINDS = ["psi1", "psi2", "psi3", "cases"]  # plus, minus, schwarz, _moduli_cases

    @pytest.mark.parametrize("kind", KINDS)
    def test_population_moduli_are_the_joined_abs(self, kind):
        fs = _moduli_members(kind)
        pop = Population(fs)
        old = np.abs(np.concatenate([f.coeffs for f in fs] + [[0.0]]))
        assert pop.mag.dtype == np.float64 and pop.mag.shape == old.shape
        assert np.array_equal(pop.mag.view(np.uint64), old.view(np.uint64))

    @pytest.mark.parametrize("kind", KINDS)
    def test_head_moduli_stay_scalar_abs(self, kind):
        fs = _moduli_members(kind)
        want = [abs(complex(f.coeffs[0])) for f in fs]
        assert Population(fs).a0.tolist() == want
        assert Population(fs).a1.tolist() == [abs(complex(f.coeffs[1])) for f in fs]

    @pytest.mark.parametrize("kind", KINDS)
    def test_abs_pow_is_each_members_scalar_pow(self, kind):
        # the kept |a_0| and |a_1| as Python floats give numpy's scalar pow bits
        fs = _moduli_members(kind)
        pop = Population(fs)
        for j in (0, 1):
            for p in (0.5, 1.0, 1.5, 2.0):
                want = np.array([abs(f.coeffs[j]) ** p for f in fs])
                got = _abs_pow(pop, j, p)
                assert got.shape == (len(fs), 1) and got.tobytes() == want.tobytes(), (j, p)
                for lo in range(0, len(fs), 7):
                    part = _abs_pow(pop._chunk(lo, lo + 7), j, p)
                    assert part.tobytes() == want[lo:lo + 7].tobytes(), (j, p, lo)
