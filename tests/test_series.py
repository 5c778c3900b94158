"""Series representations of disk self-maps and their evaluation."""

import math

import mpmath
import numpy as np
import pytest

from bohrkit import (BoundedFunction, DomainError, Population, blaschke, bohr_sum,
                     eval_derivative, evaluate, moebius_minus, moebius_plus, multiply_by_z,
                     power, random_blaschke, schwarz_moebius)
from bohrkit.series import (BLASCHKE_ORDER, BLASCHKE_ZERO_RADIUS, MAX_BLASCHKE_DEGREE,
                            _blaschke_cut)


class TestMoebiusPlus:
    def test_zero_parameter_is_identity(self):
        f = moebius_plus(0.0)
        assert np.allclose(f.coeffs[:2], [0.0, 1.0])
        assert np.all(f.coeffs[2:] == 0.0)

    def test_half_parameter_coefficients(self):
        f = moebius_plus(0.5)
        assert f.coeffs[0] == pytest.approx(0.5)
        assert f.coeffs[1] == pytest.approx(0.75)
        assert f.coeffs[2] == pytest.approx(-0.375)

    def test_first_coefficient_magnitude(self):
        for a in (0.1, 0.4, 0.8, 0.95):
            assert abs(moebius_plus(a).coeffs[1]) == pytest.approx(1.0 - a * a)

    def test_matches_closed_form(self):
        zs = np.linspace(-0.9, 0.9, 21) + 0.3j * np.linspace(-1, 1, 21)
        zs = zs[np.abs(zs) <= 0.9]
        for a in (0.2, 0.5, 0.95):
            f = moebius_plus(a)
            exact = (zs + a) / (1.0 + a * zs)
            assert np.max(np.abs(evaluate(f, zs) - exact)) < 1e-12

    def test_parameter_domain(self):
        with pytest.raises(DomainError):
            moebius_plus(1.0)
        with pytest.raises(DomainError):
            moebius_plus(-0.1)


class TestMoebiusMinus:
    def test_zero_parameter(self):
        f = moebius_minus(0.0)
        assert np.allclose(f.coeffs[:2], [0.0, -1.0])

    def test_half_parameter_coefficients(self):
        f = moebius_minus(0.5)
        assert f.coeffs[0] == pytest.approx(0.5)
        assert f.coeffs[1] == pytest.approx(-0.75)
        assert f.coeffs[2] == pytest.approx(-0.375)

    def test_absolute_sequences_coincide(self):
        for a in (0.3, 0.7):
            fp, fm = moebius_plus(a), moebius_minus(a)
            n = min(fp.coeffs.size, fm.coeffs.size)
            assert np.allclose(np.abs(fp.coeffs[:n]), np.abs(fm.coeffs[:n]))


class TestSchwarzMoebius:
    def test_zero_parameter(self):
        f = schwarz_moebius(0.0)
        assert np.allclose(f.coeffs[:3], [0.0, 0.0, -1.0])

    def test_half_parameter_coefficients(self):
        f = schwarz_moebius(0.5)
        assert f.coeffs[0] == 0.0
        assert f.coeffs[1] == pytest.approx(0.5)
        assert f.coeffs[2] == pytest.approx(-0.75)
        assert f.coeffs[3] == pytest.approx(-0.375)

    def test_constant_term_always_zero(self):
        for a in (0.0, 0.3, 0.9, 0.999):
            assert schwarz_moebius(a).coeffs[0] == 0.0


class TestBlaschke:
    def test_single_real_zero_matches_moebius(self):
        a = 0.4
        f = blaschke([-a])
        g = moebius_plus(a)
        n = min(f.coeffs.size, g.coeffs.size)
        # (-a - z)/(1 + a z) = -(z + a)/(1 + a z)
        assert np.max(np.abs(f.coeffs[:n] + g.coeffs[:n])) < 1e-12

    def test_head_coefficient_in_disk(self):
        for seed in range(50):
            f = random_blaschke(int(1 + seed % 8), seed)
            assert abs(f.coeffs[0]) <= 1.0

    def test_schwarz_pick_coefficient_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            f = random_blaschke(int(rng.integers(1, 9)),
                                int(rng.integers(0, 2 ** 31)))
            a0 = abs(f.coeffs[0])
            assert np.abs(f.coeffs[1:]).max() <= 1.0 - a0 * a0 + 1e-10

    def test_deterministic_from_seed(self):
        f, g = random_blaschke(5, 123), random_blaschke(5, 123)
        assert np.array_equal(f.coeffs, g.coeffs)
        assert np.array_equal(random_blaschke(5, np.int64(123)).coeffs, f.coeffs)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, None])
    def test_bad_seed_rejected(self, seed):
        # numpy would raise ValueError or TypeError, or take True as seed 1
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            random_blaschke(5, seed)

    def test_boundary_modulus_one(self):
        f = random_blaschke(3, 99)
        zs = 0.999 * np.exp(1j * np.linspace(0, 2 * np.pi, 16, endpoint=False))
        # inner function: modulus tends to 1 at the boundary
        assert np.all(np.abs(evaluate(f, zs)) > 0.9)

    def test_degree_limits(self):
        with pytest.raises(DomainError):
            random_blaschke(0, 1)
        with pytest.raises(DomainError):
            random_blaschke(17, 1)
        for degree in (True, 2.5, 3.0):
            with pytest.raises(DomainError, match="degree must be an integer in 1..16"):
                random_blaschke(degree, 1)
        assert random_blaschke(np.int64(3), 1).family_tag == "blaschke(deg=3)"
        with pytest.raises(DomainError):
            blaschke([0.95])
        with pytest.raises(DomainError, match="need between 1 and 16 zeros"):
            blaschke([])

    @pytest.mark.parametrize("zeros", [[math.nan], [0.3, complex(0.1, math.nan)]])
    def test_nan_zero_rejected(self, zeros):
        # a NaN modulus fails every comparison, so the radius check must
        # be written to fail on it
        with pytest.raises(DomainError, match="zeros must satisfy"):
            blaschke(zeros)

    @pytest.mark.parametrize("rotation", [math.nan, math.inf, complex(1.0, -math.inf),
                                          complex(math.nan, 1.0), 0.0])
    def test_bad_rotation_rejected(self, rotation):
        with pytest.raises(DomainError, match="rotation must be nonzero and finite"):
            blaschke([0.5], rotation)


def random_zeros(degree, seed):
    """The zeros and rotation that random_blaschke(degree, seed) draws."""
    rng = np.random.default_rng(seed)
    radii = BLASCHKE_ZERO_RADIUS * np.sqrt(rng.uniform(size=degree))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=degree)
    return radii * np.exp(1j * angles), np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def exact_coeffs(zeros, rotation, stop):
    """b_0 .. b_{stop-1} of rotation * prod (z_k - z)/(1 - conj(z_k) z) at
    50 digits, by the recurrence Q b = P of the rational form P/Q."""
    with mpmath.workdps(50):
        P, Q = [mpmath.mpc(complex(rotation))], [mpmath.mpc(1)]
        for z in zeros:
            z = mpmath.mpc(complex(z))
            P = [a * z - b for a, b in zip(P + [0], [0] + P)]
            Q = [a - b * mpmath.conj(z) for a, b in zip(Q + [0], [0] + Q)]
        neg_q, b = [-q for q in Q[1:]], []
        for n in range(stop):
            k = min(n, len(neg_q))
            acc = mpmath.fdot(neg_q[:k], b[n - k:n][::-1])
            b.append(acc + P[n] if n < len(P) else acc)
        return b


# 50 seeded draws of random_blaschke, then the longest product allowed:
# 16 zeros at |z| = 0.9, at spread angles
CAUCHY_CASES = ([pytest.param(*random_zeros(1 + seed % 8, seed), id=f"seed{seed}")
                 for seed in range(50)]
                + [pytest.param(0.9 * np.exp(2j * np.pi * (np.arange(16) + 0.5) / 16), 1.0,
                                id="16-zeros-at-0.9")])


class TestBlaschkeTail:
    @pytest.mark.parametrize("zeros, rotation", CAUCHY_CASES)
    def test_tail_bound_holds_past_the_cut(self, zeros, rotation):
        f = blaschke(zeros, rotation)
        T = f.truncation_order
        b = exact_coeffs(zeros, rotation, T + 257)
        assert max(abs(complex(b[n]) - f.coeffs[n]) for n in range(T + 1)) < 1e-12
        assert max(abs(b[n]) for n in range(T + 1, T + 257)) <= f.tail_bound
        # even the longest product allowed stops below the cap
        assert T < BLASCHKE_ORDER and f.tail_bound <= 1e-25

    @pytest.mark.parametrize("zeros, rotation", CAUCHY_CASES)
    def test_cut_exactly_at_the_cauchy_order(self, zeros, rotation):
        # the tail bound is proven from T + 1 on, so every product keeps T + 1
        f = blaschke(zeros, rotation)
        T, tail = _blaschke_cut(np.abs(np.asarray(zeros, dtype=complex)))
        assert f.truncation_order == T and f.tail_bound == tail

    @pytest.mark.parametrize("zeros, rotation", CAUCHY_CASES)
    def test_values_match_the_closed_form_product(self, zeros, rotation):
        zs = 0.8 * np.exp(2j * np.pi * np.arange(32) / 32)
        exact = rotation / abs(rotation) * np.ones(32, dtype=complex)
        for zero in np.asarray(zeros, dtype=complex):
            exact *= (zero - zs) / (1.0 - np.conj(zero) * zs)
        assert np.abs(evaluate(blaschke(zeros, rotation), zs) - exact).max() <= 1e-14

    def test_random_draw_matches_its_zeros(self):
        for seed in range(8):
            zeros, rotation = random_zeros(1 + seed, seed)
            assert np.array_equal(random_blaschke(1 + seed, seed).coeffs,
                                  blaschke(zeros, rotation).coeffs)

    def test_zeros_at_origin_give_a_monomial(self):
        f = blaschke([0.0, 0.0, 0.0], -1.0)
        assert np.array_equal(f.coeffs, [0.0, 0.0, 0.0, 1.0]) and f.tail_bound == 0.0
        g = blaschke([0.0, 0.5])
        assert g.coeffs[0] == 0.0 and g.tail_bound <= 1e-25


class TestEvaluate:
    def test_value_at_origin_is_head(self):
        assert evaluate(moebius_plus(0.5), 0.0) == pytest.approx(0.5)

    def test_closed_form_point(self):
        got = evaluate(moebius_plus(0.3), 0.4)
        assert got == pytest.approx(0.625, abs=1e-13)

    def test_domain_edge(self):
        with pytest.raises(DomainError):
            evaluate(moebius_plus(0.5), 0.9999999)

    @pytest.mark.parametrize("call, z", [
        (evaluate, float("nan")), (evaluate, complex("nan")), (evaluate, [0.1, float("nan")]),
        (eval_derivative, float("nan"))], ids=("real", "complex", "array", "derivative"))
    def test_nan_point_rejected(self, call, z):
        # |NaN| <= EVAL_EDGE is False, so a NaN point is outside the domain
        with pytest.raises(DomainError, match="evaluation point outside"):
            call(moebius_plus(0.5), z)

    def test_derivative_matches_difference_quotient(self):
        f = moebius_plus(0.4)
        z, h = 0.3 + 0.2j, 1e-7
        approx = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
        assert abs(eval_derivative(f, z) - approx) < 1e-6

    def test_array_input(self):
        zs = np.array([0.0, 0.1, 0.2])
        vals = evaluate(moebius_plus(0.5), zs)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(0.5)

    def test_inner_power_envelope_on_circle(self):
        # sup over |z| = r of |f(z^m)| stays below (r^m + a)/(1 + a r^m)
        a, m, r = 0.6, 2, 0.7
        zs = r * np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
        env = (r ** m + a) / (1.0 + a * r ** m)
        assert np.abs(evaluate(moebius_plus(a), zs ** m)).max() <= env + 1e-12


class TestSchwarzPickPointwise:
    @staticmethod
    def pseudo(u, v):
        return np.abs(u - v) / np.abs(1.0 - np.conj(u) * v)

    def sample(self, rng, n):
        return (0.9 * np.sqrt(rng.uniform(size=n))
                * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n)))

    def test_contraction_on_random_products(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f = random_blaschke(int(rng.integers(1, 9)),
                                int(rng.integers(0, 2 ** 31)))
            z1, z2 = self.sample(rng, 8), self.sample(rng, 8)
            w1, w2 = evaluate(f, z1), evaluate(f, z2)
            assert np.all(self.pseudo(w1, w2)
                          <= self.pseudo(z1, z2) + 1e-10)

    def test_derivative_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            f = random_blaschke(int(rng.integers(1, 9)),
                                int(rng.integers(0, 2 ** 31)))
            z = self.sample(rng, 8)
            fz = evaluate(f, z)
            lhs = np.abs(eval_derivative(f, z))
            rhs = (1.0 - np.abs(fz) ** 2) / (1.0 - np.abs(z) ** 2)
            assert np.all(lhs <= rhs + 1e-8)

    def test_moebius_equality(self):
        rng = np.random.default_rng(17)
        for a in (0.2, 0.5, 0.8):
            f = moebius_plus(a)
            z1, z2 = self.sample(rng, 16), self.sample(rng, 16)
            dev = np.abs(self.pseudo(evaluate(f, z1), evaluate(f, z2))
                         - self.pseudo(z1, z2))
            assert dev.max() < 1e-10


class TestBoundedFunction:
    def test_coefficient_bound_enforced(self):
        with pytest.raises(DomainError):
            BoundedFunction(np.array([0.5, 1.5]), 0.0)

    def test_schwarz_pick_bound_enforced(self):
        with pytest.raises(DomainError):
            BoundedFunction(np.array([0.9, 0.5]), 0.0)

    def test_one_coefficient_rejected(self):
        with pytest.raises(DomainError, match="T >= 1"):
            BoundedFunction([0.5], 0.0)

    def test_tail_bound_range(self):
        with pytest.raises(DomainError):
            BoundedFunction(np.array([0.0, 1.0]), 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    @pytest.mark.parametrize("index", [0, 1, 2])
    def test_non_finite_coefficient_rejected(self, bad, index):
        coeffs = np.array([0.2, 0.0, 0.3], dtype=complex)
        coeffs[index] = bad
        with pytest.raises(DomainError, match="coefficients must be finite"):
            BoundedFunction(coeffs, 0.0)

    def test_coefficients_are_a_read_only_copy(self):
        c = np.array([0.0, 0.5])
        f = BoundedFunction(c, 0.0)
        c[1] = 5.0  # past the self-map check, had the function kept the caller's array
        assert bohr_sum(f, power(), 1, 0.5) == 0.25
        with pytest.raises(ValueError, match="read-only"):
            f.coeffs[1] = 5.0
        assert bohr_sum(f, power(), 1, 0.5) == 0.25

    def test_multiply_by_z_shifts(self):
        f = moebius_minus(0.3)
        g = multiply_by_z(f)
        assert g.coeffs[0] == 0.0
        assert np.array_equal(g.coeffs[1:], f.coeffs)


def _kept_moduli_cases():
    for a in (0.0, 0.5, 0.999, 1.0 - 2.0 ** -40):
        for build in (moebius_plus, moebius_minus, schwarz_moebius):
            yield build(a)
    for degree in range(1, MAX_BLASCHKE_DEGREE + 1):
        yield blaschke(*random_zeros(degree, 100 + degree))
    yield multiply_by_z(random_blaschke(5, 7))
    yield BoundedFunction([0.3 + 0.4j, 0.2 - 0.6j, -0.1j], 0.01)


class TestKeptModuli:
    """A function keeps no moduli of its own: its population holds them,
    in the bits of the array abs of its coefficients."""

    @pytest.mark.parametrize("f", list(_kept_moduli_cases()), ids=repr)
    def test_kept_moduli_are_the_array_abs(self, f):
        assert not hasattr(f, "_mag")
        pop = Population([f])
        kept = pop.mag[pop.start[0]:pop.start[1]]
        assert kept.dtype == np.float64 and kept.shape == f.coeffs.shape
        assert np.array_equal(kept.view(np.uint64), np.abs(f.coeffs).view(np.uint64))
