"""Below-radius verification, sharpness witnesses, and lemma suites."""

import json
import weakref

import numpy as np
import pytest

from bohrkit import (BoundedFunction, DomainError, FunctionalParams,
                     NoRootError, RadiusProblem, a_refinement, bohr_sum,
                     check_lemma_D, check_lemma_coeff, check_schwarz_pick,
                     moebius_plus, power, scaled_power, sharpness_witness,
                     solve_radius, verify_below_radius)
from bohrkit import verify
from bohrkit import weights as wt
from bohrkit.functionals import (ENVELOPE, FAMILIES, POINTWISE, _cutoff,
                                 bound_for, evaluate_family)
from bohrkit.verify import standard_families

PW = power()


def prob(family, w=None, **kw):
    return RadiusProblem(family, FunctionalParams(**kw), w)


class TestVerifyBelowRadius:
    def test_psi1_verified(self):
        report = verify_below_radius(prob("psi1", PW, m=1, p=1.0),
                                     blaschke_count=20)
        assert report.verified
        assert report.max_violation <= 1e-9

    def test_psi2_p2_verified_to_third(self):
        report = verify_below_radius(prob("psi2", PW, m=1, p=2.0),
                                     blaschke_count=20)
        assert report.verified
        assert report.radius == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_single_point_at_origin(self):
        report = verify_below_radius(prob("psi1", PW), r_points=1,
                                     margin=solve_radius(prob("psi1", PW)).radius,
                                     blaschke_count=5)
        assert report.verified

    def test_empty_population_rejected(self):
        # a run over no functions checks nothing and must not report verified
        with pytest.raises(DomainError, match="population is empty"):
            verify_below_radius(prob("psi1", PW), families=[], r_points=8)

    def test_margin_validation(self):
        with pytest.raises(DomainError):
            verify_below_radius(prob("psi1", PW), margin=-0.1)
        with pytest.raises(DomainError):
            verify_below_radius(prob("psi1", PW), margin=0.9)

    def test_report_serialization(self):
        report = verify_below_radius(prob("psi5_t5", lam=2.0), r_points=16,
                                     blaschke_count=3)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["status"] == "verified"
        assert doc["problem"]["family"] == "psi5_t5"
        assert doc["problem"]["lambda"] == 2.0
        assert doc["r_grid_size"] == 16
        assert doc["bracket"][0] <= doc["radius"] <= doc["bracket"][1]
        assert doc["trials"] == doc["n_functions"] * 16
        assert doc["witness"] is None  # kept in the JSON; the report has no such field
        assert not hasattr(report, "witness")

    def test_given_certificate_same_report(self):
        pr = prob("psi2", PW, m=2, p=1.5)
        plain = verify_below_radius(pr, r_points=32, blaschke_count=5).to_dict()
        reused = verify_below_radius(pr, r_points=32, blaschke_count=5,
                                     cert=solve_radius(pr)).to_dict()
        plain.pop("elapsed")
        reused.pop("elapsed")
        assert reused == plain

    def test_given_certificate_not_solved_again(self, monkeypatch):
        pr = prob("psi1", PW, m=1, p=1.0)
        cert = solve_radius(pr)
        calls = []

        def counting_solve(*args, **kw):
            calls.append(args)
            return solve_radius(*args, **kw)

        monkeypatch.setattr(verify, "solve_radius", counting_solve)
        verify_below_radius(pr, r_points=8, blaschke_count=2, cert=cert)
        assert calls == []
        verify_below_radius(pr, r_points=8, blaschke_count=2)
        assert len(calls) == 1

    def test_deterministic_population(self):
        a = standard_families("psi1", seed=7, blaschke_count=5)
        b = standard_families("psi1", seed=7, blaschke_count=5)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.coeffs, fb.coeffs)

    def test_classical_c_uses_its_weights(self):
        # c_n = 1/(n+1): the weighted tail is r/(1-r), so the root is 1/3
        w = scaled_power(1.0 / (np.arange(4096) + 1.0), rho=1.0, C=1.0)
        pr = prob("classical_c", w)
        report = verify_below_radius(pr, r_points=32, blaschke_count=5)
        assert report.radius == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.verified
        assert sharpness_witness(pr, 0.01).excess > 1e-12

    def test_schwarz_population_has_zero_head(self):
        for f in standard_families("psi3", blaschke_count=5):
            assert abs(f.coeffs[0]) < 1e-12


HARMONIC = scaled_power(1.0 / (np.arange(4096) + 1.0), rho=1.0, C=1.0)


class TestSharedWeightBlock:
    """verify_below_radius builds one weight block per (weights, grid) and
    slices it per member; the public single-call path must agree exactly."""

    @pytest.mark.parametrize("w", [PW, HARMONIC], ids=["power", "harmonic"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_max_violation_equals_public_path(self, family, w):
        pr = prob(family, w)  # unweighted families ignore w
        cert = solve_radius(pr)
        population = standard_families(family, blaschke_count=3)
        rs = np.linspace(0.0, cert.radius, 24)
        weights = pr.weights if FAMILIES[family].weighted else PW
        cut = _cutoff(weights.ratio(cert.radius))
        orders = [f.truncation_order for f in population]
        assert min(orders) < cut < max(orders)
        for mode in (ENVELOPE, POINTWISE):
            report = verify_below_radius(pr, families=population, r_points=24,
                                         mode=mode, cert=cert)
            bound = bound_for(family, pr.weights, rs)
            public = max(float(np.max(evaluate_family(family, f, pr.weights,
                                                      pr.params, rs, mode) - bound))
                         for f in population)
            assert report.max_violation == public

    def test_block_builds_do_not_grow_with_the_population(self, monkeypatch):
        pr = prob("psi1", HARMONIC)
        cert = solve_radius(pr)
        calls = []
        for name in ("_weight2", "_tail2"):
            method = getattr(wt.WeightSequence, name)

            def counting(self, *args, _name=name, _method=method, **kw):
                calls.append(_name)
                return _method(self, *args, **kw)

            monkeypatch.setattr(wt.WeightSequence, name, counting)
        counts = []
        for blaschke_count in (2, 100):
            calls.clear()
            report = verify_below_radius(pr, r_points=16, cert=cert,
                                         blaschke_count=blaschke_count)
            assert report.verified
            counts.append(sorted(calls))
        assert counts[0] == counts[1] and counts[0]


class TestSharpnessWitness:
    def test_psi1_witness(self):
        pr = prob("psi1", PW, m=1, p=1.0)
        cert = solve_radius(pr)
        w = sharpness_witness(pr, 0.01, cert)
        assert w.r == pytest.approx(cert.radius + 0.01)
        assert w.excess > 1e-12
        assert w.a >= 0.5

    def test_classical_d_witness(self):
        w = sharpness_witness(prob("classical_d", lam=1.0), 0.01)
        assert w.excess > 1e-12

    def test_schwarz_family_witness(self):
        w = sharpness_witness(prob("psi3", PW, p=1.0), 0.02)
        assert w.excess > 1e-12

    def test_delta_validation(self):
        pr = prob("psi1", PW)
        with pytest.raises(DomainError):
            sharpness_witness(pr, 0.0)
        with pytest.raises(DomainError):
            sharpness_witness(pr, 0.06)

    def test_delta_below_double_spacing(self):
        # R + delta == R: no point past the radius to test
        pr = prob("psi1", PW)
        with pytest.raises(DomainError, match="spacing of doubles"):
            sharpness_witness(pr, 1e-300)

    def test_no_root_propagates(self):
        w = scaled_power(np.r_[1.0, np.zeros(63)], rho=0.5, C=1.0)
        with pytest.raises(NoRootError):
            sharpness_witness(prob("psi1", w), 0.01)


class TestLemmaCoeff:
    def test_equality_case_identity_function(self):
        f = moebius_plus(0.0)
        lhs = bohr_sum(f, PW, 1, 0.5) + a_refinement(f, PW, 0.5)
        rhs = 1.0 * PW.tail(1, 0.5)
        assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_constant_function(self):
        f = BoundedFunction(np.array([0.7, 0.0]), 0.0)
        lhs = bohr_sum(f, PW, 1, 0.6) + a_refinement(f, PW, 0.6)
        assert lhs <= (1.0 - 0.49) * PW.tail(1, 0.6)

    def test_property_run(self):
        assert check_lemma_coeff(200, 42) <= 1e-9

    def test_scaled_weight_run(self):
        w = scaled_power(1.0 / (np.arange(64) + 1.0), rho=1.0, C=1.0)
        assert check_lemma_coeff(100, 42, w) <= 1e-9

    def test_trials_validation(self):
        with pytest.raises(DomainError):
            check_lemma_coeff(0)

    def test_products_built_one_at_a_time(self, monkeypatch):
        real = verify.random_blaschke
        alive, most = [], 0

        def tracked(degree, seed):
            nonlocal most
            f = real(degree, seed)
            alive.append(weakref.ref(f))
            most = max(most, sum(ref() is not None for ref in alive))
            return f

        monkeypatch.setattr(verify, "random_blaschke", tracked)
        check_lemma_coeff(30, 42)
        assert len(alive) == 30
        assert most <= 2  # the product being built and the one just checked

    def test_same_slack_as_the_whole_pool(self):
        # the pool built up front, with the draws of the run itself
        rs = np.linspace(0.0, 0.9, 19)
        rng = np.random.default_rng(7)
        pool = [moebius_plus(a) for a in verify.MOEBIUS_A_GRID]
        pool += [verify.moebius_minus(a) for a in (0.3, 0.7, 0.95)]
        pool += [verify.random_blaschke(int(rng.integers(1, 9)),
                                        int(rng.integers(0, 2 ** 31)))
                 for _ in range(25)]
        blk = verify._Block(PW, rs, max(f.truncation_order for f in pool))
        slack = max(float(np.max(verify._bohr_sum_arr(f, blk, 1)
                                 + verify._a_refinement_arr(f, blk)
                                 - (1.0 - abs(f.coeffs[0]) ** 2) * PW.tail(1, rs)))
                    for f in pool)
        assert check_lemma_coeff(25, 7) == slack


class TestLemmaD:
    @pytest.mark.parametrize("instance", ("phi_tail", "t5", "t6"))
    @pytest.mark.parametrize("p", (0.5, 1.0, 2.0))
    def test_nonpositive_below_radius(self, instance, p):
        rep = check_lemma_D(instance, m=1, p=p)
        assert rep["max_D"] <= 1e-10
        assert rep["D_at_1_max_abs"] == 0.0
        if p <= 1.0:
            assert rep["min_a_increment"] >= -1e-10
        else:
            assert rep["min_aux_slack"] >= -1e-12

    def test_higher_inner_exponent(self):
        rep = check_lemma_D("phi_tail", m=3, p=1.5)
        assert rep["max_D"] <= 1e-10

    def test_unknown_instance_rejected(self):
        with pytest.raises(DomainError):
            check_lemma_D("t7")


class TestSchwarzPickSuite:
    def test_property_run(self):
        rep = check_schwarz_pick(100, 42)
        assert rep["max_contraction_slack"] <= 1e-8
        assert rep["max_derivative_slack"] <= 1e-8
        assert rep["moebius_equality_dev"] <= 1e-10
        assert rep["strict_contraction_found"] > 0
