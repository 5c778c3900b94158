"""Below-radius verification, sharpness witnesses, and lemma suites."""

import dataclasses
import json

import numpy as np
import pytest

from bohrkit import (AccuracyError, BoundedFunction, DomainError, FunctionalParams,
                     NoRootError, NotFalsifiableError, NoWitnessError, Population, RadiusProblem,
                     a_refinement, bohr_sum, check_lemma_D, check_lemma_coeff, check_schwarz_pick,
                     moebius_plus, power, psi_eval, scaled_power, sharpness_witness,
                     solve_radius, verify_below_radius)
from bohrkit import radii, verify
from bohrkit import weights as wt
from bohrkit.functionals import (ENVELOPE, FAMILIES, POINTWISE, _cutoff,
                                 _family_evaluator, bound_for, evaluate_family)
from bohrkit.series import T_MAX
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

    def test_radius_points_validation(self):
        with pytest.raises(DomainError, match="at least one radius point"):
            verify_below_radius(prob("psi1", PW), r_points=0, blaschke_count=1)

    @pytest.mark.parametrize("mode", [ENVELOPE, POINTWISE])
    @pytest.mark.parametrize("r_points", [2.5, 3.0, float("nan"), True, False])
    def test_non_integer_radius_points_rejected(self, mode, r_points):
        with pytest.raises(DomainError, match="at least one radius point, as an integer"):
            verify_below_radius(prob("psi1", PW), r_points=r_points, mode=mode,
                                blaschke_count=1)

    def test_negative_blaschke_count_rejected(self):
        with pytest.raises(DomainError, match="count must be nonnegative"):
            standard_families("psi1", blaschke_count=-1)

    @pytest.mark.parametrize("count", [True, False, 2.5, 3.0])
    def test_non_integer_blaschke_count_rejected(self, count):
        with pytest.raises(DomainError, match="count must be nonnegative, as an integer"):
            standard_families("psi1", blaschke_count=count)

    def test_blaschke_count_of_numpy_integer_type(self):
        assert len(standard_families("psi1", blaschke_count=np.int64(0))) == 22

    def test_member_that_is_not_a_function_rejected(self):
        with pytest.raises(DomainError, match="must be a BoundedFunction"):
            verify_below_radius(prob("psi1", PW), families=[moebius_plus(0.5), 3])

    def test_member_that_is_not_a_function_rejected_across_chunks(self):
        members = [*standard_families("psi1", blaschke_count=50), 3]  # 73 > 64 per chunk
        with pytest.raises(DomainError, match="must be a BoundedFunction"):
            verify_below_radius(prob("psi1", PW), families=members, mode=POINTWISE)

    def test_members_from_a_generator(self):
        members = [moebius_plus(a) for a in (0.2, 0.5, 0.9)]
        listed = verify_below_radius(prob("psi1", PW), families=members, r_points=8)
        drawn = verify_below_radius(prob("psi1", PW), families=iter(members), r_points=8)
        assert drawn.max_violation == listed.max_violation
        assert drawn.n_functions == 3
        with pytest.raises(DomainError, match="population is empty"):
            verify_below_radius(prob("psi1", PW), families=iter([]), r_points=8)

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
        cut = _cutoff(weights.rho * cert.radius, weights.C)
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

    @pytest.mark.parametrize("w", [PW, HARMONIC], ids=["power", "harmonic"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_row_equals_the_one_member_value(self, family, w):
        pr = prob(family, w)
        cert = solve_radius(pr)
        population = standard_families(family, blaschke_count=3)
        rs = np.linspace(0.0, cert.radius, 24)
        weights = pr.weights if FAMILIES[family].weighted else PW
        cut = _cutoff(weights.rho * cert.radius, weights.C)
        orders = [f.truncation_order for f in population]
        assert min(orders) < cut < max(orders)
        for mode in (ENVELOPE, POINTWISE):
            _, functional = _family_evaluator(family, pr.weights, pr.params, rs,
                                              max(orders), mode)
            rows = functional(population)
            assert rows.shape == (len(population), len(rs))
            for f, row in zip(population, rows):
                assert np.array_equal(row, evaluate_family(family, f, pr.weights,
                                                           pr.params, rs, mode))

    @pytest.mark.parametrize("family", ["psi1", "psi4", "psi5_t6"])
    def test_small_chunks_equal_one_pass(self, family, monkeypatch):
        pr = prob(family, HARMONIC, m=1, q=2)
        cert = solve_radius(pr)
        population = standard_families(family, blaschke_count=7)
        chunks = []
        real = verify._family_evaluator

        def recording(*args):
            blk, functional = real(*args)

            def run(fs):
                chunks.append(functional(fs))
                return chunks[-1]
            return blk, run

        monkeypatch.setattr(verify, "_family_evaluator", recording)
        default = verify._CHUNK_ELEMENTS
        # envelope mode evaluates one radius, so its chunk budget counts one column
        for mode, columns in ((ENVELOPE, 1), (POINTWISE, 24)):
            chunks.clear()
            monkeypatch.setattr(verify, "_CHUNK_ELEMENTS", default)
            whole = verify_below_radius(pr, families=population, r_points=24, mode=mode,
                                        cert=cert)
            (one_pass,) = chunks
            assert one_pass.shape == (len(population), columns)
            for budget, size in ((columns * 5, 5), (1, 1)):
                chunks.clear()
                monkeypatch.setattr(verify, "_CHUNK_ELEMENTS", budget)
                report = verify_below_radius(pr, families=population, r_points=24,
                                             mode=mode, cert=cert)
                assert len(chunks) == -(-len(population) // size)
                assert [len(c) for c in chunks[:-1]] == [size] * (len(chunks) - 1)
                assert np.array_equal(np.vstack(chunks), one_pass)
                assert report.max_violation == whole.max_violation

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


def _criterion_problems():
    """Every family's problems in the acceptance criteria 3/4 (power
    weights) and 7 (harmonic weights), and every classical family at
    m = 1..3."""
    out = {family: [] for family in FAMILIES}
    for m in (1, 2, 3):
        for p in (0.5, 1.0, 1.5, 2.0):
            for family in ("psi1", "psi2", "psi3", "psi4"):
                out[family] += [prob(family, PW, m=m, p=p), prob(family, HARMONIC, m=m, p=p)]
            for lam in (0.5, 1.0, 2.0):
                out["psi5_t5"].append(prob("psi5_t5", m=m, p=p, lam=lam))
                out["psi5_t6"].append(prob("psi5_t6", m=m, p=p, lam=lam, q=m + 1))
        for family in out:
            if family.startswith("classical"):
                out[family].append(prob(family, PW, m=m))
        out["classical_c"].append(prob("classical_c", HARMONIC, m=m))
    return out


CRITERION_PROBLEMS = _criterion_problems()


class TestEnvelopeMonotone:
    """The monotonicity lemma of the ``functionals`` docstring: in envelope
    mode every member's functional rises with r and its bound phi_0 is
    constant, so verify's one evaluation at R - margin finds the worst
    violation of the whole radius grid."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rows_rise_and_the_top_holds_the_grid_maximum(self, family):
        population = standard_families(family, blaschke_count=4)
        assert verify.MOEBIUS_A_GRID[20:] == (0.99, 0.999)
        # a = 0, 0.25, 0.5, 0.75, 0.99 and 0.999, then four Blaschke products
        sample = population[:21:5] + population[21:]
        for pr in CRITERION_PROBLEMS[family]:
            cert = solve_radius(pr)
            rs = np.linspace(0.0, cert.radius, 256)
            _, functional = _family_evaluator(family, pr.weights, pr.params, rs,
                                              max(f.truncation_order for f in sample), ENVELOPE)
            rows = functional(sample)
            assert (np.diff(rows, axis=1) >= 0.0).all(), pr
            bound = bound_for(family, pr.weights, rs)
            assert (bound == bound[0]).all()
            report = verify_below_radius(pr, families=sample, cert=cert)
            assert report.r_grid_size == 256 and report.trials == len(sample) * 256
            # the top column, one ulp or so off as a one-point block sums its tails in
            # another order, is the grid's maximum
            ulp = np.spacing(np.abs(rows[:, -1]).max())
            assert abs(report.max_violation - float(np.max(rows - bound))) <= 2 * ulp, pr

    @pytest.mark.parametrize("r_points", [1, 2, 256])
    def test_envelope_evaluates_the_top_radius_alone(self, r_points, monkeypatch):
        pr = prob("psi1", HARMONIC)
        cert = solve_radius(pr)
        grids = []
        real = verify._family_evaluator

        def recording(family, w, params, rs, order, mode):
            grids.append(rs)
            return real(family, w, params, rs, order, mode)

        monkeypatch.setattr(verify, "_family_evaluator", recording)
        reports = [verify_below_radius(pr, r_points=r_points, margin=0.01, mode=mode,
                                       cert=cert, blaschke_count=2)
                   for mode in (ENVELOPE, POINTWISE)]
        top = cert.radius - 0.01
        assert grids[0].tolist() == [top]
        # a one-point pointwise grid is the top radius, not r = 0
        assert np.array_equal(grids[1], np.linspace(0.0, top, r_points) if r_points > 1
                              else [top])
        assert grids[1][-1] == top
        for report in reports:
            assert report.r_grid_size == r_points
            assert report.trials == report.n_functions * r_points

    def test_one_point_pointwise_grid_sees_a_violation_at_the_top(self):
        # psi1 is violated just past its radius; r = 0 alone would report verified
        pr = prob("psi1", wt.power())
        cert = solve_radius(pr)
        report = verify_below_radius(pr, r_points=1, mode=POINTWISE, blaschke_count=0,
                                     cert=dataclasses.replace(cert, radius=cert.radius + 0.05))
        assert not report.verified


class TestKeptForm:
    """standard_families returns an immutable Population, joined once, whose
    chunks are views; every verify over it gives a plain list's report."""

    @pytest.mark.parametrize("family", ["psi1", "psi2", "psi3"])  # plus, minus, schwarz
    def test_standard_population_is_immutable(self, family):
        population = standard_families(family, blaschke_count=5)
        assert isinstance(population, Population) and len(population) == 22 + 5
        with pytest.raises(AttributeError):
            population.append(moebius_plus(0.3))
        with pytest.raises(TypeError):
            population[0] = moebius_plus(0.3)
        assert population.order.tolist() == [f.truncation_order for f in population]
        for name in ("order", "start", "mag", "tail_bound", "a0"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(population, name)[0] = 0

    @pytest.mark.parametrize("mode", [ENVELOPE, POINTWISE])
    def test_verify_twice_equals_a_plain_list(self, mode):
        pr = prob("psi1", HARMONIC, m=2, p=1.5)
        cert = solve_radius(pr)
        population = standard_families("psi1", blaschke_count=4)
        reports = [verify_below_radius(pr, families=fs, r_points=16, mode=mode, cert=cert)
                   for fs in (population, population, list(population))]
        first, second, plain = (report.to_dict() for report in reports)
        for doc in (first, second, plain):
            doc.pop("elapsed")
        assert first == second == plain

    def test_pointwise_verify_over_several_chunks_equals_a_plain_list(self):
        pr = prob("psi1", HARMONIC, m=2, p=1.5)
        cert = solve_radius(pr)
        population = standard_families("psi1", blaschke_count=50)  # 72 > 64 per chunk
        kept = verify_below_radius(pr, families=population, mode=POINTWISE, cert=cert)
        plain = verify_below_radius(pr, families=list(population), mode=POINTWISE, cert=cert)
        alone = max(verify_below_radius(pr, families=[f], mode=POINTWISE, cert=cert).max_violation
                    for f in population)
        assert kept.max_violation == plain.max_violation == alone
        assert kept.n_functions == plain.n_functions == 72


class TestSeeds:
    """A seed is a nonnegative integer, numpy's integer types included."""

    CALLS = {
        "standard_families": lambda seed: standard_families("psi1", seed, 3),
        "verify_below_radius": lambda seed: verify_below_radius(
            prob("psi1", PW), seed=seed, blaschke_count=0),
        "check_lemma_coeff": lambda seed: check_lemma_coeff(1, seed),
        "check_schwarz_pick": lambda seed: check_schwarz_pick(1, seed),
    }

    @pytest.mark.parametrize("seed", [-1, 2.5, True, False, None, "7"])
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_bad_seed_rejected(self, entry, seed):
        with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
            self.CALLS[entry](seed)

    @staticmethod
    def _key(out):
        if isinstance(out, Population):
            return [f.coeffs.tobytes() for f in out]
        if isinstance(out, verify.VerificationReport):
            return dataclasses.replace(out, elapsed=0.0)
        return out

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7)])
    @pytest.mark.parametrize("entry", sorted(CALLS))
    def test_numpy_integer_seed_is_the_int_seed(self, entry, seed):
        assert self._key(self.CALLS[entry](seed)) == self._key(self.CALLS[entry](7))


class TestAGridSize:
    def test_standard_population_reports_the_a_grid(self):
        report = verify_below_radius(prob("psi5_t5"), blaschke_count=2)
        assert report.a_grid_size == len(verify.MOEBIUS_A_GRID) == 22
        assert report.n_functions == 24

    def test_callers_population_reports_none(self):
        pr = prob("psi5_t5")
        report = verify_below_radius(pr, families=standard_families("psi5_t5")[17:22])
        assert report.a_grid_size is None and report.n_functions == 5
        assert '"a_grid_size": null' in json.dumps(report.to_dict())


def _one_by_one_witness(pr, delta, cert):
    """The witness search with one candidate per pass."""
    r = cert.radius + delta
    if float(psi_eval(pr, r)) >= 0.0:
        raise NotFalsifiableError("vacuous")
    bound = float(bound_for(pr.family, pr.weights, r))
    build = verify._EXTREMAL_BUILDER[FAMILIES[pr.family].extremal]
    _, functional = _family_evaluator(pr.family, pr.weights, pr.params, np.array([r]),
                                      T_MAX + 1, POINTWISE)
    for k in range(1, verify.MAX_WITNESS_STEPS + 1):
        a = 1.0 - 2.0 ** -k
        val = float(functional([build(a)])[0, 0])
        if val > bound + verify.WITNESS_EXCESS_TOL:
            return verify.Witness(a=a, r=r, excess=val - bound)
    raise NoWitnessError("none")


def _outcome(search, *args):
    try:
        return search(*args)
    except (NotFalsifiableError, NoWitnessError, DomainError) as exc:
        return type(exc)


class TestBatchedWitness:
    """sharpness_witness evaluates its candidates four per pass; the witness
    and every error must be the one-by-one search's."""

    @staticmethod
    def cases(family):
        """Each problem with its certificate, one lowered by 0.03 (Psi > 0
        at R + delta for a small delta) and one at 0.99 (R + delta past the
        domain), each at delta = 0.02 and 0.05."""
        for pr in CRITERION_PROBLEMS[family]:
            cert = solve_radius(pr)
            for radius in (cert.radius, max(0.0, cert.radius - 0.03), 0.99):
                for delta in (0.02, 0.05):
                    yield pr, delta, dataclasses.replace(cert, radius=radius)

    @pytest.mark.parametrize("steps", [40, 5, 2])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_same_outcome_as_one_by_one(self, family, steps, monkeypatch):
        monkeypatch.setattr(verify, "MAX_WITNESS_STEPS", steps)
        for case in self.cases(family):
            alone = _outcome(_one_by_one_witness, *case)
            for _ in range(2):  # the second search reuses the kept first passes
                assert _outcome(sharpness_witness, *case) == alone, case

    def test_every_outcome_occurs(self, monkeypatch):
        monkeypatch.setattr(verify, "MAX_WITNESS_STEPS", 2)
        outcomes = {type(o) if isinstance(o, verify.Witness) else o
                    for family in FAMILIES for case in self.cases(family)
                    for o in [_outcome(sharpness_witness, *case)]}
        assert outcomes == {verify.Witness, NotFalsifiableError, NoWitnessError, DomainError}

    def _poisoned(self, monkeypatch, k_bad):
        """psi2 at m = 1, p = 2, whose witness is a = 1 - 2**-2, with the
        candidate 1 - 2**-k_bad replaced by a member that fails a guard."""
        real = verify.moebius_minus
        poison = BoundedFunction(np.array([0.5, 0.5]), 1.0)
        built = []

        def building(a):
            built.append(a)
            return poison if a == 1.0 - 2.0 ** -k_bad else real(a)

        monkeypatch.setitem(verify._EXTREMAL_BUILDER, "minus", building)
        pr = prob("psi2", PW, m=1, p=2.0)
        return pr, solve_radius(pr), built

    def test_witness_before_a_failing_candidate_is_returned(self, monkeypatch):
        pr, cert, built = self._poisoned(monkeypatch, 3)
        witness = sharpness_witness(pr, 0.02, cert)
        assert witness.a == 0.75
        # the pass over k = 1..4 raised and was replayed up to the witness
        # on its own members: the builder ran for the pass alone
        assert built == [0.5, 0.75, 0.875, 0.9375]
        assert sharpness_witness(pr, 0.02, cert) == witness  # replays the kept pass
        assert built == [0.5, 0.75, 0.875, 0.9375]
        assert witness == _one_by_one_witness(pr, 0.02, cert)

    def test_kept_passes_after_a_full_search(self, monkeypatch):
        real = verify.moebius_minus

        def never_a_witness(a):  # psi2's witness is at a = 0.75
            return real(0.5)

        monkeypatch.setitem(verify._EXTREMAL_BUILDER, "minus", never_a_witness)
        assert never_a_witness not in verify._WITNESS_PASSES
        pr = prob("psi2", PW, m=1, p=2.0)
        with pytest.raises(NoWitnessError):
            sharpness_witness(pr, 0.02)
        kept = verify._WITNESS_PASSES[never_a_witness]  # the first pass alone, k = 1..4
        assert isinstance(kept, Population) and len(kept) == 4

    def test_a_first_pass_of_other_length_is_rebuilt(self, monkeypatch):
        real = verify.moebius_minus
        built = []

        def building(a):
            built.append(a)
            return real(a)

        monkeypatch.setitem(verify._EXTREMAL_BUILDER, "minus", building)
        pr = prob("psi2", PW, m=1, p=2.0)
        cert = solve_radius(pr)
        monkeypatch.setattr(verify, "MAX_WITNESS_STEPS", 1)
        with pytest.raises(NoWitnessError):  # the witness is at k = 2
            sharpness_witness(pr, 0.02, cert)
        assert built == [0.5] and len(verify._WITNESS_PASSES[building]) == 1
        monkeypatch.setattr(verify, "MAX_WITNESS_STEPS", 40)
        witness = sharpness_witness(pr, 0.02, cert)
        assert built == [0.5, 0.5, 0.75, 0.875, 0.9375]
        assert witness == _one_by_one_witness(pr, 0.02, cert)
        assert len(verify._WITNESS_PASSES[building]) == 4

    def test_kept_passes_are_reused(self, monkeypatch):
        real = verify.moebius_minus
        built = []

        def building(a):
            built.append(a)
            return real(a)

        monkeypatch.setitem(verify._EXTREMAL_BUILDER, "minus", building)
        pr = prob("psi2", PW, m=1, p=2.0)
        first = sharpness_witness(pr, 0.02)
        assert built == [0.5, 0.75, 0.875, 0.9375]
        assert sharpness_witness(pr, 0.02) == first
        assert built == [0.5, 0.75, 0.875, 0.9375]

    def test_failing_candidate_before_the_witness_raises(self, monkeypatch):
        pr, cert, _ = self._poisoned(monkeypatch, 1)
        with pytest.raises(AccuracyError) as batched:
            sharpness_witness(pr, 0.02, cert)
        with pytest.raises(AccuracyError) as alone:
            _one_by_one_witness(pr, 0.02, cert)
        assert str(batched.value) == str(alone.value)


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

    def test_nonnegative_psi_past_the_radius_not_falsifiable(self):
        # a certificate whose radius lies far below the root: Psi > 0 at R + delta
        pr = prob("psi1", PW)
        cert = dataclasses.replace(solve_radius(pr), radius=0.0)
        with pytest.raises(NotFalsifiableError, match="Psi is nonnegative"):
            sharpness_witness(pr, 0.01, cert)

    def test_past_the_evaluation_domain(self):
        pr = prob("psi1", PW)
        cert = dataclasses.replace(solve_radius(pr), radius=0.99999)
        with pytest.raises(DomainError, match="leaves the evaluation domain"):
            sharpness_witness(pr, 0.01, cert)

    @pytest.mark.parametrize("radius", [-0.5, float("nan")])
    def test_radius_outside_the_domain(self, radius):
        pr = prob("psi1", HARMONIC)
        cert = dataclasses.replace(solve_radius(pr), radius=radius)
        with pytest.raises(DomainError, match="radius outside"):
            sharpness_witness(pr, 0.01, cert)

    def test_no_witness_within_the_step_limit(self, monkeypatch):
        monkeypatch.setattr(verify, "MAX_WITNESS_STEPS", 0)
        with pytest.raises(NoWitnessError, match="no witness found"):
            sharpness_witness(prob("psi1", PW), 0.01)

    def test_no_root_propagates(self):
        w = scaled_power(np.r_[1.0, np.zeros(63)], rho=0.5, C=1.0)
        with pytest.raises(NoRootError):
            sharpness_witness(prob("psi1", w), 0.01)

    # c_0 near the double range: at the root the block's weighted tail from
    # 0 overflows, while Psi stays finite, and positive inside the bracket
    HUGE = scaled_power([1.5e308, 1.5e308], rho=1.0, C=1.5e308)

    @pytest.mark.parametrize("family", ["psi1", "psi2", "psi3", "psi4", "classical_c",
                                        "psi5_t5", "classical_d"])
    def test_not_falsifiable_exactly_where_psi_is_nonnegative(self, family):
        # Psi at R + delta reads its tail from the witness's weight block, or
        # computes it where that block overflows: psi_eval decides either way
        for w in (PW, HARMONIC, self.HUGE) if FAMILIES[family].weighted else (None,):
            pr = prob(family, w, m=2, p=1.0)
            cert = solve_radius(pr)
            for radius in (cert.radius, cert.radius - 0.03, cert.bracket_lo - 1e-15):
                for delta in (1e-16, 1e-15, 1e-3, 0.02, 0.05):
                    r = radius + delta
                    if not (radius >= 0.0 and radius < r <= wt.R_EDGE):
                        continue
                    vacuous = float(psi_eval(pr, r)) >= 0.0
                    try:
                        sharpness_witness(pr, delta, dataclasses.replace(cert, radius=radius))
                        raised = False
                    except NotFalsifiableError:
                        raised = True
                    except (AccuracyError, NoWitnessError):
                        raised = False
                    assert raised == vacuous, (w and w.kind, radius, delta)

    @pytest.mark.parametrize("family, w", [("psi3", HARMONIC), ("psi1", HARMONIC),
                                           ("psi2", PW), ("classical_d", None)])
    def test_warm_search_reads_psi_from_its_block(self, monkeypatch, family, w):
        # one table of weight tails per search, and no psi_eval call
        pr = prob(family, w, m=2, p=1.5)
        cert = solve_radius(pr)
        first = sharpness_witness(pr, 0.02, cert)
        calls = []

        def counting(name, real):
            def counted(*args, **kw):
                calls.append(name)
                return real(*args, **kw)
            return counted

        monkeypatch.setattr(radii, "psi_eval", counting("psi_eval", radii.psi_eval))
        monkeypatch.setattr(verify, "psi_eval", counting("psi_eval", radii.psi_eval),
                            raising=False)
        for name in ("_tail2", "_tails2"):
            monkeypatch.setattr(wt.WeightSequence, name,
                                counting(name, getattr(wt.WeightSequence, name)))
        assert sharpness_witness(pr, 0.02, cert) == first
        assert calls == ["_tails2"]


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

    @pytest.mark.parametrize("trials", [True, 2.5, -1])
    def test_non_count_trials_rejected(self, trials):
        with pytest.raises(DomainError, match="at least one trial, as an integer"):
            check_lemma_coeff(trials)

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
        lhs = verify._run(pool, lambda pop: verify._bohr_sum_arr(pop, blk, 1)
                          + verify._a_refinement_arr(pop, blk))
        rhs = np.array([1.0 - abs(f.coeffs[0]) ** 2 for f in pool])[:, None] * PW.tail(1, rs)
        assert check_lemma_coeff(25, 7) == float(np.max(lhs - rhs))

    def test_pool_is_joined_once(self, monkeypatch):
        joined = []

        class Counting(Population):
            def __init__(self, fs=()):
                joined.append(len(self))
                super().__init__(fs)

        # psi1's standard population, then the three moebius_minus members
        monkeypatch.setattr(verify, "Population", Counting)
        check_lemma_coeff(30, 7)
        assert joined == [len(verify.MOEBIUS_A_GRID) + 30, 3]

    def test_small_chunks_equal_one_pass(self, monkeypatch):
        sizes = []
        real = verify._run

        def recording(fs, body):
            sizes.append(len(fs))
            return real(fs, body)

        monkeypatch.setattr(verify, "_run", recording)
        whole = check_lemma_coeff(30, 7, HARMONIC)
        standard = len(verify.MOEBIUS_A_GRID) + 30
        assert sizes == [standard, 3]
        for budget, size in ((19 * 5, 5), (1, 1)):
            sizes.clear()
            monkeypatch.setattr(verify, "_CHUNK_ELEMENTS", budget)
            assert check_lemma_coeff(30, 7, HARMONIC) == whole
            # each population in chunks of size, the last chunk of each the rest
            chunks = [min(size, n - i) for n in (standard, 3) for i in range(0, n, size)]
            assert sizes == chunks and sum(sizes) == standard + 3


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
    @pytest.mark.parametrize("trials", [0, -1, True, 2.5])
    def test_non_count_trials_rejected(self, trials):
        # no trials would report -inf slacks, which pass every threshold
        with pytest.raises(DomainError, match="at least one trial, as an integer"):
            check_schwarz_pick(trials)

    def test_property_run(self):
        rep = check_schwarz_pick(100, 42)
        assert rep["max_contraction_slack"] <= 1e-8
        assert rep["max_derivative_slack"] <= 1e-8
        assert rep["moebius_equality_dev"] <= 1e-10
        assert rep["strict_contraction_found"] > 0
