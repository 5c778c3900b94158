"""Weight sequences: point values, tails, and the overestimate contract."""

import json
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from bohrkit import DomainError, from_json, power, scaled_power
from bohrkit.radii import _SCAN_GRID, _bisection_path
from bohrkit.weights import R_EDGE, WeightSequence, _as_r


def brute_tail(w, N, r, terms=10_000, weighted=False):
    ns = np.arange(N, N + terms)
    vals = np.atleast_1d(w.weight_at(ns, r))
    if weighted:
        vals = (ns + 1.0) * vals
    return float(vals.sum())


class TestWeightAt:
    def test_power_point_value(self):
        assert power().weight_at(3, 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_power_is_one_shared_instance(self):
        # so the scan tails a first solve keeps serve every later caller
        w = power()
        assert w is power()
        with pytest.raises(AttributeError):
            w.kind = "scaled_power"

    def test_power_at_zero_radius(self):
        w = power()
        assert w.weight_at(0, 0.0) == 1.0
        for n in (1, 2, 7):
            assert w.weight_at(n, 0.0) == 0.0

    def test_scaled_point_value(self):
        w = scaled_power(np.arange(1.0, 65.0), rho=1.0, C=64.0)
        assert w.weight_at(2, 0.5) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("w", [power(), scaled_power([1.0, 0.5, 0.25], rho=0.9)],
                             ids=["power", "scaled"])
    def test_whole_float_index_is_the_integer(self, w):
        for f in (w.weight_at, w.tail, w.weighted_tail):
            assert f(2.0, 0.5) == f(2, 0.5)
            assert np.array_equal(f([1.0, 3.0], 0.5), f([1, 3], 0.5))

    def test_broadcast_shapes(self):
        for w in (power(), scaled_power([1.0, 0.5], rho=0.9)):
            for f in (w.weight_at, w.tail, w.weighted_tail):
                assert f([1, 2], 0.5).shape == (2,)
                assert f(2, [0.1, 0.2, 0.3]).shape == (3,)
                assert f([1, 2], [0.1, 0.2, 0.3]).shape == (2, 3)
                assert f([1], [0.5]).shape == (1, 1)
                assert type(f(1, 0.5)) is float

    @pytest.mark.parametrize("w", [power(), scaled_power(1.0 / (np.arange(40) + 1.0))],
                             ids=["power", "scaled"])
    def test_rows_built_in_one_matrix(self, w):
        # the bits of the product coeff * powers, without a second row matrix;
        # the scaled rows run past the stored list into the dominator
        ns, rs = np.arange(60), np.linspace(0.0, 0.99, 20_000)
        expected = w._coeff_eff(ns)[:, None] * np.power(rs[None, :], ns[:, None].astype(float))
        tracemalloc.start()
        try:
            rows = w._weight2(ns, rs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rows, expected)
        assert peak < 1.25 * rows.nbytes


class TestTail:
    def test_power_closed_forms(self):
        w = power()
        assert w.tail(1, 0.5) == pytest.approx(1.0, abs=1e-15)
        assert w.tail(0, 1.0 / 3.0) == pytest.approx(1.5, abs=1e-15)

    def test_zero_radius(self):
        for w in (power(), scaled_power([1.0, 0.5], rho=0.9, C=1.0)):
            assert w.tail(1, 0.0) == 0.0
            assert w.tail(5, 0.0) == 0.0

    def test_weighted_tail_closed_form(self):
        # sum (n+1) r^n from 1 equals r(2-r)/(1-r)^2
        assert power().weighted_tail(1, 0.5) == pytest.approx(3.0, abs=1e-13)
        assert power().weighted_tail(1, 0.0) == 0.0

    def test_against_brute_force(self):
        w = power()
        for r in (0.1, 0.3, 0.6, 0.9):
            assert w.tail(1, r) == pytest.approx(brute_tail(w, 1, r), abs=1e-12)
            assert w.weighted_tail(1, r) == pytest.approx(
                brute_tail(w, 1, r, weighted=True), abs=1e-12)

    def test_weighted_partial_sum_cross_check(self):
        ns = np.arange(1, 2001)
        partial = float(((ns + 1.0) * 0.3 ** ns).sum())
        assert power().weighted_tail(1, 0.3) == pytest.approx(partial, abs=1e-12)

    @pytest.mark.parametrize("weighted", (False, True))
    def test_geometric_tail_keeps_its_bits(self, weighted):
        # the in-place tail multiplies and divides in the order of the
        # expression C x^s ((s + 1) - s x) / (1 - x)^2, resp. C x^s / (1 - x)
        w = scaled_power([1.0, 0.5], rho=0.7, C=1.3)
        s = np.arange(0.0, 40.0)[:, None]
        x = np.linspace(0.0, 0.999, 101)[None, :]
        lead = w.C * x ** s
        expected = (lead * ((s + 1.0) - s * x) / (1.0 - x) ** 2 if weighted
                    else lead / (1.0 - x))
        assert np.array_equal(w._geom_tail(s.astype(int), x, weighted), expected)

    def test_huge_dominator_keeps_every_stored_term(self):
        # the cut's log argument 1e-18 (1 - x) / C underflows to 0 past C ~ 1e305
        w = scaled_power([1.0, 0.5], C=1e307)
        assert w._tail_cut(0.5) == 2
        assert w.tail(1, 0.5) == pytest.approx(0.25 + 1e307 * 0.25 / 0.5, rel=1e-15)

    def test_scaled_overestimates_partial_sums(self):
        w = scaled_power(1.0 / (np.arange(64) + 1.0), rho=1.0, C=1.0)
        for r in (0.2, 0.5, 0.8):
            for N in (1, 3, 10):
                assert w.tail(N, r) >= brute_tail(w, N, r, terms=4000) - 1e-12

    def test_monotone_in_start_index(self):
        for w in (power(), scaled_power([2.0, 1.0, 0.5], rho=0.6, C=2.0)):
            rs = np.linspace(0.0, 0.9, 7)
            tails = [np.atleast_1d(w.tail(N, rs)) for N in range(6)]
            for a, b in zip(tails, tails[1:]):
                assert np.all(b <= a + 1e-15)

    def test_consistency_with_weight(self):
        for w in (power(), scaled_power([1.0, 0.9, 0.4, 0.2], rho=0.95, C=1.0)):
            for r in (0.0, 0.25, 0.7, 0.9):
                for N in (0, 1, 2, 5):
                    gap = w.tail(N, r) - w.tail(N + 1, r)
                    assert gap == pytest.approx(w.weight_at(N, r), abs=1e-12)

    def test_power_tail_from_zero_at_origin(self):
        # the n = 0 term at r = 0 is 0.0 ** 0.0, which is 1.0
        assert power().tail(0, 0.0) == 1.0
        assert np.array_equal(power().tail([0, 1, 2], 0.0), [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("w", [
        scaled_power([1.0, 0.5, 0.25], rho=1.0, C=1.0),
        scaled_power(1.5 * 0.9 ** np.arange(40), rho=0.9, C=2.0),
        scaled_power(1.0 / (np.arange(4096) + 1.0), rho=1.0, C=1.0),
    ])
    def test_past_the_cut_is_the_geometric_tail(self, w):
        # the cut never exceeds the stored list, so every N >= coeffs.size is
        # at or past it; the 3-term list's cut is the list length itself
        rs = np.linspace(0.0, 0.9, 65)
        x = w.rho * rs
        Ns = np.array([w.coeffs.size, w.coeffs.size + 1, w.coeffs.size + 37])
        s = Ns[:, None].astype(float)
        lead = w.C * x[None, :] ** s
        want = lead / (1.0 - x)
        assert np.array_equal(w.tail(Ns, rs), want)
        assert np.array_equal(w.weighted_tail(Ns, rs),
                              lead * ((s + 1.0) - s * x) / (1.0 - x) ** 2)
        # one point: past the cut the value does not depend on the grid
        for i, N in enumerate(Ns):
            for k in (0, 20, 64):
                assert w.tail(int(N), rs[k]) == want[i, k]

    @pytest.mark.parametrize("w", [power(), scaled_power(1.0 / (np.arange(300) + 1.0))])
    def test_one_geometric_tail_per_tail(self, monkeypatch, w):
        calls = {"_tail2": 0, "_geom_tail": 0}
        for name in calls:
            def counted(self, *args, _name=name, _orig=getattr(WeightSequence, name), **kw):
                calls[_name] += 1
                return _orig(self, *args, **kw)
            monkeypatch.setattr(WeightSequence, name, counted)
        rs = np.linspace(0.0, 0.9, 65)
        w.tail(1, 0.3)
        w.tail([0, 5, 400], rs)
        w.weighted_tail([1, 2, 500], rs)
        assert calls == {"_tail2": 3, "_geom_tail": 3}

    def test_tail_vanishes_near_edge(self):
        r = 0.99 * (1.0 - 1e-6)
        w = power()
        prev = np.inf
        for N in (1, 10, 100, 1000, 5000):
            t = w.tail(N, r)
            assert t < prev
            prev = t
        assert prev < 1e-15


def dyadic_midpoints(lo, hi):
    """The 31 midpoints of five dyadic levels of (lo, hi), in ascending
    order, each built from its neighbours with the bisection's own
    ``0.5 * (a + b)``."""
    pts = np.empty(33)
    pts[0], pts[32] = lo, hi
    step = 32
    while step > 1:
        half = step // 2
        pts[half::step] = 0.5 * (pts[:-half:step] + pts[step::step])
        step = half
    return pts[1:-1]


class TestOneStartTail:
    """A tail from one start on two or more radii sums only its own rows;
    a call with two starts builds the whole suffix matrix.  Both give the
    same bits, so a numpy that changes either summation order fails here."""

    WEIGHTS = {
        "power": power(),
        "harmonic": scaled_power(1.0 / (np.arange(4096) + 1.0), rho=1.0, C=1.0),
        "short": scaled_power([1.0, 0.5, 0.25], rho=0.5, C=1.0),
        "halves": scaled_power(0.5 ** np.arange(64), rho=0.5, C=1.0),
        "slow": scaled_power(0.9 ** np.arange(1024), rho=0.9, C=1.0),
    }

    @staticmethod
    def grids():
        rng = np.random.default_rng(1729)
        out = [np.sort(rng.uniform(0.0, rng.uniform(0.0, R_EDGE), rng.integers(1, 81)))
               for _ in range(120)]
        out += [_SCAN_GRID[start:start + 65] for start in range(0, _SCAN_GRID.size - 1, 64)]
        # a sorted batch of bisection midpoints and the unsorted path the
        # radius solver sends
        out += [dyadic_midpoints(0.4, 0.401), _bisection_path(0.4, 0.401, 0.4 + 0.001 / 3.0)]
        return out + [np.array([0.0]), np.array([R_EDGE])]

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("name", WEIGHTS)
    def test_matches_the_suffix_matrix_row(self, name, weighted):
        w = self.WEIGHTS[name]
        for rs in self.grids():
            # starts inside the shortest list's cut and past every cut
            for N in (1, 2, 70, 5000):
                one = w._tail2(np.array([N]), rs, weighted)
                assert one.shape == (1, rs.size)
                assert np.array_equal(one[0], w._tail2(np.array([N, N + 1]), rs, weighted)[0])


class TestValidation:
    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            power().weight_at(0, -0.1)

    def test_radius_above_edge_rejected(self):
        with pytest.raises(DomainError):
            power().tail(1, 1.0)

    def test_empty_radius_grid_rejected(self):
        with pytest.raises(DomainError, match="empty radius grid"):
            _as_r([])
        with pytest.raises(DomainError, match="empty radius grid"):
            power().tail(1, [])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError, match="unknown weight kind 'bogus'"):
            WeightSequence("bogus")

    def test_negative_coefficients_rejected(self):
        with pytest.raises(DomainError):
            scaled_power([1.0, -0.5])

    def test_dominator_violation_rejected(self):
        with pytest.raises(DomainError):
            scaled_power([1.0, 2.0], rho=0.5, C=1.0)

    @pytest.mark.parametrize("coeffs, rho, C", [
        # c_n = 1e-12 lies far above 0.1**n past n = 12; an absolute slack of
        # 1e-12 let it through, and tail(1, 0.9) came to 8.35e-12 against
        # 9.0e-12 for the stored terms alone
        ([1.0] + [1e-12] * 4095, 0.1, 1.0),
        ([1.0, 1.0 + 1e-12], 1.0, 1.0),
        ([0.0, 1e-13], 0.5, 0.0),
    ], ids=("tiny-coeffs", "relative-1e-12", "zero-C"))
    def test_excess_past_a_few_ulps_rejected(self, coeffs, rho, C):
        with pytest.raises(DomainError, match="exceed the declared dominator"):
            scaled_power(coeffs, rho=rho, C=C)

    def test_ulp_excess_raises_the_dominator(self):
        powers = 0.3 ** np.arange(64)
        assert scaled_power(powers, rho=0.3, C=1.0).C == 1.0
        c = powers.copy()
        c[5] = np.nextafter(c[5], 1.0)
        c[40] = np.nextafter(np.nextafter(c[40], 1.0), 1.0)
        w = scaled_power(c, rho=0.3, C=1.0)
        assert 1.0 < w.C <= 1.0 + 4 * sys.float_info.epsilon
        # the smallest such double: C*rho**n dominates every c_n in floats
        assert np.all(c <= w.C * powers)
        assert np.any(c > math.nextafter(w.C, 0.0) * powers)
        # the tail past the list reads the raised dominator
        x = 0.3 * 0.9
        assert w.tail(64, 0.9) == w.C * x ** 64 / (1.0 - x)

    def test_dominator_past_the_double_range_rejected(self):
        big = sys.float_info.max
        with pytest.raises(DomainError, match="overflows a double"):
            scaled_power([big, np.nextafter(0.5 * big, np.inf)], rho=0.5, C=big)

    def test_coefficient_cap(self):
        with pytest.raises(DomainError):
            scaled_power(np.ones(5000))

    @pytest.mark.parametrize("fields", [{"rho": 0.5}, {"C": 2.0}, {"rho": float("nan")},
                                        {"coeffs": np.ones(3)}])
    def test_power_takes_no_scaled_fields(self, fields):
        # power weights are r**n: a rho, C or coefficient list would be ignored
        with pytest.raises(DomainError, match="power weights take no"):
            WeightSequence("power", **fields)

    @pytest.mark.parametrize("r", [float("nan"), [0.1, float("nan")]])
    @pytest.mark.parametrize("w", [power(), scaled_power([1.0, 0.5], rho=0.9, C=1.0)])
    def test_nan_radius_rejected(self, w, r):
        for call in (lambda: w.weight_at(0, r), lambda: w.tail(1, r),
                     lambda: w.weighted_tail(1, r)):
            with pytest.raises(DomainError, match="radius outside"):
                call()

    def test_weighted_tail_needs_positive_start(self):
        with pytest.raises(DomainError):
            power().weighted_tail(0, 0.5)

    @pytest.mark.parametrize("N", [math.inf, -math.inf, 1e300, 2.0 ** 63, [1.0, 1e19],
                                   2 ** 70, -(2 ** 70), [1, 2 ** 70]],
                             ids=["inf", "-inf", "1e300", "2.0**63", "list-1e19",
                                  "2**70", "-2**70", "list-2**70"])
    @pytest.mark.parametrize("w", [power(), scaled_power([1.0, 0.5], rho=0.9, C=1.0)],
                             ids=["power", "scaled"])
    def test_index_past_int64_rejected(self, w, N):
        # a float index past int64 would cast with a warning, and numpy keeps
        # a Python int past it as an object, which raised OverflowError
        for call in (w.weight_at, w.tail, w.weighted_tail):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="index"):
                    call(N, 0.5)

    @pytest.mark.parametrize("N", [True, False, np.bool_(True), [True]])
    @pytest.mark.parametrize("w", [power(), scaled_power([1.0, 0.5], rho=0.9, C=1.0)],
                             ids=["power", "scaled"])
    def test_bool_index_rejected(self, w, N):
        # np.asarray(True) has a bool dtype, which the float branch took as 1
        for call in (w.weight_at, w.tail, w.weighted_tail):
            with pytest.raises(DomainError, match="index must be an integer"):
                call(N, 0.5)

    @pytest.mark.parametrize("fields", [
        {"coeffs": [1], "rho": 10 ** 400},
        {"coeffs": [1], "C": 10 ** 400},
        {"coeffs": [1, 10 ** 400]},
    ])
    def test_integer_too_large_for_a_double_rejected(self, tmp_path, fields):
        with pytest.raises(DomainError, match="must be numbers"):
            scaled_power(**fields)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "scaled_power", **fields}))
        with pytest.raises(DomainError, match="must be numbers"):
            from_json(path)

    @pytest.mark.parametrize("fields", [
        {"coeffs": [1.0, 0.5], "rho": True, "C": True},
        {"coeffs": [1.0, 0.5], "rho": True},
        {"coeffs": [1.0, 0.5], "C": False},
        {"coeffs": [True, 0.5]},
        {"coeffs": [1.0, False]},
        {"coeffs": True},
    ])
    def test_bool_rejected(self, tmp_path, fields):
        # numpy and float() read a bool as 1.0 or 0.0, so these passed as numbers
        with pytest.raises(DomainError, match="not bools"):
            scaled_power(**fields)
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "scaled_power", **fields}))
        with pytest.raises(DomainError, match="not bools"):
            from_json(path)
        with pytest.raises(DomainError, match="not bools"):
            from_json({"kind": "scaled_power", **fields})

    @pytest.mark.parametrize("fields", [
        {"coeffs": np.array([True, False])},
        {"coeffs": np.array([1.0, True], dtype=object)},
        {"coeffs": [1.0, np.False_]},
        {"coeffs": [1.0, 0.5], "rho": np.True_},
        {"coeffs": [1.0, 0.5], "C": np.array(True)},
    ], ids=["bool-array", "object-array", "numpy-bool-coeff", "numpy-bool-rho", "bool-0d-C"])
    def test_numpy_bool_rejected(self, fields):
        with pytest.raises(DomainError, match="not bools"):
            scaled_power(**fields)

    def test_numbers_still_accepted(self):
        # 1 and 1.0 are numbers; only the bool True is refused
        w = scaled_power([1, 0.5], rho=1, C=np.float64(1.0))
        assert w.weight_at(1, 0.5) == 0.25
        assert scaled_power(np.array([1.0, 0.5], dtype=object)).weight_at(1, 0.5) == 0.25

    def test_coefficients_are_a_read_only_copy(self):
        c = np.array([1.0, 0.5])
        w = scaled_power(c, rho=0.9)
        c[1] = -5.0  # past every check, had the weights kept the caller's array
        assert w.weight_at(1, 0.5) == 0.25
        with pytest.raises(ValueError, match="read-only"):
            w.coeffs[1] = -5.0
        assert w.weight_at(1, 0.5) == 0.25


class TestJson:
    def test_power_roundtrip(self):
        w = from_json({"kind": "power"})
        assert w.kind == "power"
        assert from_json({"kind": "power", "rho": 1, "C": 1.0}).kind == "power"

    def test_every_power_document_is_the_shared_instance(self, tmp_path):
        # so every power document shares the scan tails power() keeps
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "power", "C": 1}))
        assert from_json({"kind": "power"}) is power()
        assert from_json({"kind": "power", "rho": 1, "C": 1.0}) is power()
        assert from_json(path) is from_json(str(path)) is power()

    @pytest.mark.parametrize("extra", [{"rho": 0.5}, {"C": 3.0}, {"coeffs": [1.0]},
                                       {"rho": "0.5"}])
    def test_power_with_scaled_fields_rejected(self, extra):
        with pytest.raises(DomainError, match="power weights take no"):
            from_json({"kind": "power", **extra})

    @pytest.mark.parametrize("extra", [{"rho": True}, {"C": True}, {"rho": False}])
    def test_power_with_bool_fields_rejected(self, extra):
        # True == 1, so a bool rho or C passed the power check as 1
        with pytest.raises(DomainError, match="not bools"):
            from_json({"kind": "power", **extra})

    def test_scaled_from_file(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps(
            {"kind": "scaled_power", "coeffs": [1.0, 0.5], "rho": 0.9, "C": 2.0}))
        w = from_json(path)
        assert w.weight_at(1, 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            from_json({"kind": "scaled_power", "coeffs": [-1.0]})

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            from_json({"kind": "exotic"})

    def test_missing_kind_rejected(self):
        with pytest.raises(DomainError):
            from_json({"coeffs": [1.0]})

    @pytest.mark.parametrize("fields", [
        '"coeffs": [1.0, 0.5], "rho": 0.5, "C": Infinity',
        '"coeffs": [1.0, 0.5], "rho": 0.5, "C": -Infinity',
        '"coeffs": [1.0, 0.5], "rho": 0.5, "C": NaN',
        '"coeffs": [1.0, 0.5], "rho": NaN, "C": 1.0',
        '"coeffs": [1.0, 0.5], "rho": Infinity, "C": 1.0',
        '"coeffs": [1.0, NaN], "rho": 0.5, "C": 1.0',
        '"coeffs": [1.0, Infinity], "rho": 0.5, "C": 1.0',
    ])
    def test_non_finite_rejected(self, tmp_path, fields):
        # Python's json module reads the non-standard NaN / Infinity literals
        path = tmp_path / "w.json"
        path.write_text('{"kind": "scaled_power", ' + fields + '}')
        with pytest.raises(DomainError, match="finite"):
            from_json(path)

    def test_same_text_gives_one_instance(self, tmp_path):
        doc = {"kind": "scaled_power", "coeffs": [1.0, 0.375], "rho": 0.75, "C": 1.0}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(doc))
        assert from_json(a) is from_json(str(a)) is from_json(b)
        assert from_json(doc) is not from_json(doc)  # a dict is not cached

    def test_last_four_texts_are_kept(self, tmp_path):
        # a text is parsed again only after four other texts were read since
        def read(c1):
            path = tmp_path / f"{c1}.json"
            path.write_text(json.dumps({"kind": "scaled_power", "coeffs": [1.0, c1]}))
            return from_json(path)

        first = read(0.5)
        assert all(read(0.5) is first for _ in range(2))
        for c1 in (0.1, 0.2, 0.3):
            read(c1)
        assert read(0.5) is first
        for c1 in (0.1, 0.2, 0.3, 0.4):
            read(c1)
        again = read(0.5)
        assert again is not first and again.weight_at(1, 0.5) == first.weight_at(1, 0.5)

    def test_rewritten_file_loads_fresh(self, tmp_path):
        path = tmp_path / "w.json"
        for c1 in (0.5, 0.4, 0.5):  # texts of one length: the text is the key
            path.write_text(json.dumps({"kind": "scaled_power", "coeffs": [1.0, c1],
                                        "rho": 0.9, "C": 1.0}))
            assert from_json(path).weight_at(1, 0.5) == 0.5 * c1

    def test_fixed_bad_file_loads(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text('{"kind": "scaled_power", "coeffs": [1.0, -0.5]}')
        with pytest.raises(DomainError, match="nonnegative"):
            from_json(path)
        path.write_text('{"kind": "scaled_power", "coeffs": [1.0, 0.5]')
        with pytest.raises(DomainError, match="cannot read weight JSON"):
            from_json(path)
        path.write_text('{"kind": "scaled_power", "coeffs": [1.0, 0.5]}')
        assert from_json(path).weight_at(1, 0.5) == 0.25
