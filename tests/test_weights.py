"""Weight sequences: point values, tails, and the overestimate contract."""

import json

import numpy as np
import pytest

from bohrkit import DomainError, from_json, power, scaled_power
from bohrkit.weights import WeightSequence


def brute_tail(w, N, r, terms=10_000, weighted=False):
    ns = np.arange(N, N + terms)
    vals = np.atleast_1d(w.weight_at(ns, r))
    if weighted:
        vals = (ns + 1.0) * vals
    return float(vals.sum())


class TestWeightAt:
    def test_power_point_value(self):
        assert power().weight_at(3, 0.5) == pytest.approx(0.125, abs=1e-15)

    def test_power_at_zero_radius(self):
        w = power()
        assert w.weight_at(0, 0.0) == 1.0
        for n in (1, 2, 7):
            assert w.weight_at(n, 0.0) == 0.0

    def test_scaled_point_value(self):
        w = scaled_power(np.arange(1.0, 65.0), rho=1.0, C=64.0)
        assert w.weight_at(2, 0.5) == pytest.approx(0.75, abs=1e-15)

    def test_broadcast_shapes(self):
        for w in (power(), scaled_power([1.0, 0.5], rho=0.9)):
            for f in (w.weight_at, w.tail, w.weighted_tail):
                assert f([1, 2], 0.5).shape == (2,)
                assert f(2, [0.1, 0.2, 0.3]).shape == (3,)
                assert f([1, 2], [0.1, 0.2, 0.3]).shape == (2, 3)
                assert f([1], [0.5]).shape == (1, 1)
                assert type(f(1, 0.5)) is float


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


class TestValidation:
    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            power().weight_at(0, -0.1)

    def test_radius_above_edge_rejected(self):
        with pytest.raises(DomainError):
            power().tail(1, 1.0)

    def test_negative_coefficients_rejected(self):
        with pytest.raises(DomainError):
            scaled_power([1.0, -0.5])

    def test_dominator_violation_rejected(self):
        with pytest.raises(DomainError):
            scaled_power([1.0, 2.0], rho=0.5, C=1.0)

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


class TestJson:
    def test_power_roundtrip(self):
        w = from_json({"kind": "power"})
        assert w.kind == "power"
        assert from_json({"kind": "power", "rho": 1, "C": 1.0}).kind == "power"

    @pytest.mark.parametrize("extra", [{"rho": 0.5}, {"C": 3.0}, {"coeffs": [1.0]},
                                       {"rho": "0.5"}])
    def test_power_with_scaled_fields_rejected(self, extra):
        with pytest.raises(DomainError, match="power weights take no"):
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
