"""The per-metric verdict and the traced counts of ``tools/bench_pairs.py``'s summary."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402  (it imports golden_diff from its own folder)

SPECS = [{"name": "setup_s", "better": "lower", "bound": 0.25},
         {"name": "items_per_s", "better": "higher", "bound": 0.25}]


def pairs(parent, change, metric):
    """One synthetic pair per value pair, with the other metric constant."""
    def record(value):
        metrics = {spec["name"]: {"value": 1.0} for spec in SPECS}
        metrics[metric] = {"value": value}
        return {"failed": 0, "metrics": metrics}
    return [{bench_pairs.PARENT: record(p), bench_pairs.CHANGE: record(c)}
            for p, c in zip(parent, change)]


def verdict(parent, change, metric="setup_s"):
    return bench_pairs.summarize(pairs(parent, change, metric), SPECS)[metric]["verdict"]


TIGHT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
# quartiles 0.825 and 1.175 about a median of 1.0: a spread of 0.35
WIDE = [0.6, 0.8, 0.8, 0.9, 1.0, 1.0, 1.1, 1.2, 1.2, 1.4]


def test_a_tight_parent_and_a_close_change_hold():
    assert verdict(TIGHT, [v * 1.1 for v in TIGHT]) == "held"
    assert verdict(TIGHT, [v * 0.9 for v in TIGHT], "items_per_s") == "held"
    assert verdict([1.0], [1.1]) == "held"  # one pair: no spread


@pytest.mark.parametrize("metric, factor", [("setup_s", 1.3), ("items_per_s", 0.7)])
def test_a_median_past_the_bound_is_worse(metric, factor):
    assert verdict(TIGHT, [v * factor for v in TIGHT], metric) == "worse"
    assert verdict(WIDE, [v * factor for v in WIDE], metric) == "worse"


@pytest.mark.parametrize("metric", ["setup_s", "items_per_s"])
def test_a_wide_parent_leaves_an_overlapping_change_unresolved(metric):
    assert verdict(WIDE, WIDE, metric) == "unresolved"
    assert verdict(WIDE, [1.0] * len(WIDE), metric) == "unresolved"


def test_a_change_that_beats_every_parent_run_is_better_despite_the_spread():
    # its median is then past the parent's q3 - q1 too
    assert verdict(WIDE, [0.5] * len(WIDE)) == "better"
    assert verdict(WIDE, [1.5] * len(WIDE), "items_per_s") == "better"
    # change runs inside the parent's range that lose 2 of 10 pairs leave
    # it unresolved
    assert verdict(WIDE, [0.7, 0.9] + [0.5] * 8) == "unresolved"


def test_a_change_past_the_parent_spread_in_nine_of_ten_pairs_is_better():
    assert verdict(TIGHT, [v * 1.3 for v in TIGHT], "items_per_s") == "better"
    assert verdict(TIGHT, [v * 0.7 for v in TIGHT]) == "better"
    # wins every pair, but the medians differ by less than the parent's q3 - q1
    assert verdict(WIDE, [v * 1.1 for v in WIDE], "items_per_s") == "unresolved"
    # 8 of 10 wins, a tie counting for neither side
    assert verdict(TIGHT, [v * 1.3 for v in TIGHT[:8]] + [0.5, TIGHT[9]],
                   "items_per_s") == "held"
    # fewer than ten pairs claim no gain
    assert verdict(TIGHT[:5], [v * 1.3 for v in TIGHT[:5]], "items_per_s") == "held"


@pytest.mark.parametrize("metric, wins", [("setup_s", 2), ("items_per_s", 3)])
def test_change_wins_counts_the_pairs_the_change_beats(metric, wins):
    # setup_s is lower-is-better and items_per_s higher-is-better; the tie
    # at 3.0 counts for neither side
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [0.5, 2.5, 3.0, 3.5, 6.0, 7.0]
    summary = bench_pairs.summarize(pairs(parent, change, metric), SPECS)
    assert summary[metric]["change_wins"] == wins


def traced_record(above):
    """A traced perfbench record whose radius_above_oracle check reads above."""
    return {"metrics": {"host.calib_ms": {"value": 9.0, "unit": "ms"},
                        "check.radius_above_oracle": {"value": above, "unit": "count"}}}


def test_radius_above_oracle_is_read_from_every_traced_workload():
    traced = {"seed": 41,
              bench_pairs.PARENT: {"certify_power": traced_record(60),
                                   "table_sweep": traced_record(885)},
              bench_pairs.CHANGE: {"certify_power": traced_record(0),
                                   "table_sweep": traced_record(3),
                                   "lemma_suites": {"metrics": {}}}}
    assert bench_pairs.above_oracle(traced) == {
        "certify_power": {bench_pairs.PARENT: 60, bench_pairs.CHANGE: 0},
        "lemma_suites": {bench_pairs.PARENT: None, bench_pairs.CHANGE: None},
        "table_sweep": {bench_pairs.PARENT: 885, bench_pairs.CHANGE: 3}}
