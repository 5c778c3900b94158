"""Small checks of the benchmark itself, at tiny sizes (a few seconds)."""

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from bohrkit import radii, series, verify  # noqa: E402
from bohrkit import weights as wt  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_matches_harness():
    assert set(run.WORKLOADS) == set(wl.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(wl.WORKLOADS)
    assert units("end_to_end") == harness.END_TO_END_UNITS
    assert units("per_layer") == harness.PER_LAYER_UNITS


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_run_reports_every_end_to_end_metric(name):
    res = harness.run_untraced(name, seed=5, seconds=0.0, tiny=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    assert got == units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("name", ["certify_power", "table_sweep", "table_scaled",
                                  "lemma_suites"])
def test_tiny_traced_run_reports_layers_and_restores_names(name):
    originals = (radii.solve_radius, verify.solve_radius, verify.evaluate_family,
                 verify._EXTREMAL_BUILDER["plus"], vars(wt.WeightSequence)["tail"])
    res = harness.run_traced(name, seed=5, seconds=0.0, tiny=True)
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units("per_layer")
    assert res["metrics"]["radii.psi_eval.calls"]["value"] > 0
    assert originals == (radii.solve_radius, verify.solve_radius, verify.evaluate_family,
                         series.moebius_plus, vars(wt.WeightSequence)["tail"])


def test_perturbed_reference_radius_is_a_failure():
    reference = copy.deepcopy(wl.load_reference())
    for cert in reference["certify_power"].values():
        cert["radius"] += 1e-9
    res = harness.run_untraced("certify_power", seed=5, seconds=0.0, tiny=True,
                               reference=reference)
    assert not res["correct"]
    assert res["failed"] / res["attempted"] > 0
