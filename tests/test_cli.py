"""Command-line interface: outputs, determinism, and exit codes."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bohrkit import cli, verify
from bohrkit.cli import main
from bohrkit.errors import AccuracyError, NoWitnessError


# the stderr line of a table none of whose rows has a radius
NO_RADIUS = "no root: none of the {} table rows has a radius\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRadius:
    def test_psi1_value(self, capsys):
        code, out, _ = run(capsys, "radius", "--family", "psi1",
                           "--m", "1", "--p", "1", "--weights", "power")
        assert code == 0
        doc = json.loads(out)
        assert doc["radius"] == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-10)

    def test_psi2_value(self, capsys):
        code, out, _ = run(capsys, "radius", "--family", "psi2", "--p", "1")
        assert code == 0
        assert json.loads(out)["radius"] == pytest.approx(0.2, abs=1e-10)

    def test_psi1_p2_value(self, capsys):
        code, out, _ = run(capsys, "radius", "--family", "psi1", "--p", "2")
        assert json.loads(out)["radius"] == pytest.approx(1 / 3, abs=1e-10)

    @pytest.mark.parametrize("family, p", [("classical_beta", 2.0), ("classical_eta", 2.0),
                                           ("classical_alpha", 1.0), ("classical_zeta", 1.0),
                                           ("psi1", 0.5), ("classical_d", 0.5)])
    def test_reports_the_p_a_classical_theorem_pins(self, capsys, family, p):
        code, out, _ = run(capsys, "radius", "--family", family, "--p", "0.5")
        assert code == 0 and json.loads(out)["p"] == p

    @pytest.mark.parametrize("command", ("radius", "verify", "sharpness"))
    def test_pinned_p_ignores_an_out_of_range_p(self, capsys, command):
        # classical_beta's theorem pins p = 2; --p 3 is not checked against (0, 2]
        reports = []
        for p in ("3", "2"):
            code, out, _ = run(capsys, command, "--family", "classical_beta", "--p", p)
            assert code == 0
            reports.append({k: v for k, v in json.loads(out).items() if k != "elapsed"})
        assert reports[0] == reports[1]
        if command != "sharpness":  # whose report names no p
            assert (reports[0].get("problem") or reports[0])["p"] == 2.0

    def test_pinned_p_still_parses_p(self, capsys):
        code, out, err = run(capsys, "radius", "--family", "classical_beta", "--p", "two")
        assert (code, out) == (1, "") and err.startswith("usage error:")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, "radius", "--family", "classical_d",
                           "--output", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["radius"] > 0.0

    def test_weights_from_json_file(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "scaled_power",
                                    "coeffs": [1.0, 0.5, 0.25],
                                    "rho": 0.5, "C": 1.0}))
        code, out, _ = run(capsys, "radius", "--family", "psi2",
                           "--weights", str(path))
        assert code == 0
        assert 0.0 < json.loads(out)["radius"] < 1.0


class TestTable:
    def test_m_sweep_monotone(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "psi1", "--m", "1..3")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "family,m,p,lambda,q,radius,bracket_width,status"
        assert len(lines) == 4
        radii = [float(line.split(",")[5]) for line in lines[1:]]
        assert radii == sorted(radii)

    def test_p_column_is_the_requested_grid_point(self, capsys):
        # classical_beta's theorem pins p = 2: every row has its radius
        code, out, _ = run(capsys, "table", "--family", "classical_beta", "--p", "0.5,1")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert code == 0 and [row[2] for row in rows] == ["0.5", "1"]
        assert rows[0][5] == rows[1][5]

    def test_pinned_p_solved_once(self, capsys, monkeypatch):
        # four rows of one problem: the table keeps its certificate by the
        # pinned params, and an out-of-range p row reads the same radius
        solves, solve_radius = [], cli.solve_radius
        monkeypatch.setattr(cli, "solve_radius", lambda pr: solves.append(pr) or solve_radius(pr))
        code, out, _ = run(capsys, "table", "--family", "classical_beta", "--p", "0.5..2:0.5")
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert code == 0 and len(rows) == 4 and len(solves) == 1
        assert {row[5] for row in rows} == {repr(solve_radius(solves[0]).radius)}
        code, out, _ = run(capsys, "table", "--family", "classical_beta", "--p", "2,3")
        assert code == 0 and out.count(",ok\n") == 2 and len(solves) == 2

    def test_lambda_sweep_with_fixture(self, capsys):
        code, out, _ = run(capsys, "table", "--family", "psi5_t5",
                           "--p", "2", "--lambda", "0.5,1,2")
        rows = out.strip().split("\n")[1:]
        radii = [float(r.split(",")[5]) for r in rows]
        assert radii == sorted(radii, reverse=True)
        by_lam = {r.split(",")[3]: float(r.split(",")[5]) for r in rows}
        assert by_lam["1"] == pytest.approx(1 / 3, abs=1e-10)

    def test_deterministic_output(self, capsys):
        a = run(capsys, "table", "--family", "psi2", "--p", "0.5..2:0.5")
        b = run(capsys, "table", "--family", "psi2", "--p", "0.5..2:0.5")
        assert a == b

    def test_no_root_rows(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "scaled_power",
                                    "coeffs": [1.0] + [0.0] * 63,
                                    "rho": 0.5, "C": 1.0}))
        code, out, err = run(capsys, "table", "--family", "psi1",
                             "--weights", str(path))
        assert code == 2
        assert out.strip().split("\n")[1].endswith("no-root")
        assert err == NO_RADIUS.format(1)

    def test_psi0_not_positive_rows_invalid(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "scaled_power",
                                    "coeffs": [0.0, 0.5, 0.25],
                                    "rho": 0.5, "C": 1.0}))
        code, out, err = run(capsys, "table", "--family", "psi3",
                             "--p", "1,2", "--weights", str(path))
        assert code == 2
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 2
        assert all(row.endswith("invalid") for row in rows)
        assert err == NO_RADIUS.format(2)

    def test_m_zero_row_invalid(self, capsys):
        code, out, err = run(capsys, "table", "--family", "psi5_t5", "--m", "0")
        assert code == 2
        assert out.strip().split("\n")[1:] == ["psi5_t5,0,1,1,2,,,invalid"]
        assert err == NO_RADIUS.format(1)

    def test_one_radius_is_enough(self, capsys):
        code, out, err = run(capsys, "table", "--family", "psi5_t5", "--m", "0,1")
        assert code == 0 and err == ""
        statuses = [row.rsplit(",", 1)[1] for row in out.strip().split("\n")[1:]]
        assert statuses == ["invalid", "ok"]

    def test_invalid_rows(self, capsys):
        code, out, err = run(capsys, "table", "--family", "psi5_t6",
                             "--m", "2", "--q", "2")
        assert code == 2
        assert out.strip().split("\n")[1].endswith("invalid")
        assert err == NO_RADIUS.format(1)


class TestUsageErrors:
    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "radius", "--family", "psi9")
        assert code == 1

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "table", "--family", "psi1", "--m", "3..1")
        assert code == 1
        assert "usage error" in err

    @pytest.mark.parametrize("argv, message", [
        (("--m", ""), "empty value list"),
        (("--p", "1..x"), "bad range '1..x'"),
        (("--m", "1,2"), "--m takes one value here"),
    ], ids=["empty-list", "range-bound-not-a-number", "two-values"])
    def test_value_list_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "radius", "--family", "psi1", *argv)
        assert (code, out, err) == (1, "", f"usage error: {message}\n")

    def test_bad_value_list(self, capsys):
        code, _, _ = run(capsys, "radius", "--family", "psi1", "--p", "abc")
        assert code == 1

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "radius", "--family", "psi1", "--bogus", "1")
        assert code == 1

    def test_out_of_range_parameter(self, capsys):
        code, _, _ = run(capsys, "radius", "--family", "psi1", "--p", "3")
        assert code == 1

    @pytest.mark.parametrize("command", [
        ("radius", "--family", "psi1"),
        ("table", "--family", "psi1", "--m", "1,2"),
    ])
    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_output(self, capsys, tmp_path, command, target):
        code, out, err = run(capsys, *command, "--output", str(tmp_path / target))
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert str(tmp_path) in err
        assert not (tmp_path / "missing").exists()

    def test_psi0_not_positive(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "scaled_power",
                                    "coeffs": [0.0, 0.5, 0.25],
                                    "rho": 0.5, "C": 1.0}))
        code, out, err = run(capsys, "radius", "--family", "psi3",
                             "--weights", str(path))
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "Psi(0)" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fields", [
        '"coeffs": [1.0, 0.5], "rho": 0.5, "C": Infinity',
        '"coeffs": [1.0, NaN], "rho": 0.5, "C": 1.0',
    ])
    def test_non_finite_weights(self, capsys, tmp_path, fields):
        path = tmp_path / "w.json"
        path.write_text('{"kind": "scaled_power", ' + fields + '}')
        code, out, err = run(capsys, "radius", "--family", "psi1",
                             "--weights", str(path))
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "finite" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, text", [
        ("missing.json", None),
        ("adir", None),
        ("w.json", "not json"),
        ("w.json", '{"kind": "scaled_power", "coeffs": [1.0], "rho": "abc"}'),
        ("w.json", '{"kind": "scaled_power", "coeffs": [1.0], "C": [2.0]}'),
        ("w.json", '{"kind": "scaled_power", "coeffs": ["x", 0.5]}'),
    ])
    def test_unreadable_weights(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        if name == "adir":
            path.mkdir()
        elif text is not None:
            path.write_text(text)
        code, out, err = run(capsys, "radius", "--family", "psi1",
                             "--weights", str(path))
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("identity-check", "--grid", "0"),
        ("identity-check", "--grid", "-2"),
        ("verify", "--family", "psi1", "--seed", "-1"),
        ("check-lemmas", "--seed", "-1"),
        ("verify", "--family", "psi1", "--blaschke", "-5"),
        ("verify", "--family", "psi1", "--margin", "nan"),
        ("radius", "--family", "psi1", "--lambda", "nan"),
    ])
    def test_out_of_range_flags(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("radius", "--family", "psi1", "--m", "1e400"),
        ("radius", "--family", "psi5_t6", "--q", "inf"),
        ("radius", "--family", "classical_d", "--n", "inf"),
        ("table", "--family", "psi1", "--m", "1..1e400"),
        ("table", "--family", "psi1", "--p", "0.5..inf:0.5"),
        ("table", "--family", "psi1", "--p", "nan..2"),
        ("table", "--family", "psi1", "--p", "0.5..2:nan"),
        ("table", "--family", "psi1", "--p", "0..2:1e-12"),
        ("table", "--family", "psi1", "--p", "0..2:1e-320"),
        # 1000 * 200 rows: rejected from the count, before any row is solved
        ("table", "--family", "psi1", "--m", "1..1000", "--p", "0.01..2:0.01"),
    ])
    def test_numeric_inputs_rejected(self, capsys, monkeypatch, argv):
        def solve_radius(prob):
            raise RuntimeError("solved a row of a rejected table")
        monkeypatch.setattr(cli, "solve_radius", solve_radius)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    def test_r_points_capped_before_verifying(self, capsys, monkeypatch):
        def verify_below_radius(*args, **kw):
            raise RuntimeError("verified with a rejected radius grid")
        monkeypatch.setattr(cli, "verify_below_radius", verify_below_radius)
        code, out, err = run(capsys, "verify", "--family", "psi1",
                             "--r-points", "100000000000")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("worker, argv", [
        ("cmd_identity_check", ("identity-check", "--grid", "10000000")),
        ("cmd_identity_check", ("identity-check", "--grid", "1001")),
        ("verify_below_radius", ("verify", "--family", "psi1", "--blaschke", "2001")),
        ("verify_below_radius", ("verify", "--family", "psi1", "--blaschke", "-1")),
        ("check_lemmas", ("check-lemmas", "--trials", "2001")),
        ("check_lemmas", ("check-lemmas", "--trials", "0")),
    ])
    def test_size_flags_capped_before_working(self, capsys, monkeypatch, worker, argv):
        def refuse(*args, **kw):
            raise RuntimeError(f"{worker} ran with a rejected size")
        monkeypatch.setattr(cli, worker, refuse)
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("identity-check", "--grid", "1000"),
        ("verify", "--family", "psi1", "--blaschke", "2000"),
        ("check-lemmas", "--trials", "2000"),
    ])
    def test_size_flags_accept_their_cap(self, capsys, monkeypatch, argv):
        def stop(*args, **kw):
            raise cli.NoRootError("reached the worker")
        for worker in ("cmd_identity_check", "verify_below_radius", "check_lemmas"):
            monkeypatch.setattr(cli, worker, stop)
        code, _, err = run(capsys, *argv)
        assert code == 2 and "reached the worker" in err

    def test_nan_lambda_table_row_invalid(self, capsys):
        code, out, err = run(capsys, "table", "--family", "psi1", "--lambda", "nan")
        assert code == 2
        assert out.strip().split("\n")[1].endswith("invalid")
        assert err == NO_RADIUS.format(1)


class TestSuites:
    def test_verify_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "psi1",
                           "--r-points", "32", "--blaschke", "5")
        assert code == 0
        assert json.loads(out)["status"] == "verified"

    def test_verify_reports_the_pinned_p(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "classical_eta", "--p", "0.5",
                           "--r-points", "8", "--blaschke", "2")
        assert code == 0 and json.loads(out)["problem"]["p"] == 2.0

    def test_sharpness(self, capsys):
        code, out, _ = run(capsys, "sharpness", "--family", "psi1",
                           "--delta", "0.01")
        assert code == 0
        doc = json.loads(out)
        assert doc["witness"]["excess"] > 1e-12
        assert doc["witness"]["r"] > doc["radius"]

    def test_sharpness_delta_below_double_spacing(self, capsys):
        code, out, err = run(capsys, "sharpness", "--family", "psi1",
                             "--delta", "1e-300")
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and "spacing of doubles" in err
        assert err.count("\n") == 1

    def test_check_lemmas(self, capsys):
        code, out, _ = run(capsys, "check-lemmas", "--trials", "50")
        assert code == 0
        assert json.loads(out)["status"] == "ok"

    def test_check_lemmas_applies_the_d_monotonicity_check(self, capsys, monkeypatch):
        # a D-lemma report that fails only its monotonicity-in-a check
        real = verify.check_lemma_D

        def decreasing(instance, m=1, p=1.0, w=None):
            rep = real(instance, m=m, p=p, w=w)
            if "min_a_increment" in rep:
                rep["min_a_increment"] = -1e-6
            return rep

        monkeypatch.setattr(verify, "check_lemma_D", decreasing)
        code, out, _ = run(capsys, "check-lemmas", "--trials", "5")
        assert code == 3
        doc = json.loads(out)
        assert doc["status"] == "violated"
        assert min(rep.get("min_a_increment", 0.0) for rep in doc["d_function"]) == -1e-6

    def test_identity_check(self, capsys):
        code, out, _ = run(capsys, "identity-check", "--grid", "20")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "ok"
        assert doc["crosscheck_max_gap"] <= 1e-10

    def test_verify_deterministic_modulo_timing(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run(capsys, "verify", "--family", "psi5_t5",
                            "--r-points", "16", "--blaschke", "5",
                            "--seed", "7")
            doc = json.loads(out)
            doc.pop("elapsed")
            outs.append(doc)
        assert outs[0] == outs[1]


class TestOneFailureLine:
    """Every nonzero exit prints one stderr line, written by ``main`` alone."""

    def test_verify_violation(self, capsys, monkeypatch):
        real = cli.verify_below_radius

        def violated(*args, **kw):
            return dataclasses.replace(real(*args, **kw), max_violation=0.5)
        monkeypatch.setattr(cli, "verify_below_radius", violated)
        code, out, err = run(capsys, "verify", "--family", "psi1",
                             "--r-points", "4", "--blaschke", "0")
        assert code == cli.EXIT_VERIFICATION
        assert json.loads(out)["status"] == "violated"
        assert err == "verification failure: max violation 0.5 at family psi1\n"

    def test_sharpness_without_witness(self, capsys, monkeypatch):
        def none_found(*args, **kw):
            raise NoWitnessError("psi1: none found")
        monkeypatch.setattr(cli, "sharpness_witness", none_found)
        code, out, err = run(capsys, "sharpness", "--family", "psi1")
        assert code == cli.EXIT_VERIFICATION
        doc = json.loads(out)
        assert list(doc) == ["family", "radius", "witness", "reason"]
        assert doc["witness"] is None and doc["reason"] == "psi1: none found"
        assert err == "verification failure: psi1: none found\n"

    def test_check_lemmas_violated(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "check_lemmas", lambda *args: {"status": "violated"})
        code, out, err = run(capsys, "check-lemmas", "--trials", "1")
        assert code == cli.EXIT_VERIFICATION
        assert json.loads(out) == {"status": "violated"}
        assert err.startswith("verification failure:") and err.count("\n") == 1

    def test_identity_check_violated(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "classical_crosscheck",
                            lambda m, p_case: [("psi1", 0.25, 0.5)])
        code, out, err = run(capsys, "identity-check", "--grid", "3")
        assert code == cli.EXIT_VERIFICATION
        doc = json.loads(out)
        assert doc["status"] == "violated" and doc["crosscheck_max_gap"] == 0.25
        assert err.startswith("verification failure:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("radius", "--family", "psi1"),
        ("table", "--family", "psi1", "--m", "1,2"),
        ("verify", "--family", "psi1"),
        ("sharpness", "--family", "psi1"),
    ])
    def test_accuracy_error(self, capsys, monkeypatch, argv):
        def inaccurate(*args, **kw):
            raise AccuracyError("remainder 1e-9 above 1e-12")
        monkeypatch.setattr(cli, "solve_radius", inaccurate)
        monkeypatch.setattr(cli, "verify_below_radius", inaccurate)
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_ACCURACY and out == ""
        assert err == "accuracy error: remainder 1e-9 above 1e-12\n"

    def test_uncertifiable_lacunary_sum(self, capsys):
        # the radius lies so near 1 that the Moebius members' own tail
        # bounds leave a remainder of 8.25e-12
        code, out, err = run(capsys, "verify", "--family", "classical_d", "--n", "100000",
                             "--r-points", "3", "--blaschke", "0")
        assert code == cli.EXIT_ACCURACY and out == ""
        assert err.startswith("accuracy error:") and err.count("\n") == 1

    def test_blaschke_tail_certifies_lacunary_sum(self, capsys):
        # the product's Cauchy tail bound (at most 1e-25) certifies the sum
        # at a radius of 0.9936, where a tail bound of 1 left 5.56e-10
        code, out, err = run(capsys, "verify", "--family", "classical_d", "--n", "1000",
                             "--r-points", "3", "--blaschke", "1")
        assert code == 0 and err == ""
        assert json.loads(out)["status"] == "verified"

    def test_radius_without_root(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"kind": "scaled_power", "coeffs": [1.0] + [0.0] * 63,
                                    "rho": 0.5, "C": 1.0}))
        code, out, err = run(capsys, "radius", "--family", "psi1", "--weights", str(path))
        assert code == cli.EXIT_NO_ROOT and out == ""
        assert err.startswith("no root:") and err.count("\n") == 1

    def test_message_newlines_are_flattened(self, capsys):
        code, _, err = run(capsys, "radius", "--family", "psi1", "extra\nword")
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error:") and err.count("\n") == 1


class TestInProcessReuse:
    """One process may call ``main`` many times: it reuses one parser and
    the parsed weights of each file text."""

    def test_rewritten_weight_file_is_read_again(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        argv = ("table", "--family", "psi2", "--p", "1,2", "--weights", str(path))
        outs = []
        for i, c2 in enumerate((0.25, 0.125)):
            text = json.dumps({"kind": "scaled_power", "coeffs": [1.0, 0.5, c2],
                               "rho": 0.5, "C": 1.0})
            path.write_text(text)
            code, out, _ = run(capsys, *argv)
            assert code == 0
            other = tmp_path / f"copy{i}.json"
            other.write_text(text)
            assert run(capsys, *argv[:-1], str(other)) == (0, out, "")
            outs.append(out)
        assert outs[0] != outs[1]

    def test_fixed_weight_file_loads(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        argv = ("radius", "--family", "psi2", "--weights", str(path))
        path.write_text('{"kind": "scaled_power", "coeffs": [1.0, 0.5], "rho": 2.0}')
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE and out == ""
        assert err == "usage error: rho must lie in (0, 1]\n"
        path.write_text('{"kind": "scaled_power", "coeffs": [1.0, 0.5], "rho": 0.5}')
        code, out, _ = run(capsys, *argv)
        assert code == 0 and 0.0 < json.loads(out)["radius"] < 1.0

    def test_parser_keeps_no_state_between_calls(self, capsys):
        table = ("table", "--family", "psi1", "--m", "2..3", "--p", "0.5,2")
        calls = [table,
                 ("table", "--family", "psi2", "--lambda", "3", "--m"),  # usage error
                 ("radius", "--family", "psi1"),
                 table]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        fresh = {argv: subprocess.run([sys.executable, "-m", "bohrkit", *argv], env=env,
                                      capture_output=True, text=True, timeout=120)
                 for argv in set(calls)}
        for argv in calls:
            code, out, err = run(capsys, *argv)
            proc = fresh[argv]
            assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
            assert err.count("\n") == (code != 0)
        assert fresh[calls[1]].returncode == cli.EXIT_USAGE
