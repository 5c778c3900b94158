"""The summary lines ``tools/golden_diff.py`` prints after a diff."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden_diff.py"
_SPEC = importlib.util.spec_from_file_location("golden_diff", _PATH)
golden_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_diff)
summarize = golden_diff.summarize
first_tokens = golden_diff.first_tokens
dispatch_record = golden_diff.dispatch_record


def test_identical_dumps_have_nothing_to_summarize():
    lines = ["radius psi1: 0.25\n", "exit 0\n"]
    assert summarize(lines, list(lines)) == (0, 0.0, 0)


def test_float_only_lines_and_their_largest_relative_change():
    before = ["head\n", "a: 1.0 2.5e-3\n", "b: [0.5, 3.0]\n", "tail\n"]
    after = ["head\n", "a: 1.0 2.5000000000000005e-3\n", "b: [0.5000000000000001, 3.0]\n",
             "tail\n"]
    floats, largest, other = summarize(before, after)
    assert (floats, other) == (2, 0)
    assert largest == pytest.approx(2.220446049250313e-16, rel=1e-6)


def test_anything_but_a_float_is_another_change():
    before = ["status: verified 0.5\n", "exit 1\n", "psi5_t5-m1-p1.5 0.25\n", "same\n"]
    after = ["status: violated 0.5\n", "exit 2\n", "psi5_t5-m1-p2.5 0.25\n", "same\n"]
    # a word, an integer and a number inside a name are not float tokens
    assert summarize(before, after) == (0, 0.0, 3)


def test_lines_without_a_counterpart_count_as_other():
    before = ["x 1.0\n", "y 2.0\n"]
    after = ["x 1.5\n", "y 2.0\n", "z 3.0\n", "w 4.0\n"]
    floats, largest, other = summarize(before, after)
    assert (floats, other) == (1, 2)
    assert largest == pytest.approx(1.0 / 3.0)


def test_a_changed_token_count_is_another_change():
    assert summarize(["v: 1.0 2.0\n"], ["v: 1.0\n"]) == (0, 0.0, 1)


def test_non_finite_tokens():
    floats, largest, other = summarize(["m 0.0\n", "n inf\n"], ["m 1e-300\n", "n inf\n"])
    assert (floats, largest, other) == (1, 1.0, 0)
    floats, largest, other = summarize(["n 1.0\n"], ["n inf\n"])
    assert (floats, other) == (1, 0) and math.isinf(largest)


def test_changed_lines_counted_by_first_token():
    before = ["functional a 1.0\n", "functional b 2.0\n", "bohr_sum c 3.0\n",
              "same 4.0\n", '  "max_derivative_slack": 1e-16,\n']
    after = ["functional a 1.5\n", "functional b 2.5\n", "bohr_sum c 3.5\n",
             "same 4.0\n", '  "max_derivative_slack": 2e-16,\n']
    # most frequent first; a JSON key loses its quotes and colon
    assert first_tokens(before, after) == "functional 2, bohr_sum 1, max_derivative_slack 1"


def test_first_token_counts_add_up_to_the_summary():
    before = ["x 1.0\n", "y 2.0\n", "same\n"]
    after = ["x 1.5\n", "y 2.0\n", "z 3.0\n", "z 4.0\n", "same\n"]
    floats, _, other = summarize(before, after)
    counts = first_tokens(before, after)
    assert counts == "z 2, x 1"
    assert sum(int(part.split()[1]) for part in counts.split(", ")) == floats + other


def test_identical_dumps_have_no_first_tokens():
    assert first_tokens(["a 1.0\n"], ["a 1.0\n"]) == ""


def test_dispatch_record_lists_the_enabled_targets_in_order():
    features = {"X86_V2": True, "X86_V3": True, "X86_V4": False, "AVX512_ICL": False,
                "AVX512_SPR": True}
    record = dispatch_record("2.4.6", ["X86_V2"],
                             ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"], features)
    assert record == "numpy 2.4.6, baseline X86_V2, dispatch X86_V3 AVX512_SPR"


def test_dispatch_record_without_targets():
    # a target numpy does not list among its features counts as disabled
    assert dispatch_record("1.26.4", [], ["AVX2"], {}) == \
        "numpy 1.26.4, baseline none, dispatch none"


def test_dispatch_record_of_this_interpreter():
    record = golden_diff.numpy_dispatch()
    assert record.startswith(f"numpy {np.__version__}, baseline ")
    assert ", dispatch " in record


def test_report_header_names_this_process_dispatch(pytestconfig):
    # the subprocess query runs in this process's environment, so it sees
    # the same NPY_DISABLE_CPU_FEATURES
    headers = pytestconfig.hook.pytest_report_header(config=pytestconfig,
                                                     start_path=pytestconfig.rootpath)
    assert golden_diff.numpy_dispatch() in headers
