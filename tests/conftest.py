"""The header of a test run names numpy's SIMD dispatch in this process:
some float bits, and so the verdicts of strict xfails that pin them,
depend on it."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "golden_diff.py"


def numpy_dispatch_here() -> str:
    """``tools/golden_diff.py``'s dispatch_record of the numpy this process imported."""
    spec = importlib.util.spec_from_file_location("golden_diff", _PATH)
    golden_diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden_diff)
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return golden_diff.dispatch_record(np.__version__, umath.__cpu_baseline__,
                                       umath.__cpu_dispatch__, umath.__cpu_features__)


def pytest_report_header(config):
    return numpy_dispatch_here()


def pytest_report_collectionfinish(config, items):
    """The same line under -q, which hides the header, as tier-1 runs."""
    if config.option.verbose < 0:
        return numpy_dispatch_here()
