"""Compare the ``tools/golden.py`` dump of a git revision with the working tree.

Run from anywhere::

    python3 tools/golden_diff.py [REV]

REV defaults to HEAD.  Both sides run this checkout's ``tools/golden.py``:
REV's ``src/`` is unpacked with ``git archive REV src | tar -x`` into a
temporary directory next to a copy of the script, and the working tree
runs the script in place, so the comparison needs no network and leaves
``.git`` untouched.  For each side it prints the ``src/bohrkit/*.py`` line
count and the dump's line count and sha256, then numpy's version, its
``__cpu_baseline__`` and the ``__cpu_dispatch__`` targets its
``__cpu_features__`` enable, as the interpreter and environment that ran
both dumps report them (so ``NPY_DISABLE_CPU_FEATURES`` shows): the dumps'
float bits, and so the shas, depend on that dispatch.  Then comes a
unified diff of the two dumps.  When they differ, a summary line follows the diff: how many
changed lines differ only in float tokens, the largest relative change
among those tokens, and how many changed lines differ in anything else
(a line with no counterpart included).  A last line counts the changed
lines by their first token, most frequent first (``functional 82,
bohr_sum 20, ...``), to show at a glance where a diff lies.  Exit code: 0
when the dumps are byte-identical, 1 when they differ, 2 when a side
cannot be built or run.
"""

from __future__ import annotations

import collections
import difflib
import hashlib
import itertools
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tools" / "golden.py"


def unpack(rev: str, dest: Path, *paths: str):
    """REV's paths under dest: ``git archive REV paths | tar -x -C dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *paths],
                             stdout=subprocess.PIPE, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def src_lines(root: Path) -> int:
    """Newlines in src/bohrkit/*.py, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "bohrkit").glob("*.py"))


def dump(root: Path) -> bytes:
    """Standard output of ``root/tools/golden.py``, which imports ``root/src``."""
    return subprocess.run([sys.executable, str(root / "tools" / "golden.py")],
                          stdout=subprocess.PIPE, check=True).stdout


# numpy's version, baseline, dispatch targets and CPU features, as JSON
_DISPATCH_QUERY = """
import json, numpy
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as umath
print(json.dumps([numpy.__version__, umath.__cpu_baseline__, umath.__cpu_dispatch__,
                  umath.__cpu_features__]))
"""


def dispatch_record(version: str, baseline: list[str], targets: list[str],
                    features: dict[str, bool]) -> str:
    """``numpy 2.4.6, baseline X86_V2, dispatch X86_V3 X86_V4``: the
    version, the baseline and the dispatch targets that features enables,
    in numpy's order; ``none`` for an empty list."""
    enabled = [t for t in targets if features.get(t)]
    return (f"numpy {version}, baseline {' '.join(baseline) or 'none'}, "
            f"dispatch {' '.join(enabled) or 'none'}")


def numpy_dispatch() -> str:
    """dispatch_record of the numpy that dump's interpreter imports."""
    out = subprocess.run([sys.executable, "-c", _DISPATCH_QUERY],
                         stdout=subprocess.PIPE, check=True).stdout
    return dispatch_record(*json.loads(out))


# a float as repr writes it: a point or an exponent, not part of a name
_FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|inf|nan)(?![\w.])")


def _relative_change(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if math.isfinite(scale) and scale > 0.0 else math.inf


def _changes(before: list[str], after: list[str]):
    """Each changed line between two dumps' lines as (old, new).  A changed
    line is paired with the line at the same offset of the other side's
    replaced block; a line without a counterpart comes with None."""
    matcher = difflib.SequenceMatcher(None, before, after, autojunk=False)
    for tag, i0, i1, j0, j1 in matcher.get_opcodes():
        if tag != "equal":
            yield from itertools.zip_longest(before[i0:i1], after[j0:j1])


def summarize(before: list[str], after: list[str]) -> tuple[int, float, int]:
    """(lines that differ only in float tokens, the largest relative change
    among their tokens, other changed lines) between two dumps' lines; a
    line without a counterpart counts as other."""
    floats, largest, other = 0, 0.0, 0
    for old, new in _changes(before, after):
        old_tokens, new_tokens = _FLOAT.findall(old or ""), _FLOAT.findall(new or "")
        if (old is None or new is None or _FLOAT.sub("#", old) != _FLOAT.sub("#", new)
                or len(old_tokens) != len(new_tokens)):
            other += 1
            continue
        floats += 1
        largest = max([largest] + [_relative_change(float(a), float(b))
                                   for a, b in zip(old_tokens, new_tokens)])
    return floats, largest, other


def first_tokens(before: list[str], after: list[str]) -> str:
    """The changed lines counted by their first word, most frequent first,
    as ``functional 82, bohr_sum 20``; a JSON key loses its quotes and
    colon.  The counts add up to summarize's two line counts."""
    counts = collections.Counter(((old or new).split() or [""])[0].strip('",:')
                                 for old, new in _changes(before, after))
    return ", ".join(f"{token} {count}" for token, count in counts.most_common())


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: golden_diff.py [REV]", file=sys.stderr)
        return 2
    rev = argv[0] if argv else "HEAD"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            old = Path(tmp)
            unpack(rev, old, "src")
            (old / "tools").mkdir()
            shutil.copy(GOLDEN, old / "tools" / "golden.py")
            sides = [(rev, src_lines(old), dump(old)),
                     ("working tree", src_lines(ROOT), dump(ROOT))]
            record = numpy_dispatch()
    except subprocess.CalledProcessError as exc:
        print(f"golden_diff: {' '.join(map(str, exc.cmd))} exited {exc.returncode}",
              file=sys.stderr)
        return 2
    for name, lines, out in sides:
        newlines = out.count(b"\n")
        print(f"{name}: src/bohrkit/*.py {lines} lines; dump {newlines} lines, "
              f"sha256 {hashlib.sha256(out).hexdigest()}")
    print(f"both dumps: {record}")
    (_, _, before), (_, _, after) = sides
    before_lines = before.decode().splitlines(keepends=True)
    after_lines = after.decode().splitlines(keepends=True)
    sys.stdout.writelines(difflib.unified_diff(
        before_lines, after_lines, fromfile=f"golden @ {rev}", tofile="golden @ working tree"))
    if before == after:
        return 0
    floats, largest, other = summarize(before_lines, after_lines)
    print(f"summary: {floats} changed lines differ only in float tokens "
          f"(largest relative change {largest:.3g}); {other} changed lines differ otherwise")
    print(f"by first token: {first_tokens(before_lines, after_lines)}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
