"""Compare the ``tools/golden.py`` dump of a git revision with the working tree.

Run from anywhere::

    python3 tools/golden_diff.py [REV]

REV defaults to HEAD.  Both sides run this checkout's ``tools/golden.py``:
REV's ``src/`` is unpacked with ``git archive REV src | tar -x`` into a
temporary directory next to a copy of the script, and the working tree
runs the script in place, so the comparison needs no network and leaves
``.git`` untouched.  For each side it prints the ``src/bohrkit/*.py`` line
count and the dump's line count and sha256, then a unified diff of the
two dumps.  Exit code: 0 when the dumps are byte-identical, 1 when they
differ, 2 when a side cannot be built or run.
"""

from __future__ import annotations

import difflib
import hashlib
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
    except subprocess.CalledProcessError as exc:
        print(f"golden_diff: {' '.join(map(str, exc.cmd))} exited {exc.returncode}",
              file=sys.stderr)
        return 2
    for name, lines, out in sides:
        newlines = out.count(b"\n")
        print(f"{name}: src/bohrkit/*.py {lines} lines; dump {newlines} lines, "
              f"sha256 {hashlib.sha256(out).hexdigest()}")
    (_, _, before), (_, _, after) = sides
    sys.stdout.writelines(difflib.unified_diff(
        before.decode().splitlines(keepends=True), after.decode().splitlines(keepends=True),
        fromfile=f"golden @ {rev}", tofile="golden @ working tree"))
    return 0 if before == after else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
