"""Check that this tree leaves every fit and every CLI command byte-identical to a git revision.

    python tests/golden/compare.py REV

It extracts REV with ``git archive`` into a temporary directory, so nothing
under ``.git`` changes, then runs REV's copy of ``fingerprint.py`` and of
``cli_fingerprint.py`` twice each: once on REV's ``src`` and once on this
tree's ``src``, with BLAS and OpenMP pinned to one thread. For each script
it prints ``identical (N lines)`` or the lines that differ, and it exits 1
if any line differs. The two fingerprints take about 40 s on two cores.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SCRIPTS = ("fingerprint.py", "cli_fingerprint.py")
ONE_THREAD = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")


def fingerprint(script: Path, src: Path) -> list[str]:
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, str(script)], env=env, check=True, stdout=subprocess.PIPE,
                          text=True).stdout.splitlines()


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} REV")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sys.argv[1]], check=True,
                             stdout=subprocess.PIPE).stdout
    differ = False
    with tempfile.TemporaryDirectory() as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        for name in SCRIPTS:
            script = Path(tmp) / "tests" / "golden" / name
            before, after = fingerprint(script, Path(tmp) / "src"), fingerprint(script, ROOT / "src")
            if before == after:
                print(f"{name}: identical ({len(after)} lines)")
                continue
            differ = True
            print(f"{name}: differs")
            for line in difflib.unified_diff(before, after, sys.argv[1], "this tree", n=0, lineterm=""):
                print(line)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
