"""Print one SHA-256 per CLI command, to check that a change leaves the command line byte-identical.

Each line is ``<digest> <exit code> <arguments>``. The digest covers the exit code,
stdout, stderr, the category and text of every warning, any uncaught
exception's type and message, and the name and bytes of every file the
command wrote or changed. The commands run in-process, in order, inside a
fresh temporary directory and with relative paths, so no line depends on
where it ran:

- ``simulate`` for every generator;
- ``fit`` for all five models, then ``predict`` with each saved model on
  other votes;
- ``evaluate`` over all five models;
- ``reproduce`` for every target, with ``--out``;
- inputs known to exit 2 (bad counts and flags, malformed or mismatched
  votes, unknown names).

Warnings are recorded per command and hashed as category and text, without
the file and line they were raised from. Run it at two commits with BLAS
pinned to one thread and compare:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/cli_fingerprint.py > after.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import os
import tempfile
import warnings
from pathlib import Path

from click.testing import CliRunner

from judgeagg import cli

GENERATORS = ("ci-setup-1", "ci-setup-2", "ci-setup-3", "ci-setup-4", "shared-demo", "classdep-demo", "cw", "factor")


def commands():
    """The argument lists, in the order they run; later ones read what earlier ones wrote."""
    for gen in GENERATORS:
        extra = ("--num-judges", "6") if gen in ("cw", "factor") else ()
        yield ["simulate", "--generator", gen, "-n", "300", "--seed", "1", "--out", f"{gen}.csv", *extra]
    for model in cli.MODELS:
        yield ["fit", "--votes", "ci-setup-2.csv", "--model", model, "--out", f"fit-{model}"]
    for model in cli.MODELS:
        yield ["predict", "--votes", "factor.csv", "--model-file", f"fit-{model}/model.json",
               "--out", f"predict-{model}.csv"]
    yield ["evaluate", "--votes", "ci-setup-3.csv", "--models", ",".join(cli.MODELS), "--trials", "3",
           "--num-judges", "4", "--seed", "2", "--out", "evaluate.json"]
    for name in cli.REPRODUCE_NAMES:
        yield ["reproduce", name, "--out", "reproduce"]
    # Known exit-2 inputs.
    for gen in ("cw", "factor"):
        for flag, value in (("-n", "0"), ("-n", "-1"), ("--num-judges", "0"), ("--num-judges", "-2")):
            yield ["simulate", "--generator", gen, flag, value, "--out", "bad.csv"]
    yield ["simulate", "--generator", "cw", "--pi", "1.5", "--out", "bad.csv"]
    yield ["simulate", "--generator", "cw", "--beta0", "-1", "--out", "bad.csv"]
    yield ["fit", "--votes", "missing.csv", "--model", "ci", "--out", "bad"]
    yield ["fit", "--votes", "empty.csv", "--model", "ci", "--out", "bad"]
    yield ["fit", "--votes", "ragged.csv", "--model", "ci", "--out", "bad"]
    yield ["fit", "--votes", "ci-setup-2.csv", "--model", "ci", "--tol", "0", "--out", "bad"]
    yield ["fit", "--votes", "ci-setup-2.csv", "--model", "nope", "--out", "bad"]
    for model in cli.MODELS[:-1]:
        yield ["predict", "--votes", "cw.csv", "--model-file", f"fit-{model}/model.json", "--out", "bad.csv"]
    yield ["predict", "--votes", "factor.csv", "--model-file", "factor.csv", "--out", "bad.csv"]
    yield ["evaluate", "--votes", "unlabeled.csv"]
    yield ["evaluate", "--votes", "ci-setup-2.csv", "--trials", "0"]
    yield ["evaluate", "--votes", "ci-setup-2.csv", "--models", ", ,"]
    yield ["evaluate", "--votes", "ci-setup-2.csv", "--models", "ci,nope"]
    yield ["evaluate", "--votes", "ci-setup-2.csv", "--num-judges", "9"]
    yield ["reproduce", "no-such-target"]


def _snapshot(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def digest(result, caught, before: dict[str, bytes], after: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    h.update(f"exit {result.exit_code}\n".encode())
    h.update(result.stdout_bytes)
    h.update(b"\0stderr\0" + result.stderr_bytes)
    for w in caught:
        h.update(f"\0{w.category.__name__}: {w.message}".encode())
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        h.update(f"\0{type(result.exception).__name__}: {result.exception}".encode())
    for name, data in after.items():
        if before.get(name) != data:
            h.update(f"\0{name}\0".encode() + data)
    return h.hexdigest()


def main() -> None:
    runner = CliRunner()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        os.chdir(root)
        try:
            (root / "empty.csv").write_text("")
            (root / "ragged.csv").write_text("item,j1,j2\na,1,0\nb,1\n")
            (root / "unlabeled.csv").write_text("item,j1,j2\na,1,0\nb,0,0\nc,1,1\n")
            for args in commands():
                before = _snapshot(root)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = runner.invoke(cli.main, args)
                digest_ = digest(result, caught, before, _snapshot(root))
                print(f"{digest_} {result.exit_code} {' '.join(args)}", flush=True)
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
