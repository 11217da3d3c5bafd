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
- ``fit`` and ``predict`` on copies of a simulated file with CRLF line ends
  and with its first id quoted, which read as the same votes;
- ``evaluate`` over all five models;
- ``reproduce`` for every target, with ``--out``;
- inputs known to exit 2 (bad counts and flags, flags a generator does not
  read, non-finite EM settings, malformed or mismatched votes and model
  files, model files that lack a field, name an unknown Ising mode, hold a
  field of the wrong shape or a ragged list, carry both tags, nest arrays
  100,000 deep or overflow the class log-likelihoods, an evaluate split
  that leaves one training item, vote files with an id over the csv field
  limit or bytes that are not UTF-8, unknown names, non-finite or overflowing
  generator parameters, negative seeds, a seed given to a reproduce target
  that reads none, and each command's output path under a regular file).

Warnings are recorded per command and hashed as category and text, without
the file and line they were raised from. Run it at two commits with BLAS
pinned to one thread and compare:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/cli_fingerprint.py > after.txt
    diff before.txt after.txt

``python tests/golden/compare.py REV`` does both runs and the comparison.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import tempfile
import warnings
from pathlib import Path

from click.testing import CliRunner

from judgeagg import cli

# Valid model files, altered below.
_CI = {"model": "ci", "pi": 0.5, "alpha": [0.7] * 6, "beta": [0.7] * 6}
_ISING = {"mode": "class_dependent", "pi": 0.5, "h0": [0] * 6, "h1": [1] * 6, "W0": [[0] * 6] * 6, "W1": [[0] * 6] * 6}
_FACTOR = {"model": "factor", "pi": 0.5, "a": [1] * 6, "b": [0] * 6, "loadings": [[1]] * 6}

# Model files that are not what ``fit`` writes, by file name.
MALFORMED_MODELS = {
    "model-list.json": "[]",
    "model-number.json": "3",
    "model-string.json": '"x"',
    "model-null-loadings.json": '{"model": "factor", "pi": 0.5, "a": [1, 1, 1, 1, 1, 1], '
                                '"b": [0, 0, 0, 0, 0, 0], "loadings": null}',
    "model-string-pi.json": '{"model": "ci", "pi": "0.5", "alpha": [0.7, 0.7, 0.7, 0.7, 0.7, 0.7], '
                            '"beta": [0.7, 0.7, 0.7, 0.7, 0.7, 0.7]}',
    "model-missing-field.json": '{"model": "ci", "pi": 0.5, "beta": [0.7, 0.7, 0.7, 0.7, 0.7, 0.7]}',
    "model-unknown-mode.json": json.dumps({"mode": "class_whatever", "pi": 0.5, "h0": [0] * 6, "h1": [1] * 6,
                                           "W0": [[0] * 6] * 6, "W1": [[0] * 6] * 6}),
    "model-ci-list-pi.json": json.dumps({**_CI, "pi": [0.5]}),
    "model-ci-nested-pi.json": json.dumps({**_CI, "pi": [[0.5]]}),
    "model-ising-scalar-h0.json": json.dumps({**_ISING, "h0": 0}),
    "model-ising-list-pi.json": json.dumps({**_ISING, "pi": [0.5]}),
    "model-factor-list-pi.json": json.dumps({**_FACTOR, "pi": [0.5]}),
    "model-ragged-alpha.json": json.dumps({**_CI, "alpha": [0.7, [0.7]]}),
    "model-both-tags.json": json.dumps({**_CI, "mode": "class_dependent"}),
    "model-deep.json": "[" * 100_000 + "]" * 100_000,
    "model-ising-overflow.json": json.dumps({**_ISING, "h0": [1e308] * 6}),
    "model-factor-overflow.json": json.dumps({**_FACTOR, "a": [1e308] * 6}),
}

# Copies of ci-setup-2.csv that csv.reader reads as the same votes, by file
# name; each is written as soon as that file exists.
COPIES = {
    "ci-setup-2-crlf.csv": lambda raw: raw.replace(b"\n", b"\r\n"),
    "ci-setup-2-quoted.csv": lambda raw: re.sub(rb"\n([^,]*)", rb'\n"\1"', raw, count=1),
}

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
    for name in COPIES:
        yield ["fit", "--votes", name, "--model", "ci", "--out", f"fit-{name}"]
        yield ["predict", "--votes", name, "--model-file", "fit-ci/model.json", "--out", f"predict-{name}"]
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
    yield ["simulate", "--generator", "ci-setup-1", "--num-judges", "4", "--out", "bad.csv"]
    yield ["simulate", "--generator", "shared-demo", "--beta0", "-3", "--lam", "5", "--out", "bad.csv"]
    yield ["fit", "--votes", "missing.csv", "--model", "ci", "--out", "bad"]
    yield ["fit", "--votes", "empty.csv", "--model", "ci", "--out", "bad"]
    yield ["fit", "--votes", "ragged.csv", "--model", "ci", "--out", "bad"]
    for name in ("long-id.csv", "not-utf-8.csv"):
        yield ["fit", "--votes", name, "--model", "ci", "--out", "bad"]
        yield ["predict", "--votes", name, "--model-file", "fit-ci/model.json", "--out", "bad.csv"]
    yield ["fit", "--votes", "ci-setup-2.csv", "--model", "ci", "--tol", "0", "--out", "bad"]
    for flag, value in (("--prior-a", "nan"), ("--prior-b", "inf"), ("--tol", "nan")):
        yield ["fit", "--votes", "ci-setup-2.csv", "--model", "ci", flag, value, "--out", "bad"]
    yield ["fit", "--votes", "ci-setup-2.csv", "--model", "nope", "--out", "bad"]
    for model in cli.MODELS[:-1]:  # fitted on 6 judges, scored on 3
        yield ["predict", "--votes", "shared-demo.csv", "--model-file", f"fit-{model}/model.json", "--out", "bad.csv"]
    yield ["predict", "--votes", "factor.csv", "--model-file", "factor.csv", "--out", "bad.csv"]
    for name in MALFORMED_MODELS:
        yield ["predict", "--votes", "ci-setup-2.csv", "--model-file", name, "--out", "bad.csv"]
    yield ["evaluate", "--votes", "unlabeled.csv"]
    yield ["evaluate", "--votes", "ci-setup-2.csv", "--trials", "0"]
    yield ["evaluate", "--votes", "ci-setup-2.csv", "--models", ", ,"]
    yield ["evaluate", "--votes", "ci-setup-2.csv", "--models", "ci,nope"]
    yield ["evaluate", "--votes", "ci-setup-2.csv", "--num-judges", "9"]
    yield ["evaluate", "--votes", "three.csv"]
    yield ["reproduce", "no-such-target"]
    for gen, flags in (("cw", ("--beta0", "nan")), ("cw", ("--h0", "nan")), ("cw", ("--c1", "nan")),
                       ("cw", ("--beta1", "inf")), ("cw", ("--c1", "inf")), ("cw", ("--beta1", "1e308")),
                       ("cw", ("-n", "3", "--pi", "0.01", "--beta1", "1e308")),
                       ("factor", ("--sigma2", "inf")), ("factor", ("--lam", "0", "--sigma2", "inf"))):
        yield ["simulate", "--generator", gen, *flags, "--out", "bad.csv"]
    yield ["simulate", "--generator", "ci-setup-1", "--seed", "-1", "--out", "bad.csv"]
    yield ["fit", "--votes", "ci-setup-2.csv", "--model", "ci", "--seed", "-1", "--out", "bad"]
    yield ["evaluate", "--votes", "ci-setup-3.csv", "--seed", "-1"]
    yield ["reproduce", "ci-setups", "--seed", "-1"]
    yield ["reproduce", "motivating-example", "--seed", "5", "--out", "reproduce-seeded"]
    yield ["fit", "--votes", "ci-setup-2.csv", "--model", "ci", "--out", "afile/sub"]
    yield ["predict", "--votes", "ci-setup-2.csv", "--model-file", "fit-ci/model.json", "--out", "afile/sub"]
    yield ["evaluate", "--votes", "ci-setup-3.csv", "--trials", "1", "--out", "afile/sub"]
    yield ["simulate", "--generator", "ci-setup-1", "--out", "afile/sub"]
    yield ["reproduce", "motivating-example", "--out", "afile/sub"]


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
            (root / "afile").write_text("")
            (root / "ragged.csv").write_text("item,j1,j2\na,1,0\nb,1\n")
            (root / "unlabeled.csv").write_text("item,j1,j2\na,1,0\nb,0,0\nc,1,1\n")
            (root / "three.csv").write_text("item,j1,j2,label\na,1,0,1\nb,0,0,0\nc,1,1,1\n")
            (root / "long-id.csv").write_text(f"item,j1\n{'x' * (csv.field_size_limit() + 1)},1\n")
            (root / "not-utf-8.csv").write_bytes(b"item,j1\na,1\nb\xff,0\n")
            for name, text in MALFORMED_MODELS.items():
                (root / name).write_text(text)
            for args in commands():
                source = root / "ci-setup-2.csv"
                for name, copy in COPIES.items():
                    if source.exists() and not (root / name).exists():
                        (root / name).write_bytes(copy(source.read_bytes()))
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
