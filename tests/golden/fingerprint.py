"""Print one SHA-256 per fit, to check that a change leaves every fit bit-identical.

Each line is ``<case> <family> <digest>``. The digest covers the posterior
bytes, every parameter array, ``trace.objective``, ``n_iters``,
``converged``, ``flipped``, ``init_used`` and ``notes``. The cases are the
golden datasets at the default ``EMConfig`` and at ``tol=1e-12``, the four
fit inputs of the benchmark (``perfbench/``, loaded by path and only read),
small degenerate inputs (K=1, all zeros, all ones, K=16, identical
columns) and a flat field prior with a judge that always votes 1, each
fitted by all four families. Run it at two commits with BLAS pinned to one
thread and compare:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/fingerprint.py > after.txt
    diff before.txt after.txt

``python tests/golden/compare.py REV`` does both runs and the comparison.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from judgeagg import EMConfig, VoteMatrix

HERE = Path(__file__).parent
PERFBENCH = HERE.parent.parent / "perfbench"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(fit) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(fit.posterior.gamma, dtype=float).tobytes())
    for name, value in vars(fit.params).items():
        h.update(name.encode())
        h.update(np.ascontiguousarray(value, dtype=float).tobytes())
    t = fit.trace
    h.update(np.asarray(t.objective, dtype=float).tobytes())
    h.update(json.dumps([t.n_iters, t.converged, t.flipped, t.init_used, t.notes]).encode())
    return h.hexdigest()


def cases():
    """(name, votes, EMConfig) for every fingerprinted input."""
    golden = json.loads((HERE / "fits.json").read_text())
    for name, data in golden["datasets"].items():
        votes = np.array([[int(c) for c in row] for row in data["votes"]], dtype=np.int8)
        yield name, votes, EMConfig(seed=data["seed"])
        yield f"{name}@tol=1e-12", votes, EMConfig(seed=data["seed"], tol=1e-12)
    # workloads.py imports its sibling as a top-level module.
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = _load(PERFBENCH / "workloads.py", "perfbench_workloads")
    finally:
        sys.path.remove(str(PERFBENCH))
    for workload in ("fit-repeated-patterns", "fit-distinct-patterns"):
        for name, (votes, _) in workloads.fit_inputs(workload).items():
            yield f"perfbench-{name}", votes, EMConfig()
    rng = np.random.default_rng(20261018)
    y = rng.random(300) < 0.6
    signal = np.where(y[:, None], 0.75, 0.3)
    yield "k1", (rng.random((300, 1)) < signal).astype(np.int8), EMConfig()
    yield "all-zeros", np.zeros((200, 5), dtype=np.int8), EMConfig()
    yield "all-ones", np.ones((200, 5), dtype=np.int8), EMConfig()
    yield "k16", (rng.random((300, 16)) < signal).astype(np.int8), EMConfig()
    yield "identical-columns", np.repeat(rng.random((300, 1)) < signal, 4, axis=1).astype(np.int8), EMConfig()
    constant = (rng.random((300, 6)) < signal).astype(np.int8)
    constant[:, 0] = 1
    yield "flat-prior-constant-judge", constant, EMConfig(prior_a=1.0, prior_b=1.0)


def main() -> None:
    golden = _load(HERE / "make_golden.py", "make_golden")
    for name, votes, config in cases():
        v = VoteMatrix(votes=votes, item_ids=tuple(map(str, range(len(votes)))),
                       judge_names=tuple(f"j{j + 1}" for j in range(votes.shape[1])))
        for family, fit in golden.FITTERS.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = fit(v, config)
            print(f"{name} {family} {digest(result)}", flush=True)


if __name__ == "__main__":
    main()
