"""Write ``fits.json``: frozen outputs of every EM fitter on a small grid.

Each case stores its vote matrix (one 0/1 string per item), so the fixture
does not depend on the package's samplers, and the fitted posteriors,
parameters and EM iteration count of the CI, shared Ising, class-dependent
Ising and rank-1 factor fitters. ``tests/test_golden.py`` refits every case
and compares against this file.

Regenerate only when a change is meant to alter fitted outputs, and say so in
CHANGES.md:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from judgeagg import (
    CIParams,
    EMConfig,
    FactorParams,
    em_fit_ci,
    em_fit_factor,
    em_fit_ising,
    presets,
    sample_ci,
    sample_factor,
)
from judgeagg.ising import sample_labeled

OUT = Path(__file__).with_name("fits.json")

# name -> (K, n, seed, sampler). K=3 has 8 distinct rows; K=6 at these n
# repeats most of its 64.
DATASETS = {
    "classdep-demo-k3": (3, 400, 0, lambda n, s: sample_labeled(presets.CLASSDEP_DEMO, n, s)),
    "ci-k6": (6, 300, 1, lambda n, s: sample_ci(
        CIParams(pi=0.6, alpha=np.array([0.85, 0.8, 0.75, 0.7, 0.65, 0.6]),
                 beta=np.array([0.8, 0.75, 0.7, 0.7, 0.65, 0.6])), n, s)),
    "factor-k6": (6, 400, 2, lambda n, s: sample_factor(
        FactorParams(pi=0.6, a=0.8, b=0.2, lam=1.0, sigma2_z=1.0), 6, n, s)),
}

FITTERS = {
    "ci": lambda v, c: em_fit_ci(v, c),
    "ising-shared": lambda v, c: em_fit_ising(v, "class_independent", c),
    "ising-classdep": lambda v, c: em_fit_ising(v, "class_dependent", c),
    "factor": lambda v, c: em_fit_factor(v, 1, c),
}


def params_dict(params) -> dict[str, list[float]]:
    """Every float field of a fitted parameter object, flattened to a list."""
    out = {}
    for name, value in vars(params).items():
        if isinstance(value, (bool, np.bool_)):
            continue
        out[name] = np.ravel(np.asarray(value, dtype=float)).tolist()
    return out


def fit_case(votes: np.ndarray, family: str, seed: int):
    from judgeagg import VoteMatrix

    v = VoteMatrix(votes=votes, item_ids=tuple(map(str, range(len(votes)))),
                   judge_names=tuple(f"j{j + 1}" for j in range(votes.shape[1])))
    return FITTERS[family](v, EMConfig(seed=seed))


def main() -> None:
    datasets, cases = {}, []
    for data_name, (k, n, seed, sampler) in DATASETS.items():
        votes = sampler(n, seed).votes
        assert votes.shape == (n, k)
        datasets[data_name] = {"seed": seed, "votes": ["".join(map(str, row)) for row in votes.tolist()]}
        for family in FITTERS:
            fit = fit_case(votes, family, seed)
            cases.append({
                "data": data_name,
                "family": family,
                "n_iters": fit.trace.n_iters,
                "posterior": fit.posterior.gamma.tolist(),
                "params": params_dict(fit.params),
            })
            print(f"{data_name:18s} {family:15s} n_iters={fit.trace.n_iters}")
    OUT.write_text(json.dumps({"datasets": datasets, "cases": cases}, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
