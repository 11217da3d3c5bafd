"""Golden fixtures: every EM fitter reproduces its frozen outputs.

``tests/golden/fits.json`` holds posteriors, parameters and EM iteration
counts of the CI, shared Ising, class-dependent Ising and factor fitters on a
small grid of vote matrices (K=3 and K=6), written by
``tests/golden/make_golden.py``. A change that only reorders floating-point
sums must keep every iteration count and stay within the tolerances below;
a change meant to alter fitted outputs regenerates the file and says so.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

GOLDEN = Path(__file__).parent / "golden"

# Tolerance (relative and absolute) on posteriors and parameters per family,
# for changes that reorder floating-point sums. CI updates are closed form.
# Each Ising M-step is a damped Newton solve (em.minimize) run to a gradient
# stop of 1e-9 * (1 + |objective|), from which Newton's quadratic
# convergence leaves it far closer to the optimum, so rounding cannot move
# the fit by a whole solver step: summing the Hessian in chunks moved every
# Ising case by at most 5e-15. The factor M-step is one such solve over all
# judges' (a, b, lam), but a factor fit chains 69-117 of them through
# quadrature scores, and some factor parameters are large (|a_j| > 7), so
# its tolerance is kept at the looser 1e-8.
TOL = {"ci": 1e-9, "ising-shared": 1e-8, "ising-classdep": 1e-8, "factor": 1e-8}


def _generator():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _generator()
FIXTURE = json.loads((GEN.OUT).read_text())


@pytest.mark.parametrize("case", FIXTURE["cases"], ids=lambda c: f"{c['data']}-{c['family']}")
def test_fit_matches_golden(case):
    data = FIXTURE["datasets"][case["data"]]
    votes = np.array([[int(c) for c in row] for row in data["votes"]], dtype=np.int8)
    fit = GEN.fit_case(votes, case["family"], data["seed"])
    tol = TOL[case["family"]]
    assert fit.trace.n_iters == case["n_iters"]
    np.testing.assert_allclose(fit.posterior.gamma, case["posterior"], rtol=tol, atol=tol)
    got = GEN.params_dict(fit.params)
    assert got.keys() == case["params"].keys()
    for name, want in case["params"].items():
        np.testing.assert_allclose(got[name], want, rtol=tol, atol=tol, err_msg=name)
