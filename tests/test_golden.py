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
# The factor M-step's Newton solves amplify rounding more, and some factor
# parameters are large (|a_j| > 7). The Ising M-step's L-BFGS solves stop on
# a relative objective change of 1e-10, so a rounding-level change can move
# one stop by one optimizer iteration: running the EM loops over distinct
# vote patterns did that on ci-k6, shifting the class-dependent fit by 6e-7
# (posteriors) and 5e-6 (couplings) while every EM iteration count stayed
# the same.
TOL = {"ci": 1e-9, "ising-shared": 1e-4, "ising-classdep": 1e-4, "factor": 1e-8}


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
