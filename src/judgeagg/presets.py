"""Reference parameter sets and target values for the built-in experiments.

Everything the `reproduce` command hard-codes lives here: the two
three-judge demonstration models whose exact posteriors are known, the four
six-judge simulation setups for the majority-vote comparison, and the
Curie-Weiss / latent-factor separation settings. Expected values carry the
tolerances used by the PASS/FAIL checks.
"""

from __future__ import annotations

import numpy as np

from .ci import CIParams
from .curie_weiss import CWClassSpec, CWExperimentSpec
from .factor import FactorParams
from .ising import IsingParams

# ---------------------------------------------------------------------------
# Three-judge demo, shared couplings: judges 1 and 3 co-vote, judge 2 leans
# against both, and only the fields move with the class. Built so that the
# CI posterior from the true per-judge marginals flips the label on (0,1,1).

SHARED_DEMO = IsingParams(
    pi=0.5,
    h0=np.array([-1.7447, 2.2991, 3.5085]),
    h1=np.array([-2.0094, 0.1721, -2.7597]),
    W0=np.array([
        [0.0, -2.7496, 4.4583],
        [-2.7496, 0.0, -4.8249],
        [4.4583, -4.8249, 0.0],
    ]),
    W1=np.array([
        [0.0, -2.7496, 4.4583],
        [-2.7496, 0.0, -4.8249],
        [4.4583, -4.8249, 0.0],
    ]),
    shared_couplings=True,
)

# Conditional vote-pattern probabilities for the shared-coupling demo,
# indexed by the (J1, J2, J3) bit pattern.
SHARED_DEMO_TABLE = {
    (0, 0, 0): (0.00181, 0.3196),
    (0, 0, 1): (0.0603, 0.0202),
    (0, 1, 0): (0.0180, 0.3796),
    (0, 1, 1): (0.00483, 1.93e-4),
    (1, 0, 0): (3.16e-4, 0.0428),
    (1, 0, 1): (0.9099, 0.2342),
    (1, 1, 0): (2.01e-4, 0.00325),
    (1, 1, 1): (0.00465, 1.43e-4),
}

SHARED_DEMO_PATTERN = (0, 1, 1)
SHARED_DEMO_BAYES_POSTERIOR = (0.038, 0.005)
SHARED_DEMO_CI_POSTERIOR = (0.968, 0.005)
SHARED_DEMO_MARGINALS_Y0 = (np.array([0.9150, 0.0277, 0.9797]), 5e-4)

# ---------------------------------------------------------------------------
# Three-judge demo, class-dependent couplings: the correlation pattern itself
# changes with the class.

CLASSDEP_DEMO = IsingParams(
    pi=0.5,
    h0=np.array([2.7369, 1.3602, 1.9559]),
    h1=np.array([-2.5484, -2.2580, -0.9266]),
    W0=np.array([
        [0.0, -2.4445, 2.4553],
        [-2.4445, 0.0, -2.9206],
        [2.4553, -2.9206, 0.0],
    ]),
    W1=np.array([
        [0.0, -3.3637, 3.0718],
        [-3.3637, 0.0, -0.0677],
        [3.0718, -0.0677, 0.0],
    ]),
    shared_couplings=False,
)

CLASSDEP_DEMO_PATTERN = (1, 1, 0)
CLASSDEP_DEMO_P0 = (0.00393, 2e-4)
CLASSDEP_DEMO_P1 = (1.24e-4, 1e-5)
CLASSDEP_DEMO_CI_POSTERIOR = (0.957, 0.005)
CLASSDEP_DEMO_BAYES_POSTERIOR = (0.031, 0.005)

# ---------------------------------------------------------------------------
# Six-judge conditionally-independent simulation setups: per-judge
# sensitivities and specificities, with the target mean accuracies of
# EM-weighted and uniform majority vote (20 trials of n=200, balanced prior).

CI_SETUPS = {
    1: CIParams(
        pi=0.5,
        alpha=np.array([0.90, 0.90, 0.90, 0.90, 0.90, 0.90]),
        beta=np.array([0.90, 0.90, 0.90, 0.95, 0.90, 0.95]),
    ),
    2: CIParams(
        pi=0.5,
        alpha=np.array([0.26, 0.53, 0.64, 0.50, 0.67, 0.70]),
        beta=np.array([0.34, 0.54, 0.65, 0.76, 0.70, 0.30]),
    ),
    3: CIParams(
        pi=0.5,
        alpha=np.array([0.26, 0.30, 0.24, 0.50, 0.70, 0.80]),
        beta=np.array([0.80, 0.90, 0.50, 0.60, 0.37, 0.23]),
    ),
    4: CIParams(
        pi=0.5,
        alpha=np.array([0.60, 0.63, 0.74, 0.75, 0.67, 0.80]),
        beta=np.array([0.70, 0.59, 0.95, 0.86, 0.77, 0.83]),
    ),
}

CI_SETUP_TARGET_WMV = {1: 0.9970, 2: 0.7260, 3: 0.6110, 4: 0.9300}
CI_SETUP_TARGET_UMV = {1: 0.9950, 2: 0.5970, 3: 0.5200, 4: 0.9170}
CI_SETUP_TOL = 0.05
CI_SETUP_N = 200
CI_SETUP_TRIALS = 20

# ---------------------------------------------------------------------------
# Curie-Weiss separation experiments.

# Symmetric (zero-field) setting: identical one-dimensional marginals in both
# classes, so the CI oracle collapses to the prior and its risk pins to
# min(pi, 1-pi); the squared-magnetization rule drives risk to zero.
CW_SYMMETRIC = CWExperimentSpec(
    pi=0.7,
    class0=CWClassSpec(beta=0.5),
    class1=CWClassSpec(beta=2.0),
    k_grid=(10, 25, 50, 100),
    n=1000,
    statistic="squared",
    seed=2,
)
CW_SYMMETRIC_CI_RISK = (0.3, 0.02)
CW_SYMMETRIC_BAYES_RISK_AT_KMAX = 0.05

# Informative-marginals setting: a constant negative field on the
# high-temperature class and a c/K field on the low-temperature class keep
# each judge better than random, yet the wrong-sign agreement mode still
# costs the CI oracle a pi*(1-p) slice of the positive class.
CW_INFORMATIVE = CWExperimentSpec(
    pi=0.7,
    class0=CWClassSpec(beta=0.5, field_mode="constant", field_value=-0.5),
    class1=CWClassSpec(beta=2.0, field_mode="scaled", field_value=1.5),
    k_grid=(10, 25, 50, 100, 200),
    n=2000,
    statistic="absolute",
    seed=0,
)
CW_INFORMATIVE_CI_RISK_TOL = 0.03
CW_INFORMATIVE_BAYES_RISK_AT_KMAX = 0.03

# ---------------------------------------------------------------------------
# Latent-factor separation setting (weak scalar factor, informative fields).

FACTOR_SEPARATION = FactorParams(pi=0.7, a=0.5, b=1.0, lam=0.1, sigma2_z=1.0)
FACTOR_SEPARATION_K_GRID = (1, 5, 10, 25, 50, 100, 200)
FACTOR_SEPARATION_N = 1000
FACTOR_SEPARATION_MIN_K = 50
