"""Built-in experiment runners with PASS/FAIL checks.

Each runner replays one of the package's reference experiments with its
preset constants, returning both the raw result tables (for CSV output) and
a list of tolerance checks. The CLI prints the checks; the acceptance test
suite asserts them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit

from . import presets
from .ci import ci_log_odds, em_fit_ci, sample_ci, umv_predict
from .curie_weiss import positive_root, run_separation, true_marginals
from .data import accuracy, rng_from
from .em import EMConfig
from .factor import run_factor_separation
from .ising import (
    all_configs,
    bayes_log_odds,
    ci_from_marginals,
    class_conditional_prob,
    class_conditional_table,
)


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    expected: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(abs(self.value - self.expected) <= self.tol)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: value={self.value:.6g} "
                f"expected={self.expected:.6g} tol={self.tol:.3g}")


@dataclass(frozen=True)
class BoundCheck:
    """One-sided check: value must not exceed bound (use negation for lower bounds)."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: value={self.value:.6g} bound<={self.bound:.6g}"


def aligned_accuracy(gamma: np.ndarray, gold: np.ndarray) -> float:
    """Accuracy after resolving the global label-switching ambiguity.

    Unsupervised fits are identified only up to a joint label flip; scoring
    the better orientation is the standard evaluation for mixture labelings
    and matches the reference accuracy tables.
    """
    pred = (gamma >= 0.5).astype(int)
    acc = accuracy(pred, gold)
    return max(acc, 1.0 - acc)


# ---------------------------------------------------------------------------


def run_motivating_example(shared: bool = True):
    """Exact enumeration checks for one of the three-judge demo models."""
    checks: list[Check | BoundCheck] = []
    patterns = [tuple(int(b) for b in row) for row in all_configs(3).astype(int)]
    if shared:
        params = presets.SHARED_DEMO
        table_rows = []
        for pattern in sorted(presets.SHARED_DEMO_TABLE):
            e0, e1 = presets.SHARED_DEMO_TABLE[pattern]
            p0 = class_conditional_prob(params, pattern, 0)
            p1 = class_conditional_prob(params, pattern, 1)
            table_rows.append({"pattern": "".join(map(str, pattern)),
                               "p_given_y0": p0, "p_given_y1": p1})
            for val, ref, y in ((p0, e0, 0), (p1, e1, 1)):
                tol = max(5e-4, 0.05 * ref)
                checks.append(Check(f"P({pattern}|Y={y})", val, ref, tol))
        j = presets.SHARED_DEMO_PATTERN
        post = expit(bayes_log_odds(params, j))
        checks.append(Check(f"bayes posterior {j}", post, *presets.SHARED_DEMO_BAYES_POSTERIOR))
        ci = ci_from_marginals(params)
        marg0 = 1.0 - ci.beta
        ref, tol = presets.SHARED_DEMO_MARGINALS_Y0
        for idx in range(3):
            checks.append(Check(f"marginal P(J{idx+1}=1|Y=0)", float(marg0[idx]), float(ref[idx]), tol))
        ci_post = expit(ci_log_odds(ci, j))
        checks.append(Check(f"ci posterior {j}", ci_post, *presets.SHARED_DEMO_CI_POSTERIOR))
    else:
        params = presets.CLASSDEP_DEMO
        table_rows = []
        t0 = class_conditional_table(params, 0)
        t1 = class_conditional_table(params, 1)
        for idx, pattern in enumerate(patterns):
            table_rows.append({"pattern": "".join(map(str, pattern)),
                               "p_given_y0": float(t0[idx]), "p_given_y1": float(t1[idx])})
        j = presets.CLASSDEP_DEMO_PATTERN
        checks.append(Check(f"P({j}|Y=0)", class_conditional_prob(params, j, 0), *presets.CLASSDEP_DEMO_P0))
        checks.append(Check(f"P({j}|Y=1)", class_conditional_prob(params, j, 1), *presets.CLASSDEP_DEMO_P1))
        post = expit(bayes_log_odds(params, j))
        checks.append(Check(f"bayes posterior {j}", post, *presets.CLASSDEP_DEMO_BAYES_POSTERIOR))
        ci = ci_from_marginals(params)
        ci_post = expit(ci_log_odds(ci, j))
        checks.append(Check(f"ci posterior {j}", ci_post, *presets.CLASSDEP_DEMO_CI_POSTERIOR))
    return checks, {"conditional_table": table_rows}


def run_ci_setups(seed: int = 0):
    """Weighted-vs-uniform majority vote on the four reference setups.

    Fits the CI model by EM on each simulated batch and scores flip-aligned
    accuracy (the unsupervised labeling is defined up to a global flip).
    """
    trials, n = presets.CI_SETUP_TRIALS, presets.CI_SETUP_N
    checks: list[Check | BoundCheck] = []
    rows = []
    means = {}
    for setup_id, params in presets.CI_SETUPS.items():
        wmv_accs, umv_accs = [], []
        for trial in range(trials):
            data_seed = int(rng_from(seed, 61, setup_id, trial).integers(0, 2 ** 31))
            v = sample_ci(params, n, data_seed)
            fit = em_fit_ci(v, EMConfig(seed=data_seed))
            wmv_accs.append(aligned_accuracy(fit.posterior.gamma, v.gold_labels))
            umv_accs.append(accuracy(umv_predict(v).hard_labels, v.gold_labels))
        w_mean, u_mean = float(np.mean(wmv_accs)), float(np.mean(umv_accs))
        means[setup_id] = (w_mean, u_mean)
        rows.append({"setup": setup_id, "wmv_em_acc": w_mean, "umv_acc": u_mean,
                     "wmv_se": float(np.std(wmv_accs) / np.sqrt(trials)),
                     "umv_se": float(np.std(umv_accs) / np.sqrt(trials))})
        checks.append(Check(f"setup {setup_id} EM-WMV mean accuracy", w_mean,
                            presets.CI_SETUP_TARGET_WMV[setup_id], presets.CI_SETUP_TOL))
        checks.append(Check(f"setup {setup_id} UMV mean accuracy", u_mean,
                            presets.CI_SETUP_TARGET_UMV[setup_id], presets.CI_SETUP_TOL))
    for setup_id in (2, 3, 4):
        w_mean, u_mean = means[setup_id]
        checks.append(BoundCheck(f"setup {setup_id} UMV < EM-WMV (strict)", u_mean,
                                 np.nextafter(w_mean, -np.inf)))
    return checks, {"ci_setups": rows}


def run_cw_symmetric(seed: int | None = None):
    """Zero-field Curie-Weiss separation: CI pins to the prior risk."""
    spec = presets.CW_SYMMETRIC if seed is None else replace(presets.CW_SYMMETRIC, seed=seed)
    rows = run_separation(spec)
    checks: list[Check | BoundCheck] = []
    ref, tol = presets.CW_SYMMETRIC_CI_RISK
    for row in rows:
        checks.append(Check(f"CI risk at K={row['K']}", row["risk_ci"], ref, tol))
    last = rows[-1]
    checks.append(BoundCheck(f"magnetization risk at K={last['K']}", last["risk_bayes"],
                             presets.CW_SYMMETRIC_BAYES_RISK_AT_KMAX))
    for prev, cur in zip(rows, rows[1:]):
        slack = 2.0 * float(np.hypot(prev["se_bayes"], cur["se_bayes"]))
        checks.append(BoundCheck(
            f"magnetization risk non-increasing K={prev['K']}->{cur['K']} (2se slack)",
            cur["risk_bayes"] - prev["risk_bayes"], slack))
    return checks, {"risk_table": rows}


def run_cw_informative(seed: int | None = None):
    """Informative-marginals Curie-Weiss separation experiment."""
    spec = presets.CW_INFORMATIVE if seed is None else replace(presets.CW_INFORMATIVE, seed=seed)
    rows = run_separation(spec)
    checks: list[Check | BoundCheck] = []
    k_max = spec.k_grid[-1]
    q0 = true_marginals(spec.class0, k_max)
    q1 = true_marginals(spec.class1, k_max)
    checks.append(BoundCheck(f"q0 < 1/2 at K={k_max}", q0, np.nextafter(0.5, -np.inf)))
    checks.append(BoundCheck(f"1/2 < q1 at K={k_max}", 0.5, np.nextafter(q1, -np.inf)))
    mstar = positive_root(spec.class1.beta)
    p = float(expit(2.0 * spec.class1.field_value * mstar))
    limit_risk = spec.pi * (1.0 - p)
    last = rows[-1]
    checks.append(Check(f"CI risk at K={k_max} vs pi*(1-p)", last["risk_ci"], limit_risk,
                        presets.CW_INFORMATIVE_CI_RISK_TOL))
    checks.append(BoundCheck(f"|M| rule risk at K={k_max}", last["risk_bayes"],
                             presets.CW_INFORMATIVE_BAYES_RISK_AT_KMAX))
    return checks, {"risk_table": rows}


def run_factor_experiment(seed: int = 0):
    """Latent-factor plug-in comparison over the K grid.

    At this weak-factor setting the two limiting rules nearly coincide, so
    the check is the asymptotic sign statement: beyond the reference K the
    separation is non-negative within two standard errors.
    """
    rows = run_factor_separation(presets.FACTOR_SEPARATION, presets.FACTOR_SEPARATION_K_GRID,
                                 presets.FACTOR_SEPARATION_N, seed)
    checks: list[Check | BoundCheck] = []
    for row in rows:
        if row["K"] >= presets.FACTOR_SEPARATION_MIN_K:
            slack = 2.0 * float(np.hypot(row["se_bayes"], row["se_ci"]))
            checks.append(BoundCheck(f"separation >= -2se at K={row['K']}", -row["sep"], slack))
    return checks, {"risk_table": rows}


REPRODUCE_TARGETS = {
    "motivating-example": lambda seed: run_motivating_example(shared=True),
    "motivating-example-classdep": lambda seed: run_motivating_example(shared=False),
    "ci-setups": lambda seed: run_ci_setups(seed=0 if seed is None else seed),
    "cw-separation-thm31": lambda seed: run_cw_symmetric(seed),
    "cw-separation-thm32": lambda seed: run_cw_informative(seed),
    "factor-separation": lambda seed: run_factor_experiment(seed=0 if seed is None else seed),
}
