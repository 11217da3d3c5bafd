"""Workload ops and the output checks that decide whether an op failed.

An op is one call into judgeagg's public entry points. Inputs are built
before any op is timed; the timed region is the call alone. A failed check
marks the op failed; it is never retried, dropped, re-sized or re-seeded.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import inputs

WORKLOADS = ("cli-fit-1m", "fit-repeated-patterns", "fit-distinct-patterns", "reproduce-all")

REPRODUCE_NAMES = (
    "motivating-example",
    "motivating-example-classdep",
    "ci-setups",
    "cw-separation-thm31",
    "cw-separation-thm32",
    "factor-separation",
)

CLI_N = 1_000_000

# The in-process fit workloads replay one draw, made from this constant; the
# workload seed does not apply to them (as it does not to reproduce-all). The
# EM work of these fits depends on the draw far more than any run can
# average: over draw seeds 0-9, factor K=4 took 15 to 200 iterations (0.9 to
# 16.8 s) and class-dependent K=14 23 to 116; permuting the items of one draw
# still moved K=14 between 406 and 728 log_partition calls (17 to 29 s),
# because the package's init jitter is per item position. The CLI op runs
# the same CI fit on every draw, so its votes come from the workload seed.
FIT_DRAW_SEED = 0


def cli_inputs(seed: int) -> tuple[np.ndarray, np.ndarray]:
    return inputs.ci_votes(CLI_N, seed, stream=0)


def fit_inputs(workload: str) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Input name -> (votes, gold) of an in-process fit workload."""
    if workload == "fit-repeated-patterns":
        return {"k3": inputs.classdep_demo_votes(5000, FIT_DRAW_SEED, stream=1),
                "factor-k4": inputs.factor_votes(4, 5000, FIT_DRAW_SEED, stream=2)}
    if workload == "fit-distinct-patterns":
        return {"k14": inputs.random_ising_votes(14, 600, FIT_DRAW_SEED, stream=3),
                "factor-k12": inputs.factor_votes(12, 3000, FIT_DRAW_SEED, stream=4)}
    raise ValueError(f"{workload!r} has no in-process fit inputs")


# Largest allowed single-step decrease of the EM objective per family, as in
# the package's EM monotonicity acceptance test.
MONOTONE_TOL = {"ci": 1e-10, "ising": 1e-8, "factor": 1e-6}
# The CLI prints objectives with 6 decimals; rounding is monotone, so only
# the print resolution is added to the CI tolerance.
CLI_PRINT_RESOLUTION = 1e-6

# Flip-aligned accuracy of each op at the commit that introduced the
# benchmark: on the fixed draw for fit ops, the mean over seeds 0-9 for the
# CLI (whose spread over those seeds was 0.0001).
ACCURACY_AT_BASELINE = {
    "cli-fit": 0.9297,
    "ising-classdep-k3": 0.8474,
    "ising-shared-k3": 0.8474,
    "factor-k4": 0.6874,
    "ising-classdep-k14": 0.7167,
    "factor-k12": 0.7470,
}


def accuracy_slack(n: int) -> float:
    """Allowed shortfall: 0.01 plus five binomial standard errors at p = 1/2."""
    return 0.01 + 5.0 * math.sqrt(0.25 / n)


def aligned_accuracy(gamma: np.ndarray, gold: np.ndarray) -> float:
    acc = float(np.mean((gamma >= 0.5) == (gold == 1)))
    return max(acc, 1.0 - acc)


def check_posteriors(gamma, n: int) -> list[str]:
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (n,):
        return [f"posterior shape {gamma.shape} != ({n},)"]
    if not np.all(np.isfinite(gamma)):
        return ["posterior not finite"]
    if np.any(gamma < 0.0) or np.any(gamma > 1.0):
        return [f"posterior outside [0,1] (min {gamma.min():.6g}, max {gamma.max():.6g})"]
    return []


def check_monotone(objective, tol: float) -> list[str]:
    steps = np.diff(np.asarray(objective, dtype=float))
    if steps.size and steps.min() < -tol:
        i = int(np.argmin(steps))
        return [f"objective decreased by {-steps[i]:.3g} at iteration {i + 1} (tol {tol:.0e})"]
    return []


def check_accuracy(name: str, gamma, gold) -> list[str]:
    acc = aligned_accuracy(np.asarray(gamma), gold)
    floor = ACCURACY_AT_BASELINE[name] - accuracy_slack(len(gold))
    return [] if acc >= floor else [f"aligned accuracy {acc:.4f} < floor {floor:.4f}"]


def check_reproduce(exit_code, output: str) -> list[str]:
    fails = [line for line in output.splitlines() if line.startswith("[FAIL]")]
    problems = [f"check failed: {line}" for line in fails]
    if not any(line.endswith("checks passed") for line in output.splitlines()):
        problems.append("no 'checks passed' summary line")
    if exit_code not in (0, None):
        problems.append(f"exit code {exit_code}")
    return problems


def count_checks(output: str) -> tuple[int, int]:
    """(checks run, checks failed) from reproduce output."""
    lines = output.splitlines()
    failed = sum(line.startswith("[FAIL]") for line in lines)
    return failed + sum(line.startswith("[PASS]") for line in lines), failed


def cli_objective(stdout: str) -> list[float]:
    """The EM objective per iteration, as ``judgeagg fit`` prints it."""
    return [float(line.split("objective=")[1].split()[0])
            for line in stdout.splitlines() if line.startswith("iter ")]


def check_cli_outputs(outdir, stdout: str, gold: np.ndarray) -> list[str]:
    """posteriors.csv rows in input order, label == (gamma >= 0.5), monotone trace."""
    problems = []
    path = outdir / "posteriors.csv"
    with open(path) as fh:
        header = fh.readline().strip()
    if header != "item,gamma,label":
        return [f"posteriors.csv header {header!r}"]
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = len(gold)
    if table.shape != (n, 3):
        return [f"posteriors.csv has shape {table.shape}, expected ({n}, 3)"]
    if not np.array_equal(table[:, 0], np.arange(n)):
        problems.append("posteriors.csv rows are not in input item order")
    gamma = table[:, 1]
    problems += check_posteriors(gamma, n)
    if not np.array_equal(table[:, 2], (gamma >= 0.5).astype(float)):
        problems.append("label != (gamma >= 0.5)")
    problems += check_accuracy("cli-fit", gamma, gold)
    objective = cli_objective(stdout)
    if not objective:
        problems.append("no EM trace printed")
    problems += check_monotone(objective, MONOTONE_TOL["ci"] + CLI_PRINT_RESOLUTION)
    for name in ("model.json", "report.json"):
        try:
            json.loads((outdir / name).read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
    return problems


@dataclass
class Op:
    """One call of a workload pass: ``run`` is timed, ``check`` judges its result."""

    name: str
    call: str
    run: Callable[[], Any]
    warm: Callable[[], Any]
    check: Callable[[Any], list[str]]
    n: int = 0
    k: int = 0
    distinct: int = 0
    items: int = 0
    stats: Callable[[Any], dict] = field(default=lambda result: {})


def _fit_op(name, call, fit, family, votes, gold) -> Op:
    from judgeagg import EMConfig, VoteMatrix

    v = VoteMatrix(votes=votes, item_ids=tuple(map(str, range(len(votes)))),
                   judge_names=tuple(f"j{j + 1}" for j in range(votes.shape[1])))

    def check(result):
        problems = check_posteriors(result.posterior.gamma, len(votes))
        problems += check_monotone(result.trace.objective, MONOTONE_TOL[family])
        return problems or check_accuracy(name, result.posterior.gamma, gold)

    def stats(result):
        notes = result.trace.notes
        return {"accuracy": aligned_accuracy(result.posterior.gamma, gold),
                "em_iters": result.trace.n_iters, "converged": bool(result.trace.converged),
                "safeguard_rejections": sum("rejected by safeguard" in s for s in notes)}

    return Op(name=name, call=call, run=lambda: fit(v, EMConfig()),
              # The warm-up runs the same call capped at one EM iteration: it
              # reaches every code path (restarts, optimizer, evidence) and so
              # pays lazy set-up, at a fraction of a pass's cost.
              warm=lambda: fit(v, EMConfig(max_iters=1)),
              check=check, n=len(votes), k=votes.shape[1],
              distinct=len(np.unique(votes, axis=0)), items=len(votes), stats=stats)


def _reproduce_op(target: str) -> Op:
    from judgeagg.cli import main

    def run():
        out = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out):
            try:
                main(["reproduce", target], standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def stats(result):
        total, failed = count_checks(result[1])
        return {"checks": total, "checks_failed": failed}

    return Op(name=target, call="reproduce", run=run, warm=run,
              check=lambda result: check_reproduce(*result), stats=stats)


def build_ops(workload: str) -> list[Op]:
    """Generate the workload's inputs and return its ops in pass order."""
    from judgeagg import em_fit_factor, em_fit_ising

    def classdep(v, c):
        return em_fit_ising(v, "class_dependent", c)

    def shared(v, c):
        return em_fit_ising(v, "class_independent", c)

    def factor(v, c):
        return em_fit_factor(v, 1, c)

    if workload in ("fit-repeated-patterns", "fit-distinct-patterns"):
        data = fit_inputs(workload)
    if workload == "fit-repeated-patterns":
        return [
            _fit_op("ising-classdep-k3", "em_fit_ising", classdep, "ising", *data["k3"]),
            _fit_op("ising-shared-k3", "em_fit_ising", shared, "ising", *data["k3"]),
            _fit_op("factor-k4", "em_fit_factor", factor, "factor", *data["factor-k4"]),
        ]
    if workload == "fit-distinct-patterns":
        return [
            _fit_op("ising-classdep-k14", "em_fit_ising", classdep, "ising", *data["k14"]),
            _fit_op("factor-k12", "em_fit_factor", factor, "factor", *data["factor-k12"]),
        ]
    if workload == "reproduce-all":
        ops = [_reproduce_op(t) for t in REPRODUCE_NAMES]
        # ci-setups is the only target that fits: count the rows its EM fits label.
        from judgeagg import presets

        ops[REPRODUCE_NAMES.index("ci-setups")].items = (
            len(presets.CI_SETUPS) * presets.CI_SETUP_TRIALS * presets.CI_SETUP_N)
        return ops
    raise ValueError(f"{workload!r} does not run in-process")


def ising_self_check(draw_seed: int = FIT_DRAW_SEED) -> float:
    """TV of the K=3 input's (Y, pattern) frequencies against the exact pmf."""
    votes, gold = inputs.classdep_demo_votes(5000, draw_seed, stream=1)
    return inputs.labeled_pattern_tv(votes, gold, inputs.CLASSDEP_DEMO_PI,
                                     inputs.CLASSDEP_DEMO_H0, inputs.CLASSDEP_DEMO_H1,
                                     inputs.CLASSDEP_DEMO_W0, inputs.CLASSDEP_DEMO_W1)


# Expected TV at n = 5000 over 16 cells is about 0.015; 0.04 fails a broken sampler.
ISING_TV_BOUND = 0.04
