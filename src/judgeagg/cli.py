"""Command-line entry point.

Subcommands: fit, predict, evaluate, simulate, reproduce. Every command is
deterministic given its inputs and --seed. Exit codes: 0 success, 1 a
reproduce check failed, 2 input error.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click
import numpy as np

from .ci import CIParams, em_fit_ci, sample_ci, umv_predict, wmv_predict
from .data import (SplitSpec, VoteDataError, VoteMatrix, accuracy, load_votes, rng_from, save_votes, split,
                   write_csv_rows)
from .em import EMConfig

# The Ising, factor and Curie-Weiss modules (and scipy.optimize with the
# last), presets and reproduce are imported by the commands that use them, so
# a CI fit or prediction never loads them.

MODELS = ("ci", "ising-shared", "ising-classdep", "factor", "umv")
# The keys of reproduce.REPRODUCE_TARGETS, sorted; a test keeps them equal.
REPRODUCE_NAMES = ("ci-setups", "cw-separation-thm31", "cw-separation-thm32", "factor-separation",
                   "motivating-example", "motivating-example-classdep")


def _fail(message: str, code: int = 2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _em_config(seed, tol, max_iters, prior_a, prior_b) -> EMConfig:
    return EMConfig(tol=tol, max_iters=max_iters, seed=seed, prior_a=prior_a, prior_b=prior_b)


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False)


def _write_posteriors(path: Path, v: VoteMatrix, gamma: np.ndarray) -> None:
    # A posterior is a function of the vote pattern, so few values repeat;
    # they are keyed by their bits, as repr tells -0.0 from 0.0.
    bits, keys = np.unique(np.asarray(gamma, dtype=float).view(np.int64), return_inverse=True)
    tails = [f",{g!r},{int(g >= 0.5)}\n" for g in bits.view(float).tolist()]
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        write_csv_rows(fh, ["item", "gamma", "label"], v.item_ids, keys, tails)


def _model_to_payload(model: str, params) -> dict:
    if model == "ci":
        return {"model": "ci", "pi": params.pi,
                "alpha": params.alpha.tolist(), "beta": params.beta.tolist()}
    if model in ("ising-shared", "ising-classdep"):
        return json.loads(params.to_json())
    if model == "factor":
        return {"model": "factor", "pi": params.pi, "a": params.a.tolist(),
                "b": params.b.tolist(), "loadings": params.loadings.tolist()}
    raise ValueError(model)


def _payload_to_params(payload: dict):
    if "mode" in payload:
        from .ising import IsingParams

        return "ising", IsingParams.from_json(json.dumps(payload))
    if payload.get("model") == "ci":
        return "ci", CIParams(pi=payload["pi"], alpha=np.array(payload["alpha"]),
                              beta=np.array(payload["beta"]))
    if payload.get("model") == "factor":
        from .factor import MultiFactorParams

        return "factor", MultiFactorParams(a=np.array(payload["a"]), b=np.array(payload["b"]),
                                           loadings=np.array(payload["loadings"]), pi=payload["pi"])
    raise VoteDataError("unrecognized model file")


def _fit_model(model: str, v: VoteMatrix, config: EMConfig):
    if model == "ci":
        return em_fit_ci(v, config)
    if model in ("ising-shared", "ising-classdep"):
        from .ising import em_fit_ising

        return em_fit_ising(v, "class_independent" if model == "ising-shared" else "class_dependent", config)
    if model == "factor":
        from .factor import em_fit_factor

        return em_fit_factor(v, 1, config)
    raise VoteDataError(f"model {model!r} cannot be fitted (umv has no parameters)")


def _predict_fixed(kind: str, params, v: VoteMatrix):
    if kind == "ci":
        return wmv_predict(params, v)
    if kind == "ising":
        from .ising import posterior_predict

        return posterior_predict(params, v)
    if kind == "factor":
        from .factor import posterior_predict

        return posterior_predict(params, v)
    raise ValueError(kind)


@click.group()
def main():
    """Aggregate binary judge votes with dependence-aware models."""


_common = [
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--tol", type=float, default=1e-6, show_default=True),
    click.option("--max-iters", type=int, default=200, show_default=True),
    click.option("--prior-a", type=float, default=2.0, show_default=True),
    click.option("--prior-b", type=float, default=2.0, show_default=True),
]


def _with_common(cmd):
    for opt in reversed(_common):
        cmd = opt(cmd)
    return cmd


@main.command()
@click.option("--votes", "votes_path", required=True, type=click.Path())
@click.option("--model", type=click.Choice(MODELS), required=True)
@click.option("--out", type=click.Path(), default=".", show_default=True,
              help="Directory for model JSON, posterior CSV, and report JSON.")
@_with_common
def fit(votes_path, model, out, seed, tol, max_iters, prior_a, prior_b):
    """Fit a model by unsupervised EM and write posteriors plus a report."""
    try:
        v = load_votes(votes_path)
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        config = _em_config(seed, tol, max_iters, prior_a, prior_b)
        if model == "umv":
            post = umv_predict(v)
            payload = {"model": "umv"}
            trace_lines = []
        else:
            fitres = _fit_model(model, v, config)
            post = fitres.posterior
            payload = _model_to_payload(model, fitres.params)
            trace_lines = [
                f"iter {i}: objective={obj:.6f} loglik={ll:.6f}"
                for i, (obj, ll) in enumerate(zip(fitres.trace.objective, fitres.trace.loglik))
            ]
        (outdir / "model.json").write_text(_json_dumps(payload) + "\n")
        _write_posteriors(outdir / "posteriors.csv", v, post.gamma)
        report = {"model": model, "seed": seed, "n": v.n, "K": v.k}
        if v.gold_labels is not None:
            report["accuracy"] = accuracy(post.hard_labels, v.gold_labels)
        report["params"] = payload
        (outdir / "report.json").write_text(_json_dumps(report) + "\n")
        for line in trace_lines:
            click.echo(line)
        click.echo(f"wrote {outdir / 'model.json'}, {outdir / 'posteriors.csv'}, {outdir / 'report.json'}")
    except (VoteDataError, OSError, ValueError) as exc:
        _fail(str(exc))


@main.command()
@click.option("--votes", "votes_path", required=True, type=click.Path())
@click.option("--model-file", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default="predictions.csv", show_default=True)
def predict(votes_path, model_file, out):
    """Score items under a previously fitted model."""
    try:
        v = load_votes(votes_path)
        payload = json.loads(Path(model_file).read_text())
        if payload.get("model") == "umv":
            post = umv_predict(v)
        else:
            kind, params = _payload_to_params(payload)
            post = _predict_fixed(kind, params, v)
        _write_posteriors(Path(out), v, post.gamma)
        click.echo(f"wrote {out}")
    except (VoteDataError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail(str(exc))


@main.command()
@click.option("--votes", "votes_path", required=True, type=click.Path())
@click.option("--models", default="ci,umv", show_default=True,
              help="Comma-separated subset of: " + ",".join(MODELS))
@click.option("--trials", type=int, default=20, show_default=True)
@click.option("--train-fraction", type=float, default=0.15, show_default=True)
@click.option("--num-judges", type=int, default=None,
              help="Judge subsample size per trial (without replacement); default all.")
@click.option("--out", type=click.Path(), default=None, help="Optional JSON output path.")
@_with_common
def evaluate(votes_path, models, trials, train_fraction, num_judges, out,
             seed, tol, max_iters, prior_a, prior_b):
    """Mean test accuracy and standard error over seeded train/test trials."""
    try:
        v = load_votes(votes_path)
        if v.gold_labels is None:
            raise VoteDataError("evaluate requires a gold label column")
        model_list = [m.strip() for m in models.split(",") if m.strip()]
        for m in model_list:
            if m not in MODELS:
                raise VoteDataError(f"unknown model {m!r}")
        results = {m: [] for m in model_list}
        for trial in range(trials):
            trial_seed = int(rng_from(seed, 71, trial).integers(0, 2 ** 31))
            sub = v
            if num_judges is not None:
                if not (1 <= num_judges <= v.k):
                    raise VoteDataError("--num-judges must be between 1 and K")
                cols = rng_from(trial_seed, 73).choice(v.k, size=num_judges, replace=False)
                sub = v.select_judges(np.sort(cols))
            train, test = split(sub, SplitSpec(train_fraction=train_fraction, seed=trial_seed))
            config = _em_config(trial_seed, tol, max_iters, prior_a, prior_b)
            for m in model_list:
                if m == "umv":
                    post = umv_predict(test)
                else:
                    fitres = _fit_model(m, train, config)
                    kind = {"ci": "ci", "factor": "factor"}.get(m, "ising")
                    post = _predict_fixed(kind, fitres.params, test)
                results[m].append(accuracy(post.hard_labels, test.gold_labels))
        report = {"seed": seed, "n": v.n, "K": v.k, "trials": trials,
                  "train_fraction": train_fraction,
                  "num_judges": num_judges if num_judges is not None else v.k,
                  "models": {}}
        for m in model_list:
            accs = np.array(results[m])
            report["models"][m] = {"mean_accuracy": float(accs.mean()),
                                   "se": float(accs.std() / np.sqrt(trials))}
        text = _json_dumps(report)
        if out:
            Path(out).write_text(text + "\n")
        click.echo(text)
    except (VoteDataError, OSError, ValueError) as exc:
        _fail(str(exc))


@main.command()
@click.option("--generator", required=True,
              type=click.Choice(["ci-setup-1", "ci-setup-2", "ci-setup-3", "ci-setup-4",
                                 "shared-demo", "classdep-demo", "cw", "factor"]))
@click.option("-n", "n_items", type=int, default=1000, show_default=True)
@click.option("--num-judges", type=int, default=None, help="K for cw/factor generators.")
@click.option("--beta0", type=float, default=0.5, show_default=True)
@click.option("--beta1", type=float, default=2.0, show_default=True)
@click.option("--h0", type=float, default=0.0, show_default=True)
@click.option("--c1", type=float, default=0.0, show_default=True,
              help="Scaled field c for class 1 (applied as c/K).")
@click.option("--pi", type=float, default=0.5, show_default=True)
@click.option("--a", type=float, default=0.5, show_default=True)
@click.option("--b", type=float, default=1.0, show_default=True)
@click.option("--lam", type=float, default=0.1, show_default=True)
@click.option("--sigma2", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def simulate(generator, n_items, num_judges, beta0, beta1, h0, c1, pi, a, b, lam, sigma2, seed, out):
    """Write a simulated vote CSV (with gold labels) from a named generator."""
    from . import presets

    try:
        if generator.startswith("ci-setup-"):
            params = presets.CI_SETUPS[int(generator[-1])]
            v = sample_ci(params, n_items, seed)
        elif generator == "shared-demo":
            from .ising import sample_labeled

            v = sample_labeled(presets.SHARED_DEMO, n_items, seed)
        elif generator == "classdep-demo":
            from .ising import sample_labeled

            v = sample_labeled(presets.CLASSDEP_DEMO, n_items, seed)
        elif generator == "cw":
            from .curie_weiss import CWClassSpec, CWExperimentSpec, sample_cw

            k = num_judges or 10
            spec = CWExperimentSpec(
                pi=pi,
                class0=CWClassSpec(beta=beta0, field_mode="constant", field_value=h0),
                class1=CWClassSpec(beta=beta1, field_mode="scaled", field_value=c1),
                k_grid=(k,), n=n_items, threshold_mode="explicit", threshold=0.5, seed=seed)
            rng = rng_from(seed, 79)
            y = (rng.random(n_items) < pi).astype(np.int8)
            spins = np.zeros((n_items, k), dtype=np.int8)
            n1 = int(y.sum())
            if n1:
                spins[y == 1] = sample_cw(k, beta1, c1 / k, n1, seed * 4 + 1)
            if n_items - n1:
                spins[y == 0] = sample_cw(k, beta0, h0, n_items - n1, seed * 4 + 2)
            v = VoteMatrix(votes=((spins + 1) // 2).astype(np.int8),
                           item_ids=tuple(str(i) for i in range(n_items)),
                           judge_names=tuple(f"j{i+1}" for i in range(k)),
                           gold_labels=y)
        elif generator == "factor":
            from .factor import FactorParams, sample_factor

            k = num_judges or 10
            v = sample_factor(FactorParams(pi=pi, a=a, b=b, lam=lam, sigma2_z=sigma2), k, n_items, seed)
        else:
            raise VoteDataError(generator)
        save_votes(v, out)
        click.echo(f"wrote {out} ({v.n} items, {v.k} judges)")
    except (VoteDataError, OSError, ValueError) as exc:
        _fail(str(exc))


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:>12.6g}"
    return f"{value:>12}"


@main.command()
@click.argument("name", type=click.Choice(REPRODUCE_NAMES))
@click.option("--seed", type=int, default=None, help="Override the experiment's frozen seed.")
@click.option("--out", type=click.Path(), default=None, help="Directory for CSV artifacts.")
def reproduce(name, seed, out):
    """Re-run a built-in experiment and check its reference values."""
    from .reproduce import REPRODUCE_TARGETS

    try:
        checks, tables = REPRODUCE_TARGETS[name](seed)
    except (VoteDataError, OSError, ValueError) as exc:
        _fail(str(exc))
        return
    for table_name, rows in tables.items():
        if len(rows) <= 12:
            click.echo(table_name + ":")
            cols = list(rows[0].keys())
            click.echo("  " + "  ".join(f"{c:>12}" for c in cols))
            for row in rows:
                click.echo("  " + "  ".join(_cell(row[c]) for c in cols))
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        for table_name, rows in tables.items():
            path = outdir / f"{name}-{table_name}.csv"
            with open(path, "w", newline="\n") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
                writer.writeheader()
                writer.writerows(rows)
            click.echo(f"wrote {path}")
    n_fail = 0
    for check in checks:
        click.echo(check.line())
        n_fail += 0 if check.passed else 1
    click.echo(f"{len(checks) - n_fail}/{len(checks)} checks passed")
    if n_fail:
        sys.exit(1)


if __name__ == "__main__":
    main()
