"""Command-line entry point.

Subcommands: fit, predict, evaluate, simulate, reproduce. Every command is
deterministic given its inputs and --seed. Exit codes: 0 success, 1 a
reproduce check failed, 2 input error.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import em
from .ci import CIParams, em_fit_ci, sample_ci, umv_predict
from .data import (SplitSpec, VoteDataError, VoteMatrix, accuracy, load_votes, rng_from, save_votes,
                   simulated_votes, split, write_csv_rows)
from .em import EMConfig, EMFit, EMTrace

# The Ising, factor and Curie-Weiss modules, presets and reproduce are
# imported by the commands and models that use them (see _MODELS), so a CI
# fit or prediction never loads them.

# The keys of reproduce.REPRODUCE_TARGETS, sorted; a test keeps them equal.
REPRODUCE_NAMES = ("ci-setups", "cw-separation-thm31", "cw-separation-thm32", "factor-separation",
                   "motivating-example", "motivating-example-classdep")


def _fail(message: str, code: int = 2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _json_dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=False)


def _write_posteriors(path: Path, v: VoteMatrix, gamma: np.ndarray) -> None:
    gamma = np.asarray(gamma, dtype=float)

    def tails(start, stop):
        # A posterior is a function of the vote pattern, so few values repeat
        # in a chunk; they are keyed by their bits, as repr tells -0.0 from 0.0.
        bits, keys = np.unique(gamma[start:stop].view(np.int64), return_inverse=True)
        text = [f",{g!r},{int(g >= 0.5)}\n" for g in bits.view(float).tolist()]
        return map(text.__getitem__, keys.tolist())

    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        write_csv_rows(fh, ["item", "gamma", "label"], v.item_ids, tails)


def _ci_model():
    return (em_fit_ci,
            lambda p: {"model": "ci", "pi": p.pi, "alpha": p.alpha.tolist(), "beta": p.beta.tolist()},
            lambda d: CIParams(pi=d["pi"], alpha=np.array(d["alpha"]), beta=np.array(d["beta"])))


def _ising_model(mode: str):
    from .ising import IsingParams, em_fit_ising

    return (lambda v, config: em_fit_ising(v, mode, config),
            lambda p: json.loads(p.to_json()), lambda d: IsingParams.from_json(json.dumps(d)))


def _factor_model():
    from .factor import MultiFactorParams, em_fit_factor

    return (lambda v, config: em_fit_factor(v, 1, config),
            lambda p: {"model": "factor", "pi": p.pi, "a": p.a.tolist(), "b": p.b.tolist(),
                       "loadings": p.loadings.tolist()},
            lambda d: MultiFactorParams(a=np.array(d["a"]), b=np.array(d["b"]),
                                        loadings=np.array(d["loadings"]), pi=d["pi"]))


def _umv_model():
    # No parameters: the "fit" is the vote fraction, with an empty trace.
    return (lambda v, config: EMFit(params=None, posterior=umv_predict(v), trace=EMTrace()),
            lambda p: {"model": "umv"}, lambda d: None)


def _predict(params, v: VoteMatrix):
    """Posteriors under fitted parameters; the parameter-free UMV "model" is the vote fraction."""
    return umv_predict(v) if params is None else em.predict(params, v)


# Model name -> loader of its (fit, to_payload, from_payload); a command
# calls it, importing the model's module and reading the names then.
_MODELS = {
    "ci": _ci_model,
    "ising-shared": lambda: _ising_model("class_independent"),
    "ising-classdep": lambda: _ising_model("class_dependent"),
    "factor": _factor_model,
    "umv": _umv_model,
}
MODELS = tuple(_MODELS)


def _saved_model_name(payload) -> str:
    """The model a ``model.json`` payload was written by: Ising payloads carry a mode, the rest a name."""
    if not isinstance(payload, dict):
        raise VoteDataError("model file must hold a JSON object")
    for key, value in payload.items():
        if key not in ("mode", "model") and np.asarray(value).dtype.kind not in "if":
            raise VoteDataError(f"model file field {key!r} must be a number or a list of numbers")
    if "mode" in payload:
        return "ising-shared" if payload["mode"] == "class_independent" else "ising-classdep"
    if payload.get("model") in ("ci", "factor", "umv"):
        return payload["model"]
    raise VoteDataError("unrecognized model file")


@click.group()
def main():
    """Aggregate binary judge votes with dependence-aware models."""


# One flag per EMConfig field, named, typed and defaulted by it.
_common = [click.option("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default, show_default=True)
           for f in dataclasses.fields(EMConfig)]


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
def fit(votes_path, model, out, seed, **em_flags):
    """Fit a model by unsupervised EM and write posteriors plus a report."""
    try:
        v = load_votes(votes_path)
        config = EMConfig(seed=seed, **em_flags)
        fit_model, to_payload, _ = _MODELS[model]()
        fitres = fit_model(v, config)
        # Created only now, so a rejected input or a failed fit leaves no directory behind.
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        payload = to_payload(fitres.params)
        trace_lines = [
            f"iter {i}: objective={obj:.6f} loglik={ll:.6f}"
            for i, (obj, ll) in enumerate(zip(fitres.trace.objective, fitres.trace.loglik))
        ]
        (outdir / "model.json").write_text(_json_dumps(payload) + "\n")
        _write_posteriors(outdir / "posteriors.csv", v, fitres.posterior.gamma)
        report = {"model": model, "seed": seed, "n": v.n, "K": v.k}
        if v.gold_labels is not None:
            report["accuracy"] = accuracy(fitres.posterior.hard_labels, v.gold_labels)
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
        _, _, from_payload = _MODELS[_saved_model_name(payload)]()
        post = _predict(from_payload(payload), v)
        _write_posteriors(Path(out), v, post.gamma)
        click.echo(f"wrote {out}")
    except (VoteDataError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        _fail(str(exc))


@main.command()
@click.option("--votes", "votes_path", required=True, type=click.Path())
@click.option("--models", default="ci,umv", show_default=True,
              help="Comma-separated subset of: " + ",".join(MODELS))
@click.option("--trials", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--train-fraction", type=float, default=0.15, show_default=True)
@click.option("--num-judges", type=int, default=None,
              help="Judge subsample size per trial (without replacement); default all.")
@click.option("--out", type=click.Path(), default=None, help="Optional JSON output path.")
@_with_common
def evaluate(votes_path, models, trials, train_fraction, num_judges, out, seed, **em_flags):
    """Mean test accuracy and standard error over seeded train/test trials."""
    try:
        v = load_votes(votes_path)
        if v.gold_labels is None:
            raise VoteDataError("evaluate requires a gold label column")
        model_list = [m.strip() for m in models.split(",") if m.strip()]
        if not model_list:
            raise VoteDataError("--models names no model")
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
            config = EMConfig(seed=trial_seed, **em_flags)
            for m in model_list:
                fit_model, _, _ = _MODELS[m]()
                post = _predict(fit_model(train, config).params, test)
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


# The flags the cw and factor generators read besides -n, --seed and --out,
# which every generator reads; the presets read no others.
_GENERATOR_FLAGS = {"cw": ("num_judges", "beta0", "beta1", "h0", "c1", "pi"),
                    "factor": ("num_judges", "pi", "a", "b", "lam", "sigma2")}


@main.command()
@click.option("--generator", required=True,
              type=click.Choice(["ci-setup-1", "ci-setup-2", "ci-setup-3", "ci-setup-4",
                                 "shared-demo", "classdep-demo", "cw", "factor"]))
@click.option("-n", "n_items", type=click.IntRange(min=1), default=1000, show_default=True)
@click.option("--num-judges", type=click.IntRange(min=1), default=10, show_default=True,
              help="K for cw/factor generators.")
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
@click.pass_context
def simulate(ctx, generator, n_items, num_judges, beta0, beta1, h0, c1, pi, a, b, lam, sigma2, seed, out):
    """Write a simulated vote CSV (with gold labels) from a named generator."""
    from . import presets

    read = {"generator", "n_items", "seed", "out", *_GENERATOR_FLAGS.get(generator, ())}
    for param in ctx.command.params:
        if param.name not in read and ctx.get_parameter_source(param.name) is click.core.ParameterSource.COMMANDLINE:
            _fail(f"{param.opts[0]} is not read by the {generator} generator")
    try:
        if generator.startswith("ci-setup-"):
            params = presets.CI_SETUPS[int(generator[-1])]
            v = sample_ci(params, n_items, seed)
        elif generator in ("shared-demo", "classdep-demo"):
            from .ising import sample_labeled

            demo = presets.SHARED_DEMO if generator == "shared-demo" else presets.CLASSDEP_DEMO
            v = sample_labeled(demo, n_items, seed)
        elif generator == "cw":
            from .curie_weiss import CWClassSpec, CWExperimentSpec, sample_labeled_cw

            # The spec checks the inputs (pi, both betas, n) and carries them to the sampler.
            spec = CWExperimentSpec(
                pi=pi,
                class0=CWClassSpec(beta=beta0, field_mode="constant", field_value=h0),
                class1=CWClassSpec(beta=beta1, field_mode="scaled", field_value=c1),
                k_grid=(num_judges,), n=n_items, threshold=0.5, seed=seed)
            y, spins = sample_labeled_cw(spec, num_judges, rng_from(seed, 79), (seed * 4 + 1, seed * 4 + 2))
            v = simulated_votes(((spins + 1) // 2).astype(np.int8), y)
        elif generator == "factor":
            from .factor import FactorParams, sample_factor

            v = sample_factor(FactorParams(pi=pi, a=a, b=b, lam=lam, sigma2_z=sigma2), num_judges, n_items, seed)
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
