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
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

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
_SEEDLESS_TARGETS = ("motivating-example", "motivating-example-classdep")  # exact enumerations: no --seed


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


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


def _fit_umv(v: VoteMatrix, config: EMConfig) -> EMFit:
    # No parameters: the "fit" is the vote fraction, with an empty trace.
    return EMFit(params=None, posterior=umv_predict(v), trace=EMTrace())


def _ising_model(mode: str):
    from .ising import IsingParams, em_fit_ising

    return (lambda v, config: em_fit_ising(v, mode, config),
            partial(IsingParams, shared_couplings=mode == "class_independent"))


def _factor_model():
    from .factor import MultiFactorParams, em_fit_factor

    return lambda v, config: em_fit_factor(v, 1, config), MultiFactorParams


def _predict(params, v: VoteMatrix):
    """Posteriors under fitted parameters; the parameter-free UMV "model" is the vote fraction."""
    return umv_predict(v) if params is None else em.predict(params, v)


class _Model(NamedTuple):
    """How a model is fitted and how its ``model.json`` reads: the tag that names it, then its fields."""

    tag: dict  # the one key and value that name the model in its file
    fields: tuple  # its parameters, in file order, named as the constructor's arguments
    load: Callable  # imports the model's module and returns (fit(v, config), constructor(**fields))


_ISING_FIELDS = ("pi", "h0", "h1", "W0", "W1")
# A loader runs when a command calls it: only then is the model's module
# imported, and em_fit_ci read from this module's globals.
_MODELS = {
    "ci": _Model({"model": "ci"}, ("pi", "alpha", "beta"), lambda: (em_fit_ci, CIParams)),
    "ising-shared": _Model({"mode": "class_independent"}, _ISING_FIELDS, lambda: _ising_model("class_independent")),
    "ising-classdep": _Model({"mode": "class_dependent"}, _ISING_FIELDS, lambda: _ising_model("class_dependent")),
    "factor": _Model({"model": "factor"}, ("pi", "a", "b", "loadings"), _factor_model),
    "umv": _Model({"model": "umv"}, (), lambda: (_fit_umv, lambda: None)),
}
MODELS = tuple(_MODELS)


def _model_payload(name: str, params) -> dict:
    """The ``model.json`` object of fitted parameters: the model's tag, then each field, arrays as nested lists."""
    tag, fields, _ = _MODELS[name]
    return {**tag, **{f: np.asarray(getattr(params, f)).tolist() for f in fields}}


def _read_model(payload):
    """The parameters a ``model.json`` object holds; a file with a ``mode`` is an Ising model's."""
    if not isinstance(payload, dict):
        raise VoteDataError("model file must hold a JSON object")
    for key, value in payload.items():
        if key in ("mode", "model"):
            continue
        try:
            kind = np.asarray(value).dtype.kind
        except ValueError:  # a ragged list
            kind = "O"
        if kind not in "if":
            raise VoteDataError(f"model file field {key!r} must be a number or a list of numbers")
    key = "mode" if "mode" in payload else "model"
    for tag, fields, load in _MODELS.values():
        if key in tag and tag[key] == payload.get(key):
            break
    else:
        raise VoteDataError(f"unknown mode {payload['mode']!r}" if key == "mode" else "unrecognized model file")
    for f in fields:
        if f not in payload:
            raise VoteDataError(f"model file lacks field {f!r}")
    return load()[1](**{f: payload[f] for f in fields})


class _Commands(click.Group):
    """The one exit-2 boundary: an OSError or ValueError (VoteDataError, json.JSONDecodeError) is an input error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (OSError, ValueError) as exc:
            _fail(str(exc))


@click.group(cls=_Commands)
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
    v = load_votes(votes_path)
    config = EMConfig(seed=seed, **em_flags)
    fitres = _MODELS[model].load()[0](v, config)
    # Created only now, so a rejected input or a failed fit leaves no directory behind.
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    payload = _model_payload(model, fitres.params)
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


@main.command()
@click.option("--votes", "votes_path", required=True, type=click.Path())
@click.option("--model-file", required=True, type=click.Path())
@click.option("--out", type=click.Path(), default="predictions.csv", show_default=True)
def predict(votes_path, model_file, out):
    """Score items under a previously fitted model."""
    v = load_votes(votes_path)
    try:
        payload = json.loads(Path(model_file).read_text())
    except RecursionError:  # json's decoder recurses once per nested array or object
        raise VoteDataError(f"{model_file}: JSON nests too deeply to read") from None
    post = _predict(_read_model(payload), v)
    _write_posteriors(Path(out), v, post.gamma)
    click.echo(f"wrote {out}")


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
        if train.n < 2 and set(model_list) - {"umv"}:
            raise VoteDataError(f"--train-fraction {train_fraction} splits the {v.n} items into {train.n} to train "
                                f"and {test.n} to test; an EM fit requires at least 2 training items")
        config = EMConfig(seed=trial_seed, **em_flags)
        for m in model_list:
            post = _predict(_MODELS[m].load()[0](train, config).params, test)
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
            raise VoteDataError(f"{param.opts[0]} is not read by the {generator} generator")
    if generator.startswith("ci-setup-"):
        params = presets.CI_SETUPS[int(generator[-1])]
        v = sample_ci(params, n_items, seed)
    elif generator in ("shared-demo", "classdep-demo"):
        from .ising import sample_labeled

        demo = presets.SHARED_DEMO if generator == "shared-demo" else presets.CLASSDEP_DEMO
        v = sample_labeled(demo, n_items, seed)
    elif generator == "cw":
        from .curie_weiss import CWClassSpec, CWExperimentSpec, sample_labeled_cw

        # Each class parameter is checked here, in CWClassSpec's order, so
        # that its message names the flag; the spec checks the rest (pi, n).
        for flag, value, coupling in (("--beta0", beta0, True), ("--h0", h0, False),
                                      ("--beta1", beta1, True), ("--c1", c1, False)):
            if coupling and value <= 0:
                raise VoteDataError(f"{flag} must be positive")
            if not np.isfinite(value):
                raise VoteDataError(f"{flag} must be finite")
        spec = CWExperimentSpec(
            pi=pi,
            class0=CWClassSpec(beta=beta0, field_mode="constant", field_value=h0),
            class1=CWClassSpec(beta=beta1, field_mode="scaled", field_value=c1),
            k_grid=(num_judges,), n=n_items, threshold=0.5, seed=seed)
        y, spins = sample_labeled_cw(spec, num_judges, rng_from(seed, 79), (seed * 4 + 1, seed * 4 + 2))
        v = simulated_votes(((spins + 1) // 2).astype(np.int8), y)
    else:  # factor
        from .factor import FactorParams, sample_factor

        v = sample_factor(FactorParams(pi=pi, a=a, b=b, lam=lam, sigma2_z=sigma2), num_judges, n_items, seed)
    save_votes(v, out)
    click.echo(f"wrote {out} ({v.n} items, {v.k} judges)")


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
    if seed is not None and name in _SEEDLESS_TARGETS:
        raise VoteDataError(f"--seed is not read by the {name} target")
    from .reproduce import REPRODUCE_TARGETS

    checks, tables = REPRODUCE_TARGETS[name](seed)
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
