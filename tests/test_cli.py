import ast
import csv
import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import judgeagg
from judgeagg import EMConfig, cli
from judgeagg.cli import main

SRC = str(Path(judgeagg.__file__).resolve().parent.parent)


@pytest.fixture
def runner():
    return CliRunner()


def simulate(runner, tmp_path, name="votes.csv", generator="ci-setup-1", n=80, seed=3, extra=()):
    path = tmp_path / name
    res = runner.invoke(main, ["simulate", "--generator", generator, "-n", str(n),
                               "--seed", str(seed), "--out", str(path), *extra])
    assert res.exit_code == 0, res.output
    return path


class TestSimulate:
    def test_writes_loadable_csv(self, runner, tmp_path):
        path = simulate(runner, tmp_path)
        from judgeagg import load_votes

        v = load_votes(str(path))
        assert v.n == 80 and v.k == 6 and v.gold_labels is not None

    def test_generators_run(self, runner, tmp_path):
        for gen, extra in [("shared-demo", ()), ("classdep-demo", ()),
                           ("cw", ("--num-judges", "8", "--pi", "0.7")),
                           ("factor", ("--num-judges", "5", "--lam", "0.2"))]:
            path = simulate(runner, tmp_path, name=f"{gen}.csv", generator=gen, n=30, extra=extra)
            assert path.exists()

    @pytest.mark.parametrize("args, message", [
        (("--pi", "1.5"), "pi must lie strictly inside (0,1)"),
        (("--beta0", "-1"), "--beta0 must be positive"),
        (("--beta1", "0"), "--beta1 must be positive"),
    ])
    def test_cw_rejects_invalid_inputs(self, runner, tmp_path, args, message):
        res = runner.invoke(main, ["simulate", "--generator", "cw", "--out", str(tmp_path / "cw.csv"), *args])
        assert res.exit_code == 2
        assert f"error: {message}" in res.output
        assert not (tmp_path / "cw.csv").exists()

    @pytest.mark.parametrize("generator, args, message", [
        ("cw", ("--beta0", "nan"), "--beta0 must be finite"),
        ("cw", ("--h0", "nan"), "--h0 must be finite"),
        ("cw", ("--c1", "nan"), "--c1 must be finite"),
        ("cw", ("--beta1", "inf"), "--beta1 must be finite"),
        ("cw", ("--c1", "inf"), "--c1 must be finite"),
        ("cw", ("--beta1", "1e308"), "magnetization weights are not finite at K=10, beta=1e+308, h=0.0"),
        ("cw", ("-n", "3", "--pi", "0.01", "--beta1", "1e308"),
         "magnetization weights are not finite at K=10, beta=1e+308, h=0.0"),
        ("cw", ("-n", "300", "--pi", "0.01", "--beta1", "1e308"),
         "magnetization weights are not finite at K=10, beta=1e+308, h=0.0"),
        ("factor", ("--sigma2", "inf"), "sigma2_z must be finite"),
        ("factor", ("--lam", "0", "--sigma2", "inf"), "sigma2_z must be finite"),
    ], ids=lambda x: " ".join(x) if isinstance(x, tuple) else None)
    def test_non_finite_parameter_exits_2(self, runner, tmp_path, generator, args, message):
        out = tmp_path / "votes.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = runner.invoke(main, ["simulate", "--generator", generator, "--out", str(out), *args])
        assert res.exit_code == 2, res.output
        assert res.stderr == f"error: {message}\n"
        assert not caught  # no numpy warning on the way
        assert not out.exists()

    @pytest.mark.parametrize("generator", ["cw", "factor"])
    @pytest.mark.parametrize("args", [("-n", "0"), ("-n", "-1"), ("--num-judges", "0"), ("--num-judges", "-2")],
                             ids=" ".join)
    def test_bad_count_exits_2(self, runner, tmp_path, generator, args):
        out = tmp_path / "votes.csv"
        res = runner.invoke(main, ["simulate", "--generator", generator, "--out", str(out), *args])
        assert res.exit_code == 2, res.output
        assert "Invalid value" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("generator, args", [
        ("ci-setup-1", ("--num-judges", "4")),
        ("shared-demo", ("--beta0", "-3", "--lam", "5")),
        ("cw", ("--a", "0.5")),
        ("factor", ("--beta1", "2")),
    ])
    def test_flag_the_generator_does_not_read_exits_2(self, runner, tmp_path, generator, args):
        out = tmp_path / "votes.csv"
        res = runner.invoke(main, ["simulate", "--generator", generator, "--out", str(out), *args])
        assert res.exit_code == 2, res.output
        assert f"error: {args[0]} is not read by the {generator} generator" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("generator, flags", [
        ("cw", ("--num-judges", "--beta0", "--beta1", "--h0", "--c1", "--pi")),
        ("factor", ("--num-judges", "--pi", "--a", "--b", "--lam", "--sigma2")),
    ])
    def test_every_flag_the_generator_reads_is_accepted(self, runner, tmp_path, generator, flags):
        # Each flag given explicitly, at its default value.
        defaults = {p.opts[0]: p.default for p in main.commands["simulate"].params}
        args = [str(x) for flag in flags for x in (flag, defaults[flag])]
        simulate(runner, tmp_path, generator=generator, n=20, extra=args)


@pytest.mark.parametrize("args", [
    ["fit", "--model", "ci", "--votes", "{votes}", "--out", "{out}"],
    ["evaluate", "--votes", "{votes}", "--trials", "1", "--out", "{out}"],
    ["simulate", "--generator", "ci-setup-1", "--out", "{out}"],
    ["simulate", "--generator", "shared-demo", "--out", "{out}"],
    ["simulate", "--generator", "cw", "--out", "{out}"],
    ["simulate", "--generator", "factor", "--out", "{out}"],
    ["reproduce", "ci-setups", "--out", "{out}"],
], ids=lambda args: " ".join(args[:3]))
def test_negative_seed_exits_2(runner, tmp_path, args):
    votes = simulate(runner, tmp_path, n=60)
    out = tmp_path / "out"
    fill = {"{votes}": str(votes), "{out}": str(out)}
    res = runner.invoke(main, [fill.get(a, a) for a in args] + ["--seed", "-1"])
    assert res.exit_code == 2, res.output
    assert res.stderr == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("raw, message", [
    (b"item,j1\n" + b"x" * (csv.field_size_limit() + 1) + b",1\n", "field larger than field limit"),
    (b"item,j1\na,1\nb\xff,0\n", "'utf-8' codec can't decode byte 0xff"),
], ids=["id-over-the-csv-field-limit", "invalid-utf-8"])
@pytest.mark.parametrize("command", ["fit", "predict"])
def test_unreadable_vote_file_exits_2(runner, tmp_path, command, raw, message):
    bad = tmp_path / "votes.csv"
    bad.write_bytes(raw)
    out = tmp_path / "out"
    if command == "fit":
        args = ["fit", "--votes", str(bad), "--model", "ci", "--out", str(out)]
    else:
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"model": "ci", "pi": 0.5, "alpha": [0.7], "beta": [0.7]}))
        args = ["predict", "--votes", str(bad), "--model-file", str(model), "--out", str(out)]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"error: {bad}: {message}")
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["fit", "--votes", "{votes}", "--model", "ci", "--out", "{out}"],
    ["predict", "--votes", "{votes}", "--model-file", "{model}", "--out", "{out}"],
    ["evaluate", "--votes", "{votes}", "--trials", "1", "--out", "{out}"],
    ["simulate", "--generator", "ci-setup-1", "--out", "{out}"],
    ["reproduce", "motivating-example", "--out", "{out}"],
], ids=lambda args: args[0])
def test_output_under_a_regular_file_exits_2(runner, tmp_path, args):
    votes = simulate(runner, tmp_path, n=60)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"model": "umv"}))
    afile = tmp_path / "afile"
    afile.write_text("")
    fill = {"{votes}": str(votes), "{model}": str(model), "{out}": str(afile / "sub")}
    res = runner.invoke(main, [fill.get(a, a) for a in args])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stderr == f"error: [Errno 20] Not a directory: '{afile / 'sub'}'\n"


def test_no_command_catches_input_errors():
    # The command group alone turns an OSError or ValueError into exit 2;
    # a handler in a command would make a second, drifting copy of that rule.
    from judgeagg import cli

    tree = ast.parse(Path(cli.__file__).read_text(), filename=cli.__file__)
    commands = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                and any("command" in ast.unparse(d) for d in node.decorator_list)]
    assert sorted(c.name for c in commands) == sorted(main.commands)
    for command in commands:
        for node in ast.walk(command):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                caught = [BaseException]
            else:
                names = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught = [eval(ast.unparse(name), vars(cli)) for name in names]
            for exc in caught:
                assert not (issubclass(exc, (OSError, ValueError)) or issubclass(OSError, exc)
                            or issubclass(ValueError, exc)), f"{command.name}:{node.lineno} catches {exc.__name__}"


@pytest.mark.parametrize("command", ["fit", "evaluate"])
def test_em_flags_mirror_em_config(command):
    # One flag per EMConfig field, named after it and defaulting to its default.
    options = {p.name: p for p in main.commands[command].params}
    for f in dataclasses.fields(EMConfig):
        assert options[f.name].opts == ["--" + f.name.replace("_", "-")]
        assert options[f.name].default == f.default


class TestFit:
    def test_ci_fit_outputs(self, runner, tmp_path):
        votes = simulate(runner, tmp_path, n=150)
        out = tmp_path / "run"
        res = runner.invoke(main, ["fit", "--votes", str(votes), "--model", "ci",
                                   "--out", str(out), "--seed", "1"])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        assert list(report.keys())[:4] == ["model", "seed", "n", "K"]
        assert report["accuracy"] >= 0.9
        assert "iter 0" in res.output
        model = json.loads((out / "model.json").read_text())
        assert model["model"] == "ci" and len(model["alpha"]) == 6
        lines = (out / "posteriors.csv").read_text().splitlines()
        assert lines[0] == "item,gamma,label"
        assert len(lines) == 151

    def test_umv_fit(self, runner, tmp_path):
        votes = simulate(runner, tmp_path, n=60)
        out = tmp_path / "umv"
        res = runner.invoke(main, ["fit", "--votes", str(votes), "--model", "umv", "--out", str(out)])
        assert res.exit_code == 0, res.output

    def test_empty_csv_exits_2(self, runner, tmp_path):
        bad = tmp_path / "empty.csv"
        bad.write_text("")
        res = runner.invoke(main, ["fit", "--votes", str(bad), "--model", "ci"])
        assert res.exit_code == 2
        assert "empty" in res.output

    @pytest.mark.parametrize("flag, value, message", [
        ("--prior-a", "nan", "Beta prior parameters must be finite"),
        ("--prior-b", "inf", "Beta prior parameters must be finite"),
        ("--tol", "nan", "tol must be positive and finite"),
        ("--prior-a", "0.5", "Beta prior parameters must be finite and >= 1"),
    ])
    def test_non_finite_em_flag_exits_2(self, runner, tmp_path, flag, value, message):
        votes = simulate(runner, tmp_path, n=60)
        out = tmp_path / "run"
        res = runner.invoke(main, ["fit", "--votes", str(votes), "--model", "ci", "--out", str(out), flag, value])
        assert res.exit_code == 2, res.output
        assert f"error: {message}" in res.output
        assert not out.exists()  # no empty output directory is left behind

    def test_beyond_cutoff_warns_and_succeeds(self, runner, tmp_path):
        votes = simulate(runner, tmp_path, generator="factor", n=40,
                         extra=("--num-judges", "16",))
        out = tmp_path / "big"
        with pytest.warns(UserWarning, match="exact evidence unavailable"):
            res = runner.invoke(main, ["fit", "--votes", str(votes), "--model", "ising-classdep",
                                       "--out", str(out), "--max-iters", "2"])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("k", [1, 6])
    @pytest.mark.parametrize("model", ["ci", "ising-shared", "ising-classdep", "factor"])
    def test_flat_prior_with_constant_judge_fits(self, runner, tmp_path, model, k):
        # Under Beta(1, 1) the MAP rate of a judge that always votes 1 is
        # exactly 1; the fit must still end finite.
        votes = (np.random.default_rng(k).random((150, k)) < 0.5).astype(int)
        votes[:, 0] = 1
        path = tmp_path / "constant.csv"
        path.write_text(",".join(["item", *(f"j{j + 1}" for j in range(k))]) + "\n"
                        + "".join(f"{i}," + ",".join(map(str, row)) + "\n" for i, row in enumerate(votes)))
        out = tmp_path / model
        res = runner.invoke(main, ["fit", "--votes", str(path), "--model", model, "--out", str(out),
                                   "--prior-a", "1", "--prior-b", "1"])
        assert res.exit_code == 0, res.output
        gamma = read_gamma(out / "posteriors.csv")
        assert len(gamma) == 150 and np.all(np.isfinite(gamma))

    @pytest.mark.parametrize("model", ["ci", "ising-shared", "ising-classdep", "factor"])
    def test_unanimous_votes_fit_exits_0(self, runner, tmp_path, model):
        n, k = 2000, 20
        path = tmp_path / "unanimous.csv"
        header = ",".join(["item", *(f"j{j + 1}" for j in range(k))])
        path.write_text(header + "\n" + "".join(f"{i}," + ",".join("1" * k) + "\n" for i in range(n)))
        out = tmp_path / model
        res = runner.invoke(main, ["fit", "--votes", str(path), "--model", model, "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "posteriors.csv").read_text().splitlines()
        gamma = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(gamma) == n and all(0.0 <= g <= 1.0 for g in gamma)


def read_gamma(path) -> np.ndarray:
    lines = path.read_text().splitlines()
    assert lines[0] == "item,gamma,label"
    return np.array([float(line.split(",")[1]) for line in lines[1:]])


# Valid model files for six judges, which the malformed cases below alter.
CI_FILE = {"model": "ci", "pi": 0.5, "alpha": [0.7] * 6, "beta": [0.7] * 6}
ISING_FILE = {"mode": "class_dependent", "pi": 0.5, "h0": [0.0] * 6, "h1": [1.0] * 6,
              "W0": [[0.0] * 6] * 6, "W1": [[0.0] * 6] * 6}
FACTOR_FILE = {"model": "factor", "pi": 0.5, "a": [1.0] * 6, "b": [0.0] * 6, "loadings": [[1.0]] * 6}


class TestPredict:
    # model -> (generator of its own CSV, extra simulate args, tag and fields of its model.json)
    CASES = {
        "ci": ("ci-setup-1", (), {"model": "ci"}, ["pi", "alpha", "beta"]),
        "ising-shared": ("shared-demo", (), {"mode": "class_independent"}, ["pi", "h0", "h1", "W0", "W1"]),
        "ising-classdep": ("classdep-demo", (), {"mode": "class_dependent"}, ["pi", "h0", "h1", "W0", "W1"]),
        "factor": ("factor", ("--num-judges", "5", "--lam", "0.8"), {"model": "factor"}, ["pi", "a", "b", "loadings"]),
        "umv": ("ci-setup-1", (), {"model": "umv"}, []),
    }

    @pytest.mark.parametrize("model", list(CASES))
    def test_round_trip(self, runner, tmp_path, model):
        generator, extra, tag, fields = self.CASES[model]
        votes = simulate(runner, tmp_path, generator=generator, n=120, extra=extra)
        out = tmp_path / "fit"
        res = runner.invoke(main, ["fit", "--votes", str(votes), "--model", model,
                                   "--out", str(out), "--seed", "2"])
        assert res.exit_code == 0, res.output
        saved = json.loads((out / "model.json").read_text())
        assert list(saved) == [*tag, *fields]
        assert tag.items() <= saved.items()
        # The parameters read back are the fitted ones, bit for bit.
        fitted = cli._MODELS[model].load()[0](judgeagg.load_votes(str(votes)), EMConfig(seed=2)).params
        read = cli._read_model(saved)
        if fitted is None:
            assert read is None
        else:
            assert type(read) is type(fitted)
            for name, value in vars(fitted).items():
                np.testing.assert_array_equal(getattr(read, name), value, strict=True)
        pred = tmp_path / "pred.csv"
        res = runner.invoke(main, ["predict", "--votes", str(votes),
                                   "--model-file", str(out / "model.json"), "--out", str(pred)])
        assert res.exit_code == 0, res.output
        gamma = read_gamma(pred)
        assert len(gamma) == 120
        np.testing.assert_array_equal(gamma, read_gamma(out / "posteriors.csv"))

    @pytest.mark.parametrize("model", ["ci", "ising-shared", "ising-classdep", "factor"])
    def test_judge_count_mismatch_exits_2(self, runner, tmp_path, model):
        six = simulate(runner, tmp_path, name="k6.csv", n=60)
        five = simulate(runner, tmp_path, name="k5.csv", generator="factor", n=20, extra=("--num-judges", "5"))
        out = tmp_path / "fit"
        res = runner.invoke(main, ["fit", "--votes", str(six), "--model", model, "--out", str(out),
                                   "--max-iters", "3"])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["predict", "--votes", str(five), "--model-file", str(out / "model.json"),
                                   "--out", str(tmp_path / "pred.csv")])
        assert res.exit_code == 2
        assert "fitted on 6 judges but the votes have 5" in res.output
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("payload, message", [
        ("[]", "model file must hold a JSON object"),
        ("3", "model file must hold a JSON object"),
        ('"x"', "model file must hold a JSON object"),
        ('{"model": "factor", "pi": 0.5, "a": [1, 1, 1, 1, 1, 1], "b": [0, 0, 0, 0, 0, 0], "loadings": null}',
         "model file field 'loadings' must be a number or a list of numbers"),
        ('{"model": "ci", "pi": "0.5", "alpha": [0.7, 0.7, 0.7, 0.7, 0.7, 0.7], "beta": [0.7, 0.7, 0.7, 0.7, 0.7, 0.7]}',
         "model file field 'pi' must be a number or a list of numbers"),
        ('{"model": "factor", "pi": 0.5, "a": [NaN, 1, 1, 1, 1, 1], "b": [0, 0, 0, 0, 0, 0], '
         '"loadings": [[1], [1], [1], [1], [1], [1]]}', "a must be finite"),
        (json.dumps({"mode": "class_dependent", "pi": 0.5, "h0": [float("inf")] + [0.0] * 5, "h1": [0.0] * 6,
                     "W0": [[0.0] * 6] * 6, "W1": [[0.0] * 6] * 6}), "h0 must be finite"),
        ('{"model": "ci", "pi": 0.5, "beta": [0.7, 0.7, 0.7, 0.7, 0.7, 0.7]}', "model file lacks field 'alpha'"),
        (json.dumps({"mode": "class_dependent", "pi": 0.5, "h0": [0.0] * 6, "h1": [0.0] * 6,
                     "W0": [[0.0] * 6] * 6}), "model file lacks field 'W1'"),
        (json.dumps({"mode": "class_whatever", "pi": 0.5, "h0": [0.0] * 6, "h1": [0.0] * 6,
                     "W0": [[0.0] * 6] * 6, "W1": [[0.0] * 6] * 6}), "unknown mode 'class_whatever'"),
        (json.dumps({**CI_FILE, "pi": [0.5]}), "pi must be a number"),
        (json.dumps({**CI_FILE, "pi": [[0.5]]}), "pi must be a number"),
        (json.dumps({**ISING_FILE, "pi": [0.5]}), "pi must be a number"),
        (json.dumps({**ISING_FILE, "h0": 0}), "h0 must be a vector"),
        (json.dumps({**FACTOR_FILE, "pi": [0.5]}), "pi must be a number"),
        (json.dumps({**CI_FILE, "alpha": [0.7, [0.7]]}), "model file field 'alpha' must be a number or a list of numbers"),
        (json.dumps({**ISING_FILE, "W0": [[0.0] * 6] * 5 + [[0.0] * 5]}),
         "model file field 'W0' must be a number or a list of numbers"),
        (json.dumps({**CI_FILE, "mode": "class_dependent"}), "model file lacks field 'h0'"),
        (json.dumps({**ISING_FILE, "h0": [1e308] * 6}), "the model's class log-likelihoods are not finite on these votes"),
        (json.dumps({**FACTOR_FILE, "a": [1e308] * 6}), "the model's class log-likelihoods are not finite on these votes"),
        ("[" * 100_000 + "]" * 100_000, "{model_file}: JSON nests too deeply to read"),
        ('{"model": "ci", "pi": ' + "[" * 100_000 + "]" * 100_000 + "}", "{model_file}: JSON nests too deeply to read"),
    ], ids=["list", "number", "string", "factor-null-loadings", "ci-string-pi", "factor-nan-a", "ising-inf-h0",
            "ci-missing-alpha", "ising-missing-w1", "ising-unknown-mode", "ci-list-pi", "ci-nested-pi",
            "ising-list-pi", "ising-scalar-h0", "factor-list-pi", "ci-ragged-alpha", "ising-ragged-w0",
            "both-tags-read-as-ising", "ising-overflowing-h0", "factor-overflowing-a", "deep-list", "deep-pi"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_malformed_model_file_exits_2(self, runner, tmp_path, payload, message):
        votes = simulate(runner, tmp_path, n=20)
        model_file = tmp_path / "model.json"
        model_file.write_text(payload)
        pred = tmp_path / "pred.csv"
        res = runner.invoke(main, ["predict", "--votes", str(votes), "--model-file", str(model_file),
                                   "--out", str(pred)])
        assert res.exit_code == 2, res.output
        assert f"error: {message.format(model_file=model_file)}" in res.output
        assert not pred.exists()


# Field values of every shape a JSON file can hold: numbers (NaN and the
# infinities among them), nested and ragged lists, strings, null and bools.
_FIELD_VALUES = st.recursive(st.one_of(st.floats(), st.integers(-2, 2), st.floats(0.01, 0.99), st.text(max_size=2),
                                       st.none(), st.booleans()), lambda inner: st.lists(inner, max_size=6),
                             max_leaves=30)
_VALID_FIELDS = {**CI_FILE, **ISING_FILE, **FACTOR_FILE}


@st.composite
def model_files(draw):
    """One model's tag and fields; each field as in a valid file, any value, or (one time in ten) left out."""
    tag, fields, _ = draw(st.sampled_from(list(cli._MODELS.values())))
    kept = [f for f in fields if draw(st.integers(0, 9))]
    return {**tag, **{f: draw(st.one_of(st.just(_VALID_FIELDS[f]), _FIELD_VALUES)) for f in kept}}


@pytest.fixture(scope="module")
def predict_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("predict")
    simulate(CliRunner(), path, n=20)
    return path


@settings(max_examples=100, deadline=None)
@given(payload=model_files())
def test_any_model_file_exits_0_or_2(predict_dir, payload):
    model_file = predict_dir / "model.json"
    model_file.write_text(json.dumps(payload))
    res = CliRunner().invoke(main, ["predict", "--votes", str(predict_dir / "votes.csv"),
                                    "--model-file", str(model_file), "--out", str(predict_dir / "pred.csv")])
    assert res.exit_code in (0, 2), (payload, res.output, res.exception)


class TestEvaluate:
    def test_shape_and_determinism(self, runner, tmp_path):
        votes = simulate(runner, tmp_path, n=200)
        args = ["evaluate", "--votes", str(votes), "--models", "ci,umv",
                "--trials", "3", "--train-fraction", "0.4", "--seed", "5"]
        res1 = runner.invoke(main, args)
        res2 = runner.invoke(main, args)
        assert res1.exit_code == 0, res1.output
        assert res1.output == res2.output
        report = json.loads(res1.output)
        assert set(report["models"]) == {"ci", "umv"}
        for stats in report["models"].values():
            assert 0 <= stats["mean_accuracy"] <= 1 and stats["se"] >= 0

    def test_judge_subsampling(self, runner, tmp_path):
        votes = simulate(runner, tmp_path, n=120)
        res = runner.invoke(main, ["evaluate", "--votes", str(votes), "--models", "umv",
                                   "--trials", "2", "--num-judges", "3", "--seed", "1"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["num_judges"] == 3

    def test_missing_gold_exits_2(self, runner, tmp_path):
        nolabel = tmp_path / "nl.csv"
        nolabel.write_text("item,j1,j2\na,1,0\nb,0,1\n")
        res = runner.invoke(main, ["evaluate", "--votes", str(nolabel)])
        assert res.exit_code == 2

    def test_ci_beats_umv_on_heterogeneous_judges(self, runner, tmp_path):
        # At this training size the weighted vote learned by EM reliably
        # out-scores the uniform vote on judges with asymmetric error rates.
        votes = simulate(runner, tmp_path, generator="ci-setup-3", n=4000, seed=42)
        res = runner.invoke(main, ["evaluate", "--votes", str(votes), "--models", "ci,umv",
                                   "--trials", "10", "--train-fraction", "0.5", "--seed", "11"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        gap = report["models"]["ci"]["mean_accuracy"] - report["models"]["umv"]["mean_accuracy"]
        assert gap >= 0.05

    def test_all_model_families_dispatch(self, runner, tmp_path):
        votes = simulate(runner, tmp_path, generator="shared-demo", n=120, seed=8)
        res = runner.invoke(main, ["evaluate", "--votes", str(votes),
                                   "--models", "ising-shared,ising-classdep,factor,umv",
                                   "--trials", "1", "--train-fraction", "0.5",
                                   "--max-iters", "5", "--seed", "2"])
        assert res.exit_code == 0, res.output
        assert set(json.loads(res.output)["models"]) == {"ising-shared", "ising-classdep", "factor", "umv"}

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_exits_2(self, runner, tmp_path, trials):
        votes = simulate(runner, tmp_path, n=40)
        res = runner.invoke(main, ["evaluate", "--votes", str(votes), "--trials", trials])
        assert res.exit_code == 2
        assert "--trials" in res.output

    @pytest.mark.parametrize("models", ["", ", ,"])
    def test_no_models_exits_2(self, runner, tmp_path, models):
        votes = simulate(runner, tmp_path, n=40)
        res = runner.invoke(main, ["evaluate", "--votes", str(votes), "--models", models, "--trials", "1"])
        assert res.exit_code == 2
        assert "--models names no model" in res.output

    @pytest.mark.parametrize("models", ["ci", "umv,factor"])
    def test_split_with_one_training_item_names_the_fraction(self, runner, tmp_path, models):
        three = tmp_path / "three.csv"
        three.write_text("item,j1,j2,label\na,1,0,1\nb,0,0,0\nc,1,1,1\n")
        res = runner.invoke(main, ["evaluate", "--votes", str(three), "--models", models])
        assert res.exit_code == 2
        assert ("error: --train-fraction 0.15 splits the 3 items into 1 to train and 2 to test; "
                "an EM fit requires at least 2 training items") in res.output

    def test_uniform_vote_needs_no_training_items(self, runner, tmp_path):
        three = tmp_path / "three.csv"
        three.write_text("item,j1,j2,label\na,1,0,1\nb,0,0,0\nc,1,1,1\n")
        res = runner.invoke(main, ["evaluate", "--votes", str(three), "--models", "umv", "--trials", "2"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["models"]["umv"]["mean_accuracy"] == 1.0


class TestReproduce:
    def test_motivating_example_passes(self, runner, tmp_path):
        res = runner.invoke(main, ["reproduce", "motivating-example", "--out", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "21/21 checks passed" in res.output
        assert (tmp_path / "motivating-example-conditional_table.csv").exists()

    def test_classdep_example_passes(self, runner):
        res = runner.invoke(main, ["reproduce", "motivating-example-classdep"])
        assert res.exit_code == 0, res.output
        assert "4/4 checks passed" in res.output

    def test_failing_check_exits_1(self, runner):
        # seed 0 is a known draw where one CI-risk check lands just outside
        # its +-0.02 window; the frozen experiment seed avoids it.
        res = runner.invoke(main, ["reproduce", "cw-separation-thm31", "--seed", "0"])
        assert res.exit_code == 1
        assert "FAIL" in res.output

    @pytest.mark.parametrize("name", ["motivating-example", "motivating-example-classdep"])
    def test_seed_on_a_target_that_reads_none_exits_2(self, runner, tmp_path, name):
        out = tmp_path / "out"
        res = runner.invoke(main, ["reproduce", name, "--seed", "5", "--out", str(out)])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == f"error: --seed is not read by the {name} target\n"
        assert not out.exists()

    def test_unknown_name_rejected(self, runner):
        res = runner.invoke(main, ["reproduce", "not-a-target"])
        assert res.exit_code == 2


# Run in a fresh interpreter: the modules loaded by the import and after each
# CLI command, given as JSON {step: argv}.
COLD_RUN = """
import json, sys
from judgeagg.cli import main

loaded = {"import": sorted(sys.modules)}
for step, args in json.loads(sys.argv[1]).items():
    try:
        main(args, standalone_mode=False)
    except SystemExit as exc:
        assert not exc.code, exc.code
    loaded[step] = sorted(sys.modules)
print(json.dumps(loaded))
"""

OPTIONAL_MODULES = {"judgeagg.ising", "judgeagg.factor", "judgeagg.curie_weiss", "judgeagg.reproduce",
                    "judgeagg.presets"}


def cold_run(tmp_path, steps: dict[str, list[str]]) -> dict[str, set[str]]:
    """Run ``steps`` in a fresh interpreter; "{votes}" and "{out}" in their args are filled in."""
    votes = tmp_path / "votes.csv"
    votes.write_text("item,j1,j2,j3\n" + "".join(f"i{i},{i % 2},{i % 3 % 2},1\n" for i in range(30)))
    fill = {"{votes}": str(votes), "{out}": str(tmp_path / "out")}
    steps = {name: [fill.get(a, a) for a in args] for name, args in steps.items()}
    env = {**os.environ, "PYTHONPATH": SRC}
    res = subprocess.run([sys.executable, "-c", COLD_RUN, json.dumps(steps)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    loaded = {step: set(mods) for step, mods in json.loads(res.stdout.splitlines()[-1]).items()}
    for step, mods in loaded.items():
        assert not [m for m in mods if m.split(".")[0] == "scipy"], step  # the package never imports scipy
    return loaded


def test_ci_fit_and_predict_skip_the_dependence_models(tmp_path):
    loaded = cold_run(tmp_path, {
        "fit": ["fit", "--model", "ci", "--votes", "{votes}", "--out", "{out}"],
        "predict": ["predict", "--votes", "{votes}", "--model-file", str(tmp_path / "out" / "model.json"),
                    "--out", str(tmp_path / "out" / "pred.csv")],
    })
    assert (tmp_path / "out" / "pred.csv").exists()
    for step in ("import", "fit", "predict"):
        assert not loaded[step] & OPTIONAL_MODULES, step


def test_ising_fits_skip_scipy_optimize(tmp_path):
    loaded = cold_run(tmp_path, {
        model: ["fit", "--model", model, "--votes", "{votes}", "--out", "{out}", "--max-iters", "3"]
        for model in ("ising-classdep", "ising-shared")
    })
    for model in ("ising-classdep", "ising-shared"):
        assert "judgeagg.ising" in loaded[model], model
        assert not loaded[model] & (OPTIONAL_MODULES - {"judgeagg.ising"}), model


# Runs the script named by argv[1] as __main__ in an interpreter that refuses every scipy import.
NO_SCIPY_RUN = """
import runpy, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"import of {name} refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
runpy.run_path(sys.argv[1], run_name="__main__")
"""


def test_cli_fingerprint_is_the_same_without_scipy():
    script = Path(__file__).parent / "golden" / "cli_fingerprint.py"
    spec = importlib.util.spec_from_file_location("cli_fingerprint", script)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": "1"}
    procs = [subprocess.Popen([sys.executable, *args, str(script)], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env)
             for args in (["-c", NO_SCIPY_RUN], [])]
    (blocked, blocked_err), (plain, plain_err) = (p.communicate(timeout=600) for p in procs)
    assert procs[0].returncode == 0, blocked_err
    assert procs[1].returncode == 0, plain_err
    assert len(blocked.splitlines()) == len(list(fingerprint.commands()))
    assert blocked == plain
