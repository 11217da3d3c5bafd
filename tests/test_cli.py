import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import judgeagg
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
        (("--beta0", "-1"), "beta must be positive"),
        (("-n", "0"), "K values and n must be >= 1"),
    ])
    def test_cw_rejects_invalid_inputs(self, runner, tmp_path, args, message):
        res = runner.invoke(main, ["simulate", "--generator", "cw", "--out", str(tmp_path / "cw.csv"), *args])
        assert res.exit_code == 2
        assert f"error: {message}" in res.output
        assert not (tmp_path / "cw.csv").exists()


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


ISING_KEYS = {"mode", "pi", "h0", "h1", "W0", "W1"}


class TestPredict:
    # model -> (generator of its own CSV, extra simulate args, key set of its model.json)
    CASES = {
        "ci": ("ci-setup-1", (), {"model", "pi", "alpha", "beta"}),
        "ising-shared": ("shared-demo", (), ISING_KEYS),
        "ising-classdep": ("classdep-demo", (), ISING_KEYS),
        "factor": ("factor", ("--num-judges", "5", "--lam", "0.8"), {"model", "pi", "a", "b", "loadings"}),
        "umv": ("ci-setup-1", (), {"model"}),
    }

    @pytest.mark.parametrize("model", list(CASES))
    def test_round_trip(self, runner, tmp_path, model):
        generator, extra, keys = self.CASES[model]
        votes = simulate(runner, tmp_path, generator=generator, n=120, extra=extra)
        out = tmp_path / "fit"
        res = runner.invoke(main, ["fit", "--votes", str(votes), "--model", model,
                                   "--out", str(out), "--seed", "2"])
        assert res.exit_code == 0, res.output
        assert set(json.loads((out / "model.json").read_text())) == keys
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

OPTIONAL_MODULES = {"scipy.optimize", "judgeagg.ising", "judgeagg.factor", "judgeagg.curie_weiss",
                    "judgeagg.reproduce", "judgeagg.presets"}


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
    return {step: set(mods) for step, mods in json.loads(res.stdout.splitlines()[-1]).items()}


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
