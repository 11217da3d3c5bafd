"""The package's public names: a fixed list, each loaded on first use; its runtime needs only numpy and click."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import judgeagg
from judgeagg.cli import REPRODUCE_NAMES
from judgeagg.reproduce import REPRODUCE_TARGETS

PUBLIC_NAMES = [
    "CIParams", "CWClassSpec", "CWExperimentSpec", "EMConfig", "ExactEvidenceUnavailable",
    "FactorParams", "IsingParams", "K_MAX_EXACT", "MultiFactorParams", "PosteriorVector", "SplitSpec",
    "VoteDataError", "VoteMatrix", "accuracy", "bayes_limit_score", "bayes_log_odds", "ci", "ci_from_marginals",
    "ci_limit_score", "ci_log_odds", "ci_oracle_predict", "class_conditional_prob", "curie_weiss", "data", "em",
    "em_fit_ci", "em_fit_factor", "em_fit_ising", "energy", "factor", "factor_to_ising",
    "ising", "load_votes", "log_partition", "magnetization_classifier", "magnetization_log_pmf",
    "marginal_success", "pseudo_log_likelihood", "pseudo_log_likelihood_grad", "rng_from",
    "run_factor_separation", "run_separation", "sample_ci", "sample_cw", "sample_factor", "sample_ising",
    "save_votes", "solve_mean_field", "split", "true_marginals", "umv_predict", "wmv_predict",
]


def test_all_is_the_frozen_list():
    assert judgeagg.__all__ == PUBLIC_NAMES


def test_every_name_resolves():
    for name in PUBLIC_NAMES:
        getattr(judgeagg, name)
    assert set(PUBLIC_NAMES) <= set(dir(judgeagg))
    assert judgeagg.em_fit_ising is judgeagg.ising.em_fit_ising


def test_star_import_binds_every_name():
    namespace = {}
    exec("from judgeagg import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        judgeagg.no_such_name


def test_submodules_outside_all_still_import():
    from judgeagg import presets, reproduce

    assert presets.CI_SETUPS and reproduce.REPRODUCE_TARGETS


def test_bare_import_loads_no_submodule():
    code = "import sys, judgeagg; print(sorted(m for m in sys.modules if m.startswith('judgeagg.')))"
    env = {**os.environ, "PYTHONPATH": str(Path(judgeagg.__file__).resolve().parent.parent)}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_cli_reproduce_names_match_the_targets():
    assert REPRODUCE_NAMES == tuple(sorted(REPRODUCE_TARGETS))


def _load_tracing():
    path = Path(judgeagg.__file__).resolve().parents[2] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # The benchmark's traced run times these names by wrapping them; a name
    # that no longer resolves turns its metrics into nulls.
    for target in _load_tracing().WRAPPED:
        module, attr = target.split(":")
        assert callable(getattr(importlib.import_module(module), attr)), target


def test_fits_call_em_fit_ci_through_their_own_module(monkeypatch, tmp_path):
    # The "ci" restarts of the Ising and factor fits, and `fit --model ci`,
    # look em_fit_ci up in their own module at call time, where the traced
    # run's wrappers sit.
    from click.testing import CliRunner

    from judgeagg import cli, em, factor, ising

    monkeypatch.setattr(em, "_helper_count", lambda restarts: 0)  # every restart's calls are counted here
    calls = []
    for module in (ising, factor, cli):
        def counted(v, config, _inner=module.em_fit_ci, _name=module.__name__):
            calls.append(_name)
            return _inner(v, config)
        monkeypatch.setattr(module, "em_fit_ci", counted)
    v = judgeagg.sample_ci(judgeagg.CIParams(pi=0.5, alpha=np.full(3, 0.8), beta=np.full(3, 0.7)), 60, 1)
    ising.em_fit_ising(v, "class_dependent", judgeagg.EMConfig(max_iters=2))
    factor.em_fit_factor(v, 1, judgeagg.EMConfig(max_iters=2))
    assert calls == ["judgeagg.ising", "judgeagg.factor"]
    path = tmp_path / "votes.csv"
    judgeagg.save_votes(v, str(path))
    res = CliRunner().invoke(cli.main, ["fit", "--votes", str(path), "--model", "ci", "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert calls[2:] == ["judgeagg.cli"]


RUNTIME_DEPENDENCIES = {"numpy", "click"}
ROOT = Path(judgeagg.__file__).resolve().parents[2]


def test_runtime_dependencies_are_numpy_and_click():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = {re.split(r"[<>=!~\[; ]", req, maxsplit=1)[0].lower() for req in project["dependencies"]}
    assert names == RUNTIME_DEPENDENCIES


def test_no_module_calls_np_logaddexp():
    # The softplus has one home, em.logistic, which shares its exponential with the sigmoid.
    sources = sorted((ROOT / "src" / "judgeagg").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute | ast.alias):
                names = (getattr(node, "attr", None), getattr(node, "name", None))
                assert "logaddexp" not in names, f"{path.name}:{node.lineno} reaches np.logaddexp; call em.logistic"


def test_package_imports_only_stdlib_numpy_and_click():
    allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES | {"judgeagg"}
    sources = sorted((ROOT / "src" / "judgeagg").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"
