"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import numpy as np
import pytest

import inputs
import layers
import run
import workloads
from tracing import Recorder, Span, self_time

GENERATORS = {
    "ci": lambda seed: inputs.ci_votes(20_000, seed, stream=0),
    "classdep-k3": lambda seed: inputs.classdep_demo_votes(5000, seed, stream=1),
    "factor-k4": lambda seed: inputs.factor_votes(4, 5000, seed, stream=2),
    "ising-k14": lambda seed: inputs.random_ising_votes(14, 600, seed, stream=3),
    "factor-k12": lambda seed: inputs.factor_votes(12, 3000, seed, stream=4),
}


def test_cli_input_same_seed_same_bytes_other_seed_differs():
    a, b, c = (inputs.votes_csv_bytes(*workloads.cli_inputs(seed)) for seed in (7, 7, 8))
    assert a == b
    assert a != c


@pytest.mark.parametrize("workload", ["fit-repeated-patterns", "fit-distinct-patterns"])
def test_fit_inputs_are_one_fixed_draw(workload):
    a, b = workloads.fit_inputs(workload), workloads.fit_inputs(workload)
    assert all(inputs.votes_csv_bytes(*a[k]) == inputs.votes_csv_bytes(*b[k]) for k in a)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_depend_only_on_seed_and_stream(name):
    gen = GENERATORS[name]
    a, b, c = gen(7), gen(7), gen(8)
    assert inputs.votes_csv_bytes(*a) == inputs.votes_csv_bytes(*b)
    assert inputs.votes_csv_bytes(*a) != inputs.votes_csv_bytes(*c)


def test_csv_bytes_match_the_package_reader(tmp_path):
    from judgeagg import load_votes

    votes, gold = inputs.ci_votes(1234, 3, stream=0)
    path = tmp_path / "v.csv"
    path.write_bytes(inputs.votes_csv_bytes(votes, gold))
    v = load_votes(str(path))
    assert v.item_ids == tuple(str(i) for i in range(1234))
    assert np.array_equal(v.votes, votes) and np.array_equal(v.gold_labels, gold)


def test_ising_draws_match_exact_pmf():
    for draw_seed in range(5):
        assert workloads.ising_self_check(draw_seed) <= workloads.ISING_TV_BOUND
    # The check has teeth: votes drawn with the classes swapped are far off.
    votes, gold = inputs.classdep_demo_votes(5000, 0, stream=1)
    tv = inputs.labeled_pattern_tv(votes, 1 - gold, inputs.CLASSDEP_DEMO_PI,
                                   inputs.CLASSDEP_DEMO_H0, inputs.CLASSDEP_DEMO_H1,
                                   inputs.CLASSDEP_DEMO_W0, inputs.CLASSDEP_DEMO_W1)
    assert tv > workloads.ISING_TV_BOUND


def test_distinct_pattern_ratio_separates_the_fit_workloads():
    assert inputs.distinct_pattern_ratio(GENERATORS["classdep-k3"](0)[0]) <= 0.01
    assert inputs.distinct_pattern_ratio(GENERATORS["factor-k4"](0)[0]) <= 0.01
    assert inputs.distinct_pattern_ratio(GENERATORS["ising-k14"](0)[0]) >= 0.5
    assert inputs.distinct_pattern_ratio(GENERATORS["factor-k12"](0)[0]) >= 0.5


def test_checks_reject_corrupted_results():
    assert workloads.check_posteriors([0.2, 0.9], 2) == []
    assert workloads.check_posteriors([0.2, 1.2], 2)
    assert workloads.check_posteriors([0.2, np.nan], 2)
    assert workloads.check_monotone([-5.0, -4.0, -4.0], 1e-10) == []
    assert workloads.check_monotone([-5.0, -4.0, -4.1], 1e-10)
    ok = "[PASS] a: value=1\n1/1 checks passed\n"
    assert workloads.check_reproduce(0, ok) == []
    assert workloads.check_reproduce(1, "[PASS] a: value=1\n[FAIL] b: value=2\n1/2 checks passed\n")
    assert workloads.count_checks("[PASS] a\n[FAIL] b\n1/2 checks passed\n") == (2, 1)


def _write_cli_outputs(path, rows):
    path.mkdir()
    (path / "posteriors.csv").write_text("item,gamma,label\n" + "".join(f"{r}\n" for r in rows))
    (path / "model.json").write_text("{}")
    (path / "report.json").write_text("{}")


def test_cli_output_check(tmp_path):
    gold = np.array([1, 0, 1, 0], dtype=np.int8)
    trace = "iter 0: objective=-10.000000 loglik=-9.0\niter 1: objective=-9.500000 loglik=-9.0\n"
    good = ["0,0.9,1", "1,0.1,0", "2,0.8,1", "3,0.2,0"]
    _write_cli_outputs(tmp_path / "good", good)
    assert workloads.check_cli_outputs(tmp_path / "good", trace, gold) == []
    for name, rows in {"gamma": ["0,1.2,1", *good[1:]],
                       "label": ["0,0.9,0", *good[1:]],
                       "order": [good[1], good[0], *good[2:]],
                       "short": good[:3]}.items():
        _write_cli_outputs(tmp_path / name, rows)
        assert workloads.check_cli_outputs(tmp_path / name, trace, gold), name
    falling = trace.replace("-9.500000", "-10.500000")
    assert workloads.check_cli_outputs(tmp_path / "good", falling, gold)


def test_self_time_on_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 4.0, 0, 0),       # overlaps a: covered once
        Span("c", 6.0, 7.0, 0, 0),
        Span("c.child", 6.2, 6.8, 3, 0),  # grandchild: inside c, not root's
    ]
    assert self_time(spans, 0) == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time(spans, 3) == pytest.approx(0.4)
    assert self_time(spans, 4) == pytest.approx(0.6)


def test_recorder_nests_spans_and_reports_missing_names():
    rec = Recorder()
    rec.wrap("judgeagg.ising:no_such_function")
    assert rec.missing == ["judgeagg.ising.no_such_function"]
    rec.op = 3
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    assert [(s.name, s.parent, s.op) for s in rec.spans] == [("outer", None, 3), ("inner", 0, 3)]


def test_missing_or_silent_layers_are_unmeasured_not_zero():
    ops = [{"name": "ising-classdep-k3", "call": "em_fit_ising", "n": 10, "distinct": 2,
            "em_iters": 5, "converged": True, "safeguard_rejections": 0}]
    spans = [Span("op", 0.0, 2.0, None, 0, {"name": "ising-classdep-k3"}),
             Span("judgeagg.ising.minimize", 0.5, 1.5, 0, 0, {"nfev": 10, "nit": 3})]
    m = layers.layer_metrics("fit-repeated-patterns", spans, [], ops, 2.0, 1.9)
    assert m["ising.minimize.s"] == pytest.approx(1.0)
    assert m["ising.pll_eval_us"] == pytest.approx(1e5)
    assert m["ising.log_partition.s"] is None       # expected here, no calls
    assert m["data.load_votes.s"] == 0.0             # not expected here
    assert m["data.distinct_pattern_ratio"] == pytest.approx(0.2)
    missing = layers.layer_metrics("fit-repeated-patterns", spans, ["judgeagg.ising.minimize"], ops, 2.0, 1.9)
    assert missing["ising.minimize.s"] is None and missing["ising.pll_eval_us"] is None


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    xs = list(range(30))
    value, pct, beyond = run.tail(xs)
    assert beyond == 10 and sum(x > value for x in xs) == 10
    ops = [{"name": "fast", "seconds": s} for s in (0.1, 0.2)] + [{"name": "slow", "seconds": s} for s in (5.0, 6.0)]
    assert run.slowest_op_tail(ops) == (6.0, 100.0, 0, 2, "slow")
