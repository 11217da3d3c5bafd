"""Per-layer metrics from one traced pass, and what each is predicted to move.

PREDICTIONS is the layer -> end-to-end prediction list, stated before any
measurement: which end-to-end metric a change in the layer should move, on
which workload. Its ``expected`` workloads are also where the layer must
record calls: a metric whose wrapper is missing, or that records no calls
where calls are expected, is reported as unmeasured (null), never as 0.
"""

from __future__ import annotations

from tracing import Span, self_time
from workloads import REPRODUCE_NAMES

CLI, REP, DIS, REPRO = "cli-fit-1m", "fit-repeated-patterns", "fit-distinct-patterns", "reproduce-all"
FIT = (REP, DIS)
ALL = (CLI, REP, DIS, REPRO)

EM_FIT_CI = ("judgeagg.cli.em_fit_ci", "judgeagg.ising.em_fit_ci",
             "judgeagg.factor.em_fit_ci", "judgeagg.reproduce.em_fit_ci")

# metric -> (unit, better, wrapped names it is built from, expected workloads, prediction)
PREDICTIONS = {
    "data.load_votes.s": ("s", "lower", ("judgeagg.cli.load_votes",), (CLI,),
                          "moves wall_s, op_p50_s, items_per_s, peak_rss_mb on cli-fit-1m; absent elsewhere"),
    "data.load_votes.mb_per_s": ("MB/s", "higher", ("judgeagg.cli.load_votes",), (CLI,),
                                 "input bytes over load_votes time; as data.load_votes.s"),
    "cli.import.s": ("s", "lower", (), (CLI,),
                     "import of judgeagg.cli inside the traced CLI op; tracks setup_s on every workload"),
    "cli.fit.self_s": ("s", "lower", ("judgeagg.cli.load_votes", "judgeagg.cli.em_fit_ci"), (CLI,),
                       "CLI time outside load_votes and the fitter (writing posteriors, model, report); "
                       "as data.load_votes.s"),
    "ci.em_fit_ci.s": ("s", "lower", EM_FIT_CI, ALL,
                       "about 1/3 of the op on cli-fit-1m (items_per_s) and most of wall_s on reproduce-all; "
                       "small share on the fit workloads; per-call cost shows on reproduce-all"),
    "ci.em_fit_ci.calls": ("count", "lower", EM_FIT_CI, ALL, "as ci.em_fit_ci.s"),
    "ci.em_iters": ("count", "lower", EM_FIT_CI, ALL, "as ci.em_fit_ci.s"),
    "ising.minimize.s": ("s", "lower", ("judgeagg.ising.minimize",), FIT,
                         "about 90% of the Ising ops on fit-repeated-patterns, about 2/3 of the K=14 op on "
                         "fit-distinct-patterns (wall_s); no effect elsewhere"),
    "ising.minimize.calls": ("count", "lower", ("judgeagg.ising.minimize",), FIT, "as ising.minimize.s"),
    "ising.minimize.nfev": ("count", "lower", ("judgeagg.ising.minimize",), FIT,
                            "pseudo-likelihood objective+gradient evaluations; as ising.minimize.s"),
    "ising.pll_eval_us": ("us", "lower", ("judgeagg.ising.minimize",), FIT,
                          "minimize time per evaluation, optimizer overhead included; as ising.minimize.s"),
    "ising.log_partition.s": ("s", "lower", ("judgeagg.ising.log_partition",), FIT,
                              "about 1/3 of the K=14 op on fit-distinct-patterns (wall_s); "
                              "about 3% on fit-repeated-patterns"),
    "ising.log_partition.calls": ("count", "lower", ("judgeagg.ising.log_partition",), FIT,
                                  "as ising.log_partition.s"),
    "ising.em_iters": ("count", "lower", (), FIT,
                       "winning-restart EM iterations; fewer move wall_s on both fit workloads in proportion"),
    "ising.safeguard_rejections": ("count", "lower", (), (), "M-steps the safeguard rejected (winning restart)"),
    "ising.converged_share": ("fraction", "higher", (), (), "share of Ising ops whose winning restart converged"),
    "factor.em_fit_factor.s": ("s", "lower", (), FIT,
                               "about 1/3 of wall_s on fit-distinct-patterns; small share on fit-repeated-patterns"),
    "factor.em_iters": ("count", "lower", (), FIT, "as factor.em_fit_factor.s"),
    "factor.run_factor_separation.s": ("s", "lower", ("judgeagg.reproduce.run_factor_separation",), (REPRO,),
                                       "wall_s on reproduce-all only"),
    "curie_weiss.run_separation.s": ("s", "lower", ("judgeagg.reproduce.run_separation",), (REPRO,),
                                     "wall_s on reproduce-all only"),
    "curie_weiss.sample_cw.s": ("s", "lower", ("judgeagg.curie_weiss.sample_cw",), (REPRO,),
                                "wall_s on reproduce-all only"),
    "curie_weiss.sample_cw.calls": ("count", "lower", ("judgeagg.curie_weiss.sample_cw",), (REPRO,),
                                    "as curie_weiss.sample_cw.s"),
    **{f"reproduce.{t}.s": ("s", "lower", (), (REPRO,), "wall_s on reproduce-all only") for t in REPRODUCE_NAMES},
    "reproduce.checks_failed": ("count", "lower", (), (), "reproduce checks that failed (51 run at baseline)"),
    "data.distinct_pattern_ratio": ("fraction", "lower", (), (CLI, REP, DIS, REPRO),
                                    "not a timing: distinct vote rows / rows over the pass's fit inputs; "
                                    "pattern compression gains on cli-fit-1m and fit-repeated-patterns, "
                                    "no change on fit-distinct-patterns"),
    "trace.overhead_s": ("s", "lower", (), (), "traced minus untraced pass wall time"),
}


def _calls(spans, names):
    return [s for s in spans if s.name in names]


def layer_metrics(workload: str, spans: list[Span], missing, ops: list[dict],
                  wall_traced: float, wall_untraced: float) -> dict:
    """Per-layer values for one traced pass; None marks an unmeasured metric.

    ``ops`` are the pass's op records: n, distinct and per-op result stats.
    """
    out = {}
    op_spans = {s.attrs.get("name"): i for i, s in enumerate(spans) if s.name == "op"}

    def total(names):
        return sum(s.duration for s in _calls(spans, names))

    load = _calls(spans, ("judgeagg.cli.load_votes",))
    out["data.load_votes.s"] = total(("judgeagg.cli.load_votes",))
    out["data.load_votes.mb_per_s"] = (sum(s.attrs["bytes"] for s in load) / 1e6 / out["data.load_votes.s"]
                                       if load else 0.0)
    out["cli.import.s"] = total(("cli.import",))
    out["cli.fit.self_s"] = self_time(spans, op_spans["cli-fit"]) if "cli-fit" in op_spans else 0.0
    ci = _calls(spans, EM_FIT_CI)
    out["ci.em_fit_ci.s"] = total(EM_FIT_CI)
    out["ci.em_fit_ci.calls"] = len(ci)
    out["ci.em_iters"] = sum(s.attrs.get("n_iters") or 0 for s in ci)
    mins = _calls(spans, ("judgeagg.ising.minimize",))
    out["ising.minimize.s"] = total(("judgeagg.ising.minimize",))
    out["ising.minimize.calls"] = len(mins)
    out["ising.minimize.nfev"] = sum(s.attrs["nfev"] for s in mins)
    out["ising.pll_eval_us"] = (1e6 * out["ising.minimize.s"] / out["ising.minimize.nfev"]
                                if out["ising.minimize.nfev"] else 0.0)
    out["ising.log_partition.s"] = total(("judgeagg.ising.log_partition",))
    out["ising.log_partition.calls"] = len(_calls(spans, ("judgeagg.ising.log_partition",)))
    ising_ops = [o for o in ops if o["call"] == "em_fit_ising" and "em_iters" in o]
    factor_ops = [o for o in ops if o["call"] == "em_fit_factor" and "em_iters" in o]
    out["ising.em_iters"] = sum(o["em_iters"] for o in ising_ops)
    out["ising.safeguard_rejections"] = sum(o["safeguard_rejections"] for o in ising_ops)
    out["ising.converged_share"] = (sum(o["converged"] for o in ising_ops) / len(ising_ops)
                                    if ising_ops else 0.0)
    out["factor.em_fit_factor.s"] = sum(spans[op_spans[o["name"]]].duration for o in factor_ops)
    out["factor.em_iters"] = sum(o["em_iters"] for o in factor_ops)
    out["factor.run_factor_separation.s"] = total(("judgeagg.reproduce.run_factor_separation",))
    out["curie_weiss.run_separation.s"] = total(("judgeagg.reproduce.run_separation",))
    out["curie_weiss.sample_cw.s"] = total(("judgeagg.curie_weiss.sample_cw",))
    out["curie_weiss.sample_cw.calls"] = len(_calls(spans, ("judgeagg.curie_weiss.sample_cw",)))
    for t in REPRODUCE_NAMES:
        out[f"reproduce.{t}.s"] = spans[op_spans[t]].duration if t in op_spans else 0.0
    out["reproduce.checks_failed"] = sum(o.get("checks_failed", 0) for o in ops)
    # Fit inputs the benchmark built, or, on reproduce-all, the inputs the
    # wrapped em_fit_ci calls received.
    sized = [(o["n"], o["distinct"]) for o in ops if o["n"]]
    if not sized:
        sized = [(s.attrs["n"], s.attrs["distinct"]) for s in ci if "n" in s.attrs]
    out["data.distinct_pattern_ratio"] = (sum(d for _, d in sized) / sum(n for n, _ in sized)
                                          if sized else 0.0)
    out["trace.overhead_s"] = wall_traced - wall_untraced

    for name, (_, _, wrapped, expected, _) in PREDICTIONS.items():
        if any(w in missing for w in wrapped) or (workload in expected and out[name] == 0):
            out[name] = None
    return out


def unmeasured_reasons(workload: str, metrics: dict, missing) -> list[str]:
    lines = []
    for name, value in metrics.items():
        if value is None:
            wrapped = [w for w in PREDICTIONS[name][2] if w in missing]
            why = f"wrapped name missing: {', '.join(wrapped)}" if wrapped else f"no calls on {workload}"
            lines.append(f"{name}: unmeasured ({why})")
    return lines


def attribution(spans: list[Span], wall: float) -> list[str]:
    """Per op: its duration and the time of each wrapped layer inside it."""
    lines = []
    for i, sp in enumerate(spans):
        if sp.name != "op":
            continue
        parts: dict[str, float] = {}
        for s in spans:
            if s.op == sp.op and s.name != "op":
                parts[s.name] = parts.get(s.name, 0.0) + s.duration
        desc = ", ".join(f"{k} {v:.3f} s ({100 * v / sp.duration:.0f}%)"
                         for k, v in sorted(parts.items(), key=lambda kv: -kv[1]))
        lines.append(f"attribution {sp.attrs['name']}: {sp.duration:.3f} s; {desc or 'no wrapped calls'}")
        if sp.attrs["name"] == "cli-fit":
            imp = sum(s.duration for s in spans if s.name == "cli.import")
            load = parts.get("judgeagg.cli.load_votes", 0.0)
            fit = parts.get("judgeagg.cli.em_fit_ci", 0.0)
            own = self_time(spans, i)
            lines.append(f"accounting cli-fit: import {imp:.3f} + load_votes {load:.3f} + em_fit_ci {fit:.3f}"
                         f" + cli.fit.self_s {own:.3f} = {imp + load + fit + own:.3f} s of child wall"
                         f" {wall:.3f} s ({100 * (imp + load + fit + own) / wall:.1f}%; the rest is"
                         " interpreter start and exit)")
    return lines
