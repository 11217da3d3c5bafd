"""Child process of the benchmark: one fresh interpreter per run.

``inproc`` generates a workload's inputs, runs one untimed warm-up pass and
then timed passes until the time budget is spent. With ``--trace 1`` it
alternates untraced and traced passes, so the per-layer numbers and the
tracing overhead come from the same process.

``cli-op`` is the traced form of one ``judgeagg fit`` call: it times the
import of ``judgeagg.cli``, installs the wrappers and runs the command
in-process so the wrappers see it.

Both write one JSON document to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _check_import_root(src: Path) -> None:
    import judgeagg

    if not Path(judgeagg.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"judgeagg imported from {judgeagg.__file__}, not from {src}")


def _summarize_spans(recorder) -> None:
    # Inputs seen by wrapped em_fit_ci calls are summarized only after the
    # pass, so np.unique does not run inside a timed span.
    import numpy as np

    for sp in recorder.spans:
        votes = sp.attrs.pop("votes", None)
        if votes is not None:
            sp.attrs.update(n=len(votes), distinct=len(np.unique(votes, axis=0)))


def run_pass(ops, index: int, recorder=None) -> tuple[float, list[dict]]:
    records = []
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        failures, stats = [], {}
        t0 = time.perf_counter()
        try:
            if recorder is None:
                result = op.run()
            else:
                recorder.op = op_id
                with recorder.span("op", name=op.name, call=op.call) as sp:
                    result = op.run()
        except Exception as exc:  # an op that raises is a failed op; the pass goes on
            failures = [f"raised {type(exc).__name__}: {exc}"]
        seconds = time.perf_counter() - t0
        if not failures:
            try:
                failures = op.check(result)
                stats = op.stats(result)
            except Exception as exc:  # a result the checks cannot read is a failed op
                failures = [f"check raised {type(exc).__name__}: {exc}"]
            if recorder is not None:
                sp.attrs.update(stats)
        records.append({"pass": index, "name": op.name, "call": op.call, "seconds": seconds, "n": op.n, "k": op.k,
                        "distinct": op.distinct, "items": op.items, "failures": failures, **stats})
    return time.perf_counter() - start, records


def inproc(args) -> dict:
    import workloads
    from tracing import Recorder

    if args.workload == "fit-repeated-patterns":
        tv = workloads.ising_self_check()
        if tv > workloads.ISING_TV_BOUND:
            sys.exit(f"input self-check failed: K=3 Ising TV {tv:.4f} > {workloads.ISING_TV_BOUND}")
    ops = workloads.build_ops(args.workload)
    for op in ops:
        op.warm()
    result = {"passes": [], "traced": []}
    start = time.perf_counter()
    while True:
        index = len(result["passes"])
        untraced_wall, records = run_pass(ops, index)
        result["passes"].append({"wall": untraced_wall, "ops": records})
        if args.trace:
            recorder = Recorder()
            recorder.install()
            try:
                wall, records = run_pass(ops, index, recorder)
            finally:
                recorder.uninstall()
            _summarize_spans(recorder)
            result["traced"].append({"wall": wall, "untraced_wall": untraced_wall, "ops": records,
                                     **recorder.to_json()})
        if time.perf_counter() - start >= args.seconds:
            return result


def cli_op(args) -> dict:
    t0 = time.perf_counter()
    from tracing import Recorder

    recorder = Recorder()
    with recorder.span("cli.import"):
        import judgeagg.cli
    _check_import_root(Path(args.src))
    recorder.install()
    code = 0
    recorder.op = 0
    with recorder.span("op", name="cli-fit", call="cli fit"):
        try:
            judgeagg.cli.main(args.cli_args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    recorder.uninstall()
    for sp in recorder.spans:  # the parent measures the CLI input's patterns itself
        sp.attrs.pop("votes", None)
    return {"exit_code": code, "wall": time.perf_counter() - t0, **recorder.to_json()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("inproc")
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    c = sub.add_parser("cli-op")
    c.add_argument("--src", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.mode == "inproc":
        _check_import_root(Path(args.src))
        doc = inproc(args)
    else:
        doc = cli_op(args)
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
