"""In-memory spans and the timing wrappers the traced run installs.

Tracing inside judgeagg is not part of the package, so the traced run wraps
module-level names the package looks up at call time. Each wrapper records
one span; spans nest through a stack (all ops run on one thread) and are
written out when the run ends.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Names the traced run wraps, as "module:attribute".
WRAPPED = (
    "judgeagg.cli:load_votes",
    "judgeagg.cli:em_fit_ci",
    "judgeagg.ising:minimize",
    "judgeagg.ising:log_partition",
    "judgeagg.ising:em_fit_ci",
    "judgeagg.factor:em_fit_ci",
    "judgeagg.reproduce:em_fit_ci",
    "judgeagg.reproduce:run_separation",
    "judgeagg.reproduce:run_factor_separation",
    "judgeagg.curie_weiss:sample_cw",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``span`` is a context manager, ``wrap`` patches a name."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str, /, **attrs):
        sp = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.op, attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, target: str) -> None:
        """Replace ``module:attr`` by a timing wrapper; record it as missing if absent."""
        mod_name, attr = target.split(":")
        name = f"{mod_name}.{attr}"
        try:
            module = importlib.import_module(mod_name)
            inner = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(name)
            return
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name) as sp:
                result = inner(*args, **kwargs)
            _annotate(sp, attr, args, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, inner))
        self.installed.append(name)

    def install(self) -> None:
        for target in WRAPPED:
            self.wrap(target)

    def uninstall(self) -> None:
        for module, attr, inner in reversed(self._undo):
            setattr(module, attr, inner)
        self._undo.clear()

    def to_json(self) -> dict:
        return {"installed": self.installed, "missing": self.missing,
                "spans": [asdict(s) for s in self.spans]}


def _annotate(sp: Span, attr: str, args, result) -> None:
    """Counts taken from a wrapped call's arguments and result, after timing."""
    if attr == "minimize":
        sp.attrs["nfev"] = int(getattr(result, "nfev", 0))
        sp.attrs["nit"] = int(getattr(result, "nit", 0))
    elif attr == "load_votes":
        sp.attrs["bytes"] = os.path.getsize(args[0])
    elif attr == "em_fit_ci":
        trace = getattr(result, "trace", None)
        sp.attrs["n_iters"] = getattr(trace, "n_iters", None)
        votes = getattr(args[0], "votes", None)
        if votes is not None:
            sp.attrs["votes"] = votes  # kept by reference; summarized after the pass


def self_time(spans: list[Span], index: int) -> float:
    """A span's duration minus the part of its interval its direct children cover."""
    sp = spans[index]
    kids = sorted((max(c.start, sp.start), min(c.end, sp.end))
                  for c in spans if c.parent == index)
    covered, cur_start, cur_end = 0.0, None, None
    for start, end in kids:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return sp.duration - covered
