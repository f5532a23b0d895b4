"""Spans and arithmetic counts around the layers of ``wtw``, from outside it.

:class:`Tracer` replaces every public function of every ``wtw.*`` module,
found by introspection, with a wrapper that records a span, and rebinds
each name that refers to such a function in every ``wtw`` namespace, so
that calls between modules are seen too.  ``Scalar`` ``+ -`` and ``*``
calls are counted (nested calls inside one operator call are not counted
again), and every ``SAMPLE_EVERY``-th operand pair is kept so that the
cost of one call can be measured later by replaying the pairs untraced.

A layer's self time is its spans' durations minus the time covered by
their child spans; ``Scalar`` arithmetic is not a span, so it counts
toward the function that calls it.

Run as a script, this file is the traced stand-in for ``python -m wtw``:
``python tracing.py OUT.json VERB --spec DOC ...`` runs ``wtw.cli.main`` under
a tracer and writes the tracer's totals to ``OUT.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

# Modules whose public functions are spanned, and the layer each belongs to.
# ``polyalg`` is measured through operator counts instead of spans.
LAYER_OF = {"specfile": "frame", "frame": "frame", "connection": "connection",
            "curvature": "curvature", "hermitian": "hermitian", "twistor": "twistor",
            "pseudoharmonic": "pseudoharmonic", "cli": "cli"}
LAYERS = ("frame", "connection", "curvature", "hermitian", "twistor", "pseudoharmonic", "cli")
OPERATORS = {"__add__": "add", "__radd__": "add", "__sub__": "add", "__rsub__": "add",
             "__mul__": "mul", "__rmul__": "mul"}
SAMPLE_EVERY = 4999
MAX_SAMPLES = 1500
REPLAY_REPEATS = 5


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op = 0
        self.self_s = Counter()
        self.calls = Counter()
        self.fn_calls = Counter()
        self.spans: list[tuple] = []      # (op, id, parent id, name, start, end)
        self.ops = Counter()
        self.samples: dict[str, list] = {"add": [], "mul": []}
        self._stack: list[list] = []      # [span id, child time]
        self._next_id = 0
        self._in_operator = False
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self, package) -> None:
        modules = [importlib.import_module(f"{package.__name__}.{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)
                   if info.name in LAYER_OF]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._span_wrapper(fn, LAYER_OF[short], f"{short}.{name}")
        for namespace in [package] + modules:
            for name, obj in list(vars(namespace).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((namespace, name, obj))
                    setattr(namespace, name, wrapper)
        scalar = package.polyalg.Scalar
        for name, kind in OPERATORS.items():
            original = vars(scalar)[name]
            self._restore.append((scalar, name, original))
            setattr(scalar, name, self._operator_wrapper(original, kind))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    def _span_wrapper(self, fn, layer: str, qualname: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            entry = [span_id, 0.0]
            tracer._stack.append(entry)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.self_s[layer] += duration - entry[1]
                tracer.calls[layer] += 1
                tracer.fn_calls[qualname] += 1
                tracer.spans.append((tracer.op, span_id, parent, qualname, start, end))
        return wrapper

    def _operator_wrapper(self, fn, kind: str):
        tracer = self
        samples = self.samples[kind]

        def operator(a, b):
            if tracer._in_operator or not tracer.enabled:
                return fn(a, b)
            tracer._in_operator = True
            try:
                count = tracer.ops[kind] = tracer.ops[kind] + 1
                if count % SAMPLE_EVERY == 0 and len(samples) < MAX_SAMPLES:
                    samples.append((fn, a, b))
                return fn(a, b)
            finally:
                tracer._in_operator = False
        return operator

    # -- results ----------------------------------------------------------

    def replay_us(self) -> dict[str, list[float]]:
        """Per-call time in microseconds of each sampled operand pair, replayed
        untraced; the sample is fixed by the call counts, so it repeats."""
        out = {}
        for kind, samples in self.samples.items():
            times = []
            for fn, a, b in samples:
                best = float("inf")
                for _ in range(REPLAY_REPEATS):
                    start = time.perf_counter()
                    fn(a, b)
                    best = min(best, time.perf_counter() - start)
                times.append(best * 1e6)
            out[kind] = times
        return out

    def totals(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "fn_calls": dict(self.fn_calls), "ops": dict(self.ops),
                "replay_us": self.replay_us()}


class Totals:
    """Sums of :meth:`Tracer.totals` over several tracers (one per process)."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.fn_calls = Counter()
        self.ops = Counter()
        self.replay_us: dict[str, list[float]] = {"add": [], "mul": []}

    def add(self, totals: dict) -> None:
        self.self_s.update(totals["self_s"])
        self.calls.update(totals["calls"])
        self.fn_calls.update(totals["fn_calls"])
        self.ops.update(totals["ops"])
        for kind, times in totals["replay_us"].items():
            self.replay_us[kind].extend(times)

    def as_dict(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "fn_calls": dict(self.fn_calls), "ops": dict(self.ops),
                "replay_us": self.replay_us}

    def median_us(self, kind: str) -> float:
        times = self.replay_us[kind]
        return statistics.median(times) if times else 0.0


def _child_main(argv: list[str]) -> int:
    out_path, wtw_argv = argv[0], argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import wtw
    import wtw.cli
    tracer = Tracer()
    tracer.install(wtw)
    tracer.enabled = True
    try:
        status = wtw.cli.main(wtw_argv)
    finally:
        tracer.enabled = False
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"totals": tracer.totals(), "spans": tracer.spans}, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(_child_main(sys.argv[1:]))
