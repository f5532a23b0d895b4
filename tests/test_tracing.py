"""The benchmark's tracer (perfbench/tracing.py) still sees the program.

The tracer counts ``Scalar`` arithmetic by wrapping the operator methods it
finds in the class namespace; if an operator moved off the class, its
per-layer ``polyalg.*`` counts would read zero without any error.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import pathlib

import wtw
from wtw import cli
from wtw.polyalg import Scalar

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
ARGV = ["suite", "--builtin", "inoue-s0", "--format", "json"]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_suite() -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(ARGV)
    return status, out.getvalue()


def test_tracer_counts_operators_without_changing_output(monkeypatch):
    monkeypatch.setenv("WTW_COLOR", "0")
    tracing = load_tracing()
    originals = {name: vars(Scalar)[name] for name in tracing.OPERATORS}
    main = cli.main
    untraced = run_suite()
    tracer = tracing.Tracer()
    tracer.install(wtw)
    try:
        assert vars(Scalar)["__mul__"] is not originals["__mul__"]
        tracer.enabled = True
        traced = run_suite()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert traced == untraced
    assert traced[0] == 0
    assert tracer.ops["add"] > 0 and tracer.ops["mul"] > 0
    assert tracer.fn_calls["cli.main"] == 1
    assert {name: vars(Scalar)[name] for name in tracing.OPERATORS} == originals
    assert cli.main is main
