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
DATA = pathlib.Path(__file__).resolve().parent / "data"
ARGV = ["suite", "--builtin", "inoue-s0", "--format", "json"]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_suite(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def check_traced_suite(argv, status):
    """Run ``argv`` untraced and traced: same stdout and exit code, nonzero
    operator counts, and ``uninstall()`` restores every wrapped name."""
    tracing = load_tracing()
    originals = {name: vars(Scalar)[name] for name in tracing.OPERATORS}
    main = cli.main
    untraced = run_suite(argv)
    tracer = tracing.Tracer()
    tracer.install(wtw)
    try:
        assert vars(Scalar)["__mul__"] is not originals["__mul__"]
        tracer.enabled = True
        traced = run_suite(argv)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    assert traced == untraced
    assert traced[0] == status
    assert tracer.ops["add"] > 0 and tracer.ops["mul"] > 0
    assert tracer.fn_calls["cli.main"] == 1
    assert {name: vars(Scalar)[name] for name in tracing.OPERATORS} == originals
    assert cli.main is main


def test_tracer_counts_operators_without_changing_output(monkeypatch):
    monkeypatch.setenv("WTW_COLOR", "0")
    check_traced_suite(ARGV, 0)


def test_tracer_installs_cleanly_around_the_kernel_at_n6(monkeypatch):
    """Products fused in ``Ring.dot`` bypass the wrapped operators, so the
    counts are smaller, but the n = 6 suite still adds and multiplies through
    them; it exits 1 on "vertical trace paths agree" either way."""
    monkeypatch.setenv("WTW_COLOR", "0")
    check_traced_suite(["suite", "--spec", str(DATA / "hyperbolic6.toml"), "--format", "json"], 1)
