"""Trace which lines of ``src/wtw`` the product runs, and which only the tests run.

Run from anywhere in the repository:

    python tests/src_coverage.py

Two passes run in one process under one :func:`sys.settrace` function:

* the product pass runs every case of ``tests/cli_diff.py`` through
  ``wtw.cli.main``, in process and on the documents ``cli_diff.py`` writes,
  then each script under ``demos/`` and the README's "Library use" snippet;
* the test pass runs tier-1 in process: pytest over the ``testpaths`` of
  ``pyproject.toml``.

A line is executable when a code object compiled from its file names it in
``co_lines``.  The trace is re-armed after each product case and before each
phase of each test, because a ``RecursionError`` that passes through the
trace function switches tracing off (CPython 3.11), and Hypothesis may set
its own.  A code object stops being traced once all its lines have run.

For each module the script prints the number of executable lines, of lines
the product runs, of lines only the tests run and of lines neither runs, then
the product's lines as ranges and each other line with its source text.
Every line neither pass runs must be in ``NAMED``, with the reason no case
runs it; the script exits 1 when one is not, when a named line is not
executable, or when the test pass fails, and notes a named line that runs.
It takes about 5 minutes on two cores.  Standard library and pytest only;
pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import re
import runpy
import sys
import tempfile
import time
from functools import partial
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "wtw"
sys.path.insert(0, str(SRC.parent))

import cli_diff  # noqa: E402
import frame_families  # noqa: E402

_EXIT = "tests/test_cli.py::TestExitCodes::"
_TRACE_OFF = ("runs in process, but the RecursionError it catches switched the trace "
              "off (CPython 3.11): ")

# (reason, lines) for each group of lines that neither pass runs
NAMED = (
    ("the module ``python -m wtw`` runs: only a subprocess runs it",
     ("__main__.py:1", "__main__.py:3", "__main__.py:4")),
    ("the script entry of ``python -m wtw.cli``: only a subprocess runs it", ("cli.py:405",)),
    ("argparse restricts the verbs, so no verb falls through", ("cli.py:260",)),
    (f"{_TRACE_OFF}{_EXIT}test_deeply_nested_document_is_one_line_spec_error, exit 2, "
     "``spec error: values nest too deeply to parse``", ("frame.py:605", "frame.py:606")),
    (f"{_TRACE_OFF}{_EXIT}test_refused_document_prints_its_one_line[chain-of-1200-factors], "
     "exit 2, ``spec error: too long a chain of operators in ...``", ("polyalg.py:667",)),
    ("an __eq__ against another type, which no caller compares",
     ("frame.py:200", "polyalg.py:197", "polyalg.py:495")),
    ("a repr, which no output prints", ("polyalg.py:204", "polyalg.py:578")),
    ("an internal invariant that valid input cannot break: the two routes of the Lee "
     "form agree", ("hermitian.py:198",)),
    ("an internal invariant that valid input cannot break: every vertical basis element "
     "is skew and anticommutes with J", ("twistor.py:274",)),
    ("an internal invariant that valid input cannot break: J nabla_Y J is skew",
     ("twistor.py:383",)),
)


def executable_lines(path: pathlib.Path) -> set[int]:
    """The lines the ``co_lines`` of the code objects compiled from ``path`` name."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def make_tracer(unseen: dict[str, set[int]]):
    """The global trace function: it removes each line that runs from
    ``unseen[filename]``, and traces no frame whose code has no line left."""
    # id of a code object: the object, which keeps its id from being reused
    # (a module's code is freed once its body has run), and its lines not yet seen
    left_of: dict[int, tuple] = {}

    def mark(frame) -> set[int]:
        code = frame.f_code
        todo = left_of[id(code)][1]
        line = frame.f_lineno
        if line in todo:
            todo.discard(line)
            unseen[code.co_filename].discard(line)
        return todo

    def local(frame, event, arg):
        mark(frame)
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        left = unseen.get(code.co_filename)
        if not left:
            return None
        if id(code) not in left_of:
            left_of[id(code)] = code, {line for _, _, line in code.co_lines() if line in left}
        return local if mark(frame) else None

    return trace


def product_pass(trace) -> int:
    """Run the product's inputs under ``trace``; the number of runs."""
    import wtw.cli

    with tempfile.TemporaryDirectory() as directory, mock.patch.dict(os.environ, WTW_COLOR="0"):
        written = pathlib.Path(directory)
        frame_families.write(written, {**frame_families.DENSE_J, **frame_families.UNITARY,
                                       **frame_families.LARGEST, **cli_diff.EDGE_FORMS})
        runs = [partial(wtw.cli.main, argv) for *_, argv in cli_diff.cases(written)]
        runs += [partial(runpy.run_path, str(demo), run_name="__main__")
                 for demo in sorted((ROOT / "demos").glob("*.py"))]
        runs.append(partial(exec, compile(readme_snippet(), "README.md", "exec"), {}))
        for run in runs:
            with (contextlib.redirect_stdout(io.StringIO()),
                  contextlib.redirect_stderr(io.StringIO())):
                run()
            sys.settrace(trace)
    return len(runs)


def readme_snippet() -> str:
    """The Python block of the README's "Library use" section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"## Library use\s+```python\n(.*?)```", text, re.S)[1]


def tier1_pass(trace) -> int:
    """Run tier-1 under ``trace``; pytest's exit status."""
    import pytest

    class Rearm:
        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_setup(self, item):
            sys.settrace(trace)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_call(self, item):
            sys.settrace(trace)

        @pytest.hookimpl(tryfirst=True)
        def pytest_runtest_teardown(self, item):
            sys.settrace(trace)

    os.chdir(ROOT)  # testpaths apply in the rootdir
    return int(pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
                           plugins=[Rearm()]))


def subprocess_tests() -> list[str]:
    """The test modules that import ``subprocess``: what they run is not traced."""
    out = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name == "subprocess" for a in node.names):
                out.append(path.name)
                break
    return out


def ranges(lines) -> str:
    """Sorted line numbers written as ranges: ``1-3, 7``."""
    out, lines = [], sorted(lines)
    for line in lines:
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main() -> int:
    files = sorted(SRC.glob("*.py"))
    executable = {str(path): executable_lines(path) for path in files}
    unseen = {name: set(lines) for name, lines in executable.items()}
    trace = make_tracer(unseen)
    sys.settrace(trace)
    import wtw  # noqa: F401  (traced: the module bodies run here)
    from wtw import cli, hermitian, pseudoharmonic, twistor  # noqa: F401
    start = time.perf_counter()
    runs = product_pass(trace)
    product_s = time.perf_counter() - start
    product = {name: executable[name] - left for name, left in unseen.items()}
    untested = {name: set(left) for name, left in unseen.items()}
    start = time.perf_counter()
    status = tier1_pass(trace)
    tests_s = time.perf_counter() - start
    sys.settrace(None)

    named = {entry: reason for reason, entries in NAMED for entry in entries}
    problems = []
    totals = [0, 0, 0, 0]
    print(f"\nproduct pass: {runs} runs in {product_s:.0f} s; "
          f"test pass: pytest exit {status} in {tests_s:.0f} s")
    print(f"{'module':<20}{'executable':>12}{'product':>10}{'tests only':>12}{'neither':>10}")
    report = []
    for path in files:
        name = str(path)
        source = path.read_text(encoding="utf-8").splitlines()
        tests_only = untested[name] - unseen[name]
        counts = (len(executable[name]), len(product[name]), len(tests_only), len(unseen[name]))
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{path.name:<20}" + "".join(f"{c:>{w}}" for c, w in zip(counts, (12, 10, 12, 10))))
        report.append(f"\n{path.name}: product runs {ranges(product[name]) or 'none'}")
        for title, lines in (("only tests run", tests_only), ("neither runs", unseen[name])):
            for line in sorted(lines):
                entry = f"{path.name}:{line}"
                report.append(f"  {title:<15}{entry:<20}{source[line - 1].strip()}")
                if lines is unseen[name]:
                    if entry in named:
                        report.append(f"{'':>37}named: {named[entry]}")
                    else:
                        problems.append(f"{entry} runs in neither pass and is not named")
        for entry in named:
            file, line = entry.split(":")
            if file != path.name or int(line) in unseen[name]:
                continue
            if int(line) in executable[name]:
                report.append(f"  note: {entry} is named, but this run ran it")
            else:
                problems.append(f"{entry} is named, but it is not an executable line")
    print(f"{'total':<20}" + "".join(f"{c:>{w}}" for c, w in zip(totals, (12, 10, 12, 10))))
    print("\n".join(report))
    print("\nblind spots: __main__.py runs only as ``python -m wtw``, in a subprocess; "
          "what these test modules run in a subprocess is not traced: "
          + ", ".join(subprocess_tests()))
    if status:
        problems.append(f"the test pass failed: pytest exit {status}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
