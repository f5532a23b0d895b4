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
runs it.  A line is named by its file, the qualified name of the function or
class around it (``<module>`` outside any) and its stripped source text, so
an entry survives edits that move the line.  The script exits 1 when an
unrun line is not named, when a named key matches no executable line or
more than one, or when the test pass fails, and notes a named line that runs.
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

# (reason, lines) for each group of lines that neither pass runs; a line is
# (file, qualified name of the function or class around it, stripped text)
NAMED = (
    ("the module ``python -m wtw`` runs: only a subprocess runs it",
     (("__main__.py", "<module>", "from .cli import main"),
      ("__main__.py", "<module>", 'if __name__ == "__main__":'),
      ("__main__.py", "<module>", "raise SystemExit(main())"))),
    ("the script entry of ``python -m wtw.cli``: only a subprocess runs it",
     (("cli.py", "<module>", "raise SystemExit(main())"),)),
    ("argparse restricts the verbs, so no verb falls through",
     (("cli.py", "_run_verb", "raise AssertionError(verb)"),)),
    (f"{_TRACE_OFF}{_EXIT}test_deeply_nested_document_is_one_line_spec_error, exit 2, "
     "``spec error: values nest too deeply to parse``",
     (("frame.py", "load_spec",
       "except RecursionError:  # arrays or inline tables nested past the parser's stack"),
      ("frame.py", "load_spec",
       'raise SpecFormatError("values nest too deeply to parse") from None'))),
    (f"{_TRACE_OFF}{_EXIT}test_refused_document_prints_its_one_line[chain-of-1200-factors], "
     "exit 2, ``spec error: too long a chain of operators in ...``",
     (("polyalg.py", "_parse",
       'raise PolynomialParseError(f"too long a chain of operators in {text!r}") from None'),)),
    ("an __eq__ against another type, which no caller compares",
     (("frame.py", "FrameSpec.__eq__", "return NotImplemented"),
      ("polyalg.py", "Ring.__eq__", "return NotImplemented"),
      ("polyalg.py", "Scalar.__eq__", "return NotImplemented"))),
    ("a repr, which no output prints",
     (("polyalg.py", "Ring.__repr__", 'return f"Ring(symbols={self.symbols!r})"'),
      ("polyalg.py", "Scalar.__repr__", 'return f"Scalar({self})"'))),
    ("an internal invariant that valid input cannot break: every vertical basis element "
     "is skew and anticommutes with J",
     (("twistor.py", "_validate_vertical",
       'raise AssertionError("vertical basis element not skew/anti-commuting")'),)),
    ("an internal invariant that valid input cannot break: J nabla_Y J is skew",
     (("twistor.py", "curvature_pairing_with_dj_check",
       'raise FrameError("wedge isomorphism requires a skew endomorphism")'),)),
)


def executable_lines(path: pathlib.Path, text: str) -> set[int]:
    """The lines the ``co_lines`` of the code objects compiled from ``text``, the
    source of ``path``, name."""
    stack, lines = [compile(text, str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def qualified_names(source: str) -> dict[int, str]:
    """The qualified name of the innermost function or class around each line
    of ``source``, as ``__qualname__`` spells it; lines outside any have none."""
    out: dict[int, str] = {}

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                for line in range(child.lineno, child.end_lineno + 1):
                    out[line] = name
                inner = ".<locals>." if not isinstance(child, ast.ClassDef) else "."
                visit(child, name + inner)
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return out


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
    # the sources as the passes import them; the report reads these lines
    texts = {str(path): path.read_text(encoding="utf-8") for path in files}
    executable = {str(path): executable_lines(path, texts[str(path)]) for path in files}
    problems = []
    # each named key resolves to the one executable line it names
    keys: dict[tuple[str, str, str], list[int]] = {}
    for path in files:
        text = texts[str(path)]
        lines, scope = text.splitlines(), qualified_names(text)
        for line in executable[str(path)]:
            key = (path.name, scope.get(line, "<module>"), lines[line - 1].strip())
            keys.setdefault(key, []).append(line)
    named: dict[str, str] = {}
    for reason, entries in NAMED:
        for key in entries:
            matches = keys.get(key, [])
            if len(matches) == 1:
                named[f"{key[0]}:{matches[0]}"] = reason
            else:
                problems.append(f"{key} is named, but it matches {len(matches)} executable "
                                "lines, not one")
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

    totals = [0, 0, 0, 0]
    print(f"\nproduct pass: {runs} runs in {product_s:.0f} s; "
          f"test pass: pytest exit {status} in {tests_s:.0f} s")
    print(f"{'module':<20}{'executable':>12}{'product':>10}{'tests only':>12}{'neither':>10}")
    report = []
    for path in files:
        name = str(path)
        source = texts[name].splitlines()
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
            if file == path.name and int(line) not in unseen[name]:
                report.append(f"  note: {entry} is named, but this run ran it")
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
