"""Compare the command line of two source trees, run by run.

Usage, from anywhere in the repository:

    python tests/cli_diff.py OLD_SRC NEW_SRC

Each of OLD_SRC and NEW_SRC is a directory that holds the ``wtw`` package
(the ``src`` directory of a checkout).  Every run is ``python -m wtw`` with
``WTW_COLOR=0`` and that directory on ``PYTHONPATH``, over the built-ins, every
document under ``tests/data``, the dense-J documents of
``tests/frame_families.py`` (inoue-s0 and hyperbolic6 in a Cayley-rotated
basis, where J is dense), its ``UNITARY`` document (hyperbolic6 in a basis
where J stays standard and the brackets are dense) and ``EDGE_FORMS``, an
inoue-s0 document whose Weyl form is written in the edge forms the polynomial
reader accepts (leading and inner whitespace, a tab, ``007``, ``^ 2``,
parentheses 100 deep and a symbol named ``lambda``), all written to a
temporary directory:

* every verb, in table and JSON format; ``verify`` gets ``--assign`` with the
  source's first symbol set to 0, and runs without it where there is none;
* ``verify`` once more with the first symbol at -3/2 and the second, where
  there is one, at 5/7, so substitution meets negative and non-integer values;
* ``--dim4`` on ``conditions``, ``verify`` and ``report`` at n = 4;
* ``report`` with that ``--assign``;
* ``suite`` in table format on the n = 16 hyperbolic, Vaisman and Inoue-type
  documents of ``tests/frame_families.py``, written to the same directory.

Two runs agree when their stdout, stderr and exit code are equal.  The
(old, new) pairs run on ``os.cpu_count()`` worker threads, each pair one
after the other in its thread.  The script prints ``runs=N diffs=M`` and then
each differing (verb, source, format) with its arguments, in case order, and
exits 1 on any difference.  Standard library only; pytest
does not collect it.
"""

from __future__ import annotations

import concurrent.futures
import os
import pathlib
import subprocess
import sys
import tempfile
import tomllib

import frame_families

DATA = pathlib.Path(__file__).resolve().parent / "data"

VERBS = ("validate", "connection", "curvature", "ricci", "star-ricci", "lee", "lck",
         "conditions", "verify", "suite", "report")

EDGE_FORMS = {"edge_forms.toml": f"""[frame]
dimension = 4
symbols = ["lambda", "a2"]

[brackets]
"E1,E2" = {{ E1 = "-1" }}
"E2,E3" = {{ E3 = "-1/2" }}
"E2,E4" = {{ E4 = "-1/2" }}

[complex_structure]
matrix = [["0", "-1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]

[weyl_form]
E1 = "  lambda"
E2 = "007 *  a2 ^ 2 -\\tlambda"
E3 = "{"(" * 100}lambda - 1/2*a2{")" * 100}"
E4 = "\\n-3 * lambda*a2 + 1"
"""}

BUILTIN_SYMBOLS = ("a1", "a2", "a3", "a4")
BUILTINS = {
    "inoue-s0": ["--builtin", "inoue-s0"],
    **{f"kodaira{signs}": ["--builtin", "kodaira", f"--signs={signs}"]
       for signs in ("+1,+1", "+1,-1", "-1,+1", "-1,-1")},
}


def _document_frame(path: pathlib.Path) -> tuple[list, object]:
    """The symbols and dimension a document declares, or none if it does not parse."""
    try:
        frame = tomllib.loads(path.read_text(encoding="utf-8")).get("frame", {})
    except tomllib.TOMLDecodeError:
        return [], None
    return frame.get("symbols", []), frame.get("dimension")


def sources(written: pathlib.Path) -> list[tuple[str, list[str], list, object]]:
    """(name, arguments, symbols, dimension) for each built-in and document;
    ``written`` holds the documents of ``frame_families.DENSE_J``,
    ``frame_families.UNITARY`` and ``EDGE_FORMS``."""
    out = [(name, args, BUILTIN_SYMBOLS, 4) for name, args in BUILTINS.items()]
    written_names = [*frame_families.DENSE_J, *frame_families.UNITARY, *EDGE_FORMS]
    for path in [*sorted(DATA.glob("*.toml")), *(written / name for name in written_names)]:
        symbols, dimension = _document_frame(path)
        out.append((path.name, ["--spec", str(path)], symbols, dimension))
    return out


def cases(directory: pathlib.Path) -> list[tuple[str, str, str, list[str]]]:
    """(verb, source, format, argv) for every run; ``directory`` holds the
    documents of ``frame_families.DENSE_J``, ``frame_families.UNITARY``,
    ``frame_families.LARGEST`` and ``EDGE_FORMS``."""
    out = []
    for name, source, symbols, dimension in sources(directory):
        assign = ["--assign", f"{symbols[0]}=0"] if symbols else []
        rational = ",".join(f"{s}={v}" for s, v in zip(symbols, ("-3/2", "5/7")))
        for fmt in ("table", "json"):
            tail = [*source, "--format", fmt]
            for verb in VERBS:
                out.append((verb, name, fmt, [verb, *tail, *(assign if verb == "verify" else [])]))
            if symbols:
                out.append(("verify --assign rational", name, fmt,
                            ["verify", *tail, "--assign", rational]))
            if dimension == 4:
                for verb in ("conditions", "verify", "report"):
                    extra = assign if verb == "verify" else []
                    out.append((f"{verb} --dim4", name, fmt, [verb, *tail, "--dim4", *extra]))
            if assign:
                out.append(("report --assign", name, fmt, ["report", *tail, *assign]))
    for name in frame_families.LARGEST:
        out.append(("suite", name, "table", ["suite", "--spec", str(directory / name)]))
    return out


def run(src: str, argv: list[str]) -> tuple[int, str, str]:
    env = dict(os.environ, PYTHONPATH=src, WTW_COLOR="0", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "wtw", *argv], env=env,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write("usage: python tests/cli_diff.py OLD_SRC NEW_SRC\n")
        return 2
    old, new = (str(pathlib.Path(path).resolve()) for path in argv)
    with tempfile.TemporaryDirectory() as directory:
        frame_families.write(pathlib.Path(directory),
                             {**frame_families.DENSE_J, **frame_families.UNITARY,
                              **frame_families.LARGEST, **EDGE_FORMS})
        runs = cases(pathlib.Path(directory))
        with concurrent.futures.ThreadPoolExecutor(os.cpu_count()) as pool:
            differs = list(pool.map(lambda case: run(old, case[3]) != run(new, case[3]), runs))
        diffs = [case for case, differ in zip(runs, differs) if differ]
    print(f"runs={len(runs)} diffs={len(diffs)}")
    for verb, name, fmt, args in diffs:
        print(f"  {verb} | {name} | {fmt}: {' '.join(args)}")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
