"""Count the calls of the multiply-accumulate kernel in two source trees.

Usage, from anywhere in the repository:

    python tests/dot_counts.py OLD_SRC NEW_SRC

Each of OLD_SRC and NEW_SRC is a directory that holds the ``wtw`` package
(the ``src`` directory of a checkout).  For each tree one subprocess, with
that directory on ``PYTHONPATH``, wraps :meth:`wtw.polyalg.Ring.dot` in a
counter and runs five workloads in process:

* ``suite-n4``: ``wtw.cli._suite_report`` on the six frames of
  ``perfbench/frames.py``'s ``Drawer("suite-n4", 777)``, one rotated draw of
  each n = 4 algebra, loaded from the document the benchmark writes; their J
  is a signed permutation, and any exception ``suite`` raises stops the
  script;
* ``vaisman16``: ``wtw.cli._suite_report`` on the n = 16 Vaisman frame of
  ``tests/frame_families.py``;
* ``hyperbolic6-unitary``: ``wtw.cli._suite_report`` on the document of
  ``tests/frame_families.py``'s ``UNITARY``, hyperbolic6 in a basis where J
  stays standard and the brackets are dense;
* ``hyperbolic6-rotated``: ``wtw.cli._suite_report`` on hyperbolic6 in the
  basis of ``tests/frame_families.py``'s ``cayley``, where J is dense; a tree
  whose vertical basis refuses such a J raises ``FrameError``, which is
  printed as ``refused`` in place of the counts;
* ``scan-n6``: the 20 operations of ``perfbench/run.py``'s scan workload for
  ``Drawer("scan-n6", 777)``, each ``load_spec``, ``conditions`` and
  ``verify_assignment`` on a sparse n = 6 frame, as the benchmark runs them
  at ``--seconds 20``.

For the four suite workloads only the calls made inside ``_suite_report`` are
counted, not those of loading the spec; a scan operation is counted whole.
Each call is charged to the ``file:qualname`` of the first frame outside
``polyalg.py`` and ``frame.py``, so a contraction helper or an operator is
charged to the function that asked for it, and a caller keeps its name when
lines move.  For each tree and workload the script prints the number of
calls, the number that returned zero, the number of structural calls, in
which no operand pair has two nonzero sides, so that a walk of the operands'
supports would skip them, the number of symbol-free calls, whose operands
are all rationals or constant scalars, so that the same sum in ints would
need no polynomial, and the number of operand pairs the calls passed (zero
pairs included); then all five for each caller among the ones with the most
calls, structural calls or symbol-free calls in either tree, so the two
trees list the same callers.  Standard library only; pytest does not collect
it.
"""

from __future__ import annotations

import collections
import json
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
TOP = 8  # callers with the most calls, taken from each tree


def count(workload) -> dict:
    """Run ``workload()`` with ``Ring.dot`` counted; the calls, the zero
    results, the structural calls, the symbol-free calls and the operand
    pairs, in total and per caller."""
    import wtw
    from wtw.polyalg import Ring, Scalar

    package = pathlib.Path(wtw.__file__).resolve().parent
    skip = {str(package / "polyalg.py"), str(package / "frame.py")}
    dot = Ring.dot
    calls: collections.Counter = collections.Counter()
    zeros: collections.Counter = collections.Counter()
    structural: collections.Counter = collections.Counter()
    symbol_free: collections.Counter = collections.Counter()
    pairs: collections.Counter = collections.Counter()

    def counted(ring, u, v):
        zipped = list(zip(u, v))  # v may be endless, as in Ring.sum
        value = dot(ring, [a for a, _ in zipped], [b for _, b in zipped])
        frame = sys._getframe(1)
        while frame.f_code.co_filename in skip:
            frame = frame.f_back
        caller = f"{pathlib.Path(frame.f_code.co_filename).name}:{frame.f_code.co_qualname}"
        calls[caller] += 1
        pairs[caller] += len(zipped)
        if not value:
            zeros[caller] += 1
        if not any(a and b for a, b in zipped):
            structural[caller] += 1
        if all(type(x) is not Scalar or x.is_constant for pair in zipped for x in pair):
            symbol_free[caller] += 1
        return value

    Ring.dot = counted
    try:
        workload()
    finally:
        Ring.dot = dot
    return {"calls": sum(calls.values()), "zeros": sum(zeros.values()),
            "structural": sum(structural.values()),
            "symbol_free": sum(symbol_free.values()), "pairs": sum(pairs.values()),
            "callers": [(caller, count, zeros[caller], structural[caller],
                         symbol_free[caller], pairs[caller])
                        for caller, count in calls.most_common()]}


def workloads(names, workdir: pathlib.Path) -> dict:
    """The named workloads, each loaded and ready to run as a function of no
    arguments; the scan writes its frame documents under ``workdir``."""
    if str(REPO / "perfbench") not in sys.path:
        sys.path.insert(0, str(REPO / "perfbench"))
    import frame_families
    import frames
    import run
    import wtw
    from wtw import cli, load_spec

    def suites(*specs):
        def workload():
            for spec in specs:
                cli._suite_report(spec)
        return workload

    def suite_n4():
        drawer = frames.Drawer("suite-n4", 777)
        return suites(*(load_spec(frames.document(drawer.rotated_n4(name)))
                        for name in frames.N4_ALGEBRAS))

    def scan_n6():
        scan = run.ScanWorkload(wtw, workdir)
        ops = scan.make_ops(frames.Drawer(scan.name, 777), "A", 20)

        def workload():
            for op in ops:
                scan.run(op)
        return workload

    setups = {
        "suite-n4": suite_n4,
        "vaisman16": lambda: suites(load_spec(frame_families.vaisman(16), name="vaisman16")),
        "hyperbolic6-unitary": lambda: suites(load_spec(
            *frame_families.UNITARY.values(), name="hyperbolic6-unitary")),
        "hyperbolic6-rotated": lambda: suites(load_spec(
            frame_families.DENSE_J["hyperbolic6_rotated.toml"], name="hyperbolic6-rotated")),
        "scan-n6": scan_n6,
    }
    return {name: setups[name]() for name in names}


WORKLOADS = ("suite-n4", "vaisman16", "hyperbolic6-unitary", "hyperbolic6-rotated", "scan-n6")


def _child() -> None:
    """Count the five workloads in this process and print them as JSON."""
    import wtw

    counts = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, workload in workloads(WORKLOADS, pathlib.Path(workdir)).items():
            try:
                counts[name] = count(workload)
            except wtw.FrameError as exc:
                counts[name] = {"refused": str(exc)}
    print(json.dumps(counts))


def _run(src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        _child()
        return 0
    if len(argv) != 2:
        sys.stderr.write("usage: python tests/dot_counts.py OLD_SRC NEW_SRC\n")
        return 2
    runs = [(src, _run(src)) for src in (str(pathlib.Path(path).resolve()) for path in argv)]
    for src, run in runs:
        print(src)
        for workload, counts in run.items():
            if "refused" in counts:
                print(f"  {workload}: refused: {counts['refused']}")
                continue
            print(f"  {workload}: calls={counts['calls']} zeros={counts['zeros']} "
                  f"structural={counts['structural']} symbol-free={counts['symbol_free']} "
                  f"pairs={counts['pairs']}")
            # the top callers of either tree, by calls, by structural calls and
            # by symbol-free calls, so that both trees list the same ones
            shown = set()
            for _, other in runs:
                callers = other[workload].get("callers", [])
                shown.update(row[0] for row in callers[:TOP])
                for column in (3, 4):
                    shown.update(row[0] for row in
                                 sorted(callers, key=lambda row: -row[column])[:TOP])
            rows = {caller: row for caller, *row in counts["callers"]}
            for caller in sorted(shown, key=lambda caller: (-rows.get(caller, (0,))[0], caller)):
                calls, zeros, structural, free, pairs = rows.get(caller, (0,) * 5)
                print(f"    {calls:>9} calls {zeros:>9} zero {structural:>9} structural "
                      f"{free:>9} symbol-free {pairs:>10} pairs  {caller}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
