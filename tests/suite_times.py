"""Time the full check suite in process on n >= 8 frames, in two source trees.

Usage, from anywhere in the repository:

    python tests/suite_times.py OLD_SRC NEW_SRC [-k K]

Each of OLD_SRC and NEW_SRC is a directory that holds the ``wtw`` package
(the ``src`` directory of a checkout).  A round runs one subprocess per tree,
with that directory on ``PYTHONPATH``; the subprocess loads each frame of
``FRAMES`` from the documents of ``tests/frame_families.py`` and times one call
of ``wtw.cli._suite_report`` on it with ``time.perf_counter``, loading
excluded.  Every call starts from a new spec, so no value kept on a spec is
reused.  The script runs K rounds (5 by default), the first tree first in the
even rounds and second in the odd ones, and prints for each frame the minimum
over the rounds in each tree, in seconds, and the ratio new / old.  Standard
library only; pytest does not collect it.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
# (family, n): the document frame_families.<family>(n), named family + n
FRAMES = (("vaisman", 8), ("vaisman", 12), ("vaisman", 16), ("hyperbolic", 8))


def _child() -> None:
    """Time ``_suite_report`` once on each frame and print the times as JSON."""
    import time

    sys.path.insert(0, str(REPO / "tests"))
    import frame_families
    from wtw import cli, load_spec

    times = {}
    for family, n in FRAMES:
        spec = load_spec(getattr(frame_families, family)(n), name=f"{family}{n}")
        start = time.perf_counter()
        cli._suite_report(spec)
        times[spec.name] = time.perf_counter() - start
    print(json.dumps(times))


def _run(src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        _child()
        return 0
    rounds = 5
    if len(argv) == 4 and argv[2] == "-k" and argv[3].isdigit() and int(argv[3]) > 0:
        rounds, argv = int(argv[3]), argv[:2]
    if len(argv) != 2:
        sys.stderr.write("usage: python tests/suite_times.py OLD_SRC NEW_SRC [-k K]\n")
        return 2
    trees = [str(pathlib.Path(path).resolve()) for path in argv]
    best: list[dict[str, float]] = [{}, {}]
    for k in range(rounds):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            for name, seconds in _run(trees[side]).items():
                best[side][name] = min(seconds, best[side].get(name, seconds))
    print(f"old {trees[0]}\nnew {trees[1]}\nminimum of {rounds} rounds, seconds")
    for name in best[0]:
        old, new = best[0][name], best[1][name]
        print(f"  {name:<12} old {old:8.3f}  new {new:8.3f}  new/old {new / old:6.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
