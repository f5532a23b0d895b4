"""Write the frame documents of three families of gate-passing frames.

Usage, from anywhere in the repository:

    python tests/frame_families.py [OUT_DIR]

writes the family documents that ``tests/data`` holds (:data:`COMMITTED`)
into OUT_DIR, by default ``tests/data`` itself.  Each family has the standard
J (``J E_{2i-1} = E_{2i}``) and the Weyl form ``phi = a1 eta1 + ... + an etan``;
each function returns the document for one even dimension n from 4 to 16:

* :func:`hyperbolic`: the real hyperbolic frame ``[E_x, E_2] = -E_x`` for
  every x other than 2;
* :func:`vaisman`: the Vaisman frame on h_{n-1} + R, ``[E_{2i-1}, E_{2i}] =
  -2 E_n`` for i < n/2, whose Lee form is ``-2 eta_{n-1}``;
* :func:`inoue`: the Inoue-type frame with rotation blocks ``b``, ``[E1, E2] =
  -E1``, ``[E2, E_{2k+1}] = -1/2 E_{2k+1} + b_k E_{2k+2}`` and ``[E2, E_{2k+2}]
  = -b_k E_{2k+1} - 1/2 E_{2k+2}``, of dimension 2 + 2 len(b).

``tests/test_frame_families.py`` checks that the committed documents equal
this output, and ``tests/cli_diff.py`` runs ``suite`` on the n = 16 ones of
:data:`LARGEST`.  Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import pathlib
import sys
from fractions import Fraction

DATA = pathlib.Path(__file__).resolve().parent / "data"

_WORDS = {4: "four", 6: "six", 8: "eight", 10: "ten", 12: "twelve", 14: "fourteen",
          16: "sixteen"}


def _document(n: int, header: list[str], brackets: list[tuple[int, int, dict]]) -> str:
    """A frame document: ``header`` as comment lines, then ``[E_i, E_j] =
    sum_k value E_k`` for each ``(i, j, {k: value})`` with 1-based indices,
    the standard J and phi = a1 eta1 + ... + an etan."""
    lines = [f"# {line}" for line in header]
    symbols = ", ".join(f'"a{i}"' for i in range(1, n + 1))
    lines += ["[frame]", f"dimension = {n}", f"symbols = [{symbols}]", "", "[brackets]"]
    for i, j, comps in brackets:
        values = ", ".join(f'E{k} = "{Fraction(v)}"' for k, v in comps.items())
        lines.append(f'"E{i},E{j}" = {{ {values} }}')
    lines += ["", "[complex_structure]", "matrix = ["]
    for row in range(n):
        # J E_{2i-1} = E_{2i}: row 2i holds 1 at column 2i-1, row 2i-1 holds -1 at 2i
        partner, sign = (row + 1, "-1") if row % 2 == 0 else (row - 1, "1")
        entries = [sign if col == partner else "0" for col in range(n)]
        lines.append("    [" + ", ".join(f'"{x}"' for x in entries) + "],")
    lines += ["]", "", "[weyl_form]"]
    lines += [f'E{i} = "a{i}"' for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def hyperbolic(n: int) -> str:
    """The real hyperbolic frame of dimension n."""
    header = [f"{_WORDS[n]}-dimensional real hyperbolic frame: [E_x, E_2] = -E_x for x != 2, "
              "standard J,",
              f"phi = a1 eta1 + ... + a{n} eta{n}; integrable and the Lee identity holds"]
    return _document(n, header, [(x, 2, {x: -1}) for x in range(1, n + 1) if x != 2])


def vaisman(n: int) -> str:
    """The Vaisman frame on h_{n-1} + R of dimension n."""
    m = n // 2
    header = [f"{_WORDS[n]}-dimensional Vaisman frame on h_{n - 1} + R: "
              f"[E_(2i-1), E_(2i)] = -2 E{n} for i < {m},",
              f"standard J, phi = a1 eta1 + ... + a{n} eta{n}; "
              f"the Lee form is -2 eta{n - 1}"]
    return _document(n, header, [(2 * i - 1, 2 * i, {n: -2}) for i in range(1, m)])


def inoue(b) -> str:
    """The Inoue-type frame with rotation blocks ``b``, of dimension 2 + 2 len(b)."""
    n = 2 + 2 * len(b)
    half = Fraction(-1, 2)
    brackets = [(1, 2, {1: -1})]
    for k, value in enumerate(b, start=1):
        value = Fraction(value)
        brackets.append((2, 2 * k + 1, {2 * k + 1: half, 2 * k + 2: value}))
        brackets.append((2, 2 * k + 2, {2 * k + 1: -value, 2 * k + 2: half}))
    shown = ", ".join(str(Fraction(value)) for value in b)
    header = [f"{_WORDS[n]}-dimensional Inoue-type frame with rotation blocks b = ({shown}): "
              "[E1,E2] = -E1,",
              "[E2,E_(2k+1)] = -1/2 E_(2k+1) + b_k E_(2k+2), "
              "[E2,E_(2k+2)] = -b_k E_(2k+1) - 1/2 E_(2k+2),",
              f"standard J, phi = a1 eta1 + ... + a{n} eta{n}"]
    return _document(n, header, brackets)


# the documents tests/data holds, by file name
COMMITTED = {
    "hyperbolic6.toml": hyperbolic(6),
    "hyperbolic8.toml": hyperbolic(8),
    "vaisman6.toml": vaisman(6),
    "vaisman8.toml": vaisman(8),
    "inoue_rotation6.toml": inoue((1, 2)),
    "inoue_rotation8.toml": inoue((1, Fraction(1, 2), 3)),
}

# one document of each family at the largest dimension
LARGEST = {
    "hyperbolic16.toml": hyperbolic(16),
    "vaisman16.toml": vaisman(16),
    "inoue_rotation16.toml": inoue((1, Fraction(1, 2), 3, 2, Fraction(1, 3), 4, Fraction(3, 2))),
}


def write(directory: pathlib.Path, documents: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in documents.items():
        (directory / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    write(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DATA, COMMITTED)
