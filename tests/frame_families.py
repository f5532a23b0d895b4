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

:func:`rotate` writes structure constants and J in the orthonormal basis
``F_i = sum_a Q[i][a] E_a`` of a rational Cayley transform Q.  The exact
linear algebra, the product, the inverse, the Cayley transform and the
rotation, is that of the benchmark's frame generator, ``perfbench/frames.py``.
In the basis of :func:`cayley` the standard J has no zero off the diagonal;
:data:`DENSE_J` holds inoue-s0 and the six-dimensional hyperbolic frame in
that basis.  The Q of :func:`unitary` commutes with a given J, by default the
standard one, so J stays as it is while the brackets become dense;
:data:`UNITARY` holds the six-dimensional hyperbolic frame in that basis.

``tests/test_frame_families.py`` checks that the committed documents equal
this output, and ``tests/cli_diff.py`` runs every verb on :data:`DENSE_J` and
:data:`UNITARY` and ``suite`` on the n = 16 documents of :data:`LARGEST`.
Standard library and ``perfbench/frames.py`` only; pytest does not collect it.
"""

from __future__ import annotations

import pathlib
import sys
from fractions import Fraction

DATA = pathlib.Path(__file__).resolve().parent / "data"
_PERFBENCH = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")

sys.path.insert(0, _PERFBENCH)
try:
    import frames
finally:
    sys.path.remove(_PERFBENCH)

_WORDS = {4: "four", 6: "six", 8: "eight", 10: "ten", 12: "twelve", 14: "fourteen",
          16: "sixteen"}


def _document(n: int, header: list[str], brackets: list[tuple[int, int, dict]],
              J=None) -> str:
    """A frame document: ``header`` as comment lines, then ``[E_i, E_j] =
    sum_k value E_k`` for each ``(i, j, {k: value})`` with 1-based indices,
    the rational matrix J (by default the standard J) and phi = a1 eta1 + ...
    + an etan."""
    J = standard_j(n) if J is None else J
    lines = [f"# {line}" for line in header]
    symbols = ", ".join(f'"a{i}"' for i in range(1, n + 1))
    lines += ["[frame]", f"dimension = {n}", f"symbols = [{symbols}]", "", "[brackets]"]
    for i, j, comps in brackets:
        values = ", ".join(f'E{k} = "{Fraction(v)}"' for k, v in comps.items())
        lines.append(f'"E{i},E{j}" = {{ {values} }}')
    lines += ["", "[complex_structure]", "matrix = ["]
    for row in J:
        lines.append("    [" + ", ".join(f'"{x}"' for x in row) + "],")
    lines += ["]", "", "[weyl_form]"]
    lines += [f'E{i} = "a{i}"' for i in range(1, n + 1)]
    return "\n".join(lines) + "\n"


def standard_j(n: int) -> list[list[Fraction]]:
    """J E_{2i-1} = E_{2i}: row 2i holds 1 at column 2i-1, row 2i-1 holds -1 at 2i."""
    J = [[Fraction(0)] * n for _ in range(n)]
    for b in range(0, n, 2):
        J[b + 1][b], J[b][b + 1] = Fraction(1), Fraction(-1)
    return J


def _hyperbolic_brackets(n: int) -> list[tuple[int, int, dict]]:
    return [(x, 2, {x: -1}) for x in range(1, n + 1) if x != 2]


def hyperbolic(n: int) -> str:
    """The real hyperbolic frame of dimension n."""
    header = [f"{_WORDS[n]}-dimensional real hyperbolic frame: [E_x, E_2] = -E_x for x != 2, "
              "standard J,",
              f"phi = a1 eta1 + ... + a{n} eta{n}; integrable and the Lee identity holds"]
    return _document(n, header, _hyperbolic_brackets(n))


def vaisman(n: int) -> str:
    """The Vaisman frame on h_{n-1} + R of dimension n."""
    m = n // 2
    header = [f"{_WORDS[n]}-dimensional Vaisman frame on h_{n - 1} + R: "
              f"[E_(2i-1), E_(2i)] = -2 E{n} for i < {m},",
              f"standard J, phi = a1 eta1 + ... + a{n} eta{n}; "
              f"the Lee form is -2 eta{n - 1}"]
    return _document(n, header, [(2 * i - 1, 2 * i, {n: -2}) for i in range(1, m)])


def _inoue_brackets(b) -> list[tuple[int, int, dict]]:
    half = Fraction(-1, 2)
    brackets = [(1, 2, {1: -1})]
    for k, value in enumerate(b, start=1):
        value = Fraction(value)
        brackets.append((2, 2 * k + 1, {2 * k + 1: half, 2 * k + 2: value}))
        brackets.append((2, 2 * k + 2, {2 * k + 1: -value, 2 * k + 2: half}))
    return brackets


def inoue(b) -> str:
    """The Inoue-type frame with rotation blocks ``b``, of dimension 2 + 2 len(b)."""
    n = 2 + 2 * len(b)
    brackets = _inoue_brackets(b)
    shown = ", ".join(str(Fraction(value)) for value in b)
    header = [f"{_WORDS[n]}-dimensional Inoue-type frame with rotation blocks b = ({shown}): "
              "[E1,E2] = -E1,",
              "[E2,E_(2k+1)] = -1/2 E_(2k+1) + b_k E_(2k+2), "
              "[E2,E_(2k+2)] = -b_k E_(2k+1) - 1/2 E_(2k+2),",
              f"standard J, phi = a1 eta1 + ... + a{n} eta{n}"]
    return _document(n, header, brackets)


# -- a Cayley-rotated basis, in which J is dense ---------------------------------

matmul = frames.matmul


def cayley(n: int) -> list[list[Fraction]]:
    """The Cayley transform Q = (I - A)(I + A)^-1 of a rational skew A that does
    not commute with the standard J; Q is orthogonal."""
    A = [[Fraction(j - i, 2) if abs(j - i) == 1 else Fraction(0) for j in range(n)]
         for i in range(n)]
    J0 = standard_j(n)
    assert matmul(A, J0) != matmul(J0, A)
    eye = frames.identity(n)
    return matmul([[e - a for e, a in zip(*rows)] for rows in zip(eye, A)],
                  frames.inverse([[e + a for e, a in zip(*rows)] for rows in zip(eye, A)]))


def unitary(n: int, J=None) -> list[list[Fraction]]:
    """The Cayley transform Q of A = 1/2 (S - J S J), the part of the skew S
    with entries (j - i)/3 for |j - i| in {1, 2} that commutes with J, for a
    rational J with J^2 = -1 (by default the standard J); Q is orthogonal and
    commutes with J, so Q J Q^T = J."""
    S = [[Fraction(j - i, 3) if abs(j - i) in (1, 2) else Fraction(0) for j in range(n)]
         for i in range(n)]
    J = standard_j(n) if J is None else [[Fraction(x) for x in row] for row in J]
    return frames.cayley(J, S)


def rotate(c, J, Q) -> tuple[dict, list[list[Fraction]]]:
    """Structure constants ``c[a][b][m]`` and J, 0-based, in the orthonormal
    basis F_i = sum_a Q[i][a] E_a: the brackets ``{(i, j): {k: c'_ijk}}`` for
    i < j, nonzero entries only, and Q J Q^T.  That basis is ``frames.rotate``'s
    for the transpose of Q."""
    n = len(J)
    rotated = frames.rotate(frames.Frame("", c, J, (), ()), frames.transpose(Q))
    brackets = {(i, j): {k: v for k, v in enumerate(rotated.c[i][j]) if v}
                for i in range(n) for j in range(i + 1, n)}
    return ({pair: comps for pair, comps in brackets.items() if comps},
            [list(row) for row in rotated.J])


def _rotated(name: str, n: int, brackets: list[tuple[int, int, dict]], Q) -> str:
    """The document of the frame with these 1-based brackets and the standard
    J in the basis F_i = sum_a Q[i][a] E_a of :func:`rotate`, with phi = a1 eta1
    + ... + an etan there."""
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, comps in brackets:
        for k, value in comps.items():
            c[i - 1][j - 1][k - 1], c[j - 1][i - 1][k - 1] = Fraction(value), -Fraction(value)
    rotated, J = rotate(c, standard_j(n), Q)
    header = [f"{name} in the orthonormal basis of a rational Cayley transform,",
              f"phi = a1 eta1 + ... + a{n} eta{n} in that basis"]
    return _document(n, header, [(i + 1, j + 1, {k + 1: v for k, v in comps.items()})
                                 for (i, j), comps in rotated.items()], J)


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


# inoue-s0 and the six-dimensional hyperbolic frame with a dense J
DENSE_J = {
    "inoue_s0_rotated.toml": _rotated("inoue-s0", 4, _inoue_brackets((0,)), cayley(4)),
    "hyperbolic6_rotated.toml": _rotated("the six-dimensional real hyperbolic frame", 6,
                                         _hyperbolic_brackets(6), cayley(6)),
}

# the six-dimensional hyperbolic frame with the standard J and dense brackets
UNITARY = {
    "hyperbolic6_unitary.toml": _rotated("the six-dimensional real hyperbolic frame", 6,
                                         _hyperbolic_brackets(6), unitary(6)),
}


def write(directory: pathlib.Path, documents: dict[str, str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in documents.items():
        (directory / name).write_text(text, encoding="utf-8")


if __name__ == "__main__":
    write(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DATA, COMMITTED)
