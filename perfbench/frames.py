"""Seeded frame generator for the benchmark workloads.

A frame is plain data: structure constants ``c[i][j][k]`` with
``[E_i, E_j] = sum_k c[i][j][k] E_k``, a complex structure ``J`` in the column
convention ``J(E_j) = sum_i J[i][j] E_i`` and a Weyl form that is linear in
the symbols, ``phi_a = sum_s phi[a][s] * symbol_s``.  Everything is a
``Fraction``; the program under test only ever sees the document text that
:func:`document` writes.

The n = 4 algebras are written in a seeded rational orthonormal basis
``Q = (I - A)(I + A)^-1`` with ``A`` skew and commuting with the frame's own
``J``, so ``Q^T J Q = J`` and the rotated frame is the same Hermitian
geometry; the Weyl form is generic, ``phi = sum_a a_a eta_a``, in every frame.  Each draw is unique within a run, so that no cache of the program
can serve one operation with the result of an earlier one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

F = Fraction

# Small magnitudes keep the rationals in machine-word range, so that the
# cost of an operation depends on the algebra and not on the draw.
_ROTATION_ENTRIES = (F(-1), F(-1, 2), F(1, 2), F(1))
_LAMBDAS = tuple(sorted({F(s * p, q) for s in (1, -1) for p in (1, 2, 3, 4) for q in (1, 2, 3)}))
# Six distinct magnitudes: equal weights make terms of the condition systems
# cancel, which changes an operation's cost by up to 2x.
_WEIGHT_MAGNITUDES = (F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(3))
_POINT = tuple(F(p, q) for p in range(-3, 4) for q in (1, 2, 3) if p)

N4_ALGEBRAS = ("inoue-s0", "kodaira++", "kodaira+-", "kodaira-+", "kodaira--", "hyperbolic")


@dataclass(frozen=True)
class Frame:
    name: str
    c: tuple          # c[i][j][k]
    J: tuple          # J[i][j]
    phi: tuple        # phi[a][s]: coefficient of symbol s in phi(E_a)
    symbols: tuple
    rotation: tuple | None = None   # Q, when the frame was rotated

    @property
    def n(self) -> int:
        return len(self.J)

    def phi_at(self, point: dict) -> tuple:
        """The Weyl form's coefficients at a rational point of the symbols."""
        return tuple(sum((coeff * point[s] for coeff, s in zip(row, self.symbols)), F(0))
                     for row in self.phi)


def _zeros(*shape):
    if len(shape) == 1:
        return [F(0)] * shape[0]
    return [_zeros(*shape[1:]) for _ in range(shape[0])]


def _freeze(value):
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _standard_j(n: int, signs=None):
    J = _zeros(n, n)
    for b in range(n // 2):
        s = signs[b] if signs else 1
        J[2 * b + 1][2 * b] = F(s)
        J[2 * b][2 * b + 1] = F(-s)
    return J


def _identity_phi(n: int, weights=None):
    phi = _zeros(n, n)
    for a in range(n):
        phi[a][a] = weights[a] if weights else F(1)
    return phi


def _frame(name, n, brackets, J, phi, symbols=None):
    c = _zeros(n, n, n)
    for (i, j), comps in brackets.items():
        for k, value in comps.items():
            c[i][j][k] = F(value)
            c[j][i][k] = -F(value)
    symbols = symbols or tuple(f"a{i + 1}" for i in range(n))
    return Frame(name, _freeze(c), _freeze(J), _freeze(phi), tuple(symbols))


def inoue_s0() -> Frame:
    half = F(1, 2)
    return _frame("inoue-s0", 4, {(0, 1): {0: -1}, (1, 2): {2: -half}, (1, 3): {3: -half}},
                  _standard_j(4), _identity_phi(4))


def kodaira(e1: int, e2: int) -> Frame:
    tag = "".join("+" if e > 0 else "-" for e in (e1, e2))
    return _frame(f"kodaira{tag}", 4, {(0, 1): {3: -2}}, _standard_j(4, (e1, e2)),
                  _identity_phi(4))


def hyperbolic(n: int, lam: Fraction, weights=None) -> Frame:
    """``[E_x, E_2] = -lam E_x`` for every x != 2, standard J."""
    brackets = {(x, 1): {x: -lam} for x in range(n) if x != 1}
    return _frame(f"hyperbolic{n}", n, brackets, _standard_j(n), _identity_phi(n, weights))


def n4_algebra(name: str, lam: Fraction = F(1)) -> Frame:
    if name == "inoue-s0":
        return inoue_s0()
    if name.startswith("kodaira"):
        return kodaira(1 if name[7] == "+" else -1, 1 if name[8] == "+" else -1)
    if name == "hyperbolic":
        return hyperbolic(4, lam)
    raise KeyError(name)


# -- exact linear algebra -------------------------------------------------

def matmul(a, b):
    n, m = len(a), len(b[0])
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(m)]
            for i in range(n)]


def transpose(a):
    return [list(row) for row in zip(*a)]


def identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def inverse(a):
    """Gauss-Jordan inverse over the rationals."""
    n = len(a)
    m = [list(row) + identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        scale = m[col][col]
        m[col] = [x / scale for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def cayley(J, S):
    """``Q = (I - A)(I + A)^-1`` for ``A = (S - J S J) / 2``, the part of the
    skew matrix ``S`` that commutes with ``J``."""
    n = len(J)
    jsj = matmul(matmul(J, S), J)
    A = [[(S[i][j] - jsj[i][j]) / 2 for j in range(n)] for i in range(n)]
    eye = identity(n)
    minus = [[eye[i][j] - A[i][j] for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + A[i][j] for j in range(n)] for i in range(n)]
    return matmul(minus, inverse(plus))


def rotate(frame: Frame, Q) -> Frame:
    """The same Hermitian frame in the orthonormal basis ``E'_a = sum_i Q[i][a] E_i``.

    The Weyl form stays generic, ``phi = sum_a a_a eta'_a`` in the new coframe.
    """
    n = frame.n
    c = frame.c
    # c'[a][b][d] = sum_{i,j,k} Q[i][a] Q[j][b] c[i][j][k] Q[k][d]
    cq = [[[sum((c[i][j][k] * Q[k][d] for k in range(n)), F(0)) for d in range(n)]
           for j in range(n)] for i in range(n)]
    cqq = [[[sum((Q[j][b] * cq[i][j][d] for j in range(n)), F(0)) for d in range(n)]
            for b in range(n)] for i in range(n)]
    new_c = [[[sum((Q[i][a] * cqq[i][b][d] for i in range(n)), F(0)) for d in range(n)]
              for b in range(n)] for a in range(n)]
    new_j = matmul(matmul(transpose(Q), [list(r) for r in frame.J]), Q)
    return Frame(frame.name, _freeze(new_c), _freeze(new_j), frame.phi, frame.symbols,
                 _freeze(Q))


# -- seeded draws ---------------------------------------------------------

class Drawer:
    """Deterministic draws for one run; no frame is drawn twice."""

    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"{workload}:{seed}")
        self.used: set = set()

    def _unique(self, draw) -> Frame:
        for _ in range(10000):
            frame = draw()
            key = (frame.c, frame.J, frame.phi)
            if key not in self.used:
                self.used.add(key)
                return frame
        raise RuntimeError("draw space exhausted")

    def point(self, symbols) -> dict:
        return {s: self.rng.choice(_POINT) for s in symbols}

    def rotated_n4(self, name: str) -> Frame:
        """One of the n = 4 algebras in a fresh rotated basis (and, for the
        hyperbolic algebra, with a fresh scale).  Only rotations with no zero
        entry are kept, so every draw has equally dense brackets."""
        def draw():
            lam = self.rng.choice(_LAMBDAS) if name == "hyperbolic" else F(1)
            base = n4_algebra(name, lam)
            J = [list(r) for r in base.J]
            while True:
                S = _zeros(4, 4)
                for i in range(4):
                    for j in range(i + 1, 4):
                        value = self.rng.choice(_ROTATION_ENTRIES)
                        S[i][j], S[j][i] = value, -value
                Q = cayley(J, S)
                if all(x != 0 for row in Q for x in row):
                    return rotate(base, Q)
        return self._unique(draw)

    def hyperbolic_n6(self) -> Frame:
        def draw():
            lam = self.rng.choice(_LAMBDAS)
            weights = [m * self.rng.choice((1, -1))
                       for m in self.rng.sample(_WEIGHT_MAGNITUDES, 6)]
            return hyperbolic(6, lam, weights)
        return self._unique(draw)


# -- document writer -------------------------------------------------------

def _linear(coeffs, symbols) -> str:
    parts = []
    for coeff, name in zip(coeffs, symbols):
        if coeff == 0:
            continue
        mag = abs(coeff)
        body = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(f"-{body}" if coeff < 0 else body)
        else:
            parts.append(f"- {body}" if coeff < 0 else f"+ {body}")
    return " ".join(parts) or "0"


def document(frame: Frame) -> str:
    """The frame document (README format) the program loads."""
    n = frame.n
    basis = [f"E{i + 1}" for i in range(n)]
    lines = ["[frame]", f"dimension = {n}",
             "symbols = [" + ", ".join(f'"{s}"' for s in frame.symbols) + "]", "",
             "[brackets]"]
    for i in range(n):
        for j in range(i + 1, n):
            comps = [f'{basis[k]} = "{frame.c[i][j][k]}"'
                     for k in range(n) if frame.c[i][j][k] != 0]
            if comps:
                lines.append(f'"{basis[i]},{basis[j]}" = {{ ' + ", ".join(comps) + " }")
    lines += ["", "[complex_structure]", "matrix = ["]
    for row in frame.J:
        lines.append("    [" + ", ".join(f'"{x}"' for x in row) + "],")
    lines += ["]", "", "[weyl_form]"]
    for a in range(n):
        lines.append(f'{basis[a]} = "{_linear(frame.phi[a], frame.symbols)}"')
    return "\n".join(lines) + "\n"
