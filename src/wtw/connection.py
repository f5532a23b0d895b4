"""Levi-Civita and Weyl connections in a left-invariant orthonormal frame.

A connection is stored through its coefficients ``gamma[i][j][k]`` with
``nabla_{E_i} E_j = sum_k gamma[i][j][k] E_k``.  Because all tensor
components are constant in the frame, every covariant derivative reduces to
gamma-contractions; this is relied on throughout the package.

For the Levi-Civita connection of the identity Gram matrix the Koszul
formula collapses to ``2 gamma[i][j][k] = c[i][j][k] - c[i][k][j] - c[j][k][i]``.
Each nonzero structure constant enters three gammas, so the gammas are
accumulated from the spec's nonzero bracket rows alone, as the sparse int
rows of :func:`gamma_rows` over twice the bracket denominator, kept on the
spec.  The phi-free layer reads them in ints (the Levi-Civita curvature and
its traces in :mod:`wtw.curvature`, the Lee form, nabla J and J o nabla J in
:mod:`wtw.hermitian`), and the Levi-Civita connection lifts only their
nonzero entries to scalars.  The Weyl connection of the 1-form phi is

    D_X Y = nabla_X Y - 1/2 [phi(X) Y + phi(Y) X - g(X, Y) phi#].

Its Kronecker terms are written once, in ``_weyl_shift``: :func:`weyl` adds
them to the lifted gammas for the spec's phi, one kernel call per entry they
touch, and :func:`weyl_rows` adds them in ints for a rational 1-form, the
rows from which the nabla-J checks read D J for phi = theta.

Contracts (tested as exact identities):
  * torsion-free: gamma[i][j][k] - gamma[j][i][k] = c[i][j][k];
  * metric: gamma[i][j][k] + gamma[i][k][j] = 0 (Levi-Civita) and
    = -phi_i * delta_jk (Weyl), the frame form of D g = phi (x) g.

An endomorphism S is an n x n nested tuple, ``S E_j = sum_i S[i][j] E_i``,
as in :mod:`wtw.frame`.  Both connections are computed once per spec and
kept on it, and the induced derivative D S of an endomorphism is kept on its
connection under the tuple S itself (``wtw.frame._kept``), so repeated calls
return the same objects.

The derivative along one direction, D_{E_i} S, is read from the terms of its
rows (``_along_terms``): row l is one contraction of column l of gamma[i] and
row l of S against the rows of S and of gamma[i] transposed.  A sum of
derivatives joins their terms, so each of its rows is one ``FrameSpec.left``:
:func:`traced_second_cov_deriv_endo` forms Tr D2 S this way from D S, and so
does the curvature cross-check of :mod:`wtw.twistor`, so no second
derivative D_i D_j S is formed as an array.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, product
from typing import Sequence

from .frame import FrameSpec, Memo, Vector, _antisymmetric, _kept, _kron
from .polyalg import Scalar


class Connection(Memo):
    def __init__(self, spec: FrameSpec, gamma: tuple[tuple[tuple[Scalar, ...], ...], ...],
                 kind: str):
        # kind is "levi-civita" or "weyl"
        self.__dict__.update(spec=spec, gamma=gamma, kind=kind)

    def nonzero(self):
        """Iterate (i, j, k, gamma_ijk) over nonzero coefficients."""
        n = self.spec.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if not self.gamma[i][j][k].is_zero:
                        yield i, j, k, self.gamma[i][j][k]

    @_kept
    def negated(self):
        """-gamma[i][j][k], formed once per connection for the fused contractions."""
        return tuple(tuple(tuple(-value for value in vec) for vec in plane)
                     for plane in self.gamma)


@_kept
def gamma_rows(spec: FrameSpec) -> tuple[int, list]:
    """The nonzero Levi-Civita gammas as ``(den, rows)``: ``rows[i][j]`` lists
    ``(k, den * gamma[i][j][k])``, over twice the bracket denominator."""
    n = spec.n
    den, rows = spec.bracket_rows()
    twice: list[list[dict[int, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    # c[a][b][m] enters gamma[a][b][m] with +1/2, gamma[a][m][b] and gamma[m][a][b] with -1/2
    for a in range(n):
        for b in range(n):
            for m, v in rows[a][b]:
                for i, j, k, value in ((a, b, m, v), (a, m, b, -v), (m, a, b, -v)):
                    twice[i][j][k] = twice[i][j].get(k, 0) + value
    return 2 * den, [[[(k, v) for k, v in sorted(row.items()) if v] for row in plane]
                     for plane in twice]


@_kept
def levi_civita(spec: FrameSpec) -> Connection:
    """The Levi-Civita connection: the lift of the nonzero int gammas of
    :func:`gamma_rows`."""
    den, rows = gamma_rows(spec)
    return Connection(spec, tuple(tuple(spec.lift(row, den) for row in plane) for plane in rows),
                      "levi-civita")


def _weyl_shift(n: int, i: int, j: int):
    """The Kronecker terms of 2 (D_{E_i} E_j - nabla_{E_i} E_j) = -phi_i E_j -
    phi_j E_i + delta_ij phi#, as ``(k, a, w)``: weight w of phi_a at E_k."""
    return [(j, i, -1), (i, j, -1), *((k, k, 1) for k in range(n) if i == j)]


@_kept
def weyl(spec: FrameSpec) -> Connection:
    """The unique torsion-free connection with D g = phi (x) g for this phi."""
    n, phi, lc, half = spec.n, spec.phi, levi_civita(spec), Fraction(1, 2)

    def row(i, j):
        # one kernel call per entry where a Kronecker delta applies
        terms: dict[int, list] = {}
        for k, a, w in _weyl_shift(n, i, j):
            terms.setdefault(k, [(lc.gamma[i][j][k], 1)]).append((phi[a], half * w))
        return tuple(spec.dot(*zip(*terms[k])) if k in terms else value
                     for k, value in enumerate(lc.gamma[i][j]))

    return Connection(spec, tuple(tuple(row(i, j) for j in range(n)) for i in range(n)), "weyl")


def weyl_rows(spec: FrameSpec, den: int, phi: Sequence[int]) -> tuple[int, list]:
    """The Weyl gammas of the rational 1-form ``phi[k] / den`` as ``(wden,
    rows)``, laid out as :func:`gamma_rows`."""
    gden, g = gamma_rows(spec)
    wden = 2 * math.lcm(gden, den)
    scale, half = wden // gden, wden // (2 * den)
    rows = [[{k: scale * v for k, v in row} for row in plane] for plane in g]
    for i, j in product(range(spec.n), repeat=2):
        for k, a, w in _weyl_shift(spec.n, i, j):
            rows[i][j][k] = rows[i][j].get(k, 0) + w * half * phi[a]
    return wden, [[[(k, v) for k, v in row.items() if v] for row in plane] for plane in rows]


@_kept
def cov_deriv_endo(conn: Connection, S: tuple[Vector, ...]) -> tuple[tuple[Vector, ...], ...]:
    """(D_{E_i} S)(E_j) = D_{E_i}(S E_j) - S(D_{E_i} E_j), one endomorphism per
    direction; S is an n x n nested tuple, the key it is kept under.

    This is the connection induced on Hom(TM, TM) by the same gammas; for a
    Weyl connection it preserves skewness of constant skew sections, which is
    asserted by the test suite (the "D on Hom" contract).
    """
    return tuple(_derivative_along(conn, S, i) for i in range(conn.spec.n))


def _derivative_along(conn: Connection, S: tuple[Vector, ...], i: int) -> tuple[Vector, ...]:
    """D_{E_i} S, not kept: row l is one ``FrameSpec.left`` over the terms of
    :func:`_along_terms`."""
    rows, coefficients = _along_terms(conn, S, i)
    return tuple(conn.spec.left(u, rows) for u in coefficients)


def _along_terms(conn: Connection, S: tuple[Vector, ...], i: int, sign: int = 1):
    """sign * D_{E_i} S as the terms of its rows, ``(rows, coefficients)``: row l
    is sum_m coefficients[l][m] rows[m].  Entry (l, j) of D_{E_i} S is
    sum_k gamma[i][k][l] S[k][j] - S[l][k] gamma[i][j][k], so the rows are those
    of S and of -sign * gamma[i] transposed, and the coefficients of row l are
    column l of sign * gamma[i] and row l of S.  A reader that sums several
    derivatives joins their terms into one contraction per row."""
    up, down = zip(*conn.gamma[i]), zip(*conn.negated()[i])
    if sign < 0:
        up, down = down, up
    return (*S, *down), [(*column, *row) for column, row in zip(up, S)]


def traced_second_cov_deriv_endo(conn: Connection, S: tuple[Vector, ...]) -> tuple[Vector, ...]:
    """Tr D2 S = sum_i D_{E_i}(D_{E_i} S) - D_{sum_i D_{E_i} E_i} S, an n x n
    endomorphism, not kept; it reads D S, which is.  Row l is one
    ``FrameSpec.left`` over the terms of every D_{E_i}(D_{E_i} S) and of the
    divergence term, so no D_{E_i} D_{E_i} S array is built."""
    n, spec, first = conn.spec.n, conn.spec, cov_deriv_endo(conn, S)
    # sum_i D_{E_i} E_i = sum_k (sum_i gamma[i][i][k]) E_k
    divergence = [spec.ring.sum(conn.gamma[i][i][k] for i in range(n)) for k in range(n)]
    terms = [_along_terms(conn, d, i) for i, d in enumerate(first)]
    rows = tuple(chain.from_iterable(part for part, _ in terms))
    return tuple(spec.left((*chain.from_iterable(u[l] for _, u in terms),
                            *(-w for w in divergence)), (*rows, *(d[l] for d in first)))
                 for l in range(n))


def torsion_residual(conn: Connection):
    """gamma[i][j][k] - gamma[j][i][k] - c[i][j][k]; identically zero.  It is
    antisymmetric in (i, j), as c is, so the row over k is formed for i < j
    only (``wtw.frame._antisymmetric``)."""
    spec, n, g = conn.spec, conn.spec.n, conn.gamma
    return _antisymmetric(n, (spec.zero(),) * n, lambda i, j: tuple(
        spec.dot((g[i][j][k], g[j][i][k], spec.c[i][j][k]), (1, -1, -1)) for k in range(n)),
        lambda row: tuple(-x for x in row))


def metric_residual(conn: Connection):
    """gamma[i][j][k] + gamma[i][k][j] (+ phi_i delta_jk for Weyl); identically zero."""
    spec = conn.spec
    n, g = spec.n, conn.gamma
    phi_weight = 1 if conn.kind == "weyl" else 0

    def entry(i, j, k):
        return spec.dot((g[i][j][k], g[i][k][j], spec.phi[i]), (1, 1, phi_weight * _kron(j, k)))

    return tuple(tuple(tuple(entry(i, j, k) for k in range(n))
                       for j in range(n)) for i in range(n))


def reconstruct_weyl_form(conn: Connection) -> Vector:
    """Recover phi from a Weyl connection: phi_i = -(2/n) sum_j gamma[i][j][j].

    Round-trips the input form exactly; this is the uniqueness statement for
    the Weyl connection with a prescribed metric derivative.
    """
    spec = conn.spec
    n = spec.n
    factor = (Fraction(-2, n),) * n
    return tuple(spec.dot([conn.gamma[i][j][j] for j in range(n)], factor) for i in range(n))
