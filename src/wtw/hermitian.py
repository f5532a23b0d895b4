"""Hermitian-structure quantities: fundamental form, Nijenhuis tensor, Lee form.

The fundamental 2-form is ``Omega(X, Y) = g(JX, Y)``.  The Nijenhuis tensor

    N(Y, Z) = -[Y, Z] + [JY, JZ] - J[Y, JZ] - J[JY, Z]

vanishes identically exactly when J is integrable.  The Lee form is

    theta = -2/(n-2) * (delta Omega) o J.

In the orthonormal frame delta Omega is the 1-form of the vector delta J, so
theta has the components of its dual vector, the Lee vector
``B = 2/(n-2) * J(delta J)``.  A structure is locally conformally Kaehler when
``d Omega = theta ^ Omega`` and ``d theta = 0``.

Codifferential convention (used here and, through the Leibniz identity
``delta(J*phi) - phi(delta J) = -sum_i (nabla_{E_i} phi)(J E_i)``, by the
closed Ricci formulas of :mod:`wtw.curvature`):
``delta omega = -sum_i (nabla_{E_i} omega)(E_i)`` for 1-forms and
``delta J = -sum_i (nabla_{E_i} J)(E_i)``; the sign is pinned by the
built-in geometries' Lee forms.  The Lee form reads delta J as the trace of
the int Levi-Civita nabla J below, walks the columns of J and is lifted to
scalars once.  The tests compare theta with the trace of the nabla J of
scalars that :func:`wtw.connection.cov_deriv_endo` forms.

`require_gate` enforces the standing hypotheses of the pseudo-harmonicity
conditions: integrability of J and the Lee identity ``d Omega = theta ^
Omega``.  Violations raise :class:`GateError` naming the failed assumption;
the class lives in :mod:`wtw.frame`, so that the command line can catch it
without loading this module, and is re-exported here.  A passing verdict is
kept on the spec, so the n^3 Lee residual is scanned once however many
builders ask for the gate; a failing one is not kept and raises every time.

The whole layer is symbol-free, and every array of it is formed as int
numerators over one denominator, read from the spec's nonzero bracket rows
and J columns (see :mod:`wtw.frame`), the gamma rows and theta's ints; none
calls the polynomial kernel.  Each is computed once per spec and kept on it
(``wtw.frame._kept``), so the gate and every check that needs it share one
computation:

  * N, from its four brackets, formed for the pairs i < j and mirrored by
    ``wtw.frame._antisymmetric``;
  * theta, from the trace of nabla J, as above;
  * d(Omega), the cyclic bracket sum, and the Lee residual d(Omega) - theta ^
    Omega, formed on increasing triples and extended by
    ``wtw.frame._alternating``; the gate and :func:`lck_check` read the
    residual, and ``lck_check`` forms d(theta) in ints too;
  * the Levi-Civita nabla J, ``(nabla_{E_x} J) E_j = nabla_{E_x}(J E_j) -
    J(nabla_{E_x} E_j)`` from the gamma rows, and J o nabla_X J, which the
    DJ pairing of :mod:`wtw.twistor` reads in ints too.

:func:`nabla_j_checks` forms its five residuals from these arrays in ints,
and reads D J for the Weyl connection of theta from the int Weyl rows of
theta (:func:`wtw.connection.weyl_rows`, which shares its Kronecker terms
with the Weyl connection), so it builds no second spec.  A residual is handed
to :meth:`wtw.reports.CheckReport.require_zero` with its denominator, and
only the first nonzero entry of a failing one is lifted, to a Fraction, which
prints as the constant scalar of that value.  Scalars are lifted where a
reader takes them: N and theta, each nonzero entry once; Omega, the wedge
image of J (:func:`wtw.frame.wedge_iso`) and the one builder of that array,
which condition (ii) also reads as J^.  J itself is ``spec.J``, its
rationals.  Omega, like every 2-form, is an n x n nested tuple, and 3-forms
are n x n x n nested tuples, as N is.
"""

from __future__ import annotations

import math

from .connection import gamma_rows, weyl_rows
from .frame import (FrameSpec, GateError, Vector, _accumulate, _alternating, _antisymmetric,
                    _j_ints, _kept, wedge_iso)
from .reports import CheckReport


def _common(*dens: int) -> tuple[int, list[int]]:
    """The least common multiple of ``dens`` and the factor that brings each to it."""
    den = math.lcm(*dens)
    return den, [den // d for d in dens]


def _twist(cols: list, M) -> list:
    """M(J., J.) for an n x n int matrix M, over den_J^2 times M's denominator:
    entry (y, z) is sum_p J[p][y] m_z[p] with m_z = M(., J E_z), each sum walked
    over the support of a column of J as :meth:`wtw.frame.FrameSpec.twist` walks it."""
    m = [[sum(x * row[q] for q, x in col) for col in cols] for row in M]
    return [[sum(x * m[p][z] for p, x in col) for z in range(len(cols))] for col in cols]


def _derivative(rows: list, cols: list) -> list:
    """(D_{E_i} J) E_j = D_{E_i}(J E_j) - J(D_{E_i} E_j) for the connection with the
    int gamma rows ``rows``, laid out as :func:`wtw.connection.gamma_rows`:
    ``d[i][l][j]`` is entry (l, j) of D_{E_i} J over the product of the rows' and
    J's denominators, in the layout of :func:`wtw.connection.cov_deriv_endo`."""
    d = [[[0] * len(cols) for _ in cols] for _ in cols]
    for plane, out in zip(rows, d):
        for j, col in enumerate(cols):
            for k, x in col:  # J[k][j] D_{E_i} E_k
                for l, y in plane[k]:
                    out[l][j] += x * y
            for k, x in plane[j]:  # -gamma[i][j][k] J E_k
                for l, y in cols[k]:
                    out[l][j] -= x * y
    return d


@_kept
def fundamental_form(spec: FrameSpec) -> tuple[Vector, ...]:
    """Omega with Omega(E_i, E_j) = g(J E_i, E_j) = J[j][i], as an n x n array:
    the wedge image of J."""
    return tuple(tuple(map(spec.const, row)) for row in wedge_iso(spec.J))


@_kept
def nijenhuis(spec: FrameSpec):
    """The Nijenhuis tensor as components N[k][i][j] of N(E_i, E_j), plus a verdict."""
    den, comps = _nijenhuis_ints(spec)
    lifted = tuple(tuple(spec.lift(enumerate(row), den) for row in plane) for plane in comps)
    return lifted, not any(v for plane in comps for row in plane for v in row)


@_kept
def _nijenhuis_ints(spec: FrameSpec) -> tuple[int, tuple]:
    """N as ``(den, comps)``, ``comps[k][i][j]`` = den * N[k][i][j]."""
    n, ix = spec.n, range(spec.n)
    cden, rows = spec.bracket_rows()
    jden, cols = spec.j_columns()

    def pair(i, j):
        # -[Y, Z] + [JY, JZ] - J([Y, JZ] + [JY, Z]) for Y = E_i, Z = E_j, as
        # int numerators over cden * jden^2, the inner sum over cden * jden
        value: dict[int, int] = {}
        _accumulate(value, -jden * jden, rows[i][j])
        inner: dict[int, int] = {}
        for p, x in cols[i]:
            for q, y in cols[j]:
                _accumulate(value, x * y, rows[p][q])
            _accumulate(inner, x, rows[p][j])
        for q, y in cols[j]:
            _accumulate(inner, y, rows[i][q])
        for m, x in inner.items():
            _accumulate(value, -x, cols[m])
        return tuple(value.get(k, 0) for k in ix)

    # N(E_i, E_j) for the pairs i < j, stored as N[k][i][j]
    by_pair = _antisymmetric(n, (0,) * n, pair, lambda v: tuple(-x for x in v))
    return cden * jden * jden, tuple(tuple(tuple(by_pair[i][j][k] for j in ix) for i in ix)
                                     for k in ix)


@_kept
def lee_form(spec: FrameSpec) -> Vector:
    """The Lee form theta = -2/(n-2) delta Omega o J, whose components are those
    of B = 2/(n-2) J(delta J), lifted once from :func:`_lee_ints`."""
    den, theta = _lee_ints(spec)
    return spec.lift(enumerate(theta), den)


@_kept
def _lee_ints(spec: FrameSpec) -> tuple[int, list]:
    """theta as ``(den, theta)``, int numerators over (n - 2) * den_nablaJ * den_J:
    theta_l = 2/(n-2) sum_k (sum_i (nabla_{E_i} J)[k][i]) J[k][l], read from
    :func:`_nabla_j` and walked over the columns of J."""
    nden, nj = _nabla_j(spec)
    jden, cols = spec.j_columns()
    # minus delta J = sum_i (nabla_{E_i} J) E_i, and delta Omega is its 1-form
    trace = [sum(plane[k][i] for i, plane in enumerate(nj)) for k in range(spec.n)]
    return (spec.n - 2) * nden * jden, [2 * sum(trace[k] * x for k, x in col) for col in cols]


@_kept
def _d_omega(spec: FrameSpec) -> tuple[int, tuple]:
    """d(Omega) as ``(den, w)``, ``w[i][j][k]`` = den * dOmega(E_i, E_j, E_k): the cyclic
    sum of c[i][j][m] Omega[k][m] = c[i][j][m] J[m][k] over the nonzero bracket rows."""
    cden, rows = spec.bracket_rows()
    jden, J = _j_ints(spec)
    return cden * jden, _alternating(spec.n, 0, lambda i, j, k: sum(
        x * J[m][z] for a, b, z in ((i, j, k), (j, k, i), (k, i, j)) for m, x in rows[a][b]))


@_kept
def _lee_residual(spec: FrameSpec) -> tuple[int, tuple]:
    """d(Omega) - theta ^ Omega as ``(den, r)``, zero exactly when the Lee identity
    holds; (theta ^ Omega)(E_i, E_j, E_k) = theta_i J[k][j] + theta_j J[i][k] +
    theta_k J[j][i]."""
    dden, d_omega = _d_omega(spec)
    tden, theta = _lee_ints(spec)
    jden, J = _j_ints(spec)
    den, (scale, _) = _common(dden, tden * jden)
    return den, _alternating(spec.n, 0, lambda i, j, k: scale * d_omega[i][j][k] - (
        theta[i] * J[k][j] + theta[j] * J[i][k] + theta[k] * J[j][i]))


def lck_check(spec: FrameSpec) -> CheckReport:
    """Residuals of d Omega - theta ^ Omega, of d theta and of the Nijenhuis
    tensor, indexed N[k][i][j]: the E_k component of N(E_i, E_j)."""
    report = CheckReport(title="locally conformally Kaehler identities")
    basis = spec.basis
    den, residual = _lee_residual(spec)
    report.require_zero("d(Omega) = theta ^ Omega", residual, (basis,) * 3, den)
    cden, rows = spec.bracket_rows()
    tden, theta = _lee_ints(spec)
    # d theta(E_i, E_j) = -theta([E_i, E_j])
    d_theta = _antisymmetric(spec.n, 0, lambda i, j: -sum(x * theta[k] for k, x in rows[i][j]))
    report.require_zero("d(theta) = 0", d_theta, (basis,) * 2, cden * tden)
    den, comps = _nijenhuis_ints(spec)
    report.require_zero("Nijenhuis tensor vanishes", comps, (basis,) * 3, den)
    return report


@_kept
def require_gate(spec: FrameSpec) -> Vector:
    """Enforce the standing assumptions; returns the Lee form on success.  A
    passing verdict is kept on the spec; a failing one raises on every call."""
    if any(v for plane in _nijenhuis_ints(spec)[1] for row in plane for v in row):
        raise GateError("integrability assumption",
                        "the Nijenhuis tensor of J does not vanish")
    if any(v for plane in _lee_residual(spec)[1] for row in plane for v in row):
        raise GateError("Lee identity assumption",
                        "d(Omega) differs from theta ^ Omega")
    return lee_form(spec)


@_kept
def _nabla_j(spec: FrameSpec) -> tuple[int, list]:
    """The Levi-Civita nabla J as ``(den, d)``: ``d[x][l][j]`` = den * (nabla_{E_x} J)[l][j],
    read from the gamma rows and the columns of J."""
    gden, g = gamma_rows(spec)
    jden, cols = spec.j_columns()
    return gden * jden, _derivative(g, cols)


@_kept
def _j_nabla_j_ints(spec: FrameSpec) -> tuple[int, list]:
    """J o nabla_{E_x} J as ``(den, jd)``, laid out as :func:`_nabla_j`."""
    den, d = _nabla_j(spec)
    jden, cols = spec.j_columns()
    jd = [[[0] * spec.n for _ in cols] for _ in cols]
    for plane, out in zip(d, jd):
        for m, row in enumerate(plane):  # row m of nabla_{E_x} J enters J E_m
            for l, y in cols[m]:
                out[l] = [a + y * b for a, b in zip(out[l], row)]
    return den * jden, jd


def nabla_j_checks(spec: FrameSpec) -> CheckReport:
    """Exact checks of the nabla-J identities for the Levi-Civita connection.

    Verified identities:
      * 2 g((nabla_X J) Y, Z) = dOmega(X,Y,Z) - dOmega(X,JY,JZ) + g(N(Y,Z), JX);
      * Gray's integrability criterion (nabla_X J)(Y) = (nabla_{JX} J)(JY);
      * the closed form 2 (nabla_X J) Y = g(JX,Y) B - g(B,Y) JX + g(X,Y) JB
        - g(JB,Y) X, valid under the Lee identity;
      * (J nabla_X J)^wedge = 1/2 (B ^ X - JB ^ JX);
      * D J = 0 for the Weyl connection built from phi = theta.

    Every residual is formed in ints (see the module docstring).
    """
    report = CheckReport(title="nabla-J identities")
    ix = range(spec.n)
    axes = (spec.basis,) * 3
    require_gate(spec)
    tden, B = _lee_ints(spec)  # theta's components are the Lee vector's
    jden, J = _j_ints(spec)
    _, cols = spec.j_columns()
    nden, nj = _nabla_j(spec)
    dden, dom = _d_omega(spec)
    mden, ncomp = _nijenhuis_ints(spec)

    # dOmega(X, J., J.) is over dden * jden^2, and so dOmega is read there too
    twisted = [_twist(cols, plane) for plane in dom]
    den, (a, b, c) = _common(nden, dden * jden * jden, mden * jden)
    report.require_zero("nabla-J from d(Omega) and the Nijenhuis tensor", [[[
        2 * a * nj[x][z][y] - b * (jden * jden * dom[x][y][z] - twisted[x][y][z])
        - c * sum(v * ncomp[k][y][z] for k, v in cols[x])  # g(N(Y, Z), JX)
        for z in ix] for y in ix] for x in ix], axes, den)

    # twisted[z][x][y] = g((nabla_{JX} J)(JY), E_z)
    twisted = [_twist(cols, [plane[z] for plane in nj]) for z in ix]
    report.require_zero("Gray integrability criterion", [[[
        jden * jden * nj[x][z][y] - twisted[z][x][y] for z in ix] for y in ix] for x in ix],
        axes, nden * jden * jden)

    JB = [sum(x * y for x, y in zip(row, B)) for row in J]  # over jden * tden
    den, (a, b) = _common(nden, jden * tden)
    # 2 (nabla_X J) Y - g(JX, Y) B + g(B, Y) JX - g(X, Y) JB + g(JB, Y) X at E_l,
    # where g(J E_x, E_y) = J[y][x]
    report.require_zero("closed form of nabla-J through the Lee vector", [[[
        2 * a * nj[x][l][y] + b * (B[y] * J[l][x] - J[y][x] * B[l] - (x == y) * JB[l]
                                   + (l == x) * JB[y]) for l in ix] for y in ix] for x in ix],
        axes, den)

    jnden, jd = _j_nabla_j_ints(spec)
    den, (a, b, c) = _common(jnden, 2 * tden, 2 * tden * jden * jden)
    # (J nabla_X J)^ - 1/2 B ^ X + 1/2 JB ^ JX at (E_i, E_j); the wedge image is
    # the transpose
    report.require_zero("wedge image of J nabla-J through the Lee vector", [[[
        a * jd[x][j][i] - b * (B[i] * (j == x) - B[j] * (i == x))
        + c * (JB[i] * J[j][x] - JB[j] * J[i][x]) for j in ix] for i in ix] for x in ix],
        axes, den)

    wden, rows = weyl_rows(spec, tden, B)
    report.require_zero("J parallel for the Weyl connection of the Lee form",
                        _derivative(rows, cols), axes, wden * jden)
    return report
