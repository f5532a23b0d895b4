"""Hermitian-structure quantities: fundamental form, Nijenhuis tensor, Lee form.

The fundamental 2-form is ``Omega(X, Y) = g(JX, Y)``.  The Nijenhuis tensor

    N(Y, Z) = -[Y, Z] + [JY, JZ] - J[Y, JZ] - J[JY, Z]

vanishes identically exactly when J is integrable.  The Lee form is

    theta = -2/(n-2) * (delta Omega) o J.

In the orthonormal frame its dual vector, the Lee vector B, has theta's
components, so B is theta itself; the route ``B = 2/(n-2) * J(delta J)`` is
required to agree with it.  A structure is locally conformally Kaehler when
``d Omega = theta ^ Omega`` and ``d theta = 0``.

Codifferential convention (used here and, through the Leibniz identity
``delta(J*phi) - phi(delta J) = -sum_i (nabla_{E_i} phi)(J E_i)``, by the
closed Ricci formulas of :mod:`wtw.curvature`):
``delta omega = -sum_i (nabla_{E_i} omega)(E_i)`` for 1-forms and
``delta J = -sum_i (nabla_{E_i} J)(E_i)``; the sign is pinned by the
built-in geometries' Lee forms.  The Lee form forms no nabla J: delta Omega
and delta J are summed in ints from the Levi-Civita gamma rows
(:func:`wtw.connection.gamma_rows`) and the columns of J, the two routes are
compared exactly as int numerators over one denominator, and theta is lifted
to scalars once.  The tests compare theta with the trace of the nabla J that
:func:`wtw.connection.cov_deriv_endo` forms.

`require_gate` enforces the standing hypotheses of the pseudo-harmonicity
conditions: integrability of J and the Lee identity ``d Omega = theta ^
Omega``.  Violations raise :class:`GateError` naming the failed assumption;
the class lives in :mod:`wtw.frame`, so that the command line can catch it
without loading this module, and is re-exported here.  A passing verdict is
kept on the spec, so the n^3 Lee residual is scanned once however many
builders ask for the gate; a failing one is not kept and raises every time.

The fundamental form, the Nijenhuis tensor, the Lee form, d(Omega) and the
Lee-identity residual are computed once per spec and kept on it (see
:class:`wtw.frame.Memo`), so the gate and every check that needs them share
one computation.  Omega, N and theta are symbol-free.  Omega is the wedge
image of J (:func:`wtw.frame.wedge_iso`) lifted to scalars once, the one
builder of that array, which condition (ii) also reads as J^.  J itself is
``spec.J``, its rationals, wherever an endomorphism is taken: the nabla-J
checks and J o nabla J pass it as it is.  N is built from the spec's nonzero
bracket rows and J columns (see :mod:`wtw.frame`), as int numerators over one
denominator from its four brackets, each nonzero entry lifted to a scalar
once; N(E_i, E_j) is formed for the pairs i < j and mirrored by
``wtw.frame._antisymmetric``.  d(Omega) and the residual are evaluated on
increasing triples over the nonzero bracket rows and extended by
antisymmetry (``wtw.frame._alternating``).  Each of the three makes a kernel
call only on a triple where some product has two nonzero sides: d(Omega)
over the positions of the bracket rows where Omega is nonzero, theta ^ Omega
where a component of theta meets a nonzero entry of Omega, and the residual
where either side is nonzero; every other entry is the shared zero.

Omega, like every 2-form, is an n x n nested tuple, and 3-forms are plain
n x n x n nested tuples, as N is.  The two 3-form builders ``_d_twoform`` and
``_wedge_one_two`` are private: they read both halves of their 2-form, so they
need it antisymmetric, and their only callers pass Omega, which is.  J o
nabla_X J for the Levi-Civita connection is formed once per spec and kept on
it, for the nabla-J checks and the twistor layer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .connection import cov_deriv_endo, gamma_rows, levi_civita, weyl
from .frame import (FrameSpec, GateError, Vector, _accumulate, _alternating, _antisymmetric,
                    d_oneform, linear_combination, wedge_iso, wedge_oneforms)
from .polyalg import Scalar
from .reports import CheckReport


# -- 3-forms (constant components) ----------------------------------------

def _d_twoform(spec: FrameSpec, F):
    """dF(X,Y,Z) = -F([X,Y],Z) + F([X,Z],Y) - F([Y,Z],X) for invariant F.

    For an antisymmetric F, dF(E_i, E_j, E_k) is the cyclic sum
    ``sum_m c[i][j][m] F[k][m] + c[j][k][m] F[i][m] + c[k][i][m] F[j][m]``: one
    kernel call per increasing triple over the nonzero bracket rows, made only
    where F is nonzero at one of their positions.
    """
    _, rows = spec.bracket_rows()
    c, zero, dot = spec.c, spec.zero(), spec.ring.dot

    def entry(i, j, k):
        pairs = [(F[z][m], c[a][b][m]) for a, b, z in ((i, j, k), (j, k, i), (k, i, j))
                 for m, _ in rows[a][b] if F[z][m]]
        return dot(*zip(*pairs)) if pairs else zero

    return _alternating(spec.n, zero, entry)


def _wedge_one_two(spec: FrameSpec, alpha: Sequence[Scalar], F):
    """(alpha ^ F)(X,Y,Z) = alpha(X)F(Y,Z) - alpha(Y)F(X,Z) + alpha(Z)F(X,Y)
    for an antisymmetric F, where -F(X, Z) = F(Z, X); one kernel call per
    increasing triple where one of the three products has two nonzero sides."""
    dot, zero = spec.ring.dot, spec.zero()

    def entry(i, j, k):
        pairs = ((alpha[i], F[j][k]), (alpha[j], F[k][i]), (alpha[k], F[i][j]))
        return dot(*zip(*pairs)) if any(a and f for a, f in pairs) else zero

    return _alternating(spec.n, zero, entry)


def fundamental_form(spec: FrameSpec) -> tuple[Vector, ...]:
    """Omega with Omega(E_i, E_j) = g(J E_i, E_j) = J[j][i], as an n x n array:
    the wedge image of J."""
    return spec.memo(_fundamental_form)


def _fundamental_form(spec: FrameSpec) -> tuple[Vector, ...]:
    return tuple(tuple(map(spec.const, row)) for row in wedge_iso(spec.J))


def nijenhuis(spec: FrameSpec):
    """The Nijenhuis tensor as components N[k][i][j] of N(E_i, E_j), plus a verdict."""
    return spec.memo(_nijenhuis)


def _nijenhuis(spec: FrameSpec):
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
        return spec.lift(value.items(), cden * jden * jden)

    # N(E_i, E_j) for the pairs i < j, stored as N[k][i][j]
    by_pair = _antisymmetric(n, (spec.zero(),) * n, pair, lambda v: tuple(-x for x in v))
    comps = tuple(tuple(tuple(by_pair[i][j][k] for j in ix) for i in ix) for k in ix)
    integrable = all(entry.is_zero for plane in comps for row in plane for entry in row)
    return comps, integrable


def lee_form(spec: FrameSpec) -> Vector:
    """The Lee form theta from delta Omega composed with J, cross-checked
    against B = 2/(n-2) J(delta J); theta's components are B's."""
    return spec.memo(_lee_form)


def _lee_form(spec: FrameSpec) -> Vector:
    n = spec.n
    gden, g = gamma_rows(spec)
    jden, cols = spec.j_columns()
    entries = [dict(col) for col in cols]  # entries[i][p] = jden * J[p][i]
    # (nabla_i Omega)(E_j, E_k) = -sum_m gamma[i][j][m] Om[m][k] - gamma[i][k][m] Om[j][m],
    # so delta Omega(E_k) = sum_{i,m} gamma[i][i][m] J[k][m] + gamma[i][k][m] J[m][i]
    delta_omega: dict[int, int] = {}
    for i in range(n):
        for m, x in g[i][i]:
            _accumulate(delta_omega, x, cols[m])
        for k, row in enumerate(g[i]):
            delta_omega[k] = delta_omega.get(k, 0) + sum(x * entries[i].get(m, 0)
                                                         for m, x in row)
    # (nabla_i J) E_i = nabla_i (J E_i) - J nabla_i E_i, so delta J = -sum_i (nabla_i J) E_i
    # = sum_{i,k} gamma[i][i][k] J E_k - J[k][i] nabla_i E_k
    delta_j: dict[int, int] = {}
    for i in range(n):
        for k, x in g[i][i]:
            _accumulate(delta_j, x, cols[k])
        for k, y in cols[i]:
            _accumulate(delta_j, -y, g[i][k])
    # theta = -2/(n-2) delta Omega o J and B = 2/(n-2) J(delta J), both over
    # (n - 2) * gden * jden^2
    theta = [-2 * sum(delta_omega.get(k, 0) * x for k, x in col) for col in cols]
    b: dict[int, int] = {}
    for k, v in delta_j.items():
        _accumulate(b, 2 * v, cols[k])
    if theta != [b.get(l, 0) for l in range(n)]:
        raise AssertionError("Lee form routes disagree; codifferential convention broken")
    return spec.lift(enumerate(theta), (n - 2) * gden * jden * jden)


def _d_omega(spec: FrameSpec):
    return _d_twoform(spec, fundamental_form(spec))


def _lee_residual(spec: FrameSpec):
    """d(Omega) - theta ^ Omega, zero exactly when the Lee identity holds."""
    d_omega = spec.memo(_d_omega)
    wedge = _wedge_one_two(spec, lee_form(spec), fundamental_form(spec))
    zero = spec.zero()
    return _alternating(spec.n, zero, lambda i, j, k: (
        d_omega[i][j][k] - wedge[i][j][k] if d_omega[i][j][k] or wedge[i][j][k] else zero))


def lck_check(spec: FrameSpec) -> CheckReport:
    """Residuals of d Omega - theta ^ Omega, of d theta and of the Nijenhuis
    tensor, indexed N[k][i][j]: the E_k component of N(E_i, E_j)."""
    report = CheckReport(title="locally conformally Kaehler identities")
    basis = spec.basis
    report.require_zero("d(Omega) = theta ^ Omega", spec.memo(_lee_residual),
                        (basis,) * 3)
    report.require_zero("d(theta) = 0", d_oneform(spec, lee_form(spec)), (basis,) * 2)
    report.require_zero("Nijenhuis tensor vanishes", nijenhuis(spec)[0], (basis,) * 3)
    return report


def require_gate(spec: FrameSpec) -> Vector:
    """Enforce the standing assumptions; returns the Lee form on success.  A
    passing verdict is kept on the spec; a failing one raises on every call."""
    return spec.memo(_gate)


def _gate(spec: FrameSpec) -> Vector:
    _, integrable = nijenhuis(spec)
    if not integrable:
        raise GateError("integrability assumption",
                        "the Nijenhuis tensor of J does not vanish")
    if any(entry for plane in spec.memo(_lee_residual) for row in plane for entry in row):
        raise GateError("Lee identity assumption",
                        "d(Omega) differs from theta ^ Omega")
    return lee_form(spec)


def _j_nabla_j(spec: FrameSpec) -> tuple[tuple[Vector, ...], ...]:
    """J o nabla_{E_x} J for each frame vector E_x, nabla the Levi-Civita
    connection: the one place it is formed."""
    J = spec.J
    return tuple(spec.compose(J, d) for d in cov_deriv_endo(levi_civita(spec), J))


def nabla_j_checks(spec: FrameSpec) -> CheckReport:
    """Exact checks of the nabla-J identities for the Levi-Civita connection.

    Verified identities:
      * 2 g((nabla_X J) Y, Z) = dOmega(X,Y,Z) - dOmega(X,JY,JZ) + g(N(Y,Z), JX);
      * Gray's integrability criterion (nabla_X J)(Y) = (nabla_{JX} J)(JY);
      * the closed form 2 (nabla_X J) Y = g(JX,Y) B - g(B,Y) JX + g(X,Y) JB
        - g(JB,Y) X, valid under the Lee identity;
      * (J nabla_X J)^wedge = 1/2 (B ^ X - JB ^ JX);
      * D J = 0 for the Weyl connection built from phi = theta.
    """
    report = CheckReport(title="nabla-J identities")
    n = spec.n
    ix = range(n)
    axes = (spec.basis,) * 3
    B = require_gate(spec)  # theta's components are the Lee vector's
    lc = levi_civita(spec)
    J = spec.J
    nJ = cov_deriv_endo(lc, J)
    dom = spec.memo(_d_omega)
    ncomp, _ = nijenhuis(spec)

    residual = []
    for x, jx in enumerate(zip(*J)):
        twisted = spec.twist(dom[x])  # dOmega(X, J., J.)
        # g(N(Y, Z), JX)
        n_jx = [spec.left(jx, [plane[y] for plane in ncomp]) for y in ix]
        residual.append([[spec.dot((nJ[x][z][y], dom[x][y][z], twisted[y][z],
                                    n_jx[y][z]), (2, -1, 1, -1)) for z in ix] for y in ix])
    report.require_zero("nabla-J from d(Omega) and the Nijenhuis tensor", residual, axes)

    # twisted[z][x][y] = g((nabla_{JX} J)(JY), E_z)
    twisted = [spec.twist([nJ[p][z] for p in ix]) for z in ix]
    report.require_zero("Gray integrability criterion", [[[
        nJ[x][z][y] - twisted[z][x][y] for z in ix] for y in ix] for x in ix], axes)

    JB = spec.j_apply(B)
    minus_b = [-b for b in B]

    def closed_form(x, y, l):
        # 2 (nabla_X J) Y - g(JX, Y) B + g(B, Y) JX, where g(J E_x, E_y) = J[y][x]
        # and -J[l][x] = J[x][l]
        res = spec.dot((nJ[x][l][y], J[y][x], J[x][l]), (2, minus_b[l], minus_b[y]))
        if x == y:
            res = res - JB[l]
        if l == x:
            res = res + JB[y]
        return res

    report.require_zero("closed form of nabla-J through the Lee vector", [[[
        closed_form(x, y, l) for l in ix] for y in ix] for x in ix], axes)

    residual = []
    half = Fraction(1, 2)
    for x, (jn, jx) in enumerate(zip(spec.memo(_j_nabla_j), zip(*J))):
        ex = tuple(spec.const(1 if l == x else 0) for l in ix)
        residual.append(linear_combination(spec, (1, -half, half), (
            wedge_iso(jn), wedge_oneforms(spec, B, ex), wedge_oneforms(spec, JB, jx))))
    report.require_zero("wedge image of J nabla-J through the Lee vector", residual, axes)

    report.require_zero("J parallel for the Weyl connection of the Lee form",
                        cov_deriv_endo(weyl(spec.with_phi(B)), J), axes)
    return report
