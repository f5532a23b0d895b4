"""Curvature of both connections, Ricci and *-Ricci tensors, and identity checks.

Curvature sign convention (pinned by the worked-example tables):

    R(X, Y) = nabla_{[X, Y]} - [nabla_X, nabla_Y],

stored as ``r[i][j][k][l] = g(R(E_i, E_j) E_k, E_l)``.  The Ricci tensor of a
Weyl connection D is ``rho(X, Z) = Trace{Y -> g(R(X, Y) Z, Y)}`` and the
*-Ricci tensor is ``rho*(X, Z) = Trace{Y -> g(R(J Y, X) J Z, Y)}``; neither
is symmetric in general.

Two independent routes to the Weyl curvature are provided: directly from the
Weyl gammas, and from the Levi-Civita curvature via the Phi-correction
formula.  Their exact entrywise equality is part of the identity suite, which
also verifies the pair-symmetry identities, the first Bianchi identity, the
Ricci formulas in terms of Levi-Civita data, and both Ricci corollaries.

Each curvature tensor is computed once per connection and kept on it, and
rho and rho* are kept on their curvature tensor (see
:class:`wtw.frame.Memo`); the Phi-correction route builds a new
``Curvature`` every call, so the two routes never share a result.

Codifferential convention (used here and by the Lee form):
``delta omega = -sum_i (nabla_{E_i} omega)(E_i)`` for 1-forms and
``delta J = -sum_i (nabla_{E_i} J)(E_i)``; the sign is pinned by the built-in
geometries' Lee forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .connection import Connection, cov_deriv_endo, cov_deriv_oneform, levi_civita, weyl
from .frame import Endo, FrameSpec, Memo
from .polyalg import Scalar
from .reports import CheckReport


@dataclass(frozen=True)
class Curvature(Memo):
    spec: FrameSpec
    r: tuple  # r[i][j][k][l] = g(R(E_i,E_j)E_k, E_l)
    kind: str

    def __getitem__(self, key):
        i, j, k, l = key
        return self.r[i][j][k][l]

    def endo(self, i: int, j: int) -> Endo:
        """R(E_i, E_j) as an endomorphism (column convention)."""
        n = self.spec.n
        return Endo(self.spec, [[self.r[i][j][k][l] for k in range(n)]
                                for l in range(n)])


def curvature(conn: Connection) -> Curvature:
    """R(E_i,E_j)E_k = sum_m c[i][j][m] nabla_{E_m} E_k
    - nabla_{E_i} nabla_{E_j} E_k + nabla_{E_j} nabla_{E_i} E_k."""
    return conn.memo(_curvature)


def _curvature(conn: Connection) -> Curvature:
    spec = conn.spec
    n = spec.n
    g = conn.gamma
    by_k = [[g[m][k] for m in range(n)] for k in range(n)]  # by_k[k][m][l] = g[m][k][l]
    zero = tuple((spec.zero(),) * n for _ in range(n))
    r = [[zero] * n for _ in range(n)]
    # R(X, Y) = -R(Y, X): form each pair i < j once
    for i in range(n):
        for j in range(i + 1, n):
            block = tuple(tuple(a - b + c for a, b, c in zip(
                spec.left(spec.c[i][j], by_k[k]), spec.left(g[j][k], g[i]),
                spec.left(g[i][k], g[j]))) for k in range(n))
            r[i][j] = block
            r[j][i] = tuple(tuple(-value for value in row) for row in block)
    return Curvature(spec, tuple(tuple(row) for row in r), conn.kind)


def phi_tensor(spec: FrameSpec):
    """Phi(E_i, E_j) = (nabla_{E_i} phi)(E_j) + 1/2 phi_i phi_j - 1/4 |phi|^2 delta_ij."""
    n = spec.n
    lc = levi_civita(spec)
    nphi = cov_deriv_oneform(lc, spec.phi)
    norm2 = spec.dot(spec.phi, spec.phi)
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    return tuple(tuple(
        nphi[i][j] + half * (spec.phi[i] * spec.phi[j])
        - (quarter * norm2 if i == j else spec.zero())
        for j in range(n)) for i in range(n))


def weyl_curvature_via_formula(spec: FrameSpec) -> Curvature:
    """Weyl curvature assembled from the Levi-Civita curvature and Phi.

    This is the second, independent route; it must agree entrywise with
    ``curvature(weyl(spec))`` and serves as that computation's oracle.
    """
    n = spec.n
    rg = curvature(levi_civita(spec))
    half_phi = [[value * Fraction(1, 2) for value in row] for row in phi_tensor(spec)]
    r = [[[[spec.zero()] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    # the Phi-correction sits where two indices coincide
                    value = rg.r[i][j][k][l]
                    if k == l:
                        value = value + half_phi[i][j] - half_phi[j][i]
                    if j == l:
                        value = value + half_phi[i][k]
                    if i == l:
                        value = value - half_phi[j][k]
                    if i == k:
                        value = value + half_phi[j][l]
                    if j == k:
                        value = value - half_phi[i][l]
                    r[i][j][k][l] = value
    return Curvature(spec, tuple(tuple(tuple(tuple(row) for row in plane)
                                       for plane in block) for block in r), "weyl")


def ricci(R: Curvature):
    """rho[i][k] = sum_j r[i][j][k][j]."""
    return R.memo(_ricci)


def _ricci(R: Curvature):
    spec = R.spec
    n = spec.n
    return tuple(tuple(sum((R.r[i][j][k][j] for j in range(n)), spec.zero())
                       for k in range(n)) for i in range(n))


def star_ricci(R: Curvature):
    """rho*[i][k] = sum_j g(R(J E_j, E_i) J E_k, E_j), expanded through J."""
    return R.memo(_star_ricci)


def _star_ricci(R: Curvature):
    spec = R.spec
    out = []
    for i in range(spec.n):
        # x[q] = sum_{p,j} J[p][j] r[p][i][q][j] = Trace{Y -> g(R(JY, E_i) E_q, Y)}
        parts = [spec.right(R.r[p][i], row) for p, row in enumerate(spec.J)]
        x = [sum(column, spec.zero()) for column in zip(*parts)]
        out.append(spec.left(x, spec.J))
    return tuple(out)


# -- codifferentials -------------------------------------------------------

def codifferential_oneform(spec: FrameSpec, omega) -> Scalar:
    """delta omega = -sum_i (nabla_{E_i} omega)(E_i) for the Levi-Civita connection."""
    lc = levi_civita(spec)
    nom = cov_deriv_oneform(lc, omega)
    return -sum((nom[i][i] for i in range(spec.n)), spec.zero())


def codifferential_endo(spec: FrameSpec, S):
    """delta S = -sum_i (nabla_{E_i} S)(E_i), a vector of scalars."""
    lc = levi_civita(spec)
    nS = cov_deriv_endo(lc, S)
    n = spec.n
    return tuple(-sum((nS[i].comps[l][i] for i in range(n)), spec.zero())
                 for l in range(n))


# -- identity suite ---------------------------------------------------------

def identity_suite(spec: FrameSpec) -> CheckReport:
    """Exact residuals of the curvature identities for the Weyl connection.

    Checks: pair symmetry traded for d phi (Z-T), the six-term exchange
    identity (XY-ZT), the first Bianchi identity, agreement of the two Weyl
    curvature routes, the antisymmetric part of rho being (n/2) d phi, and
    the twisted-symmetry defect of rho* being d phi(X,Z) + d phi(JX,JZ).
    """
    report = CheckReport(title="curvature identities")
    n = spec.n
    RD = curvature(weyl(spec))
    dphi = spec.dphi()
    J = spec.J

    ok = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    res = RD.r[i][j][k][l] + RD.r[i][j][l][k]
                    if k == l:
                        res = res - dphi.comps[i][j]
                    if not res.is_zero:
                        ok = False
    report.add("pair-symmetry against d(phi) [Z-T]", ok)

    ok = True
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    res = (RD.r[i][j][k][l] - RD.r[k][l][i][j]) * 2
                    # minus d(phi)_ij d_kl - d(phi)_kl d_ij + d(phi)_ik d_jl
                    #   + d(phi)_jl d_ik - d(phi)_jk d_il - d(phi)_il d_jk
                    if k == l:
                        res = res - dphi.comps[i][j]
                    if i == j:
                        res = res + dphi.comps[k][l]
                    if j == l:
                        res = res - dphi.comps[i][k]
                    if i == k:
                        res = res - dphi.comps[j][l]
                    if i == l:
                        res = res + dphi.comps[j][k]
                    if j == k:
                        res = res + dphi.comps[i][l]
                    if not res.is_zero:
                        ok = False
    report.add("argument-pair exchange against d(phi) [XY-ZT]", ok)

    ok = all((RD.r[i][j][k][l] + RD.r[j][k][i][l] + RD.r[k][i][j][l]).is_zero
             for i in range(n) for j in range(n) for k in range(n) for l in range(n))
    report.add("first Bianchi identity", ok)

    via = weyl_curvature_via_formula(spec)
    ok = all((RD.r[i][j][k][l] - via.r[i][j][k][l]).is_zero
             for i in range(n) for j in range(n) for k in range(n) for l in range(n))
    report.add("direct Weyl curvature equals Phi-correction formula", ok)

    rho = ricci(RD)
    half_n = Fraction(n, 2)
    ok = all((rho[i][k] - rho[k][i] - half_n * dphi.comps[i][k]).is_zero
             for i in range(n) for k in range(n))
    report.add("antisymmetric part of rho equals (n/2) d(phi)", ok)

    rho_star = star_ricci(RD)
    jstar_phi = spec.left(spec.phi, J)
    codiff_term = (codifferential_oneform(spec, jstar_phi)
                   - spec.dot(spec.phi, codifferential_endo(spec, spec.j_endo())))
    twisted = spec.twist(rho_star)
    jdphi = spec.twist(dphi.comps)
    ok = True
    for i in range(n):
        for k in range(n):
            # rho*(X,Z) - rho*(JZ,JX) = dphi(X,Z) + dphi(JX,JZ)
            #                           + (delta(J*phi) - phi(delta J)) g(X,JZ)
            res = rho_star[i][k] - twisted[k][i] - dphi.comps[i][k] - jdphi[i][k]
            if J[i][k]:
                res = res + codiff_term * J[i][k]
            if not res.is_zero:
                ok = False
    report.add("twisted-symmetry defect of rho* from d(phi) and codifferentials", ok)
    report.notes["rho_star_defect"] = (
        "rho*(X,Z) - rho*(JZ,JX) = dphi(X,Z) + dphi(JX,JZ)"
        " + (delta(J*phi) - phi(delta J)) * g(X,JZ)")
    return report


def ricci_formula_check(spec: FrameSpec) -> CheckReport:
    """Residuals of the two closed formulas expressing rho and rho* of the Weyl
    connection through Levi-Civita data.

    The rho* formula carries the term ``(delta(J*phi) - phi(delta J)) *
    g(X, JZ)`` whose sign depends on the codifferential convention; with the
    convention committed here the coefficient is -1/2, and only -1/2 is
    checked: the check fails if that sign does not fit.  The notes record
    the term as checked.
    """
    report = CheckReport(title="Ricci closed formulas")
    n = spec.n
    lc = levi_civita(spec)
    RD = curvature(weyl(spec))
    Rg = curvature(lc)
    rho = ricci(RD)
    rho_g = ricci(Rg)
    rho_star = star_ricci(RD)
    rho_star_g = star_ricci(Rg)
    nphi = cov_deriv_oneform(lc, spec.phi)
    norm2 = spec.dot(spec.phi, spec.phi)
    delta_phi = codifferential_oneform(spec, spec.phi)
    J = spec.J

    ok = True
    for i in range(n):
        for k in range(n):
            value = rho_g[i][k] + Fraction(n - 1, 2) * nphi[i][k] - Fraction(1, 2) * nphi[k][i]
            if i == k:
                value = value - Fraction(n - 2, 4) * norm2 - Fraction(1, 2) * delta_phi
            value = value + Fraction(n - 2, 4) * (spec.phi[i] * spec.phi[k])
            if not (rho[i][k] - value).is_zero:
                ok = False
    report.add("rho of the Weyl connection from Levi-Civita data", ok)

    delta_jstar = codifferential_oneform(spec, spec.left(spec.phi, J))
    phi_delta_j = spec.dot(spec.phi, codifferential_endo(spec, spec.j_endo()))
    jphi = spec.j_apply(spec.phi)
    twisted = spec.twist(nphi)

    ok = True
    for i in range(n):
        for k in range(n):
            value = rho_star_g[i][k] + nphi[i][k]
            value = value - Fraction(1, 2) * (nphi[k][i] - twisted[i][k])
            value = value + Fraction(1, 4) * (spec.phi[i] * spec.phi[k] + jphi[i] * jphi[k])
            if i == k:
                value = value - Fraction(1, 4) * norm2
            if J[i][k]:
                value = value - Fraction(1, 2) * (delta_jstar - phi_delta_j) * J[i][k]
            if not (rho_star[i][k] - value).is_zero:
                ok = False
    report.add("rho* of the Weyl connection from Levi-Civita data", ok)
    report.notes["jstar_term_sign"] = "-1/2 * (delta(J*phi) - phi(delta J)) * g(X, JZ)"
    return report
