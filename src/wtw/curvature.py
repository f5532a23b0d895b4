"""Curvature of both connections, Ricci and *-Ricci tensors, and identity checks.

Curvature sign convention (pinned by the worked-example tables):

    R(X, Y) = nabla_{[X, Y]} - [nabla_X, nabla_Y],

stored as ``r[i][j][k][l] = g(R(E_i, E_j) E_k, E_l)``.  The Ricci tensor of a
Weyl connection D is ``rho(X, Z) = Trace{Y -> g(R(X, Y) Z, Y)}`` and the
*-Ricci tensor is ``rho*(X, Z) = Trace{Y -> g(R(J Y, X) J Z, Y)}``; neither
is symmetric in general.

The Weyl curvature is formed directly from the Weyl gammas.  The identity
suite checks it entry by entry against the Phi-correction formula, the
Levi-Civita curvature plus terms of Phi where two indices coincide, and also
verifies the pair-symmetry identities, the first Bianchi identity and both
Ricci corollaries.  The tensor Phi of :func:`phi_tensor`, which holds all the
first-order phi data, feeds both Levi-Civita routes: the Phi-correction of
the curvature, and the closed Ricci formulas of :func:`ricci_via_formula`,
which are its traces.  :func:`ricci_formula_check`, their one reader,
verifies those formulas against the traces of the direct route.  Condition
(ii) of :mod:`wtw.pseudoharmonic` reads neither Phi nor the formulas: it
expands them in phi from ints.  Phi reads nabla phi from the nonzero
gamma rows of :func:`wtw.connection.gamma_rows`, each entry one kernel call,
so the closed formulas lift no Levi-Civita gamma.

The Levi-Civita curvature R_g is rational.  It is formed once per spec in
ints, from the bracket rows and the gamma rows of :mod:`wtw.connection`, over
the one denominator ``(2 den_c)^2`` with ``den_c`` the bracket denominator;
rho_g and rho*_g are traced from it in ints (``_ricci_ints``), rho*_g
through the columns of J, over one denominator and kept: condition (ii)
reads them as ints, and the closed formulas lift each once, where phi first
enters.  ``curvature(levi_civita(spec))`` is the lift of that tensor, so the
polynomial contraction of the gammas serves the Weyl connection alone.
Each check therefore compares the two layers: the Phi-correction and the
closed formulas read the rational R_g, and the direct Weyl curvature and its
traces the contraction of the Weyl gammas.

R(X, Y) = -R(Y, X), so each curvature tensor is built by
``wtw.frame._antisymmetric``, which forms the blocks of the pairs i < j and
stores their negations at (j, i): the direct route (:func:`curvature`) and R_g
(``_levi_civita_r``).  The identity suite forms each of its n^4 residuals
through the same builder, except the first Bianchi residual, which
alternates in three indices and is built by ``wtw.frame._alternating`` (see
:func:`identity_suite`).  Each of its six identities is a tuple of terms,
which one builder, ``_identity``, turns into the function of one entry: at
most one kernel call, and none where every term is the ring's shared zero.

Each curvature tensor is kept on its connection, and rho and rho* on their
curvature tensor, by the one decorator of kept values,
:func:`wtw.frame._kept`.  The blocks ``r[i][j]`` of a curvature tensor are
the one array of R(E_i, E_j): the twistor layer reads R(E_i, E_j) as an
endomorphism as their transpose.  Phi, the closed formulas, R_g and its
traces are kept on the spec.  Neither the Phi-correction nor
:func:`ricci_via_formula` reads a Weyl gamma, so neither shares a result
with the direct route.
"""

from __future__ import annotations

from fractions import Fraction

from .connection import Connection, gamma_rows, levi_civita, weyl
from .frame import (FrameSpec, Memo, _accumulate, _alternating, _antisymmetric, _j_ints, _kept,
                    _kron, _negative)
from .polyalg import Scalar
from .reports import CheckReport


class Curvature(Memo):
    def __init__(self, spec: FrameSpec, r: tuple):
        # r[i][j][k][l] = g(R(E_i,E_j)E_k, E_l)
        self.__dict__.update(spec=spec, r=r)


@_kept
def curvature(conn: Connection) -> Curvature:
    """R(E_i,E_j)E_k = sum_m c[i][j][m] nabla_{E_m} E_k
    - nabla_{E_i} nabla_{E_j} E_k + nabla_{E_j} nabla_{E_i} E_k; for the Levi-Civita
    connection, the lift of the rational R_g kept on the spec."""
    spec = conn.spec
    if conn.kind == "levi-civita":
        # R_g is rational: the lift of the int tensor kept on the spec
        den, rg = _levi_civita_r(spec)
        return Curvature(spec, tuple(tuple(tuple(spec.lift(row.items(), den) for row in block)
                                           for block in plane) for plane in rg))
    n = spec.n
    g = conn.gamma
    neg = conn.negated()
    by_k = [tuple(g[m][k] for m in range(n)) for k in range(n)]  # by_k[k][m][l] = g[m][k][l]
    # R(X, Y) = -R(Y, X): form each pair i < j once.  Entry l of row k is
    # sum_m c[i][j][m] g[m][k][l] - g[j][k][m] g[i][m][l] + g[i][k][m] g[j][m][l],
    # one contraction of the three coefficient rows against the three planes.
    return Curvature(spec, _antisymmetric(n, _zero_block(spec), lambda i, j: tuple(
        spec.left(spec.c[i][j] + neg[j][k] + g[i][k], by_k[k] + g[i] + g[j]) for k in range(n)),
        _negative))


def _zero_block(spec: FrameSpec) -> tuple:
    return ((spec.zero(),) * spec.n,) * spec.n


@_kept
def _levi_civita_r(spec: FrameSpec) -> tuple[int, tuple]:
    """R_g as ``(den, r)``, ints over ``den = (2 den_c)^2``: ``r[i][j][k]`` maps l
    to den * g(R(E_i, E_j) E_k, E_l), read from the bracket and gamma rows."""
    n = spec.n
    _, c = spec.bracket_rows()
    den, g = gamma_rows(spec)

    def row(i, j, k):
        # sum_m c[i][j][m] g[m][k][l] - g[j][k][m] g[i][m][l] + g[i][k][m] g[j][m][l],
        # where c is over den / 2
        acc: dict[int, int] = {}
        for m, x in c[i][j]:
            _accumulate(acc, 2 * x, g[m][k])
        for m, x in g[j][k]:
            _accumulate(acc, -x, g[i][m])
        for m, x in g[i][k]:
            _accumulate(acc, x, g[j][m])
        return acc

    # R(X, Y) = -R(Y, X): form each pair i < j once
    return den * den, _antisymmetric(
        n, ({},) * n, lambda i, j: tuple(row(i, j, k) for k in range(n)),
        lambda block: tuple({l: -v for l, v in acc.items()} for acc in block))


@_kept
def _ricci_ints(spec: FrameSpec) -> tuple[int, list, list]:
    """rho_g and rho*_g as ``(den, rho, rho_star)``, int numerators over one
    ``den = (2 den_c)^2 den_J^2`` traced from R_g: rho_g[i][k] = sum_j
    r[i][j][k][j], and rho*_g[i][k] = sum_{p,q,l} J[p][l] J[q][k] r[p][i][q][l]
    read from the int J."""
    n = spec.n
    den, r = _levi_civita_r(spec)
    jden, J = _j_ints(spec)
    # one pass over the nonzero entries r[p][i][q][l]: rho_g[p][q] takes those
    # with l = i, and x[i][q] = sum_{p,l} J[p][l] r[p][i][q][l], over den * jden
    rho = [[0] * n for _ in range(n)]
    x = [[0] * n for _ in range(n)]
    for p, plane in enumerate(r):
        for i, block in enumerate(plane):
            for q, row in enumerate(block):
                for l, v in row.items():
                    if l == i:
                        rho[p][q] += v
                    x[i][q] += J[p][l] * v
    scale = jden * jden
    return (den * scale, [[scale * v for v in row] for row in rho],
            [[sum(a * b for a, b in zip(xi, col)) for col in zip(*J)] for xi in x])


@_kept
def phi_tensor(spec: FrameSpec):
    """Phi(E_i, E_j) = (nabla_{E_i} phi)(E_j) + 1/2 phi_i phi_j - 1/4 |phi|^2 delta_ij,
    kept on the spec.  Each entry is one kernel call, with (nabla_{E_i} phi)(E_j) =
    -sum_k gamma[i][j][k] phi_k read from the nonzero gamma row (i, j)."""
    n, phi = spec.n, spec.phi
    den, g = gamma_rows(spec)
    half_phi = [value * Fraction(1, 2) for value in phi]
    quarter_norm2 = spec.dot(phi, phi) * Fraction(1, 4)
    return tuple(tuple(spec.dot([phi[k] for k, _ in row] + [phi[i], quarter_norm2],
                                [Fraction(-v, den) for _, v in row] + [half_phi[j], -_kron(i, j)])
                       for j, row in enumerate(g[i])) for i in range(n))


@_kept
def _phi_on_j(spec: FrameSpec) -> Scalar:
    """<Phi, J> = sum_{p,q} J[p][q] Phi[p][q] = -sum_i (nabla_{E_i} phi)(J E_i),
    which is delta(J*phi) - phi(delta J) by the Leibniz rule."""
    return spec.dot([x for row in spec.J for x in row],
                    [value for row in phi_tensor(spec) for value in row])


def _pair_antisymmetric(spec: FrameSpec, entry) -> tuple:
    """The n^4 array of ``entry(i, j, k, l)`` when it is antisymmetric in
    (i, j): the block (k, l) of each pair i < j is formed once and mirrored."""
    ix = range(spec.n)
    return _antisymmetric(spec.n, _zero_block(spec), lambda i, j: tuple(
        tuple(entry(i, j, k, l) for l in ix) for k in ix), _negative)


@_kept
def ricci(R: Curvature):
    """rho[i][k] = sum_j r[i][j][k][j]."""
    spec = R.spec
    n = spec.n
    return tuple(tuple(spec.ring.sum(R.r[i][j][k][j] for j in range(n))
                       for k in range(n)) for i in range(n))


@_kept
def star_ricci(R: Curvature):
    """rho*[i][k] = sum_j g(R(J E_j, E_i) J E_k, E_j), expanded through J."""
    spec = R.spec
    out = []
    for i in range(spec.n):
        # x[q] = sum_{p,j} J[p][j] r[p][i][q][j] = Trace{Y -> g(R(JY, E_i) E_q, Y)}
        parts = [spec.right(R.r[p][i], row) for p, row in enumerate(spec.J)]
        x = [spec.ring.sum(column) for column in zip(*parts)]
        out.append(spec.left(x, spec.J))
    return tuple(out)


@_kept
def ricci_via_formula(spec: FrameSpec):
    """(rho, rho*) of the Weyl connection from Levi-Civita data, kept on the spec.

    They are the traces of the Phi-correction of the Weyl curvature, which
    :func:`identity_suite` checks entry by entry, summed over j for rho and
    over the J-twisted (j, k) for rho*:

        rho(X, Z) = rho_g(X, Z) + (n-1)/2 Phi(X, Z) - 1/2 Phi(Z, X)
                    + 1/2 tr(Phi) g(X, Z)
        rho*(X, Z) = rho*_g(X, Z) + Phi(X, Z) - 1/2 Phi(Z, X) + 1/2 Phi(JX, JZ)
                     - 1/2 <Phi, J> g(X, JZ)

    with ``<Phi, J> = sum_{p,q} J[p][q] Phi[p][q]``.  Expanded through Phi, they
    are the formulas of the paper:

        rho(X, Z) = rho_g(X, Z) + (n-1)/2 (nabla_X phi)Z - 1/2 (nabla_Z phi)X
                    + (n-2)/4 (phi(X) phi(Z) - |phi|^2 g(X, Z)) - 1/2 delta(phi) g(X, Z)
        rho*(X, Z) = rho*_g(X, Z) + (nabla_X phi)Z - 1/2 (nabla_Z phi)X
                     + 1/2 (nabla_JX phi)JZ + 1/4 (phi(X) phi(Z) + phi(JX) phi(JZ)
                     - |phi|^2 g(X, Z)) - 1/2 (delta(J*phi) - phi(delta J)) g(X, JZ)

    where ``tr(Phi) = -delta(phi) - (n-2)/4 |phi|^2`` and, as the phi phi and g
    parts of Phi drop out against the skew J, the Leibniz rule gives
    ``<Phi, J> = -sum_i (nabla_{E_i} phi)(J E_i) = delta(J*phi) - phi(delta J)``.

    rho_g and rho*_g are the int traces of the rational Levi-Civita curvature,
    lifted here, and each entry is one ``Ring.dot``.  It reads no Weyl gamma or
    Weyl curvature, so :func:`ricci_formula_check` compares two computations.
    """
    n, ix = spec.n, range(spec.n)
    den, *traces = _ricci_ints(spec)
    rho_g, rho_star_g = ([spec.lift(enumerate(row), den) for row in t] for t in traces)
    Phi, J = phi_tensor(spec), spec.J
    twisted = spec.twist(Phi)
    half, minus_half = Fraction(1, 2), Fraction(-1, 2)
    lead = Fraction(n - 1, 2)  # of Phi(X, Z) in rho
    # the coefficient of g(X, Z) in rho, and of g(X, JZ) in rho*
    g_rho = spec.ring.sum(Phi[i][i] for i in ix) * half
    gj_rho_star = _phi_on_j(spec) * minus_half
    rho = tuple(tuple(spec.dot((rho_g[i][k], Phi[i][k], Phi[k][i], g_rho),
                               (1, lead, minus_half, _kron(i, k))) for k in ix) for i in ix)
    rho_star = tuple(tuple(spec.dot(
        (rho_star_g[i][k], Phi[i][k], Phi[k][i], twisted[i][k], gj_rho_star),
        (1, 1, minus_half, half, J[i][k])) for k in ix) for i in ix)
    return rho, rho_star


# -- identity suite ---------------------------------------------------------

def _identity(spec: FrameSpec, terms):
    """The entry function of the residual sum_t weight_t array_t[indices_t].

    Each term is ``(weight, array, indices)`` or ``(weight, array, indices,
    delta)``: ``indices`` names the letters of ``ijkl`` at which the array is
    read, in order, and the letter pair ``delta`` keeps the term only where
    its two indices agree, a Kronecker delta.  The entry function takes one
    index per letter, in the order ijkl.  Each entry is one kernel call over
    the kept terms whose value is not the ring's shared zero, and that zero,
    with no call, where none is left; a term whose weight is that zero is
    dropped once.  The identity test decides only whether a call is made: a
    zero that is another object still reaches the kernel, which is exact.
    """
    zero, dot, position = spec.zero(), spec.ring.dot, "ijkl".index
    # an ungated term compares i with itself
    compiled = [(weight, array, tuple(map(position, indices)),
                 *map(position, delta[0] if delta else "ii"))
                for weight, array, indices, *delta in terms if weight is not zero]

    def entry(*at):
        values, weights = [], []
        for weight, value, positions, a, b in compiled:
            if at[a] != at[b]:
                continue
            for p in positions:
                value = value[at[p]]
            if value is not zero:
                values.append(value)
                weights.append(weight)
        return dot(values, weights) if values else zero

    return entry


def identity_suite(spec: FrameSpec) -> CheckReport:
    """Exact residuals of the curvature identities for the Weyl connection.

    Checks: pair symmetry traded for d phi (Z-T), the six-term exchange
    identity (XY-ZT), the first Bianchi identity, the direct Weyl curvature
    against the Phi-correction formula, the antisymmetric part of rho being
    (n/2) d phi, and the twisted-symmetry defect of rho* being
    d phi(X,Z) + d phi(JX,JZ).  Each residual is data: a tuple of terms
    ``(weight, array, indices[, delta])`` over the letters ijkl, which the one
    builder ``_identity`` turns into its entry function.  A term with a delta
    pair is read only where its two indices agree, and each entry is at most
    one kernel call, over the terms that are not the ring's shared zero: an
    entry where every term is that zero makes no call.  The Phi-correction
    side reads R_g and Phi, and no Weyl gamma:

        R(E_i, E_j, E_k, E_l) = R_g(E_i, E_j, E_k, E_l)
            + 1/2 (Phi_ij - Phi_ji) d_kl + 1/2 Phi_ik d_jl - 1/2 Phi_jk d_il
            + 1/2 Phi_jl d_ik - 1/2 Phi_il d_jk.

    The four n^4 residuals are built by ``wtw.frame._antisymmetric`` and
    ``_alternating``: one entry of each mirrored set is formed and the others
    are stored as it or as its negation, which they equal exactly, and the
    entries the builders set to zero vanish too.  So every residual array is
    the full one, and a failure prints the same count, first index and
    residual as an entrywise evaluation would:

    * pair symmetry and the Phi-correction residual are antisymmetric in
      (i, j), as the direct Weyl curvature and R_g store r[j][i] = -r[i][j],
      each Phi term changes sign with (i, j), and ``d_oneform`` gives an
      antisymmetric d phi with a zero diagonal;
    * the first Bianchi sum alternates in (i, j, k), so it is formed for
      i < j < k: at a cyclic image it is the same three terms, at (j, i, k)
      its three terms each negated, and with two indices equal a term r[i][i]
      = 0 and two opposite ones;
    * the exchange residual at (k, l, i, j) is minus its value at (i, j, k, l)
      for any r, given d phi antisymmetric, so it is formed for the pair
      index (i, j) < (k, l) and checked as an n^2 x n^2 array labelled by
      the pairs, which prints the same index as the n^4 one;
    * the n^2 residual rho_ij - rho_ji - (n/2) dphi_ij is antisymmetric for
      any rho, and d phi has a zero diagonal, so it too is formed for i < j.
    """
    report = CheckReport(title="curvature identities")
    n = spec.n
    ix = range(n)
    axes = (spec.basis,) * 4
    half = Fraction(1, 2)
    RD = curvature(weyl(spec))
    r = RD.r
    dphi = spec.dphi()

    report.require_zero("pair-symmetry against d(phi) [Z-T]", _pair_antisymmetric(
        spec, _identity(spec, ((1, r, "ijkl"), (1, r, "ijlk"), (-1, dphi, "ij", "kl")))), axes)

    exchange = _identity(spec, (
        (2, r, "ijkl"), (-2, r, "klij"), (-1, dphi, "ij", "kl"), (1, dphi, "kl", "ij"),
        (-1, dphi, "ik", "jl"), (-1, dphi, "jl", "ik"), (1, dphi, "jk", "il"),
        (1, dphi, "il", "jk")))
    # antisymmetric in the pair index p = i n + j against q = k n + l
    pairs = [f"{a},{b}" for a in spec.basis for b in spec.basis]
    report.require_zero("argument-pair exchange against d(phi) [XY-ZT]", _antisymmetric(
        n * n, spec.zero(), lambda p, q: exchange(*divmod(p, n), *divmod(q, n))), (pairs,) * 2)

    bianchi = _identity(spec, ((1, r, "ijkl"), (1, r, "jkil"), (1, r, "kijl")))
    report.require_zero("first Bianchi identity", _alternating(
        n, (spec.zero(),) * n, lambda i, j, k: tuple(bianchi(i, j, k, l) for l in ix),
        lambda row: tuple(-x for x in row)), axes)

    Phi = phi_tensor(spec)
    report.require_zero("direct Weyl curvature equals Phi-correction formula",
                        _pair_antisymmetric(spec, _identity(spec, (
                            (1, r, "ijkl"), (-1, curvature(levi_civita(spec)).r, "ijkl"),
                            (-half, Phi, "ij", "kl"), (half, Phi, "ji", "kl"),
                            (-half, Phi, "ik", "jl"), (half, Phi, "jk", "il"),
                            (-half, Phi, "jl", "ik"), (half, Phi, "il", "jk")))), axes)

    rho = ricci(RD)
    rho_asym = _identity(spec, ((1, rho, "ij"), (-1, rho, "ji"), (Fraction(-n, 2), dphi, "ij")))
    report.require_zero("antisymmetric part of rho equals (n/2) d(phi)",
                        _antisymmetric(n, spec.zero(), rho_asym), axes)

    # rho*(X,Z) - rho*(JZ,JX) = dphi(X,Z) + dphi(JX,JZ)
    #                           + (delta(J*phi) - phi(delta J)) g(X,JZ)
    rho_star = star_ricci(RD)
    # J as scalars, whose zeros are the shared zero, which _identity skips
    j_scalars = tuple(tuple(map(spec.const, row)) for row in spec.J)
    star_defect = _identity(spec, (
        (1, rho_star, "ij"), (-1, spec.twist(rho_star), "ji"), (-1, dphi, "ij"),
        (-1, spec.twist(dphi), "ij"), (_phi_on_j(spec), j_scalars, "ij")))
    report.require_zero("twisted-symmetry defect of rho* from d(phi) and codifferentials",
                        [[star_defect(i, k) for k in ix] for i in ix], axes)
    report.notes["rho_star_defect"] = (
        "rho*(X,Z) - rho*(JZ,JX) = dphi(X,Z) + dphi(JX,JZ)"
        " + (delta(J*phi) - phi(delta J)) * g(X,JZ)")
    return report


def ricci_formula_check(spec: FrameSpec) -> CheckReport:
    """Residuals of the closed formulas of :func:`ricci_via_formula`, which read
    Phi and the Levi-Civita rho_g and rho*_g, against the traces of the
    directly computed Weyl curvature, which read the Weyl gammas; every entry
    of rho and rho* is compared.  The notes record the coefficient -1/2 of the
    term ``<Phi, J> g(X, JZ)`` of rho*, in the paper's form
    ``(delta(J*phi) - phi(delta J)) g(X, JZ)``, whose sign depends on the
    codifferential convention of :mod:`wtw.hermitian`.
    """
    report = CheckReport(title="Ricci closed formulas")
    RD = curvature(weyl(spec))
    for name, traced, formula in zip(("rho", "rho*"), (ricci(RD), star_ricci(RD)),
                                     ricci_via_formula(spec)):
        report.require_zero(f"{name} of the Weyl connection from Levi-Civita data",
                            [[a - b for a, b in zip(*rows)] for rows in zip(traced, formula)],
                            (spec.basis,) * 2)
    report.notes["jstar_term_sign"] = "-1/2 * (delta(J*phi) - phi(delta J)) * g(X, JZ)"
    return report
