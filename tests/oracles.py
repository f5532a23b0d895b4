"""Oracles the tests compare the package against; the package itself does not
read them, so they are not part of its surface.  pytest does not collect this
module."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations

from wtw.curvature import ricci_via_formula
from wtw.frame import FrameError, _antisymmetric, _is_skew
from wtw.hermitian import require_gate


def cov_deriv_oneform(conn, omega):
    """(nabla_{E_i} omega)(E_j) = -sum_k gamma[i][j][k] omega_k, as an n x n
    array, from the lifted gammas of ``conn``.  ``phi_tensor`` reads nabla phi
    from the int gamma rows instead, and the tests compare the two."""
    spec = conn.spec
    return tuple(tuple(-value for value in spec.right(plane, omega)) for plane in conn.gamma)


def wedge_oneforms(spec, alpha, beta):
    """(alpha ^ beta)(X, Y) = alpha(X) beta(Y) - alpha(Y) beta(X), as an n x n
    array.  The DJ pairing of ``wtw.twistor`` forms its wedges inside the
    entries of the bracket [J, D_Y J] instead."""
    minus_beta = [-b for b in beta]
    return _antisymmetric(spec.n, spec.zero(), lambda i, j: spec.dot(
        (alpha[i], alpha[j]), (beta[j], minus_beta[i])))


def linear_combination(spec, weights, arrays):
    """sum_m weights[m] arrays[m] for n x n arrays: ``left`` over the flattened
    arrays, one kernel call per entry over the nonzero weights only.  The
    package forms its two sums of arrays entry by entry instead."""
    n = len(arrays[0])
    flat = spec.left(weights, [tuple(chain.from_iterable(array)) for array in arrays])
    return tuple(flat[k:k + n] for k in range(0, n * n, n))


def wedge_iso(a):
    """The bivector of a skew endomorphism: components g(a E_i, E_j), the
    transpose of ``a``."""
    if not _is_skew(a):
        raise FrameError("wedge isomorphism requires a skew endomorphism")
    return tuple(zip(*a))


def fundamental_form(spec):
    """Omega with Omega(E_i, E_j) = g(J E_i, E_j) = J[j][i], as an n x n array
    of scalars: the wedge image of J.  The package reads Omega as the int J."""
    return tuple(tuple(map(spec.const, row)) for row in wedge_iso(spec.J))


def eval_on_bivector(spec, F, b):
    """``sum_{i<j} b[i][j] F(E_i, E_j)`` (pairing normalized so that
    ``eta_1 ^ eta_2`` on ``E_1 ^ E_2`` gives 1); reads only i < j.  Condition
    (ii) reads dphi(J^) from the int J and brackets instead."""
    planes = list(combinations(range(spec.n), 2))
    return spec.dot([b[i][j] for i, j in planes], [F[i][j] for i, j in planes])


def condition_ii_reference(spec, dim4_mode=False):
    """L(psi) at Z = E_k for each k, for psi = theta - phi, read term by term:

        (n/2 - 1) dphi(psi#, Z) - dphi(J psi#, JZ) - psi(JZ) dphi(J^)
        - rho(psi#, Z) + rho*(J psi#, JZ)

    with rho and rho* the n x n matrices of ``ricci_via_formula``; in
    ``dim4_mode`` only the last three terms.  A term x(JZ) for a 1-form x is
    read as -(J x)(Z), as J^T = -J.  The package expands the same sum in phi
    from int coefficients instead, and the tests compare the two."""
    theta = require_gate(spec)
    psi = tuple(t - p for t, p in zip(theta, spec.phi))
    rho, rho_star = ricci_via_formula(spec)
    dphi = spec.dphi()
    dphi_jwedge = eval_on_bivector(spec, dphi, fundamental_form(spec))
    jpsi = spec.j_apply(psi)
    terms = [spec.left(psi, rho), jpsi, spec.j_apply(spec.left(jpsi, rho_star))]
    weights = [-1, dphi_jwedge, -1]
    if not dim4_mode:
        terms += [spec.left(psi, dphi), spec.j_apply(spec.left(jpsi, dphi))]
        weights += [Fraction(spec.n, 2) - 1, 1]
    return tuple(spec.dot([term[k] for term in terms], weights) for k in range(spec.n))
