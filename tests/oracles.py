"""Oracles the tests compare the package against; the package itself does not
read them, so they are not part of its surface.  pytest does not collect this
module."""

from __future__ import annotations

from itertools import chain

from wtw.frame import _antisymmetric


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
