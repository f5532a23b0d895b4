"""The contractions that walk the int supports of J, of the brackets and of the
Levi-Civita gammas, against their definitions as sums over every entry.

``FrameSpec.twist``, ``j_pair`` and ``j_apply`` read only the nonzero entries
of J's columns; the condition-(i) 2-form reads only the nonzero bracket rows
and the nonzero components of theta; Phi reads nabla phi from the nonzero
gamma rows; d(Omega) and the Lee residual sum ints over the nonzero bracket
rows and the entries of J and theta.  Each is compared entry by entry with the
plain sum over all indices, on J a signed permutation (the built-ins and the
gate-passing documents) and on the dense J of the Cayley-rotated frames of
``tests/frame_families.py``, whose entries are not integers.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import frame_families
from oracles import cov_deriv_oneform, fundamental_form, linear_combination, wedge_oneforms
from test_twistor import _gate_passing_frames
from wtw import (FrameSpec, Ring, RingMismatchError, builtin, d_oneform, lee_form,
                 levi_civita, load_spec, phi_tensor)
from wtw.hermitian import _d_omega, _lee_residual
from wtw.pseudoharmonic import _condition_i_form

DENSE = [load_spec(text, name) for name, text in frame_families.DENSE_J.items()]
PERMUTATION = [builtin("inoue-s0"), builtin("kodaira", (1, -1)), builtin("kodaira", (-1, 1)),
               load_spec(frame_families.hyperbolic(6), "hyperbolic6"),
               load_spec(frame_families.inoue((1, 2)), "inoue_rotation6")]
FRAMES = PERMUTATION + DENSE


def _rotation_j(spec):
    """``spec`` with J a block rotation by (3/5, 4/5) in each plane (E_2m, E_2m+1),
    orthogonal but neither skew nor symmetric, built without ``validate`` as
    ``FrameSpec(...)`` builds it."""
    n, c, s = spec.n, Fraction(3, 5), Fraction(4, 5)
    block = {(0, 0): c, (0, 1): -s, (1, 0): s, (1, 1): c}
    J = tuple(tuple(block.get((p % 2, q % 2), Fraction(0)) if p // 2 == q // 2 else Fraction(0)
                    for q in range(n)) for p in range(n))
    return FrameSpec(dimension=spec.dimension, ring=spec.ring, basis=spec.basis, c=spec.c, J=J,
                     phi=spec.phi, name=f"{spec.name}-rotation-j")


# The walks read J's supports for any J, so they are compared on a J that is not skew too.
WALKED = FRAMES + [_rotation_j(spec) for spec in (PERMUTATION[0], PERMUTATION[3])]
WALKED_IDS = [spec.name for spec in WALKED]


def test_the_dense_frames_have_a_dense_rational_j():
    for spec in DENSE:
        assert sum(1 for row in spec.J for x in row if x) > 2 * spec.n
        assert any(x.denominator != 1 for row in spec.J for x in row)


def _array(spec):
    """An n x n array of polynomials in the spec's symbols with a zero row, a
    zero column and scattered zeros, so that every walk meets zeros."""
    n, ring = spec.n, spec.ring
    a, b = ring.symbols[0], ring.symbols[1]
    return tuple(tuple(spec.zero() if p == 1 or q == n - 2 or (p * q) % 3 == 2
                       else ring.parse(f"{p + 1}*{a} - {q + 2}*{b}^2 + {p - q}/3")
                       for q in range(n)) for p in range(n))


def _sum(spec, terms):
    return spec.ring.sum(list(terms))


@pytest.mark.parametrize("spec", WALKED, ids=WALKED_IDS)
def test_twist_is_the_sum_over_all_entries_of_j(spec):
    n, J, M = spec.n, spec.J, _array(spec)
    ix = range(n)
    assert spec.twist(M) == tuple(tuple(
        _sum(spec, (M[p][q] * (J[p][i] * J[q][k]) for p in ix for q in ix)) for k in ix)
        for i in ix)


@pytest.mark.parametrize("spec", WALKED, ids=WALKED_IDS)
def test_j_pair_is_the_sum_over_all_entries_of_j(spec):
    n, J, M = spec.n, spec.J, _array(spec)
    ix = range(n)
    assert spec.j_pair(M) == tuple(tuple(
        _sum(spec, [*(M[p][k] * J[p][i] for p in ix), *(M[i][q] * J[q][k] for q in ix)])
        for k in ix) for i in ix)


@pytest.mark.parametrize("spec", WALKED, ids=WALKED_IDS)
def test_j_apply_is_the_sum_over_all_entries_of_j(spec):
    n, J, M = spec.n, spec.J, _array(spec)
    ix = range(n)
    for vec in (spec.phi, M[0], M[1]):
        assert spec.j_apply(vec) == tuple(_sum(spec, (vec[q] * J[k][q] for q in ix))
                                          for k in ix)


@pytest.mark.parametrize("spec", [PERMUTATION[0], DENSE[0]], ids=["signed-permutation", "dense-J"])
def test_the_walks_refuse_scalars_of_another_ring(spec):
    """A value read without a kernel call is checked for its ring as the kernel
    checks it."""
    other = Ring(("b1",))
    M = tuple(tuple(other.parse("b1 + 1") for _ in range(spec.n)) for _ in range(spec.n))
    for walk in (spec.twist, spec.j_pair, lambda M: spec.j_apply(M[0])):
        with pytest.raises(RingMismatchError):
            walk(M)


def _gated():
    """The 17 gate-passing frames, ten of them the documents with n >= 6, and
    the two dense-J frames."""
    specs = _gate_passing_frames() + DENSE
    assert len([spec for spec in specs if spec.n >= 6]) == 10 + 1
    return specs


@pytest.mark.parametrize("spec", _gated(), ids=lambda spec: spec.name)
def test_condition_i_form_is_its_two_step_definition(spec):
    """d(theta - phi) + c(n) theta ^ phi, with c(n) = n(n-4)/(2(n-2)), formed by
    ``d_oneform`` and ``wedge_oneforms`` and summed by ``linear_combination``.
    At n >= 6 the Lee identity gives d(theta) = 0, so only the frames with
    n = 4 test the theta part of d(theta - phi)."""
    n, phi, theta = spec.n, spec.phi, lee_form(spec)
    coeff = Fraction(n * (n - 4), 2 * (n - 2))
    tmf = tuple(t - p for t, p in zip(theta, phi))
    assert _condition_i_form(spec) == linear_combination(
        spec, (1, coeff), (d_oneform(spec, tmf), wedge_oneforms(spec, theta, phi)))


@pytest.mark.parametrize("spec", FRAMES + _gated(), ids=lambda spec: spec.name)
def test_phi_is_its_definition_from_the_levi_civita_connection(spec):
    """Phi = nabla phi + 1/2 phi phi - 1/4 |phi|^2 g, with nabla phi from the
    lifted Levi-Civita connection."""
    n, phi = spec.n, spec.phi
    nphi = cov_deriv_oneform(levi_civita(spec), phi)
    norm2 = _sum(spec, (x * x for x in phi))
    assert phi_tensor(spec) == tuple(tuple(
        nphi[i][j] + phi[i] * phi[j] * Fraction(1, 2) - (norm2 * Fraction(1, 4) if i == j else 0)
        for j in range(n)) for i in range(n))


@pytest.mark.parametrize("spec", FRAMES + _gated(), ids=lambda spec: spec.name)
def test_lee_identity_three_forms_are_their_definitions(spec):
    """dOmega(E_i, E_j, E_k) = -Omega([E_i, E_j], E_k) + Omega([E_i, E_k], E_j)
    - Omega([E_j, E_k], E_i) and (theta ^ Omega)(E_i, E_j, E_k) = theta_i Omega_jk
    - theta_j Omega_ik + theta_k Omega_ij, summed over all entries, against the
    int d(Omega) and the int Lee residual d(Omega) - theta ^ Omega."""
    n, c = spec.n, spec.c
    ix = range(n)
    triples = [(i, j, k) for i in ix for j in ix for k in ix]
    F, theta = fundamental_form(spec), lee_form(spec)
    d_f = [_sum(spec, (F[m][k] * -c[i][j][m] + F[m][j] * c[i][k][m] - F[m][i] * c[j][k][m]
                       for m in ix)) for i, j, k in triples]
    den, d_omega = _d_omega(spec)
    assert [Fraction(d_omega[i][j][k], den) for i, j, k in triples] == d_f
    den, residual = _lee_residual(spec)
    assert [Fraction(residual[i][j][k], den) for i, j, k in triples] == [
        d - _sum(spec, (theta[i] * F[j][k], -theta[j] * F[i][k], theta[k] * F[i][j]))
        for d, (i, j, k) in zip(d_f, triples)]
