"""Mutation tests: each formula builder is caught by a check that shares no
code with it.

Each test applies one mutation to the engine with ``monkeypatch`` and runs the
full check suite (``wtw suite``) on fresh gate-passing frames at n = 4, 6 and
8.  The mutation is caught on a frame when the suite raises a consistency
``AssertionError`` or fails a check that passes on the unmutated frame.  At
n >= 6 the check ``vertical trace paths agree`` already fails (ROADMAP item
1), so each frame's own failures are subtracted first.

A term of the closed Ricci formulas (``wtw.curvature.ricci_via_formula``) is
mutated where the formulas are built, so the Ricci check sees it against the
traced Weyl curvature.  The bracket term sum_m c[i][j][m] gamma[m][k][l] is
dropped from the int accumulation of the Levi-Civita curvature R_g, which the
Phi-correction route and the closed formulas read, so the checks that compare
them with the polynomial contraction of the Weyl gammas see it.  The term
-J(nabla_{E_i} E_j) is dropped from the int Levi-Civita nabla J, which the
nabla-J checks compare with d(Omega), the Lee vector and J o nabla J, and one
Kronecker weight is flipped in the int Weyl rows of theta only, from which the
check that J is parallel for the Weyl connection of the Lee form reads D J.  The sign of
the rho or rho* term of L(psi) is mutated where condition (ii) reads the
formulas, and the sign of each of its three d(phi) terms where condition (ii)
is built, so only the trace equivalence sees them.  The two fiber pairings,
the identity checked against every vertical direction and the DJ pairing,
share the builder of their dphi(cX, Y) + dphi(X, cY) terms, which is mutated
where it is built.

They also share the builder of their g(R(w)X, Y) - 1/2 dphi(w) g(X, Y) terms.
Every bivector w they form is J-anti-invariant: [J, V] = 2JV for a vertical V,
and the DJ pairing's w = 2(J nabla_Y J)^ - phi# ^ Y + J phi# ^ JY.  So dropping
the dphi(w) term changes nothing on a frame whose dphi is of type (1, 1),
dphi(JX, JY) = dphi(X, Y); that mutation is required to be caught on every
frame of ``FRAMES`` where dphi has a J-anti-invariant part, and to change no
check on the others.

The planes of the vertical basis divide each projection by |u|^2, which is 1
on a J that is a signed permutation, as on every frame of ``FRAMES``.  So
dropping that division is required to be caught on both dense-J frames of
``frame_families.DENSE_J`` and to change no check on ``FRAMES``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
from fractions import Fraction

import pytest

import frame_families
from wtw import builtin, connection, hermitian, load_spec, load_spec_file, pseudoharmonic, twistor
from wtw.cli import _suite_report
from wtw.frame import linear_combination

curvature = importlib.import_module("wtw.curvature")
DATA = pathlib.Path(__file__).parent / "data"

# two frames per dimension; each is loaded afresh for every run, so no value
# kept on a spec outlives its mutation
FRAMES = {
    "inoue-s0": lambda: builtin("inoue-s0"),
    "kodaira(+1,-1)": lambda: builtin("kodaira", (1, -1)),
    **{name: functools.partial(load_spec_file, DATA / f"{name}.toml")
       for name in ("hyperbolic6", "inoue_rotation6", "vaisman8", "inoue_rotation8")},
}


@functools.cache
def _unmutated_failures(name: str) -> frozenset[str]:
    return frozenset(check.name for check in _suite_report(FRAMES[name]()).failures)


def _weyl_half(monkeypatch):
    """The 1/2 of the Weyl gammas becomes 1/4: the mean of the Levi-Civita and
    the Weyl gammas."""
    weyl = connection._weyl

    def mutated(spec):
        half = Fraction(1, 2)
        gamma = tuple(tuple(tuple((a + b) * half for a, b in zip(lc_row, weyl_row))
                            for lc_row, weyl_row in zip(lc_plane, weyl_plane))
                      for lc_plane, weyl_plane in zip(connection.levi_civita(spec).gamma,
                                                      weyl(spec).gamma))
        return connection.Connection(spec, gamma, "weyl")

    monkeypatch.setattr(connection, "_weyl", mutated)


def _rg_bracket_term(monkeypatch):
    """The int R_g loses its bracket term sum_m c[i][j][m] gamma[m][k][l], which
    enters over (2 den_c)^2 with weight 2."""
    rg = curvature._levi_civita_r

    def mutated(spec):
        den, r = rg(spec)
        _, c = spec.bracket_rows()
        _, g = connection.gamma_rows(spec)
        out = [[[dict(row) for row in block] for block in plane] for plane in r]
        for i, plane in enumerate(out):
            for j, block in enumerate(plane):
                for k, row in enumerate(block):
                    for m, x in c[i][j]:
                        for l, y in g[m][k]:
                            row[l] = row.get(l, 0) - 2 * x * y
        return den, out

    monkeypatch.setattr(curvature, "_levi_civita_r", mutated)


def _nabla_j_gamma_term(monkeypatch):
    """The int Levi-Civita nabla J loses its term -J(nabla_{E_i} E_j) =
    -sum_k gamma[i][j][k] J E_k, which enters over den_gamma * den_J."""
    nabla_j = hermitian._nabla_j

    def mutated(spec):
        den, d = nabla_j(spec)
        _, g = connection.gamma_rows(spec)
        _, cols = spec.j_columns()
        out = [[list(row) for row in plane] for plane in d]
        for i, plane in enumerate(out):
            for j in range(spec.n):
                for k, x in g[i][j]:
                    for l, y in cols[k]:
                        plane[l][j] += x * y
        return den, out

    monkeypatch.setattr(hermitian, "_nabla_j", mutated)


def _theta_weyl_weight(monkeypatch):
    """The int Weyl rows of theta, from which the nabla-J checks read D J, take
    the Kronecker term -1/2 phi_j delta_ik with weight +1/2; the scalar Weyl
    connection of the spec's phi keeps its weights."""
    shift, rows = connection._weyl_shift, hermitian.weyl_rows

    def flipped(n, i, j):
        for position, (k, a, w) in enumerate(shift(n, i, j)):
            yield k, a, -w if position == 1 else w

    def mutated(spec, den, phi):
        with monkeypatch.context() as patch:
            patch.setattr(connection, "_weyl_shift", flipped)
            return rows(spec, den, phi)

    monkeypatch.setattr(hermitian, "weyl_rows", mutated)


def _condition_ii_reads_negated(monkeypatch, index):
    """Condition (ii) reads entry ``index`` of (rho, rho*) negated."""
    formulas = pseudoharmonic.ricci_via_formula

    def mutated(spec):
        pair = list(formulas(spec))
        pair[index] = tuple(tuple(-value for value in row) for row in pair[index])
        return tuple(pair)

    monkeypatch.setattr(pseudoharmonic, "ricci_via_formula", mutated)


def _rho_sign(monkeypatch):
    """rho enters the condition-(ii) builder with the opposite sign."""
    _condition_ii_reads_negated(monkeypatch, 0)


def _rho_star_sign(monkeypatch):
    """The term rho*(J psi#, JZ) of L(psi) enters with the opposite sign."""
    _condition_ii_reads_negated(monkeypatch, 1)


def _formula_terms(monkeypatch, rho_term, rho_star_term):
    """The closed Ricci formulas gain rho_term(spec, i, k) and
    rho_star_term(spec, i, k) at each entry (i, k)."""
    formulas = curvature._ricci_via_formula

    def mutated(spec):
        ix = range(spec.n)
        rho, rho_star = formulas(spec)
        return tuple(tuple(tuple(matrix[i][k] + term(spec, i, k) for k in ix) for i in ix)
                     for matrix, term in ((rho, rho_term), (rho_star, rho_star_term)))

    monkeypatch.setattr(curvature, "_ricci_via_formula", mutated)


def _nothing(spec, i, k):
    return spec.zero()


def _jstar_sign(monkeypatch):
    """The term -1/2 (delta(J*phi) - phi(delta J)) g(X, JZ) of the rho* formula
    enters with the opposite sign.  The codifferential difference is formed by
    the Leibniz rule as -sum_p (nabla_{E_p} phi)(J E_p), from the public
    covariant derivative of phi."""
    def flipped(spec, i, k):
        nphi = connection.cov_deriv_oneform(connection.levi_civita(spec), spec.phi)
        n, J = spec.n, spec.J
        # J E_p = sum_q J[q][p] E_q
        codiff = -spec.ring.sum(nphi[p][q] * J[q][p] for p in range(n) for q in range(n))
        return codiff * J[i][k]

    _formula_terms(monkeypatch, _nothing, flipped)


def _rho_square_coefficient(monkeypatch):
    """The coefficient (n-2)/4 of phi(X) phi(Z) in the rho formula becomes (n-1)/4."""
    _formula_terms(monkeypatch, lambda spec, i, k: spec.phi[i] * spec.phi[k] * Fraction(1, 4),
                   _nothing)


def _condition_ii_terms(monkeypatch, term):
    """Condition (ii) in its full form, which the suite reads, gains
    term(spec, psi, k) at each Z = E_k, for psi = theta - phi."""
    values = pseudoharmonic._condition_ii_values

    def mutated(spec, dim4_mode):
        out = values(spec, dim4_mode)
        if dim4_mode:
            return out
        psi = tuple(t - p for t, p in zip(pseudoharmonic.require_gate(spec), spec.phi))
        return tuple(value + term(spec, psi, k) for k, value in enumerate(out))

    monkeypatch.setattr(pseudoharmonic, "_condition_ii_values", mutated)


def _column(M, k):
    return [row[k] for row in M]


def _dphi_sign(monkeypatch):
    """The term (n/2 - 1) dphi(psi#, Z) of L(psi) enters with the opposite sign."""
    def flipped(spec, psi, k):
        # -2 (n/2 - 1) dphi(psi#, E_k)
        return spec.dot(psi, _column(spec.dphi(), k)) * (2 - spec.n)

    _condition_ii_terms(monkeypatch, flipped)


def _twisted_dphi_sign(monkeypatch):
    """The term -dphi(J psi#, JZ) of L(psi) enters with the opposite sign."""
    def flipped(spec, psi, k):
        # dphi(J psi#, J E_k), where J E_k = sum_q J[q][k] E_q
        jpsi = spec.j_apply(psi)
        return spec.dot(jpsi, spec.right(spec.dphi(), _column(spec.J, k))) * 2

    _condition_ii_terms(monkeypatch, flipped)


def _dphi_j_sign(monkeypatch):
    """The term -psi(JZ) dphi(J^) of L(psi) enters with the opposite sign."""
    def flipped(spec, psi, k):
        # dphi(J^) = sum_{p<q} g(J E_p, E_q) dphi(E_p, E_q), with g(J E_p, E_q) = J[q][p]
        n, dphi = spec.n, spec.dphi()
        dphi_j = spec.ring.sum(dphi[p][q] * spec.J[q][p]
                               for p in range(n) for q in range(p + 1, n))
        return spec.dot(psi, _column(spec.J, k)) * dphi_j * 2

    _condition_ii_terms(monkeypatch, flipped)


def _endo_transpose_sign(monkeypatch):
    """The term dphi(X, cY) of the fiber pairings' shared builder enters with
    the opposite sign: dphi(cX, Y) - dphi(X, cY), which is dphi(cX, Y) +
    dphi(cY, X) as dphi is antisymmetric."""
    def mutated(spec, c):
        first = [spec.left(col, spec.dphi()) for col in zip(*c)]
        return [[value + first[j][i] for j, value in enumerate(row)]
                for i, row in enumerate(first)]

    monkeypatch.setattr(twistor, "_endo_terms", mutated)


def _action_entry(monkeypatch):
    """The curvature action on J gains the first vertical direction V at
    (E1, E2), and -V at (E2, E1)."""
    action = twistor._endo_curvature_action

    def mutated(R, S):
        out = action(R, S)
        if S != R.spec.J:
            return out
        v = twistor.vertical_basis(R.spec).elements[0]
        rows = [list(row) for row in out]
        rows[0][1] = linear_combination(R.spec, (1, 1), (rows[0][1], v))
        rows[1][0] = linear_combination(R.spec, (1, -1), (rows[1][0], v))
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(twistor, "_endo_curvature_action", mutated)


def _norm_sq(monkeypatch):
    """The vertical basis is declared with each norm squared doubled."""
    basis = twistor.VerticalBasis
    monkeypatch.setattr(twistor, "VerticalBasis", lambda elements, labels, norm_sq: basis(
        elements, labels, tuple(norm * 2 for norm in norm_sq)))


def _projection_division(monkeypatch):
    """The projection step of the vertical basis's planes drops its division
    by |u|^2: the one ``/ norm`` of ``twistor._planes`` is cut from its source,
    which is compiled again in the module's namespace."""
    source = inspect.getsource(twistor._planes)
    assert source.count(" / norm") == 1
    namespace = dict(vars(twistor))
    exec(source.replace(" / norm", ""), namespace)
    monkeypatch.setattr(twistor, "_planes", namespace["_planes"])


def _bivector_dphi_term(monkeypatch):
    """The fiber pairings' shared bivector builder loses its term
    -1/2 dphi(w) delta_ij."""
    monkeypatch.setattr(twistor, "_bivector_terms",
                        lambda R, w: [list(row) for row in twistor.curvature_on_bivector(R, w)])


@functools.cache
def _dphi_is_of_type_11(name: str) -> bool:
    """Whether dphi(J E_i, J E_j) = dphi(E_i, E_j) for all i, j, with
    J E_i = sum_p J[p][i] E_p."""
    spec = FRAMES[name]()
    n, J, dphi = spec.n, spec.J, spec.dphi()
    return all(spec.ring.sum(J[p][i] * J[q][j] * dphi[p][q] for p in range(n) for q in range(n))
               == dphi[i][j] for i in range(n) for j in range(n))


def test_dphi_has_a_j_anti_invariant_part_at_n4_and_n8():
    """The bivector dphi term is tested where it changes something in both
    the smallest and the largest dimension of ``FRAMES``."""
    assert {FRAMES[name]().n for name in FRAMES if not _dphi_is_of_type_11(name)} >= {4, 8}


@pytest.mark.parametrize("name", FRAMES)
def test_bivector_dphi_term_is_caught_where_dphi_is_not_of_type_11(monkeypatch, name):
    if not _dphi_is_of_type_11(name):
        test_mutation_is_caught(monkeypatch, _bivector_dphi_term, name)
        return
    # dphi vanishes on every bivector the pairings form, so no check moves
    baseline = _unmutated_failures(name)
    _bivector_dphi_term(monkeypatch)
    assert {check.name for check in _suite_report(FRAMES[name]()).failures} == baseline


@pytest.mark.parametrize("name", [*FRAMES, *frame_families.DENSE_J])
def test_projection_division_is_caught_where_j_is_dense(monkeypatch, name):
    """On a J that is a signed permutation every |u|^2 is 1, so no check moves;
    on both dense-J frames the vertical basis fails its Gram check."""
    if name in frame_families.DENSE_J:
        _projection_division(monkeypatch)
        with pytest.raises(AssertionError, match="vertical basis"):
            _suite_report(load_spec(frame_families.DENSE_J[name], name))
        return
    baseline = _unmutated_failures(name)
    _projection_division(monkeypatch)
    assert {check.name for check in _suite_report(FRAMES[name]()).failures} == baseline


@pytest.mark.parametrize("mutate", [_weyl_half, _rg_bracket_term, _nabla_j_gamma_term,
                                    _theta_weyl_weight, _rho_sign, _rho_star_sign, _jstar_sign,
                                    _rho_square_coefficient, _dphi_sign, _twisted_dphi_sign,
                                    _dphi_j_sign, _endo_transpose_sign, _action_entry,
                                    _norm_sq],
                         ids=lambda mutate: mutate.__name__.lstrip("_"))
@pytest.mark.parametrize("name", FRAMES)
def test_mutation_is_caught(monkeypatch, mutate, name):
    baseline = _unmutated_failures(name)  # formed before the mutation
    mutate(monkeypatch)
    try:
        report = _suite_report(FRAMES[name]())
    except AssertionError:  # a consistency assertion caught it
        return
    assert {check.name for check in report.failures} - baseline
