"""Mutation tests: each formula builder is caught by a check that shares no
code with it.

Each test applies one mutation to the engine with ``monkeypatch`` and runs the
full check suite (``wtw suite``) on fresh gate-passing frames at n = 4, 6 and
8.  The mutation is caught on a frame when the suite raises a consistency
``AssertionError`` or fails a check that passes on the unmutated frame.  At
n >= 6 the check ``vertical trace paths agree`` already fails (ROADMAP item
1), so each frame's own failures are subtracted first.
A value kept on a spec, a connection or a curvature tensor is mutated by
replacing the ``__wrapped__`` compute of its kept function, which every
reader calls, however it imported the name.

A term of the closed Ricci formulas (``wtw.curvature.ricci_via_formula``) is
mutated where the formulas are built, so the Ricci check sees it against the
traced Weyl curvature.  The bracket term sum_m c[i][j][m] gamma[m][k][l] is
dropped from the int accumulation of the Levi-Civita curvature R_g, which the
Phi-correction residual and the closed formulas read, so the checks that
compare them with the polynomial contraction of the Weyl gammas see it; so
is the term 1/2 phi_i phi_j of Phi, which both read too, where Phi is built.
The term -J(nabla_{E_i} E_j) is dropped from the int Levi-Civita nabla J, which the
nabla-J checks compare with d(Omega), the Lee vector and J o nabla J, and one
Kronecker weight is flipped in the int Weyl rows of theta only, from which the
check that J is parallel for the Weyl connection of the Lee form reads D J.  The sign of
the rho_g or rho*_g term of L(psi) is mutated where condition (ii) reads the
int traces, the weights of its terms (n-3)/4 |phi|^2 theta_k, -1/4 ((J
theta).phi) (J phi)_k and 1/2 <J, N> y_k where its builder is compiled, and
the sign of each of its three d(phi) terms where condition (ii) is built, so
only the trace equivalence sees them.  The two fiber pairings,
the identity checked against every vertical direction and the DJ pairing,
are one identity with one builder, ``twistor._pairing_identity``, whose
weight of dphi(X, cY) is flipped where it is built.

That builder also forms g(R(w)X, Y) - 1/2 dphi(w) g(X, Y), for the bivector
w of the bracket c.  Every w the pairings form is J-anti-invariant: [J, V] =
2JV for a vertical V, and the DJ pairing's w = 2(J nabla_Y J)^ - phi# ^ Y +
J phi# ^ JY.  So dropping the dphi(w) term changes nothing on a frame whose
dphi is of type (1, 1), dphi(JX, JY) = dphi(X, Y); that mutation is required
to be caught on every frame of ``FRAMES`` where dphi has a J-anti-invariant
part, and to change no check on the others.

The curvature cross-check on endomorphisms, R(E_i, E_j)S = sum_m c[i][j][m]
D_m S - D_i D_j S + D_j D_i S, forms each row as one contraction over the
gamma expansions of its terms.  It is mutated by negating its bracket
weights, and by expanding -D_i(D_j S) with the gamma column of j where that
of i belongs; its own assertion catches both on all six frames.  The trace of D2 S, sum_i D_i D_i S minus
D S along sum_i D_{E_i} E_i, is read by ``vertical trace paths agree`` alone;
as that check already fails at n >= 6, flipping the sign of the divergence
term is required to be caught at n = 4 only.  Both are mutated by recompiling
the builder's source with one piece of it replaced.

Three sites read an array in the layout its owner keeps.  The antisymmetry
residual of ``twistor._pairing_residuals`` reads G(R(X, Y)b, a) as
G(r[i][j], [a, b]), from the stored block r[i][j], which is the transpose of
R(E_i, E_j); its sign is flipped.  The DJ pairing reads J o nabla_Y J as int
numerators over one denominator, which its weights carry; the weight 2/den
of J nabla_Y J in its bracket [J, D_Y J] becomes 2.  The horizontal trace
reads the DJ pairing array G(R(E_x, E_z)J, D_{E_y} J) at [x][x][k]; it reads
[x][k][x] instead, which negates it, and h_trace is nonzero on all six
frames.  All three are recompiled, and each is required to be caught on all
six frames, as is the sign of the wedge J phi# ^ JY in the DJ pairing's
bracket, flipped where the bracket is formed.

The planes of the vertical basis divide each projection by |u|^2, which is 1
on a J that is a signed permutation, as on every frame of ``FRAMES``.  So
dropping that division is required to be caught on both dense-J frames of
``frame_families.DENSE_J`` and to change no check on ``FRAMES``.

The six curvature identities of ``curvature.identity_suite`` are tuples of
terms that one builder, ``curvature._identity``, turns into entry functions.
Each of their 30 terms is needed: its weight is negated where the builder
receives it, and ``identity_suite`` alone, not the full suite, is run on every
frame of ``FRAMES``, where that identity's check, and no other, must fail.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
from fractions import Fraction

import pytest

import frame_families
from oracles import cov_deriv_oneform, linear_combination
from wtw import builtin, connection, hermitian, load_spec, load_spec_file, pseudoharmonic, twistor
from wtw.cli import _suite_report

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
    weyl = connection.weyl.__wrapped__

    def mutated(spec):
        half = Fraction(1, 2)
        gamma = tuple(tuple(tuple((a + b) * half for a, b in zip(lc_row, weyl_row))
                            for lc_row, weyl_row in zip(lc_plane, weyl_plane))
                      for lc_plane, weyl_plane in zip(connection.levi_civita(spec).gamma,
                                                      weyl(spec).gamma))
        return connection.Connection(spec, gamma, "weyl")

    monkeypatch.setattr(connection.weyl, "__wrapped__", mutated)


def _rg_bracket_term(monkeypatch):
    """The int R_g loses its bracket term sum_m c[i][j][m] gamma[m][k][l], which
    enters over (2 den_c)^2 with weight 2."""
    rg = curvature._levi_civita_r.__wrapped__

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

    monkeypatch.setattr(curvature._levi_civita_r, "__wrapped__", mutated)


def _phi_square_term(monkeypatch):
    """Phi loses its term 1/2 phi_i phi_j, the one ``half_phi[j]`` of
    ``curvature.phi_tensor``."""
    monkeypatch.setattr(curvature.phi_tensor, "__wrapped__", _recompiled(
        curvature, curvature.phi_tensor, "[half_phi[j], ", "[0, "))


def _nabla_j_gamma_term(monkeypatch):
    """The int Levi-Civita nabla J loses its term -J(nabla_{E_i} E_j) =
    -sum_k gamma[i][j][k] J E_k, which enters over den_gamma * den_J."""
    nabla_j = hermitian._nabla_j.__wrapped__

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

    monkeypatch.setattr(hermitian._nabla_j, "__wrapped__", mutated)


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
    """Condition (ii) reads entry ``index`` of the int traces (rho_g, rho*_g)
    negated."""
    traces = pseudoharmonic._ricci_ints

    def mutated(spec):
        den, *pair = traces(spec)
        pair[index] = [[-value for value in row] for row in pair[index]]
        return den, *pair

    monkeypatch.setattr(pseudoharmonic, "_ricci_ints", mutated)


def _rho_sign(monkeypatch):
    """The term -rho_g(psi#, Z) of L(psi) enters with the opposite sign."""
    _condition_ii_reads_negated(monkeypatch, 0)


def _rho_star_sign(monkeypatch):
    """The term -sum_q J[k][q] rho*_g(J psi#, E_q) of L(psi) enters with the
    opposite sign."""
    _condition_ii_reads_negated(monkeypatch, 1)


def _condition_ii_weight(monkeypatch, old, new):
    """The condition-(ii) builder with one weight of its source replaced."""
    monkeypatch.setattr(pseudoharmonic._condition_ii_values, "__wrapped__", _recompiled(
        pseudoharmonic, pseudoharmonic._condition_ii_values, old, new))


def _norm_theta_weight(monkeypatch):
    """The weight (n-3)/4 of |phi|^2 theta_k in L(psi) becomes -(n-3)/4."""
    _condition_ii_weight(monkeypatch, "(n - 3) * t[k] * unit", "(3 - n) * t[k] * unit")


def _j_theta_weight(monkeypatch):
    """The weight -1/4 of ((J theta).phi) (J phi)_k in L(psi) becomes 1/4."""
    _condition_ii_weight(monkeypatch, "_quadratic(acc, -1, j_theta_phi",
                         "_quadratic(acc, 1, j_theta_phi")


def _n_on_j_weight(monkeypatch):
    """The weight 1/2 of <J, N> y_k in L(psi) becomes -1/2."""
    _condition_ii_weight(monkeypatch, "_accumulate(on_j, 2 * w,", "_accumulate(on_j, -2 * w,")


def _formula_terms(monkeypatch, rho_term, rho_star_term):
    """The closed Ricci formulas gain rho_term(spec, i, k) and
    rho_star_term(spec, i, k) at each entry (i, k)."""
    formulas = curvature.ricci_via_formula.__wrapped__

    def mutated(spec):
        ix = range(spec.n)
        rho, rho_star = formulas(spec)
        return tuple(tuple(tuple(matrix[i][k] + term(spec, i, k) for k in ix) for i in ix)
                     for matrix, term in ((rho, rho_term), (rho_star, rho_star_term)))

    monkeypatch.setattr(curvature.ricci_via_formula, "__wrapped__", mutated)


def _nothing(spec, i, k):
    return spec.zero()


def _jstar_sign(monkeypatch):
    """The term -1/2 (delta(J*phi) - phi(delta J)) g(X, JZ) of the rho* formula
    enters with the opposite sign.  The codifferential difference is formed by
    the Leibniz rule as -sum_p (nabla_{E_p} phi)(J E_p), from the covariant
    derivative of phi that the tests' oracle forms."""
    def flipped(spec, i, k):
        nphi = cov_deriv_oneform(connection.levi_civita(spec), spec.phi)
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
    values = pseudoharmonic._condition_ii_values.__wrapped__

    def mutated(spec, dim4_mode):
        out = values(spec, dim4_mode)
        if dim4_mode:
            return out
        psi = tuple(t - p for t, p in zip(pseudoharmonic.require_gate(spec), spec.phi))
        return tuple(value + term(spec, psi, k) for k, value in enumerate(out))

    monkeypatch.setattr(pseudoharmonic._condition_ii_values, "__wrapped__", mutated)


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
        jpsi = [spec.dot(row, psi) for row in spec.J]
        return spec.dot(jpsi, spec.left(_column(spec.J, k), tuple(zip(*spec.dphi())))) * 2

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
    """The term dphi(X, cY) of the fiber-pairing identity enters with the
    opposite sign: the weight -1/2 of dphi(c E_j, E_i) becomes +1/2, so the
    builder reads dphi(cX, Y) - dphi(X, cY)."""
    monkeypatch.setattr(twistor, "_pairing_identity", _recompiled(
        twistor, twistor._pairing_identity, "(1, half, -half,", "(1, half, half,"))


def _action_entry(monkeypatch):
    """The curvature action on J gains the first vertical direction V at
    (E1, E2), and -V at (E2, E1)."""
    action = twistor.endo_curvature_action.__wrapped__

    def mutated(R, S):
        out = action(R, S)
        if S != R.spec.J:
            return out
        v = twistor.vertical_basis(R.spec).elements[0]
        rows = [list(row) for row in out]
        rows[0][1] = linear_combination(R.spec, (1, 1), (rows[0][1], v))
        rows[1][0] = linear_combination(R.spec, (1, -1), (rows[1][0], v))
        return tuple(tuple(row) for row in rows)

    monkeypatch.setattr(twistor.endo_curvature_action, "__wrapped__", mutated)


def _norm_sq(monkeypatch):
    """The vertical basis is declared with each norm squared doubled."""
    basis = twistor.VerticalBasis
    monkeypatch.setattr(twistor, "VerticalBasis", lambda elements, labels, norm_sq: basis(
        elements, labels, tuple(norm * 2 for norm in norm_sq)))


def _recompiled(module, function, old: str, new: str):
    """``function`` with its one ``old`` cut from its source and ``new`` put in
    its place, compiled again in ``module``'s namespace; of a kept function,
    the compute, which replaces its ``__wrapped__``."""
    source = inspect.getsource(function)
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    return inspect.unwrap(namespace[function.__name__])


def _projection_division(monkeypatch):
    """The projection step of the vertical basis's planes drops its division
    by |u|^2, the one ``/ norm`` of ``twistor._planes``."""
    monkeypatch.setattr(twistor, "_planes", _recompiled(twistor, twistor._planes, " / norm", ""))


def _check_bracket_term(monkeypatch):
    """The curvature cross-check on endomorphisms weights each D_{E_m} S by
    -c[i][j][m] instead of c[i][j][m]: the term D_{[E_i, E_j]} S enters with
    the opposite sign."""
    monkeypatch.setattr(twistor, "_hom_residual", _recompiled(
        twistor, twistor._hom_residual, "(*conn.spec.c[i][j],",
        "(*(-x for x in conn.spec.c[i][j]),"))


def _check_gamma_column(monkeypatch):
    """The curvature cross-check on endomorphisms expands -D_i(D_j S) with the
    gamma column of j where that of i belongs: the coefficients of row l read
    -gamma[j][k][l] in place of -gamma[i][k][l], while the rows stay those of
    -D_i."""
    monkeypatch.setattr(twistor, "_hom_residual", _recompiled(
        twistor, twistor._hom_residual, "minus_i, at_i = _along_terms(conn, first[j], i, -1)",
        "minus_i, at_i = (_along_terms(conn, first[j], i, -1)[0],"
        " _along_terms(conn, first[j], j, -1)[1])"))


def _h_trace_transpose(monkeypatch):
    """The horizontal trace reads the DJ pairing array at [x][k][x] in place of
    [x][x][k], which is the trace negated, as the array is antisymmetric in its
    last two indices."""
    monkeypatch.setattr(twistor, "h_trace", _recompiled(
        twistor, twistor.h_trace, "paired[x][x][k] for x", "paired[x][k][x] for x"))


def _block_pairing_sign(monkeypatch):
    """The antisymmetry residual of a skew pair subtracts the block pairing
    G(r[i][j], [a, b]) instead of adding it, so G(R(E_i, E_j)b, a) enters
    with the opposite sign."""
    monkeypatch.setattr(twistor, "_pairing_residuals", _recompiled(
        twistor, twistor._pairing_residuals, "paired[i][j] + against_comm",
        "paired[i][j] - against_comm"))


def _dj_endo_weight(monkeypatch):
    """The DJ pairing weights J nabla_Y J by 2 instead of 2/den in the bracket
    [J, D_Y J], so the int numerators enter unscaled."""
    monkeypatch.setattr(twistor, "curvature_pairing_with_dj_check", _recompiled(
        twistor, twistor.curvature_pairing_with_dj_check, "Fraction(2, den)", "2"))


def _dj_wedge_sign(monkeypatch):
    """The DJ pairing adds J phi# ^ JY to the bracket [J, D_Y J] where it
    belongs subtracted: the weights -J[j][y] and J[i][y] of (J phi)_i and
    (J phi)_j change sign."""
    monkeypatch.setattr(twistor, "curvature_pairing_with_dj_check", _recompiled(
        twistor, twistor.curvature_pairing_with_dj_check, "-J[j][y], J[i][y]",
        "J[j][y], -J[i][y]"))


def _trace_divergence_sign(monkeypatch):
    """The trace of D2 S gains +D_{sum_i D_{E_i} E_i} S instead of -D_{sum_i D_{E_i} E_i} S."""
    monkeypatch.setattr(twistor, "traced_second_cov_deriv_endo", _recompiled(
        connection, connection.traced_second_cov_deriv_endo, "-w for w in divergence",
        "w for w in divergence"))


def _bivector_dphi_term(monkeypatch):
    """The fiber-pairing identity loses its term -1/2 dphi(c) delta_ij: the
    weight -1/2 of dphi(c) on the diagonal becomes 0."""
    monkeypatch.setattr(twistor, "_pairing_identity", _recompiled(
        twistor, twistor._pairing_identity, "((dphi_c,), (-half,))", "((dphi_c,), (0,))"))


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


@pytest.mark.parametrize("name", [name for name in FRAMES if FRAMES[name]().n == 4])
def test_trace_divergence_sign_is_caught_at_n4(monkeypatch, name):
    """The vertical trace is read only by ``vertical trace paths agree``, which
    already fails on every n >= 6 frame of ``FRAMES`` (ROADMAP item 1), so the
    mutation cannot add a failure there; at n = 4 that check passes and must
    fail."""
    assert not _unmutated_failures(name)
    _trace_divergence_sign(monkeypatch)
    failures = {check.name for check in _suite_report(FRAMES[name]()).failures}
    assert "vertical trace paths agree" in failures


@pytest.mark.parametrize("mutate", [_weyl_half, _rg_bracket_term, _phi_square_term,
                                    _nabla_j_gamma_term, _theta_weyl_weight, _rho_sign,
                                    _rho_star_sign, _norm_theta_weight, _j_theta_weight,
                                    _n_on_j_weight, _jstar_sign, _rho_square_coefficient,
                                    _dphi_sign, _twisted_dphi_sign, _dphi_j_sign,
                                    _endo_transpose_sign, _action_entry, _check_bracket_term,
                                    _check_gamma_column, _norm_sq, _block_pairing_sign,
                                    _dj_endo_weight, _dj_wedge_sign, _h_trace_transpose],
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


# the residuals of ``curvature.identity_suite`` in the order it builds them:
# an id, the name of the check and the number of terms
IDENTITIES = (("pair_symmetry", "pair-symmetry against d(phi) [Z-T]", 3),
              ("exchange", "argument-pair exchange against d(phi) [XY-ZT]", 8),
              ("bianchi", "first Bianchi identity", 3),
              ("phi_correction", "direct Weyl curvature equals Phi-correction formula", 8),
              ("rho_antisymmetry", "antisymmetric part of rho equals (n/2) d(phi)", 3),
              ("rho_star_defect",
               "twisted-symmetry defect of rho* from d(phi) and codifferentials", 5))


@pytest.mark.parametrize("identity, term", [
    pytest.param(identity, term, id=f"{tag}-{term}")
    for identity, (tag, _, count) in enumerate(IDENTITIES) for term in range(count)])
def test_each_identity_term_is_needed(monkeypatch, identity, term):
    """The weight of one term of one identity is negated where
    ``curvature._identity`` receives it; that identity's check, and no other,
    fails on every frame of ``FRAMES``."""
    builder = curvature._identity
    built = []

    def mutated(spec, terms):
        if len(built) == identity:
            weight, *rest = terms[term]
            terms = (*terms[:term], (-weight, *rest), *terms[term + 1:])
        built.append(len(terms))
        return builder(spec, terms)

    monkeypatch.setattr(curvature, "_identity", mutated)
    for name in FRAMES:
        built.clear()
        report = curvature.identity_suite(FRAMES[name]())
        assert built == [count for *_, count in IDENTITIES]
        assert [check.name for check in report.failures] == [IDENTITIES[identity][1]], name
