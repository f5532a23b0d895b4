from __future__ import annotations

import pathlib
import random
from fractions import Fraction
from itertools import chain, combinations

import pytest

import frame_families
from wtw import builtin, g_fiber, load_spec, load_spec_file
from wtw.connection import (_derivative_along, cov_deriv_endo, cov_deriv_oneform, levi_civita,
                            metric_residual, reconstruct_weyl_form, torsion_residual,
                            traced_second_cov_deriv_endo, weyl)
from wtw.curvature import curvature
from wtw.frame import linear_combination
from wtw.hermitian import lee_form
from wtw.twistor import _hom_residual, endo_curvature_action, endo_curvature_consistency


def _gamma_dict(conn):
    return {(i + 1, j + 1, k + 1): value for i, j, k, value in conn.nonzero()}


def _random_skew(spec, seed):
    rng = random.Random(seed)
    n = spec.n
    comps = [[spec.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = spec.const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            comps[i][j] = value
            comps[j][i] = -value
    return tuple(map(tuple, comps))


def _is_zero(array):
    return all(entry.is_zero for row in array for entry in row)


class TestLeviCivita:
    def test_inoue_table(self, inoue):
        got = {key: str(value) for key, value in _gamma_dict(levi_civita(inoue)).items()}
        assert got == {
            (1, 1, 2): "1", (1, 2, 1): "-1",
            (3, 2, 3): "1/2", (3, 3, 2): "-1/2",
            (4, 2, 4): "1/2", (4, 4, 2): "-1/2",
        }

    def test_kodaira_table(self, kodairas):
        got = {key: str(value) for key, value in _gamma_dict(levi_civita(kodairas[(1, 1)])).items()}
        assert got == {
            (1, 2, 4): "-1", (2, 1, 4): "1",
            (1, 4, 2): "1", (4, 1, 2): "1",
            (2, 4, 1): "-1", (4, 2, 1): "-1",
        }

    def test_abelian_flat(self, abelian):
        assert not _gamma_dict(levi_civita(abelian))


class TestWeyl:
    def test_zero_form_gives_levi_civita(self, kodairas):
        spec = kodairas[(1, 1)].with_phi((0, 0, 0, 0))
        assert weyl(spec).gamma == levi_civita(spec).gamma

    def test_kodaira_diagonal_entry(self, kodairas):
        spec = kodairas[(1, 1)].with_phi((0, 0, "a3", 0))
        conn = weyl(spec)
        assert str(conn.gamma[2][2][2]) == "-1/2*a3"

    @pytest.mark.parametrize("which", ["inoue", "kodaira"])
    def test_connection_contracts(self, which, inoue, kodairas):
        spec = inoue if which == "inoue" else kodairas[(-1, 1)]
        for conn in (levi_civita(spec), weyl(spec)):
            assert all(entry.is_zero for plane in torsion_residual(conn)
                       for row in plane for entry in row)
            assert all(entry.is_zero for plane in metric_residual(conn)
                       for row in plane for entry in row)

    def test_weyl_form_reconstruction(self, inoue, kodairas):
        for spec in (inoue, kodairas[(1, -1)]):
            recovered = reconstruct_weyl_form(weyl(spec))
            assert all((a - b).is_zero for a, b in zip(recovered, spec.phi))


class TestCovariantDerivatives:
    def test_kodaira_form_derivatives(self, kodairas):
        spec = kodairas[(1, 1)]
        table = cov_deriv_oneform(levi_civita(spec), spec.phi)
        expect = {
            (0, 1): "a4", (1, 0): "-a4",
            (0, 3): "-a2", (3, 0): "-a2",
            (1, 3): "a1", (3, 1): "a1",
        }
        for i in range(4):
            for j in range(4):
                assert str(table[i][j]) == expect.get((i, j), "0")

    def test_inoue_lee_derivative(self, inoue):
        theta = lee_form(inoue)
        table = cov_deriv_oneform(levi_civita(inoue), theta)
        assert str(table[0][0]) == "-1"

    def test_abelian_derivatives_vanish(self, abelian):
        omega = tuple(abelian.const(k) for k in (1, 2, 3, 4))
        table = cov_deriv_oneform(levi_civita(abelian), omega)
        assert all(entry.is_zero for row in table for entry in row)

    def test_identity_endo_is_parallel(self, inoue):
        identity = tuple(tuple(inoue.const(int(i == j)) for j in range(4)) for i in range(4))
        for direction in cov_deriv_endo(weyl(inoue), identity):
            assert _is_zero(direction)

    def test_j_parallel_for_lee_weyl_connection(self, inoue):
        spec = inoue.with_phi(lee_form(inoue))
        for direction in cov_deriv_endo(weyl(spec), spec.J):
            assert _is_zero(direction)

    @pytest.mark.parametrize("signs", [(1, 1), (-1, -1)])
    def test_kodaira_nabla_j(self, kodairas, signs):
        spec = kodairas[signs]
        e1 = signs[0]
        nj = cov_deriv_endo(levi_civita(spec), spec.J)
        # (nabla_{A1} J)(A1) = -e1 A4
        column = [str(nj[0][l][0]) for l in range(4)]
        assert column == ["0", "0", "0", str(-e1)]

    def test_induced_connection_preserves_skewness_and_fiber_metric(self, inoue):
        conn = weyl(inoue)
        a, b = _random_skew(inoue, 11), _random_skew(inoue, 13)
        da, db = cov_deriv_endo(conn, a), cov_deriv_endo(conn, b)
        for i in range(4):
            assert da[i] == tuple(tuple(-x for x in col) for col in zip(*da[i]))
            assert (g_fiber(inoue, da[i], b) + g_fiber(inoue, a, db[i])).is_zero


class TestSecondDerivatives:
    def test_abelian_second_derivative_vanishes(self, abelian):
        assert _is_zero(traced_second_cov_deriv_endo(levi_civita(abelian), abelian.J))

    def test_parallel_j_second_derivative_vanishes(self, inoue):
        spec = inoue.with_phi(lee_form(inoue))
        assert _is_zero(traced_second_cov_deriv_endo(weyl(spec), spec.J))

    def test_kodaira_traced_second_derivative(self, kodairas):
        # closed form for the Levi-Civita connection: Tr nabla^2 J = -|B|^2/2 * 2J = -2J
        spec = kodairas[(1, 1)]
        traced = traced_second_cov_deriv_endo(levi_civita(spec), spec.J)
        assert traced == tuple(tuple(spec.const(-2 * x) for x in row) for row in spec.J)


def _second_by_definition(conn, S, i, j):
    """D2_{E_i E_j} S in two steps: the induced derivative along E_i of
    D_{E_j} S, then minus sum_k gamma[i][j][k] D_{E_k} S, with the operators."""
    first = cov_deriv_endo(conn, S)
    inner = cov_deriv_endo(conn, first[j])[i]
    n = conn.spec.n
    return tuple(tuple(inner[l][m] - sum((conn.gamma[i][j][k] * first[k][l][m]
                                          for k in range(n)), conn.spec.zero())
                       for m in range(n)) for l in range(n))


def _second_derivative_frames():
    """A rotated dense n = 4 frame, hyperbolic6, vaisman6 and a dense-J frame
    of ``tests/frame_families.py``."""
    from test_frame import _rotated

    data = pathlib.Path(__file__).parent / "data"
    return [_rotated(builtin("kodaira", (1, -1)), "kodaira rotated"),
            load_spec_file(data / "hyperbolic6.toml"), load_spec_file(data / "vaisman6.toml"),
            load_spec(frame_families.DENSE_J["hyperbolic6_rotated.toml"], "hyperbolic6 rotated")]


@pytest.mark.parametrize("spec", _second_derivative_frames(), ids=lambda spec: spec.name)
def test_second_derivatives_agree_with_their_two_step_definition(spec):
    """For S = J and for a non-skew rational S, under both connections, the
    curvature cross-check, which reads D_{E_i}(D_{E_j} S) for i != j, passes,
    and the trace of D2 S, which reads them for i = j, equals the sum of the
    two-step D2_{E_i E_i} S."""
    n = spec.n
    for conn in (weyl(spec), levi_civita(spec)):
        for endo in (spec.J, _non_skew(spec)):
            endo_curvature_consistency(conn, endo)
            diagonal = [_second_by_definition(conn, endo, i, i) for i in range(n)]
            expected = tuple(tuple(sum((d[l][m] for d in diagonal), spec.zero())
                                   for m in range(n)) for l in range(n))
            assert any(any(row) for row in expected)
            assert traced_second_cov_deriv_endo(conn, endo) == expected


def _non_skew(spec):
    """A rational endomorphism with no symmetry: S[0][1] != -S[1][0]."""
    n = spec.n
    S = tuple(tuple(spec.const(Fraction((l + 1) * (m + 2) - 5, l + 2 * m + 1)) for m in range(n))
              for l in range(n))
    assert S[0][1] != -S[1][0]
    return S


@pytest.mark.parametrize("spec", _second_derivative_frames(), ids=lambda spec: spec.name)
def test_cross_check_rows_are_their_two_step_definition(spec):
    """The curvature cross-check on endomorphisms forms each row of
    sum_m c[i][j][m] D_m S - D_i(D_j S) + D_j(D_i S) - A as one contraction over
    the gamma expansions of its four terms.  For S = J and a non-skew rational
    S, under both connections, every row equals the ``linear_combination`` of
    the derivatives along one direction, formed apart: with A the commutator
    action, where both are zero, and with A = 0, where both are the gamma route
    to R(E_i, E_j)S."""
    n = spec.n
    zero = ((spec.zero(),) * n,) * n
    for conn in (weyl(spec), levi_civita(spec)):
        for endo in (spec.J, _non_skew(spec)):
            first = cov_deriv_endo(conn, endo)
            action = endo_curvature_action(curvature(conn), endo)
            formed = []
            for i, j in combinations(range(n), 2):
                two_step = (*first, _derivative_along(conn, first[j], i),
                            _derivative_along(conn, first[i], j))
                for A in (action[i][j], zero):
                    expected = linear_combination(spec, (*spec.c[i][j], -1, 1, -1),
                                                  (*two_step, A))
                    assert _hom_residual(conn, first, A, i, j) == expected
                formed.append(expected)
            assert any(chain.from_iterable(chain.from_iterable(formed)))
