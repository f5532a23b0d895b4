from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from wtw import Endo, GateError, builtin, twistor
from wtw.frame import FrameError
from wtw.polyalg import normalize_up_to_unit, normalized_system
from wtw.twistor import (dprime_eval, endo_curvature_consistency, g_fiber,
                         h_trace, vertical_antisymmetry_check, fiber_pairing_check, v_trace,
                         vertical_basis, wedge_iso)
from wtw.connection import weyl
from wtw.curvature import curvature
from wtw.hermitian import lee_form
from wtw import pseudoharmonic


def _random_skew(spec, seed):
    rng = random.Random(seed)
    n = spec.n
    comps = [[spec.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = spec.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            comps[i][j] = value
            comps[j][i] = -value
    return Endo(spec, comps)


def _pair_endo(spec, i, j):
    comps = [[spec.zero()] * spec.n for _ in range(spec.n)]
    comps[j][i] = spec.const(1)
    comps[i][j] = spec.const(-1)
    return Endo(spec, comps)


class TestFiberMetric:
    def test_half_trace_of_j(self, inoue, heisenberg6):
        assert g_fiber(inoue.j_endo(), inoue.j_endo()) == inoue.const(2)
        assert g_fiber(heisenberg6.j_endo(), heisenberg6.j_endo()) == heisenberg6.const(3)

    def test_plane_rotations_are_unit(self, inoue):
        s12 = _pair_endo(inoue, 0, 1)
        assert g_fiber(s12, s12) == inoue.const(1)

    def test_vertical_orthogonal_to_j(self, inoue):
        j = inoue.j_endo()
        for v in vertical_basis(inoue).elements:
            assert g_fiber(j, v).is_zero

    def test_equals_negative_half_trace_of_composition_on_skew(self, inoue):
        a = _random_skew(inoue, 21)
        b = _random_skew(inoue, 22)
        composed = a @ b
        assert (g_fiber(a, b) + Fraction(1, 2) * composed.trace()).is_zero


class TestWedgeIso:
    def test_j_wedge_components(self, inoue):
        b = wedge_iso(inoue.j_endo())
        assert str(b.comps[0][1]) == "1"
        assert str(b.comps[2][3]) == "1"

    def test_zero(self, inoue):
        assert all(entry.is_zero for row in wedge_iso(Endo.zero(inoue)).comps
                   for entry in row)

    def test_requires_skew(self, inoue):
        with pytest.raises(FrameError):
            wedge_iso(Endo.identity(inoue))

    def test_commutator_with_vertical_is_plane_difference(self, inoue):
        # [J, V] for vertical V stays vertical, hence lands in the
        # anti-invariant bivectors Z ^ U - JZ ^ JU
        j = inoue.j_endo()
        for v in vertical_basis(inoue).elements:
            comm = j.commutator(v)
            b = wedge_iso(comm)
            J = inoue.J
            for p in range(4):
                for q in range(4):
                    pulled = sum((J[x][p] * J[y][q] * b.comps[x][y]
                                  for x in range(4) for y in range(4)), inoue.zero())
                    assert (pulled + b.comps[p][q]).is_zero


class TestVerticalBasis:
    def test_dimension_four_has_two_elements(self, inoue):
        basis = vertical_basis(inoue)
        assert len(basis.elements) == 2
        assert basis.labels == ("A[1,2]", "B[1,2]")

    def test_dimension_six_has_six_elements(self, heisenberg6):
        assert len(vertical_basis(heisenberg6).elements) == 6

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_invariants(self, kodairas, signs):
        spec = kodairas[signs]
        basis = vertical_basis(spec)
        j = spec.j_endo()
        for a_idx, a in enumerate(basis.elements):
            assert a.is_skew
            assert a.anticommutes_with(j)
            for b_idx, b in enumerate(basis.elements):
                expected = basis.norm_sq if a_idx == b_idx else 0
                assert g_fiber(a, b) == spec.const(expected)


class TestCurvatureOnEndomorphisms:
    def test_commutator_equals_double_derivative(self, inoue, kodairas):
        for spec in (inoue, kodairas[(1, -1)]):
            conn = weyl(spec)
            endo_curvature_consistency(spec, conn, spec.j_endo())
            endo_curvature_consistency(spec, conn, _random_skew(spec, 2))

    def test_pairing_identity_flat_case(self, abelian):
        report = fiber_pairing_check(abelian, _random_skew(abelian, 3), _random_skew(abelian, 4))
        assert report.ok

    def test_pairing_identity_curved_riemannian_case(self, kodairas):
        # zero Weyl form on a curved frame: the dphi corrections drop out and
        # the identity reduces to its Riemannian core
        spec = kodairas[(1, 1)].with_phi((0, 0, 0, 0))
        assert fiber_pairing_check(spec, _random_skew(spec, 8), _random_skew(spec, 9)).ok

    def test_pairing_identity_j_against_verticals(self, inoue):
        j = inoue.j_endo()
        for v in vertical_basis(inoue).elements:
            assert fiber_pairing_check(inoue, j, v).ok

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_pairing_identity_random(self, kodairas, seed):
        spec = kodairas[(-1, 1)]
        assert fiber_pairing_check(spec, _random_skew(spec, seed),
                               _random_skew(spec, seed + 100)).ok

    def test_vertical_antisymmetry(self, inoue, kodairas):
        for spec in (inoue, *kodairas.values()):
            for v in vertical_basis(spec).elements:
                assert vertical_antisymmetry_check(spec, v).ok

    def test_vertical_antisymmetry_rejects_non_vertical(self, inoue):
        with pytest.raises(FrameError):
            vertical_antisymmetry_check(inoue, Endo.identity(inoue))

    def test_vertical_antisymmetry_fails_on_a_wrong_action(self, monkeypatch):
        """The two sides are computed differently: the action on J is read from
        the memoized commutators, the action on V by ad-invariance.  Reversing
        the commutator to [S, R] must fail the check, naming an index."""
        def reversed_action(R, S):
            n = R.spec.n
            return tuple(tuple(S.commutator(R.endo(i, j)) for j in range(n))
                         for i in range(n))

        monkeypatch.setattr(twistor, "_endo_curvature_action", reversed_action)
        spec = builtin("inoue-s0")  # a fresh spec: nothing memoized on it yet
        for v in vertical_basis(spec).elements:
            report = vertical_antisymmetry_check(spec, v)
            assert not report.ok
            detail = report.failures[0].detail
            assert re.fullmatch(r"\d+ nonzero entr(y|ies), first at \(E\d,E\d\): .+", detail)


class TestTwistorEval:
    def test_gram_is_identity_and_t_blocks(self, inoue):
        te = dprime_eval(inoue)
        t = te.ring_t.sym("t")
        size = len(te.gram)
        assert size == 6
        for a in range(size):
            for b in range(size):
                expected = te.ring_t.zero()
                if a == b:
                    expected = te.ring_t.one() if a < 4 else t
                assert te.gram[a][b] == expected

    def test_flat_case_has_no_vertical_part(self, abelian):
        te = dprime_eval(abelian)
        assert all(entry.is_zero for plane in te.hh_vertical
                   for row in plane for entry in row)
        assert all(entry.is_zero for plane in te.vh_pairing
                   for row in plane for entry in row)

    def test_inoue_vertical_part_of_first_pair(self, inoue):
        te = dprime_eval(inoue)
        coeff_a, coeff_b = te.hh_vertical[0][1]
        assert str(coeff_a) == "-1/8*a1*a3 + 1/8*a2*a4"
        assert str(coeff_b) == "-1/8*a1*a4 - 1/8*a2*a3"

    def test_vertical_part_reconstructs_curvature_action(self, inoue):
        # sum_alpha coeff * V_alpha must equal 1/2 R(E_i,E_j)J exactly
        te = dprime_eval(inoue)
        basis = vertical_basis(inoue)
        R = curvature(weyl(inoue))
        j = inoue.j_endo()
        for i in range(4):
            for jdx in range(4):
                action = R.endo(i, jdx).commutator(j)
                rebuilt = Endo.zero(inoue)
                for alpha, v in enumerate(basis.elements):
                    rebuilt = rebuilt + v.scale(te.hh_vertical[i][jdx][alpha])
                assert (rebuilt - action.scale(Fraction(1, 2))).is_zero

    def test_vh_pairing_value(self, inoue):
        te = dprime_eval(inoue)
        basis = vertical_basis(inoue)
        R = curvature(weyl(inoue))
        j = inoue.j_endo()
        t = te.ring_t.sym("t")
        for alpha, v in enumerate(basis.elements):
            for i in range(4):
                for jdx in range(4):
                    pairing = g_fiber(R.endo(i, jdx).commutator(j), v)
                    expected = pairing.lift(te.ring_t) * t * Fraction(-1, 2)
                    assert te.vh_pairing[alpha][i][jdx] == expected


class TestTraces:
    def test_lee_weyl_form_gives_zero_traces(self, inoue, kodairas):
        for base in (inoue, kodairas[(1, 1)], kodairas[(-1, -1)]):
            spec = base.with_phi(lee_form(base).theta)
            assert all(entry.is_zero for entry in h_trace(spec))
            data = v_trace(spec)
            assert all(entry.is_zero for row in data.direct for entry in row)

    def test_inoue_reduced_horizontal_trace(self, inoue_reduced):
        values = [str(entry) for entry in h_trace(inoue_reduced)]
        assert values == ["0", "1/2*a1^2 + 1/2*a2^2 - a2 + 1/2", "0", "0"]

    def test_inoue_vertical_trace_vanishes_iff_a3_a4_zero(self, inoue, inoue_reduced):
        full = v_trace(inoue)
        assert any(not entry.is_zero for row in full.direct for entry in row)
        nonzero = normalized_system(entry for row in full.direct for entry in row)
        r = inoue.ring
        assert nonzero == {normalize_up_to_unit(r.sym("a3")),
                           normalize_up_to_unit(r.sym("a4"))}
        reduced = v_trace(inoue_reduced)
        assert all(entry.is_zero for row in reduced.direct for entry in row)

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_kodaira_vertical_trace_vanishes_identically(self, kodairas, signs):
        data = v_trace(kodairas[signs])
        assert all(entry.is_zero for row in data.direct for entry in row)
        assert data.paths_agree

    def test_paths_agree_everywhere(self, inoue, kodairas, hyperbolic_like):
        for spec in (inoue, kodairas[(1, -1)], hyperbolic_like):
            assert v_trace(spec).paths_agree

    def test_traces_are_gated(self, nonintegrable, heisenberg6):
        for spec in (nonintegrable, heisenberg6):
            with pytest.raises(GateError):
                h_trace(spec)
            with pytest.raises(GateError):
                v_trace(spec)

    def test_horizontal_trace_matches_condition_system(self, kodairas):
        for signs, spec in kodairas.items():
            values = normalized_system(h_trace(spec))
            report = pseudoharmonic.conditions(spec)
            assert values == set(report.condition_ii)
