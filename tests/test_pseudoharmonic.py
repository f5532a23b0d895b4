from __future__ import annotations

from fractions import Fraction

import pytest

import frame_families
from oracles import condition_ii_reference
from test_twistor import _gate_passing_frames
from wtw import FrameSpec, GateError, load_spec
from wtw.hermitian import lee_form
from wtw.polyalg import normalized_system
from wtw.pseudoharmonic import _condition_ii_values, condition_i, conditions, verify_assignment
from wtw.twistor import equivalence_check


def _system_strings(polys):
    return sorted(str(p) for p in polys)


class TestConditionI:
    def test_dimension_four_coefficient_vanishes(self, inoue):
        # n = 4 kills the theta ^ phi coefficient, so the residuals are those
        # of d(theta - phi) alone
        from wtw.frame import d_oneform
        theta = lee_form(inoue)
        tmf = tuple(theta[i] - inoue.phi[i] for i in range(4))
        F = d_oneform(inoue, tmf)
        J = inoue.J
        raw = []
        for k in range(4):
            for l in range(k + 1, 4):
                value = sum((J[p][k] * F[p][l] for p in range(4)), inoue.zero())
                value = value + sum((J[q][l] * F[k][q] for q in range(4)),
                                    inoue.zero())
                raw.append(value)
        assert normalized_system(raw)[0] == conditions(inoue).condition_i

    def test_inoue_full_form(self, inoue):
        report = conditions(inoue)
        assert _system_strings(report.condition_i) == ["a3", "a4"]

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_kodaira_identically_type_one_one(self, kodairas, signs):
        report = conditions(kodairas[signs])
        assert report.condition_i == ()

    def test_gate_failure_raises(self, nonintegrable):
        with pytest.raises(GateError):
            condition_i(nonintegrable)


class TestConditionII:
    def test_lee_weyl_form_empty(self, inoue):
        spec = inoue.with_phi(lee_form(inoue))
        report = conditions(spec)
        assert report.condition_ii == ()
        assert report.holds_identically

    def test_inoue_reduced_system(self, inoue_reduced):
        report = conditions(inoue_reduced)
        assert _system_strings(report.condition_ii) == ["a1^2 + a2^2 - 2*a2 + 1"]
        assert report.dropped_ii == 3

    def test_inoue_full_system(self, inoue):
        report = conditions(inoue)
        assert _system_strings(report.condition_ii) == [
            "2*a1^2 + 2*a2^2 - 4*a2 + a3^2 + a4^2 + 2",
            "a1*a3 + a2*a4 - a4",
            "a1*a4 - a2*a3 + a3",
        ]

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_kodaira_system(self, kodairas, signs):
        report = conditions(kodairas[signs])
        assert _system_strings(report.condition_ii) == ["a1^2 + a2^2"]

    def test_normalization_invariants(self, inoue):
        from wtw.polyalg import normalize_up_to_unit
        report = conditions(inoue)
        for poly in report.condition_i + report.condition_ii:
            assert not poly.is_zero
            assert normalize_up_to_unit(poly) == poly


class TestDim4:
    def test_requires_dimension_four(self, heisenberg6):
        with pytest.raises(GateError):
            conditions(heisenberg6, dim4_mode=True)

    def test_matches_condition_ii_on_reduced_inoue(self, inoue_reduced):
        report = conditions(inoue_reduced, dim4_mode=True)
        assert report.condition_ii == conditions(inoue_reduced).condition_ii

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_matches_condition_ii_on_kodaira(self, kodairas, signs):
        spec = kodairas[signs]
        assert conditions(spec, dim4_mode=True).condition_ii == conditions(spec).condition_ii

    def test_rearranged_form_differs_when_dphi_not_type_one_one(self, inoue):
        # with a3, a4 present d(phi) has an anti-invariant part; the two forms
        # then agree only modulo condition (i), not as normalized systems
        report = conditions(inoue, dim4_mode=True)
        assert set(report.condition_ii) != set(conditions(inoue).condition_ii)

    def test_lee_weyl_form_empty(self, kodairas):
        spec = kodairas[(1, 1)]
        report = conditions(spec.with_phi(lee_form(spec)), dim4_mode=True)
        assert report.holds_identically


class TestVerifyAssignment:
    def test_inoue_solution_point(self, inoue_reduced):
        report = conditions(inoue_reduced)
        verdict = verify_assignment(report, {"a1": 0, "a2": 1})
        assert verdict.holds
        assert verdict.residual_symbols == ()

    def test_inoue_non_solution(self, inoue_reduced):
        report = conditions(inoue_reduced)
        verdict = verify_assignment(report, {"a1": 1, "a2": 1})
        assert not verdict.holds

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_kodaira_origin_family(self, kodairas, signs):
        # a1 = a2 = 0 solves the system identically in a3, a4 for every sign pair
        report = conditions(kodairas[signs])
        verdict = verify_assignment(report, {"a1": 0, "a2": 0})
        assert verdict.holds

    @pytest.mark.parametrize("signs", [(1, -1), (-1, -1)])
    def test_kodaira_lee_coefficient_family(self, kodairas, signs):
        # phi = theta corresponds to a3 = -2 e1 e2 with the other symbols zero
        e1, e2 = signs
        report = conditions(kodairas[signs])
        verdict = verify_assignment(report, {"a1": 0, "a2": 0, "a3": -2 * e1 * e2,
                                             "a4": 0})
        assert verdict.holds

    def test_partial_assignment_leaves_symbols(self, inoue):
        report = conditions(inoue)
        verdict = verify_assignment(report, {"a1": 0, "a2": 1})
        assert not verdict.holds
        assert set(verdict.residual_symbols) <= {"a3", "a4"}

    def test_unknown_symbol(self, inoue):
        report = conditions(inoue)
        with pytest.raises(KeyError):
            verify_assignment(report, {"b7": 0})

    @pytest.mark.parametrize("text", ["1e3", "1.5", "1_000"])
    def test_rational_strings_in_other_notations_are_refused(self, inoue_reduced, text):
        """A string value is read as ``[+-]digits[/digits]``, as ``--assign`` reads it."""
        report = conditions(inoue_reduced)
        with pytest.raises(ValueError, match="not a rational constant"):
            verify_assignment(report, {"a1": 0, "a2": text})

    def test_rational_strings_are_read_exactly(self, inoue_reduced):
        report = conditions(inoue_reduced)
        verdict = verify_assignment(report, {"a1": "0", "a2": "-1/2"})
        assert verdict.assignment == (("a1", 0), ("a2", Fraction(-1, 2)))
        assert verdict == verify_assignment(report, {"a1": 0, "a2": Fraction(-1, 2)})


class TestEquivalence:
    @pytest.mark.parametrize("which", ["inoue", "inoue_reduced", "k++", "k+-",
                                       "k-+", "k--", "hyp"])
    def test_traces_tie_to_conditions(self, which, inoue, inoue_reduced, kodairas,
                                      hyperbolic_like):
        table = {"inoue": inoue, "inoue_reduced": inoue_reduced,
                 "k++": kodairas[(1, 1)], "k+-": kodairas[(1, -1)],
                 "k-+": kodairas[(-1, 1)], "k--": kodairas[(-1, -1)],
                 "hyp": hyperbolic_like}
        report = equivalence_check(table[which])
        assert report.ok, [c.name for c in report.failures]
        assert report.notes == {"h_unit": "+1", "v_unit": "-1"}

    def test_gate_failure(self, heisenberg6):
        with pytest.raises(GateError):
            equivalence_check(heisenberg6)


class TestRelabelingInvariance:
    def test_plane_swapped_kodaira(self, kodairas):
        # applying the J-preserving pair swap (E1,E2) <-> (E3,E4) to all the
        # input data relabels the condition system accordingly
        swapped = FrameSpec.create(
            dimension=4, symbols=("a1", "a2", "a3", "a4"),
            brackets={(2, 3): {1: -2}},
            J=[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
            phi=("a1", "a2", "a3", "a4"), name="kodaira-swapped")
        report = conditions(swapped)
        assert _system_strings(report.condition_ii) == ["a3^2 + a4^2"]
        assert report.condition_i == ()
        base = conditions(kodairas[(1, 1)])
        expected = {str(p) for p in base.condition_ii}
        relabeled = set()
        for text in expected:
            out = text
            for old, new in (("a1", "A3"), ("a2", "A4"), ("a3", "A1"), ("a4", "A2")):
                out = out.replace(old, new)
            relabeled.add(out.lower())
        assert relabeled == {str(p) for p in report.condition_ii}

    def test_plane_swapped_solvable_frame(self, inoue):
        # the same pair swap applied to the solvable builtin (a genuinely
        # asymmetric algebra): both systems must relabel a1<->a3, a2<->a4
        swapped = FrameSpec.create(
            dimension=4, symbols=("a1", "a2", "a3", "a4"),
            brackets={(2, 3): {2: -1}, (3, 0): {0: "-1/2"}, (3, 1): {1: "-1/2"}},
            J=[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
            phi=("a1", "a2", "a3", "a4"), name="inoue-swapped")
        report = conditions(swapped)
        base = conditions(inoue)

        from wtw.polyalg import normalized_system

        def relabel(polys):
            texts = []
            for poly in polys:
                text = str(poly)
                for old, new in (("a1", "A3"), ("a2", "A4"), ("a3", "A1"), ("a4", "A2")):
                    text = text.replace(old, new)
                texts.append(text.lower())
            return {str(p) for p in
                    normalized_system(swapped.ring.parse(t) for t in texts)[0]}

        assert relabel(base.condition_i) == {str(p) for p in report.condition_i}
        assert relabel(base.condition_ii) == {str(p) for p in report.condition_ii}


def _condition_ii_frames():
    """The gate-passing built-ins and documents, both dense-J frames, the
    unitary-basis frame and hyperbolic8 in a Cayley basis, where J is dense."""
    documents = {**frame_families.DENSE_J, **frame_families.UNITARY,
                 "hyperbolic8_rotated.toml": frame_families._rotated(
                     "the eight-dimensional real hyperbolic frame", 8,
                     frame_families._hyperbolic_brackets(8), frame_families.cayley(8))}
    return [*_gate_passing_frames(), *(load_spec(text, name) for name, text in documents.items())]


@pytest.mark.parametrize("spec", _condition_ii_frames(), ids=lambda spec: spec.name)
def test_condition_ii_expansion_equals_the_rho_route(spec):
    """The builder expands L(theta - phi) in phi from int coefficients; the
    oracle contracts psi with the closed rho and rho* term by term.  They agree
    entry by entry in both modes, and, phi being linear on every frame here,
    each entry has total degree at most 2: the cubic terms cancel."""
    for dim4_mode in (False, True):
        built = _condition_ii_values(spec, dim4_mode)
        assert built == condition_ii_reference(spec, dim4_mode), (spec.name, dim4_mode)
        assert all(entry.total_degree() <= 2 for entry in built)
