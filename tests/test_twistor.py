from __future__ import annotations

import collections
import contextlib
import io
import pathlib
import random
import re
from fractions import Fraction
from itertools import chain, combinations, product

import pytest

import frame_families
from oracles import linear_combination
from wtw import (FrameSpec, GateError, SpecFormatError, builtin, cov_deriv_endo, levi_civita,
                 load_spec, load_spec_file, twistor)
from wtw.frame import FrameError
from wtw.polyalg import normalize_up_to_unit, normalized_system
from wtw.twistor import (endo_curvature_action, endo_curvature_consistency, g_fiber,
                         h_trace, fiber_pairing_check, v_trace, vertical_basis, wedge_iso)
from wtw.connection import weyl
from wtw.curvature import curvature
from wtw.hermitian import lee_form, require_gate
from wtw import hermitian, pseudoharmonic


def _random_skew(spec, seed):
    rng = random.Random(seed)
    n = spec.n
    comps = [[spec.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = spec.const(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            comps[i][j] = value
            comps[j][i] = -value
    return tuple(map(tuple, comps))


def _pair_endo(spec, i, j):
    comps = [[spec.zero()] * spec.n for _ in range(spec.n)]
    comps[j][i] = spec.const(1)
    comps[i][j] = spec.const(-1)
    return tuple(map(tuple, comps))


def _identity(spec):
    return tuple(tuple(spec.const(int(i == j)) for j in range(spec.n)) for i in range(spec.n))


def _is_vertical(spec, a):
    """Skew and anticommuting with J, entry by entry."""
    j = spec.J
    return (a == tuple(tuple(-x for x in col) for col in zip(*a))
            and all((x + y).is_zero for ra, rb in zip(spec.compose(a, j), spec.compose(j, a))
                    for x, y in zip(ra, rb)))


class TestFiberMetric:
    def test_half_trace_of_j(self, inoue, heisenberg6):
        assert g_fiber(inoue, inoue.J, inoue.J) == inoue.const(2)
        assert (g_fiber(heisenberg6, heisenberg6.J, heisenberg6.J)
                == heisenberg6.const(3))

    def test_plane_rotations_are_unit(self, inoue):
        s12 = _pair_endo(inoue, 0, 1)
        assert g_fiber(inoue, s12, s12) == inoue.const(1)

    def test_vertical_orthogonal_to_j(self, inoue):
        j = inoue.J
        for v in vertical_basis(inoue).elements:
            assert g_fiber(inoue, j, v).is_zero

    def test_equals_negative_half_trace_of_composition_on_skew(self, inoue):
        a = _random_skew(inoue, 21)
        b = _random_skew(inoue, 22)
        composed = inoue.compose(a, b)
        trace = sum((composed[i][i] for i in range(4)), inoue.zero())
        assert (g_fiber(inoue, a, b) + Fraction(1, 2) * trace).is_zero


class TestWedgeIso:
    def test_j_wedge_components(self, inoue):
        b = wedge_iso(inoue.J)
        assert str(b[0][1]) == "1"
        assert str(b[2][3]) == "1"

    def test_zero(self, inoue):
        zero = ((inoue.zero(),) * 4,) * 4
        assert all(entry.is_zero for row in wedge_iso(zero) for entry in row)

    def test_requires_skew(self, inoue):
        with pytest.raises(FrameError):
            wedge_iso(_identity(inoue))

    def test_commutator_with_vertical_is_plane_difference(self, inoue):
        # [J, V] for vertical V stays vertical, hence lands in the
        # anti-invariant bivectors Z ^ U - JZ ^ JU
        j = inoue.J
        for v in vertical_basis(inoue).elements:
            b = wedge_iso(twistor._commutator(inoue, j, v))
            J = inoue.J
            for p in range(4):
                for q in range(4):
                    pulled = sum((J[x][p] * J[y][q] * b[x][y]
                                  for x in range(4) for y in range(4)), inoue.zero())
                    assert (pulled + b[p][q]).is_zero


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
        j = spec.J
        for a_idx, a in enumerate(basis.elements):
            assert _is_vertical(spec, a)
            for b_idx, b in enumerate(basis.elements):
                expected = basis.norm_sq[a_idx] if a_idx == b_idx else 0
                assert g_fiber(spec, a, b) == spec.const(expected)


class TestCurvatureOnEndomorphisms:
    def test_commutator_equals_double_derivative(self, inoue, kodairas):
        for spec in (inoue, kodairas[(1, -1)]):
            conn = weyl(spec)
            endo_curvature_consistency(conn, spec.J)
            endo_curvature_consistency(conn, _random_skew(spec, 2))

    @pytest.mark.parametrize("pair", [(0, 1), (2, 3)])
    def test_consistency_raises_on_a_wrong_action(self, monkeypatch, pair):
        """One perturbed entry of the stored commutator action must fail the
        comparison with the second covariant derivatives, naming its pair."""
        compute = twistor.endo_curvature_action.__wrapped__

        def perturbed(R, S):
            action = [list(row) for row in compute(R, S)]
            i, j = pair
            action[i][j] = linear_combination(R.spec, (1, 1),
                                              (action[i][j], _identity(R.spec)))
            return tuple(tuple(row) for row in action)

        monkeypatch.setattr(twistor.endo_curvature_action, "__wrapped__", perturbed)
        spec = builtin("inoue-s0")  # a fresh spec: nothing memoized on it yet
        with pytest.raises(AssertionError, match=rf"at \({pair[0] + 1},{pair[1] + 1}\)$"):
            endo_curvature_consistency(weyl(spec), spec.J)

    def test_pairing_identity_flat_case(self, abelian):
        report = fiber_pairing_check(abelian, _random_skew(abelian, 3), _random_skew(abelian, 4))
        assert report.ok

    def test_pairing_identity_curved_riemannian_case(self, kodairas):
        # zero Weyl form on a curved frame: the dphi corrections drop out and
        # the identity reduces to its Riemannian core
        spec = kodairas[(1, 1)].with_phi((0, 0, 0, 0))
        assert fiber_pairing_check(spec, _random_skew(spec, 8), _random_skew(spec, 9)).ok

    def test_pairing_identity_j_against_verticals(self, inoue):
        j = inoue.J
        for v in vertical_basis(inoue).elements:
            _assert_both_pairing_checks_hold(fiber_pairing_check(inoue, j, v))

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_pairing_identity_random(self, kodairas, seed):
        spec = kodairas[(-1, 1)]
        _assert_both_pairing_checks_hold(fiber_pairing_check(
            spec, _random_skew(spec, seed), _random_skew(spec, seed + 100)))

    @pytest.mark.parametrize("position", [0, 1], ids=["a", "b"])
    def test_pairing_identity_refuses_a_non_skew_endomorphism(self, inoue, position):
        identity = tuple(tuple(inoue.const(int(i == j)) for j in range(4)) for i in range(4))
        pair = [_random_skew(inoue, 10), _random_skew(inoue, 11)]
        pair[position] = identity
        with pytest.raises(FrameError, match="^pairing identity requires skew endomorphisms$"):
            fiber_pairing_check(inoue, *pair)

    def test_vertical_antisymmetry(self, inoue, kodairas):
        for spec in (inoue, *kodairas.values()):
            for v in vertical_basis(spec).elements:
                assert not any(chain(*twistor._pairing_residuals(spec, spec.J, v)[1]))

    def test_vertical_antisymmetry_fails_on_a_wrong_action(self, monkeypatch):
        """The two sides are computed differently: the action on J is read from
        the memoized commutators, the action on V by ad-invariance.  Reversing
        the commutator to [S, R] must make the antisymmetry residual nonzero,
        reported at an index; the cross-check of the action on J, which would
        raise first, is not run."""
        monkeypatch.setattr(twistor.endo_curvature_action, "__wrapped__", _reversed_action)
        spec = builtin("inoue-s0")  # a fresh spec: nothing memoized on it yet
        for v in vertical_basis(spec).elements:
            report = twistor.CheckReport(title="vertical antisymmetry")
            report.require_zero("G(R(X,Y)J, V) = -G(R(X,Y)V, J)",
                                twistor._pairing_residuals(spec, spec.J, v)[1], (spec.basis,) * 2)
            assert not report.ok
            detail = report.failures[0].detail
            assert re.fullmatch(r"\d+ nonzero entr(y|ies), first at \(E\d,E\d\): .+", detail)

    def test_pairing_check_reports_the_antisymmetry_of_a_wrong_action(self, monkeypatch):
        """``fiber_pairing_check`` reports the antisymmetry residual as its own
        check, which the reversed commutator fails against every vertical V;
        the cross-check of the action, which would raise first, is not run."""
        monkeypatch.setattr(twistor.endo_curvature_action, "__wrapped__", _reversed_action)
        monkeypatch.setattr(twistor.endo_curvature_consistency, "__wrapped__",
                            lambda conn, S: None)
        spec = builtin("inoue-s0")  # a fresh spec: nothing memoized on it yet
        for v in vertical_basis(spec).elements:
            failures = [check.name for check in fiber_pairing_check(spec, spec.J, v).failures]
            assert "antisymmetry of the fiber curvature pairing" in failures


def _reversed_action(R, S):
    """The commutator action reversed, [S, R(E_i, E_j)], with R(E_i, E_j) the
    transpose of the block r[i][j]."""
    n = R.spec.n
    return tuple(tuple(twistor._commutator(R.spec, S, tuple(zip(*R.r[i][j]))) for j in range(n))
                 for i in range(n))


def _assert_both_pairing_checks_hold(report):
    assert [(check.name, check.ok) for check in report.checks] == [
        ("curvature pairing identity on endomorphisms", True),
        ("antisymmetry of the fiber curvature pairing", True)]


class TestVerticalPart:
    """The vertical part of D'_{X^h} Y^h is 1/2 R(X, Y) J, expanded on the
    unnormalized vertical basis by G(R(X, Y) J, V_alpha) / norm_sq."""

    def test_flat_case_has_no_vertical_part(self, abelian):
        act_j = endo_curvature_action(curvature(weyl(abelian)), abelian.J)
        basis = vertical_basis(abelian)
        assert all(g_fiber(abelian, action, v).is_zero
                   for row in act_j for action in row for v in basis.elements)

    def test_inoue_vertical_part_of_first_pair(self, inoue):
        basis = vertical_basis(inoue)
        action = endo_curvature_action(curvature(weyl(inoue)), inoue.J)[0][1]
        coeff_a, coeff_b = (g_fiber(inoue, action, v) * (Fraction(1, 2) / norm)
                            for v, norm in zip(basis.elements, basis.norm_sq))
        assert str(coeff_a) == "-1/8*a1*a3 + 1/8*a2*a4"
        assert str(coeff_b) == "-1/8*a1*a4 - 1/8*a2*a3"

    @pytest.mark.parametrize("name, directions", [("inoue-s0", 2), ("vaisman6", 6),
                                                  ("inoue_s0_rotated.toml", 2),
                                                  ("hyperbolic6_rotated.toml", 6)])
    def test_vertical_part_reconstructs_curvature_action(self, name, directions):
        # sum_alpha G(R(X,Y)J, V_alpha) / norm_sq[alpha] * V_alpha must equal R(X,Y)J exactly
        spec = (builtin(name) if name == "inoue-s0" else
                load_spec(frame_families.DENSE_J[name]) if name in frame_families.DENSE_J else
                load_spec_file(pathlib.Path(__file__).parent / "data" / f"{name}.toml"))
        basis = vertical_basis(spec)
        assert len(basis.elements) == directions
        act_j = endo_curvature_action(curvature(weyl(spec)), spec.J)
        assert any(x for row in act_j for action in row for x in chain(*action))
        for row in act_j:
            for action in row:
                weights = [g_fiber(spec, action, v) * (1 / norm)
                           for v, norm in zip(basis.elements, basis.norm_sq)]
                assert linear_combination(spec, weights, basis.elements) == action


def _negated_pairing(spec):
    """-P, the negated condition-(i) pairing."""
    return tuple(tuple(-value for value in row) for row in pseudoharmonic.condition_i_pairing(spec))


class TestTraces:
    def test_lee_weyl_form_gives_zero_traces(self, inoue, kodairas):
        for base in (inoue, kodairas[(1, 1)], kodairas[(-1, -1)]):
            spec = base.with_phi(lee_form(base))
            assert all(entry.is_zero for entry in h_trace(spec))
            assert all(entry.is_zero for row in v_trace(spec) for entry in row)

    def test_inoue_reduced_horizontal_trace(self, inoue_reduced):
        values = [str(entry) for entry in h_trace(inoue_reduced)]
        assert values == ["0", "1/2*a1^2 + 1/2*a2^2 - a2 + 1/2", "0", "0"]

    def test_inoue_vertical_trace_vanishes_iff_a3_a4_zero(self, inoue, inoue_reduced):
        full = v_trace(inoue)
        assert any(not entry.is_zero for row in full for entry in row)
        nonzero, _ = normalized_system(entry for row in full for entry in row)
        r = inoue.ring
        assert nonzero == (normalize_up_to_unit(r.sym("a3")),
                           normalize_up_to_unit(r.sym("a4")))
        assert all(entry.is_zero for row in v_trace(inoue_reduced) for entry in row)

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_kodaira_vertical_trace_vanishes_identically(self, kodairas, signs):
        spec = kodairas[signs]
        assert all(entry.is_zero for row in v_trace(spec) for entry in row)
        assert v_trace(spec) == _negated_pairing(spec)

    def test_paths_agree_everywhere(self, inoue, kodairas, hyperbolic_like):
        for spec in (inoue, kodairas[(1, -1)], hyperbolic_like):
            assert v_trace(spec) == _negated_pairing(spec)

    def test_traces_are_gated(self, nonintegrable, heisenberg6):
        for spec in (nonintegrable, heisenberg6):
            with pytest.raises(GateError):
                h_trace(spec)
            with pytest.raises(GateError):
                v_trace(spec)

    def test_horizontal_trace_matches_condition_system(self, kodairas):
        for signs, spec in kodairas.items():
            values, _ = normalized_system(h_trace(spec))
            report = pseudoharmonic.conditions(spec)
            assert values == report.condition_ii


# -- the vertical basis against the adapted-frame construction it replaced -----

def _adapted_frame(spec):
    """An orthonormal frame f with f_{2k+1} = J f_{2k}, as rows of rationals;
    raises FrameError unless J maps frame vectors to signed frame vectors."""
    n = spec.n
    used = set()
    frame = []
    for i in range(n):
        if i in used:
            continue
        column = [spec.J[l][i] for l in range(n)]
        support = [l for l, v in enumerate(column) if v != 0]
        if len(support) != 1 or abs(column[support[0]]) != 1 or support[0] in used:
            raise FrameError(
                "vertical basis construction needs J to map frame vectors to "
                "signed frame vectors")
        used.add(i)
        used.add(support[0])
        frame.append(tuple(Fraction(1 if l == i else 0) for l in range(n)))
        frame.append(tuple(column))
    return frame


def _oracle_basis(spec):
    """Elements and labels from dense rational plane pairings in the adapted frame."""
    n = spec.n
    frame = _adapted_frame(spec)

    def pair_endo(a, b, c, d, sign):
        # S_ab + sign S_cd in the adapted frame, pushed to frame coordinates,
        # where S_ab = f_b f_a^T - f_a f_b^T
        fa, fb, fc, fd = frame[a], frame[b], frame[c], frame[d]
        return tuple(tuple(spec.const(fb[k] * fa[l] - fa[k] * fb[l]
                                      + sign * (fd[k] * fc[l] - fc[k] * fd[l]))
                           for l in range(n)) for k in range(n))

    elements, labels = [], []
    for r in range(n // 2 - 1):
        for s in range(r + 1, n // 2):
            elements.append(pair_endo(2 * r, 2 * s, 2 * r + 1, 2 * s + 1, -1))
            labels.append(f"A[{r+1},{s+1}]")
            elements.append(pair_endo(2 * r, 2 * s + 1, 2 * r + 1, 2 * s, 1))
            labels.append(f"B[{r+1},{s+1}]")
    return tuple(elements), tuple(labels)


def _relabelled(base, order, signs, name):
    """``base`` in the frame E'_a = signs[a] E_{order[a]}: a signed permutation,
    so J stays a signed permutation with other planes and signs."""
    n, ix = base.n, range(base.n)
    o, s = order, signs
    brackets = {(a, b): {d: s[a] * s[b] * s[d] * base.c[o[a]][o[b]][o[d]] for d in ix}
                for a in ix for b in range(a + 1, n)}
    J = [[s[a] * s[b] * base.J[o[a]][o[b]] for b in ix] for a in ix]
    return FrameSpec.create(dimension=n, symbols=base.ring.symbols, brackets=brackets, J=J,
                            phi=[base.phi[o[a]] * s[a] for a in ix], name=name)


def _hyperbolic(n):
    """[E_x, E_2] = -E_x for every x != 2, standard J, no Weyl-form symbols."""
    J = [[0] * n for _ in range(n)]
    for b in range(0, n, 2):
        J[b + 1][b], J[b][b + 1] = 1, -1
    return FrameSpec.create(dimension=n, symbols=(), brackets={(x, 1): {x: -1} for x in
                                                                range(n) if x != 1},
                            J=J, phi=(0,) * n, name=f"hyperbolic{n}")


def _loadable_documents():
    specs = []
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.toml")):
        try:
            specs.append(load_spec_file(path))
        except (FrameError, SpecFormatError):
            pass
    return specs


def _oracle_cases():
    inoue = builtin("inoue-s0")
    cases = [inoue, *(builtin("kodaira", signs) for signs in
                      [(1, 1), (1, -1), (-1, 1), (-1, -1)])]
    cases += _loadable_documents()
    # J pairs E1 with E3 (and E2 with E4); then the same with planes and signs mixed
    e1_e3 = _relabelled(inoue, (0, 2, 1, 3), (1, 1, 1, 1), "inoue-s0 E1-E3")
    assert e1_e3.J[2][0] == 1  # J E1 = E3
    cases.append(e1_e3)
    cases.append(_relabelled(inoue, (3, 1, 0, 2), (1, -1, 1, -1), "inoue-s0 signed"))
    rng = random.Random(12)
    for n in (6, 8):
        base = _hyperbolic(n)
        order = list(range(n))
        rng.shuffle(order)
        cases.append(_relabelled(base, order, [rng.choice((1, -1)) for _ in range(n)],
                                 f"hyperbolic{n} relabelled"))
    cases.append(_hyperbolic(16))
    return cases


def test_vertical_basis_matches_the_adapted_frame_construction():
    cases = _oracle_cases()
    assert len(cases) == 5 + 14 + 2 + 2 + 1  # 14 loadable documents under tests/data
    for spec in cases:
        basis = vertical_basis(spec)
        elements, labels = _oracle_basis(spec)
        assert basis.elements == elements, spec.name
        assert basis.labels == labels, spec.name
        assert basis.norm_sq == (Fraction(2),) * len(elements)
        assert all(type(norm) is Fraction for norm in basis.norm_sq)


@pytest.mark.parametrize("name, status", [("inoue_s0_rotated.toml", 0),
                                          ("hyperbolic6_rotated.toml", 1)])
def test_suite_runs_every_check_on_a_dense_j(tmp_path, monkeypatch, name, status):
    """A J that is no signed permutation has a vertical basis too: ``suite``
    runs both vertical-direction checks on the ``DENSE_J`` documents and
    exits 0 on inoue-s0 and 1 on hyperbolic6, where the one failing check is
    "vertical trace paths agree", the open defect of the vertical trace
    above dimension 4."""
    from wtw.cli import main

    path = tmp_path / name
    path.write_text(frame_families.DENSE_J[name], encoding="utf-8")
    monkeypatch.setenv("WTW_COLOR", "0")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["suite", "--spec", str(path)])
    assert (code, err.getvalue()) == (status, "")
    lines = out.getvalue().splitlines()
    assert {"fiber curvature pairing against every vertical direction: ok",
            "vertical antisymmetry of the fiber curvature: ok"} <= set(lines)
    # the suite's own verdict line, "ok: ok" or "ok: FAIL", first
    failing = [line.removesuffix(": FAIL") for line in lines if line.endswith(": FAIL")]
    assert failing == ([] if status == 0 else ["ok", "vertical trace paths agree"])


@pytest.mark.parametrize("name", sorted(frame_families.DENSE_J))
def test_dense_j_vertical_basis_is_vertical_and_orthogonal(name):
    """On each dense-J frame the basis has m^2 - m elements, each skew and
    anticommuting with J entry by entry, and G(a, b) is norm_sq[a] on the
    diagonal and zero off it, with the norms not all 2."""
    spec = load_spec(frame_families.DENSE_J[name])
    basis = vertical_basis(spec)
    m = spec.n // 2
    assert len(basis.elements) == len(basis.labels) == len(basis.norm_sq) == m * m - m
    assert all(_is_vertical(spec, v) for v in basis.elements)
    for a, (v, norm) in enumerate(zip(basis.elements, basis.norm_sq)):
        assert type(norm) is Fraction and norm > 0
        for b, w in enumerate(basis.elements):
            assert g_fiber(spec, v, w) == spec.const(norm if a == b else 0)
    assert set(basis.norm_sq) != {Fraction(2)}


def test_vertical_checks_name_the_failing_direction_first(monkeypatch):
    """The all-direction checks label index 0 with the vertical direction:
    one nonzero entry of the antisymmetry residual for the second element,
    B[1,2], is reported at (B[1,2], E_i, E_j)."""
    spec = builtin("inoue-s0")
    second = vertical_basis(spec).elements[1]
    residuals = twistor._pairing_residuals

    def one_entry(spec, a, b):
        pairing, antisymmetry = residuals(spec, a, b)
        out = [list(row) for row in antisymmetry]
        if b is second:
            out[0][2] = spec.ring.sym("a1")
        return pairing, out

    monkeypatch.setattr(twistor, "_pairing_residuals", one_entry)
    report = twistor.vertical_checks(spec)
    assert [check.name for check in report.checks] == [
        "fiber curvature pairing against every vertical direction",
        "vertical antisymmetry of the fiber curvature"]
    assert report.checks[0].ok and not report.checks[1].ok
    assert report.checks[1].detail == "1 nonzero entry, first at (B[1,2],E1,E3): a1"


def test_vertical_basis_is_kept_on_the_spec():
    spec = builtin("inoue-s0")
    assert vertical_basis(spec) is vertical_basis(spec)
    a1_zero = spec.with_phi([p.substitute({"a1": 0}) for p in spec.phi])
    assert vertical_basis(a1_zero) == vertical_basis(spec)


@pytest.mark.parametrize("text", [None, frame_families.DENSE_J["inoue_s0_rotated.toml"]],
                         ids=["inoue-s0", "inoue-s0-rotated"])
def test_one_suite_builds_each_dj_image_once(monkeypatch, text):
    """J o nabla_X J is formed once per spec, in ints, which both the nabla-J
    checks and the DJ pairing read: a whole ``suite`` forms it once, with no
    lift.  The DJ pairing hands ``_pairing_identity`` one bracket per
    direction Y, n calls, and that bracket, formed from Levi-Civita data, is
    the commutator [J, D_Y J] of J with the Weyl derivative D_Y J, here on a
    J that is a signed permutation and on a dense one."""
    from wtw.cli import _suite_report

    spec = builtin("inoue-s0") if text is None else load_spec(text)
    calls, identities = collections.Counter(), []
    build, identity = hermitian._j_nabla_j_ints.__wrapped__, twistor._pairing_identity

    def counting_build(spec):
        calls["J o nabla J"] += 1
        return build(spec)

    def recording(R, paired, c):
        identities.append((paired, c))
        return identity(R, paired, c)

    # the compute behind the one kept function that both readers call
    monkeypatch.setattr(hermitian._j_nabla_j_ints, "__wrapped__", counting_build)
    monkeypatch.setattr(twistor, "_pairing_identity", recording)
    assert _suite_report(spec).ok
    # the DJ pairing passes plane y of the pairing array it keeps on the spec
    planes = twistor._curvature_dj_pairing(spec)
    brackets = [(y, c) for paired, c in identities for y, plane in enumerate(planes)
                if paired is plane]
    dj = cov_deriv_endo(weyl(spec), spec.J)
    assert calls["J o nabla J"] == 1
    assert [y for y, _ in brackets] == list(range(spec.n))
    assert all(c == twistor._commutator(spec, spec.J, dj[y]) for y, c in brackets)


@pytest.mark.parametrize("name", ["hyperbolic6", "inoue_rotation6"])
def test_pairing_identity_is_the_weighted_sum_of_its_terms(name, monkeypatch):
    """With a zero pairing array, the fiber-pairing identity at [k][l] is
    sum_{p<q} c[p][q] R.r[p][q][k][l], less 1/2 dphi(c) on the diagonal, plus
    1/2 dphi(c E_k, E_l) - 1/2 dphi(c E_l, E_k), entry by entry, for an array
    c on four planes, one of them with a zero weight, which passes no term;
    its lower triangle, which is not antisymmetric here, enters the
    dphi(c.,.) terms only.  Each entry is one kernel call, the last n^2 calls
    in row order, over the pairing, the two dphi(c.,.) terms, the three
    nonzero planes and, on the diagonal, dphi(c), with as many weights."""
    spec = load_spec_file(pathlib.Path(__file__).parent / "data" / f"{name}.toml")
    R = curvature(weyl(spec))
    n, z, dphi = spec.n, spec.zero(), spec.dphi()
    weights = {(0, 1): spec.ring.sym("a1"), (1, 3): Fraction(3, 2), (2, 5): z, (3, 4): -2}
    c = [[z] * n for _ in range(n)]
    for (p, q), w in weights.items():
        c[p][q], c[q][p] = w, spec.ring.sym("a6")
    dphi_c = sum((w * dphi[p][q] for (p, q), w in weights.items()), z)
    assert not dphi_c.is_zero
    sizes, dot = [], type(spec.ring).dot

    def counting_dot(ring, u, v):
        u, v = list(u), list(v)
        sizes.append((len(u), len(v)))
        return dot(ring, u, v)

    monkeypatch.setattr(type(spec.ring), "dot", counting_dot)
    residual = twistor._pairing_identity(R, [[z] * n for _ in range(n)], c)
    monkeypatch.undo()
    assert sizes[-n * n:] == [(6 + (k == l),) * 2 for k, l in product(range(n), repeat=2)]

    def dphi_along(k, l):  # dphi(c E_k, E_l), with c E_k = sum_p c[p][k] E_p
        return sum((c[p][k] * dphi[p][l] for p in range(n)), z)

    for k, l in product(range(n), repeat=2):
        expected = (sum((w * R.r[p][q][k][l] for (p, q), w in weights.items()), z)
                    + (dphi_along(k, l) - dphi_along(l, k)) * Fraction(1, 2))
        if k == l:
            expected -= dphi_c * Fraction(1, 2)
        assert residual[k][l] == expected


# -- the traces read the condition builders ------------------------------------

def _gate_passing_frames():
    """The 5 built-ins and the documents under tests/data that pass the gate."""
    specs = [builtin("inoue-s0"), *(builtin("kodaira", signs) for signs in
                                    [(1, 1), (1, -1), (-1, 1), (-1, -1)])]
    for spec in _loadable_documents():
        try:
            require_gate(spec)
        except GateError:
            continue
        specs.append(spec)
    assert len(specs) == 5 + 12 and {spec.n for spec in specs} == {4, 6, 8}
    return specs


def test_vertical_trace_is_the_negated_condition_i_pairing_at_n4():
    """Two computations: the traced D2 J of ``v_trace`` against the 2-form
    builder of condition (i), on every gate-passing frame with n = 4 and on
    the dense-J inoue-s0; condition (i) is P[k][l], k < l, on all 17."""
    frames = _gate_passing_frames()
    n4 = [spec for spec in frames if spec.n == 4]
    assert len(n4) == 7
    for spec in [*n4, load_spec(frame_families.DENSE_J["inoue_s0_rotated.toml"])]:
        assert v_trace(spec) == _negated_pairing(spec), spec.name
    for spec in frames:
        pairing = pseudoharmonic.condition_i_pairing(spec)
        n = spec.n
        assert pseudoharmonic.condition_i(spec) == [pairing[k][l] for k in range(n)
                                                    for l in range(k + 1, n)], spec.name


def test_horizontal_trace_is_condition_ii_entry_by_entry():
    for spec in _gate_passing_frames():
        assert h_trace(spec) == pseudoharmonic.condition_ii(spec), spec.name


def test_a_perturbed_action_on_j_fails_the_horizontal_equivalence(monkeypatch):
    """h_trace reads the curvature action on J: adding a vertical V to the action
    at (E_i, E_j) and -V at (E_j, E_i), with G(V, D_{E_i} J) != 0, moves h_trace
    at E_j by that pairing, so the comparison with condition (ii) fails."""
    name = "horizontal trace equals condition (ii) componentwise"
    path = pathlib.Path(__file__).parent / "data" / "inoue_rotation6.toml"
    assert name not in [check.name for check in twistor.equivalence_check(
        load_spec_file(path)).failures]
    spec = load_spec_file(path)
    dj = cov_deriv_endo(weyl(spec), spec.J)
    i, v = next((i, v) for i, d in enumerate(dj) for v in vertical_basis(spec).elements
                if not g_fiber(spec, v, d).is_zero)
    j = (i + 1) % spec.n
    original = twistor.endo_curvature_action.__wrapped__

    def perturbed(R, S):
        action = [list(row) for row in original(R, S)]
        action[i][j] = linear_combination(spec, (1, 1), (action[i][j], v))
        action[j][i] = linear_combination(spec, (1, -1), (action[j][i], v))
        return tuple(tuple(row) for row in action)

    monkeypatch.setattr(twistor.endo_curvature_action, "__wrapped__", perturbed)
    assert name in [check.name for check in twistor.equivalence_check(spec).failures]


def _dense_j_frame(base: str) -> FrameSpec:
    """The base frame in the rotated basis of ``test_frame._rotated``, with
    the Weyl form a1 .. an there: its J has no zero entry off the diagonal."""
    from test_frame import _rotated

    spec = (builtin(base) if base == "inoue-s0" else
            load_spec_file(pathlib.Path(__file__).parent / "data" / f"{base}.toml"))
    rotated = _rotated(spec, f"{base} rotated")
    assert not any(rotated.J[i][j] == 0 for i in range(spec.n) for j in range(spec.n) if i != j)
    return rotated


DENSE_J_BASES = ["inoue-s0", "hyperbolic6", "vaisman6"]


@pytest.mark.parametrize("base", DENSE_J_BASES)
def test_horizontal_trace_is_condition_ii_on_dense_j_frames(base):
    """The traced fiber pairing equals condition (ii) entry by entry on frames
    whose J is no signed permutation."""
    rotated = _dense_j_frame(base)
    values = h_trace(rotated)
    assert not any(value.is_zero for value in values)
    assert values == pseudoharmonic.condition_ii(rotated)


@pytest.mark.parametrize("base", DENSE_J_BASES)
def test_fiber_pairings_hold_on_dense_j_frames(base):
    """Both readers of ``_pairing_identity`` pass on frames whose J is no
    signed permutation, where a transposed index cannot hide behind J's
    zeros: the DJ pairing, and the pairing identity for a = J against
    b = D_Y J for every Y."""
    rotated = _dense_j_frame(base)
    assert twistor.curvature_pairing_with_dj_check(rotated).ok
    J = rotated.J
    for dj in cov_deriv_endo(weyl(rotated), J):
        assert fiber_pairing_check(rotated, J, dj).ok


@pytest.mark.parametrize("base", DENSE_J_BASES)
def test_dj_residual_pairs_every_entry_of_the_action(base, monkeypatch):
    """The DJ pairing pairs D_Y J with the action on J at X < Z only and
    mirrors it.  With a skew V added to the action at (E_3, E_1) and -V at
    (E_1, E_3), the residual it reports equals an entrywise evaluation that
    pairs every entry of the action, X > Z included: the pairing with the
    perturbed action minus the pairing with the true one, as the check holds
    for the true action."""
    name = "pairing of the fiber curvature with DJ through Levi-Civita data"
    assert twistor.curvature_pairing_with_dj_check(_dense_j_frame(base)).ok
    spec = _dense_j_frame(base)
    n, v = spec.n, _random_skew(spec, 29)
    original = twistor.endo_curvature_action.__wrapped__

    def perturbed(R, S):
        action = [list(row) for row in original(R, S)]
        action[2][0] = linear_combination(spec, (1, 1), (action[2][0], v))
        action[0][2] = linear_combination(spec, (1, -1), (action[0][2], v))
        return tuple(tuple(row) for row in action)

    residuals = []
    require_zero = twistor.CheckReport.require_zero

    def captured(report, check, residual, labels):
        if check == name:
            residuals.append(residual)
        require_zero(report, check, residual, labels)

    monkeypatch.setattr(twistor.endo_curvature_action, "__wrapped__", perturbed)
    monkeypatch.setattr(twistor.CheckReport, "require_zero", captured)
    assert not twistor.curvature_pairing_with_dj_check(spec).ok
    R, J = curvature(weyl(spec)), spec.J
    action, true_action = endo_curvature_action(R, J), original(R, J)
    dj = cov_deriv_endo(weyl(spec), J)
    expected = [[[g_fiber(spec, action[x][z], dj[y]) - g_fiber(spec, true_action[x][z], dj[y])
                  for z in range(n)] for x in range(n)] for y in range(n)]
    assert [[list(row) for row in plane] for plane in residuals[0]] == expected
    assert any(expected[y][2][0] for y in range(n))


def _paper_dj_right_hand_side(spec):
    """The right-hand side of the DJ pairing at [y][x][z], entry by entry from
    the paper's expansion through Levi-Civita data, with b = J o nabla_Y J
    composed from the Levi-Civita derivative of J and u = phi# ^ Y - J phi# ^ JY:

        2 g(R(b^) X, Z) - g(R(u) X, Z) - dphi(b^) g(X, Z) - dphi(bX, Z)
        - dphi(X, bZ) + 1/2 dphi(u) g(X, Z)
        + 1/2 [phi(JX) dphi(JY, Z) + phi(X) dphi(Y, Z)
               - g(Y, JX) dphi(J phi#, Z) - g(Y, X) dphi(phi#, Z)]
        + 1/2 [phi(JZ) dphi(X, JY) + phi(Z) dphi(X, Y)
               - g(Y, JZ) dphi(X, J phi#) - g(Y, Z) dphi(X, phi#)],

    with g(R(w) E_x, E_z) = sum_{p<q} w[p][q] R.r[p][q][x][z] and dphi(w) =
    sum_{p<q} w[p][q] dphi[p][q] on a bivector w, and J E_x = sum_p J[p][x] E_p."""
    n, z, J, phi = spec.n, spec.zero(), spec.J, spec.phi
    R, dphi, half = curvature(weyl(spec)), spec.dphi(), Fraction(1, 2)
    planes = list(combinations(range(n), 2))
    jphi = [sum((J[p][q] * phi[q] for q in range(n)), z) for p in range(n)]  # J phi#

    def r_on(w, x, t):
        return sum((w[p][q] * R.r[p][q][x][t] for p, q in planes), z)

    def dphi_on(w):
        return sum((w[p][q] * dphi[p][q] for p, q in planes), z)

    def dphi_of(v, t):  # dphi(v, E_t) for a vector v
        return sum((v[p] * dphi[p][t] for p in range(n)), z)

    def phi_j(x):  # phi(J E_x)
        return sum((phi[p] * J[p][x] for p in range(n)), z)

    lc = cov_deriv_endo(levi_civita(spec), J)
    out = []
    for y in range(n):
        b = spec.compose(J, lc[y])
        b_hat = [[b[t][x] for t in range(n)] for x in range(n)]  # g(b E_x, E_t)
        jy = [J[p][y] for p in range(n)]                          # J E_y
        u = [[phi[p] * (q == y) - phi[q] * (p == y) - (jphi[p] * jy[q] - jphi[q] * jy[p])
              for q in range(n)] for p in range(n)]
        trace_terms = -dphi_on(b_hat) + half * dphi_on(u)

        def first(x, t):  # the first bracket, at (X, Z) = (E_x, E_t)
            return (phi_j(x) * dphi_of(jy, t) + phi[x] * dphi[y][t]
                    - J[y][x] * dphi_of(jphi, t) - (x == y) * dphi_of(phi, t))

        out.append([[2 * r_on(b_hat, x, t) - r_on(u, x, t) + (x == t) * trace_terms
                     - sum((b[p][x] * dphi[p][t] + b[p][t] * dphi[x][p] for p in range(n)), z)
                     + half * (first(x, t) - first(t, x))
                     for t in range(n)] for x in range(n)])
    return out


def test_dj_pairing_right_hand_side_is_the_papers_expansion(monkeypatch):
    """The DJ pairing reads its right-hand side from the fiber-pairing
    identity at (J, D_Y J); with its left-hand side set to zero, its residual
    is minus the paper's expansion, entry by entry, on the 5 built-ins, the
    12 gate-passing documents, both dense-J frames and the unitary one."""
    name = "pairing of the fiber curvature with DJ through Levi-Civita data"
    residuals = []
    require_zero = twistor.CheckReport.require_zero

    def captured(report, check, residual, labels):
        if check == name:
            residuals.append(residual)
        require_zero(report, check, residual, labels)

    def zero_pairing(spec):
        return ((((spec.zero(),) * spec.n,) * spec.n,) * spec.n)

    monkeypatch.setattr(twistor._curvature_dj_pairing, "__wrapped__", zero_pairing)
    monkeypatch.setattr(twistor.CheckReport, "require_zero", captured)
    frames = [*_gate_passing_frames(), *(load_spec(text, key) for key, text in
                                         {**frame_families.DENSE_J,
                                          **frame_families.UNITARY}.items())]
    assert len(frames) == 20
    vanishing = []
    for spec in frames:
        residuals.clear()
        twistor.curvature_pairing_with_dj_check(spec)
        expected = [[[-x for x in row] for row in plane]
                    for plane in _paper_dj_right_hand_side(spec)]
        assert [[list(row) for row in plane] for plane in residuals[0]] == expected, spec.name
        if not any(chain.from_iterable(chain.from_iterable(expected))):
            vanishing.append(spec.name)
    # R = 0 on the flat torus, and D J = 0 for the Weyl connection of the Lee form
    assert vanishing == ["flat_torus.toml", "inoue_lee.toml"]


# J dense, or J standard and the brackets dense, at n = 4 and 6
PAIRING_FRAMES = {**frame_families.DENSE_J, **frame_families.UNITARY,
                  "inoue_s0_unitary.toml": frame_families._rotated(
                      "inoue-s0", 4, frame_families._inoue_brackets((0,)),
                      frame_families.unitary(4))}


@pytest.mark.parametrize("name", sorted(PAIRING_FRAMES))
def test_dj_pairing_array_is_the_fiber_pairing_entry_by_entry(name):
    """The one array G(R(E_x, E_z)J, D_{E_y} J) at [y][x][z], which the DJ
    pairing reads whole and ``h_trace`` traces, is formed for x < z and
    mirrored; every entry, x > z included, equals ``g_fiber`` of the action on
    J at [x][z] and D_{E_y} J."""
    spec = load_spec(PAIRING_FRAMES[name], name)
    n, conn = spec.n, weyl(spec)
    action = endo_curvature_action(curvature(conn), spec.J)
    dj = cov_deriv_endo(conn, spec.J)
    paired = twistor._curvature_dj_pairing(spec)
    assert [[list(row) for row in plane] for plane in paired] == [
        [[g_fiber(spec, action[x][z], dj[y]) for z in range(n)] for x in range(n)]
        for y in range(n)]
    assert any(chain.from_iterable(chain.from_iterable(paired)))


@pytest.mark.parametrize("base", DENSE_J_BASES)
def test_commutator_is_the_difference_of_the_two_products(base):
    """``_commutator`` against a o b - b o a formed by its definition, on
    frames whose J has no zero off the diagonal: for general a and b with no
    zero entry, polynomial entries included, and for every R(E_i, E_j) against J."""
    spec = _dense_j_frame(base)
    rng = random.Random(base)
    values = ([spec.const(Fraction(p, q)) for p in (-3, -1, 2) for q in (1, 3)]
              + [spec.ring.sym(s) + 1 for s in spec.ring.symbols])

    def general():
        return tuple(tuple(rng.choice(values) for _ in range(spec.n)) for _ in range(spec.n))

    pairs = [(general(), general()) for _ in range(3)]
    assert all(x for a, b in pairs for x in chain(*a, *b))
    R = curvature(weyl(spec))
    pairs += [(tuple(zip(*R.r[i][j])), spec.J) for i, j in combinations(range(spec.n), 2)]
    _assert_commutator_is_its_definition(spec, pairs)


@pytest.mark.parametrize("base", DENSE_J_BASES)
def test_commutator_is_the_difference_of_the_two_products_on_sparse_frames(base):
    """The same on the unrotated frames, whose J is a signed permutation: the
    row a[i] + (-b[i]) then has zero entries, which ``FrameSpec.right``
    skips, for every R(E_i, E_j) and every vertical V against J, in both orders."""
    spec = (builtin(base) if base == "inoue-s0" else
            load_spec_file(pathlib.Path(__file__).parent / "data" / f"{base}.toml"))
    J = spec.J
    assert any(x == 0 for x in chain(*J))
    R = curvature(weyl(spec))
    others = [tuple(zip(*R.r[i][j])) for i, j in combinations(range(spec.n), 2)]
    others += vertical_basis(spec).elements
    _assert_commutator_is_its_definition(
        spec, [pair for a in others for pair in ((a, J), (J, a))])


def _assert_commutator_is_its_definition(spec, pairs):
    """The commutator, and ``twistor._is_vertical`` against the entrywise
    test, on every endomorphism paired with J."""
    J = spec.J
    for a, b in pairs:
        ab, ba = spec.compose(a, b), spec.compose(b, a)
        assert twistor._commutator(spec, a, b) == linear_combination(spec, (1, -1), (ab, ba))
        if b is J:
            assert twistor._is_vertical(spec, a) == _is_vertical(spec, a)


@pytest.mark.parametrize("name", sorted(frame_families.DENSE_J))
def test_is_vertical_is_more_than_skewness(name):
    """On each dense-J frame and its unrotated base, ``_is_vertical`` accepts
    1/2 (X + J X J) for every elementary skew X and refuses J and X itself,
    all skew: a verticality test that reduced to skewness would accept them."""
    rotated = load_spec(frame_families.DENSE_J[name])
    base = builtin("inoue-s0") if rotated.n == 4 else load_spec(frame_families.hyperbolic(6))
    for spec in (rotated, base):
        J, half = spec.J, Fraction(1, 2)
        assert not twistor._is_vertical(spec, J)
        nonzero = 0
        for i, j in combinations(range(spec.n), 2):
            X = _pair_endo(spec, i, j)
            V = linear_combination(spec, (half, half), (X, spec.compose(spec.compose(J, X), J)))
            assert twistor._is_vertical(spec, V) and _is_vertical(spec, V)
            assert not twistor._is_vertical(spec, X) and not _is_vertical(spec, X)
            nonzero += any(chain(*V))
        assert nonzero >= spec.n * (spec.n - 2) // 2
