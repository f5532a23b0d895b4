"""Derived quantities are computed once per spec, kept on it and freed with it."""

from __future__ import annotations

import contextlib
import copy
import gc
import importlib
import io
import pathlib
import pickle
import sys
import weakref
from unittest import mock

import pytest

import frame_families
from wtw import (FrameSpec, GateError, builtin, conditions, curvature, identity_suite,
                 levi_civita, load_spec, load_spec_file, ricci_formula_check, verify_assignment,
                 weyl)
from wtw import cli, connection, frame, hermitian, pseudoharmonic, twistor
from wtw.curvature import phi_tensor, ricci_via_formula
from wtw.polyalg import Ring
from wtw.pseudoharmonic import condition_ii

curvature_module = importlib.import_module("wtw.curvature")


def _counting(kept):
    """Count the computes of a kept function, not its reads: its ``__wrapped__``
    is replaced for every reader, however it imported the name."""
    return mock.patch.object(kept, "__wrapped__", wraps=kept.__wrapped__)


def test_suite_computes_each_quantity_once():
    spec = builtin("kodaira", (1, -1))
    with _counting(hermitian._nijenhuis_ints) as nijenhuis, \
            _counting(hermitian.lee_form) as lee, \
            _counting(connection.weyl) as weyl_gammas, \
            _counting(curvature_module.curvature) as curvature, \
            _counting(twistor.endo_curvature_consistency) as consistency, \
            _counting(curvature_module.ricci_via_formula) as formulas, \
            _counting(curvature_module.phi_tensor) as phi_tensor:
        report = cli._suite_report(spec)
    assert report.ok
    # N in ints, which the gate and the lck check both read; nothing lifts it
    assert nijenhuis.call_count == 1
    assert lee.call_count == 1
    # the Weyl gammas of the spec's own phi only: the nabla-J checks read D J
    # for the Weyl connection of theta from its int rows, with no second spec
    assert [call.args[0] for call in weyl_gammas.call_args_list].count(spec) == 1
    assert sorted(call.args[0].kind for call in curvature.call_args_list) == [
        "levi-civita", "weyl"]
    # once for J, although the pairing check runs for every vertical direction
    assert consistency.call_count == 1
    # the closed Ricci formulas, which the Ricci check reads
    assert formulas.call_count == 1
    # Phi, which the Phi-correction check, the closed formulas and the rho*
    # defect check all read
    assert phi_tensor.call_count == 1


@pytest.mark.parametrize("name", ["inoue-s0", "vaisman6.toml", "hyperbolic8.toml"])
def test_vertical_checks_form_one_commutator_per_direction(name):
    """With the action on J and the vertical basis already kept, one
    ``vertical_checks`` cross-checks the action on J once and forms one
    commutator [J, V] per vertical direction V, m^2 - m for m = n/2, which
    both the pairing identity and the antisymmetry read."""
    spec = (builtin(name) if name == "inoue-s0" else
            load_spec_file(pathlib.Path(__file__).parent / "data" / name))
    twistor.endo_curvature_action(curvature(weyl(spec)), spec.J)
    twistor.vertical_basis(spec)
    with _counting(twistor.endo_curvature_consistency) as consistency, \
            mock.patch.object(twistor, "_commutator", wraps=twistor._commutator) as commutator:
        assert twistor.vertical_checks(spec).ok
    m = spec.n // 2
    assert consistency.call_count == 1
    assert commutator.call_count == m * m - m
    assert {call.args[1] for call in commutator.call_args_list} == {spec.J}


def _suite_n4_draw():
    """One rotated draw of the benchmark's suite-n4 workload: dense brackets,
    and J a signed permutation."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    with mock.patch.object(sys, "path", [str(path), *sys.path]):
        frames = importlib.import_module("frames")
    return load_spec(frames.document(frames.Drawer("suite-n4", 777).rotated_n4("hyperbolic")))


@pytest.mark.parametrize("load", [
    lambda: builtin("kodaira", (1, -1)), lambda: builtin("inoue-s0"), _suite_n4_draw,
    lambda: load_spec(frame_families.DENSE_J["inoue_s0_rotated.toml"])],
    ids=["kodaira(+1,-1)", "inoue-s0", "suite-n4 draw", "dense-J"])
def test_hermitian_checks_make_no_kernel_call(monkeypatch, load):
    """N, theta, d(Omega), the Lee residual, nabla J, J o nabla J and D J for the
    Weyl connection of theta are formed in ints: on a fresh spec,
    ``lck_check`` and ``nabla_j_checks``, the gate included, never call
    ``Ring.dot``."""
    spec = load()
    calls = []
    dot = Ring.dot

    def counted(ring, u, v):
        calls.append(ring)
        return dot(ring, u, v)

    monkeypatch.setattr(Ring, "dot", counted)
    assert hermitian.lck_check(spec).ok and hermitian.nabla_j_checks(spec).ok
    assert not calls


def test_report_builds_each_condition_once():
    """One ``report`` forms the condition-(i) pairing, condition (ii), the
    closed Ricci formulas and Phi once, although the condition systems and the
    trace equivalence read both conditions, and the identity suite and the
    Ricci check read Phi."""
    with _counting(pseudoharmonic.condition_i_pairing) as pairing, \
            _counting(pseudoharmonic._condition_ii_values) as values, \
            _counting(curvature_module.ricci_via_formula) as formulas, \
            _counting(curvature_module.phi_tensor) as phi_tensor, \
            contextlib.redirect_stdout(io.StringIO()) as out:
        status = cli.main(["report", "--builtin", "inoue-s0"])
    assert status == 1 and '"verdict": "conditional; see the condition systems"' in out.getvalue()
    assert pairing.call_count == 1
    assert values.call_count == 1
    assert formulas.call_count == 1
    assert phi_tensor.call_count == 1


def test_conditions_form_no_weyl_curvature():
    """Condition (ii) reads rho and rho* from Levi-Civita data, and rho_g and
    rho*_g are traced in ints from the rational R_g: ``conditions`` and
    ``verify_assignment`` form neither the Weyl gammas nor any curvature tensor
    of scalars."""
    spec = load_spec_file(pathlib.Path(__file__).parent / "data" / "hyperbolic6.toml")
    with _counting(connection.weyl) as weyl_gammas, \
            _counting(curvature_module.curvature) as curvature:
        verify_assignment(conditions(spec), {"a1": 0})
    assert weyl_gammas.call_count == 0
    assert curvature.call_count == 0


def test_conditions_form_no_covariant_derivative_of_scalars():
    """``conditions`` and ``verify_assignment`` form no nabla J of scalars, as
    the Lee form reads delta J from the int nabla J, and neither Phi nor the
    closed Ricci formulas: condition (ii) reads nabla phi, rho_g and rho*_g as
    int coefficients, so it twists no array and lifts no Levi-Civita value."""
    spec = load_spec_file(pathlib.Path(__file__).parent / "data" / "hyperbolic6.toml")
    with _counting(connection.cov_deriv_endo) as nabla_endo, \
            _counting(connection.levi_civita) as lifted, \
            _counting(curvature_module.phi_tensor) as phi, \
            _counting(curvature_module.ricci_via_formula) as formulas, \
            _counting(curvature_module._ricci_ints) as traces, \
            mock.patch.object(FrameSpec, "twist", autospec=True,
                              side_effect=FrameSpec.twist) as twist:
        verify_assignment(conditions(spec), {"a1": 0})
    assert nabla_endo.call_count == 0
    assert lifted.call_count == 0
    assert phi.call_count == 0
    assert formulas.call_count == 0
    assert twist.call_count == 0
    assert traces.call_count == 1


def test_second_derivatives_keep_only_the_first():
    """The curvature cross-check and the vertical trace read D S, kept on the
    connection, and form the derivatives D_{E_i}(D_{E_j} S) without keeping
    them: after both, the Weyl connection keeps one D S, the one for J."""
    spec = builtin("inoue-s0")
    conn = weyl(spec)
    twistor.endo_curvature_consistency(conn, spec.J)
    twistor.v_trace(spec)
    kept = [key for key in conn.__dict__["_memo"] if key[0] is connection.cov_deriv_endo]
    assert kept == [(connection.cov_deriv_endo, spec.J)]


@pytest.mark.parametrize("spec", [
    builtin("kodaira", (1, -1)),
    load_spec(frame_families.DENSE_J["inoue_s0_rotated.toml"], "inoue-s0 rotated")],
    ids=["signed-permutation", "dense-J"])
def test_j_and_a_constant_scalar_copy_share_one_kept_value(spec):
    """J is passed as ``spec.J``, its rationals; an equal array of constant
    scalars compares and hashes alike, so it finds the same kept value."""
    scalar_j = tuple(tuple(map(spec.const, row)) for row in spec.J)
    assert scalar_j == spec.J and hash(scalar_j) == hash(spec.J)
    conn = weyl(spec)
    R = curvature(conn)
    for derive, source in ((connection.cov_deriv_endo, conn),
                           (twistor.endo_curvature_action, R)):
        assert derive(source, scalar_j) is derive(source, spec.J), derive.__name__


def test_weyl_curvature_routes_stay_independent():
    # a wrong direct Weyl curvature must be caught by the Phi-correction check
    # and by the closed Ricci formulas, which therefore may not read the direct
    # route's stored result
    spec = builtin("inoue-s0")
    compute = curvature_module.curvature.__wrapped__

    def broken(conn):
        R = compute(conn)
        if conn.kind != "weyl":
            return R
        r = [[[list(row) for row in plane] for plane in block] for block in R.r]
        r[0][1][2][1] = r[0][1][2][1] + 1  # rho[0][2] traces it
        frozen = tuple(tuple(tuple(tuple(row) for row in plane) for plane in block)
                       for block in r)
        return curvature_module.Curvature(R.spec, frozen)

    with mock.patch.object(curvature_module.curvature, "__wrapped__", broken):
        report = identity_suite(spec)
        report.extend(ricci_formula_check(spec))
    verdicts = {check.name: check.ok for check in report.checks}
    assert not verdicts["direct Weyl curvature equals Phi-correction formula"]
    assert not verdicts["rho of the Weyl connection from Levi-Civita data"]


def test_new_specs_get_their_own_gammas():
    spec = builtin("inoue-s0")
    parent = weyl(spec)
    a1_zero = spec.with_phi([p.substitute({"a1": 0}) for p in spec.phi])
    for child in (spec.with_phi((0, "a2", 0, 0)), a1_zero):
        assert weyl(child) is weyl(child)
        assert weyl(child) is not parent
        assert weyl(child).gamma != parent.gamma
    # an equal spec is still a separate object with its own store
    twin = spec.with_phi(spec.phi)
    assert twin == spec
    assert levi_civita(twin) is not levi_civita(spec)
    # not even what depends on c and J alone is handed on: each new spec
    # starts with no memo entry and computes equal values of its own
    ricci_formula_check(spec)
    phi_free = (frame.FrameSpec.bracket_rows, frame.FrameSpec.j_columns, connection.gamma_rows,
                curvature_module._levi_civita_r, curvature_module._ricci_ints)
    for child in (spec.with_phi([p.substitute({"a1": 0}) for p in spec.phi]),
                  spec.with_phi(spec.phi), spec.with_phi((0, "a2", 0, 0))):
        assert child.__dict__.get("_memo", {}) == {}
        child.bracket_rows()
        assert list(child.__dict__["_memo"]) == [(frame.FrameSpec.bracket_rows,)]
        for compute in phi_free:
            assert compute(child) == compute(spec)
            assert compute(child) is not compute(spec)


def test_a_new_weyl_form_reads_none_of_the_parents_values():
    # a value computed under one phi must never serve a spec with another
    spec = builtin("inoue-s0")
    readers = (phi_tensor, ricci_via_formula, condition_ii)
    before = [read(spec) for read in readers]
    child = spec.with_phi((0, "a2", 0, 0))
    for read, value in zip(readers, before):
        assert read(child) != value
        assert read(spec) is value


def test_spec_is_freed_after_suite():
    spec = builtin("kodaira", (1, 1))
    assert cli._suite_report(spec).ok
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def _same(a, b) -> bool:
    """Equality that reads a kept object's fields and kept values: a
    :class:`wtw.frame.Memo` other than a spec has no ``__eq__`` of its own."""
    if isinstance(a, frame.Memo) and not isinstance(a, FrameSpec):
        return type(a) is type(b) and _same(vars(a), vars(b))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


def test_a_spec_with_every_kept_value_pickles_and_deep_copies():
    """After the full suite the spec keeps method and function entries, some
    with arguments, and a ``None`` (the Hom cross-check); a pickled and a
    deep-copied spec equal it, and so does each kept value, which a read of
    the copy returns without computing it again."""
    spec = builtin("kodaira", (1, -1))
    assert cli._suite_report(spec).ok
    store = spec.__dict__["_memo"]
    assert {frame.FrameSpec.bracket_rows, hermitian._nabla_j, hermitian.require_gate} <= {
        key[0] for key in store}
    assert weyl(spec).__dict__["_memo"][(twistor.endo_curvature_consistency, spec.J)] is None
    for twin in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert twin == spec and twin is not spec
        assert _same(twin.__dict__["_memo"], store)
        with _counting(connection.weyl) as weyl_gammas, \
                _counting(curvature_module.curvature) as computed, \
                _counting(hermitian.require_gate) as gate:
            assert weyl(twin).gamma == weyl(spec).gamma
            assert curvature(weyl(twin)).r == curvature(weyl(spec)).r
            assert hermitian.require_gate(twin) == hermitian.require_gate(spec)
            assert condition_ii(twin) == condition_ii(spec)
        assert weyl_gammas.call_count == computed.call_count == gate.call_count == 0


@pytest.mark.parametrize("name, assumption", [("nonintegrable", "integrability assumption"),
                                              ("heisenberg6", "Lee identity assumption")])
def test_a_failing_gate_raises_on_every_call_and_keeps_nothing(request, name, assumption):
    spec = request.getfixturevalue(name)
    with _counting(hermitian.require_gate) as gate:
        for _ in range(3):
            with pytest.raises(GateError, match=assumption):
                hermitian.require_gate(spec)
    assert gate.call_count == 3
    assert not [key for key in spec.__dict__["_memo"] if key[0] is hermitian.require_gate]


def test_a_passing_gate_computes_once():
    """The gate is read by every condition builder and the traces; its
    verdict is computed once and each read returns the same Lee form."""
    spec = load_spec_file(pathlib.Path(__file__).parent / "data" / "hyperbolic6.toml")
    with _counting(hermitian.require_gate) as gate:
        theta = hermitian.require_gate(spec)
        conditions(spec)
        twistor.equivalence_check(spec)
        assert hermitian.require_gate(spec) is theta
    assert gate.call_count == 1
    assert [key for key in spec.__dict__["_memo"] if key[0] is hermitian.require_gate] == [
        (hermitian.require_gate,)]
