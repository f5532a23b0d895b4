"""The public surface of ``wtw``, what each command imports, and the record
contracts: equality, hashing, validation and immutability."""

from __future__ import annotations

import ast
import copy
import importlib
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import wtw
from src_lines import public_members
from wtw import FrameSpec, Ring, builtin, curvature, levi_civita, weyl

SRC = pathlib.Path(wtw.__file__).resolve().parent.parent

# the package's exports, grouped by the module that defines each name
EXPORTS = {
    "polyalg": ("ExponentOverflowError", "PolynomialParseError", "Ring", "RingMismatchError",
                "Scalar", "normalize_up_to_unit", "normalized_system"),
    "frame": ("FrameError", "FrameSpec", "GateError", "SpecFormatError", "builtin",
              "d_oneform", "load_spec", "load_spec_file"),
    "connection": ("Connection", "cov_deriv_endo", "levi_civita", "reconstruct_weyl_form",
                   "traced_second_cov_deriv_endo", "weyl"),
    "curvature": ("Curvature", "curvature", "identity_suite", "phi_tensor", "ricci",
                  "ricci_formula_check", "star_ricci"),
    "hermitian": ("GateError", "lck_check", "lee_form", "nabla_j_checks", "nijenhuis",
                  "require_gate"),
    "twistor": ("VerticalBasis", "curvature_pairing_with_dj_check",
                "equivalence_check", "g_fiber", "h_trace", "vertical_checks",
                "fiber_pairing_check", "v_trace", "vertical_basis"),
    "pseudoharmonic": ("AssignmentVerdict", "ConditionReport", "condition_i", "condition_ii",
                       "conditions", "verify_assignment"),
}

LAZY = ("wtw.hermitian", "wtw.twistor", "wtw.pseudoharmonic")
WATCHED = ("dataclasses", "json", *LAZY)

# Run one command in a fresh interpreter, then report which watched modules
# it loaded and what ``wtw.curvature`` names afterwards.
_PROBE = """
import contextlib, io, sys
import wtw
from wtw.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(sys.argv[1:])
loaded = [name for name in {watched!r} if name in sys.modules]
print(repr((status, loaded, type(wtw.curvature).__name__)))
"""

VERBS = ("validate", "connection", "curvature", "ricci", "star-ricci", "lee", "lck",
         "conditions", "verify", "suite", "report")


def _probe(argv: list[str]):
    env = dict(os.environ, PYTHONPATH=str(SRC), WTW_COLOR="0")
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(watched=WATCHED), *argv],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return ast.literal_eval(proc.stdout)


@pytest.mark.parametrize("verb", VERBS)
def test_each_verb_loads_only_the_layers_it_uses(verb):
    argv = [verb, "--builtin", "inoue-s0"]
    if verb == "verify":
        argv += ["--assign", "a1=0"]
    status, loaded, curvature_type = _probe(argv)
    assert status in (0, 1)
    assert "dataclasses" not in loaded
    assert curvature_type == "function"
    if verb in ("validate", "connection", "curvature", "ricci", "star-ricci"):
        assert not set(LAZY) & set(loaded)
    if verb in ("conditions", "verify"):
        assert "wtw.twistor" not in loaded
    if verb != "report":  # table output; report always prints JSON
        assert "json" not in loaded


def test_every_export_is_its_modules_object():
    names = {name for group in EXPORTS.values() for name in group}
    assert set(wtw.__all__) == names
    for module_name, group in EXPORTS.items():
        module = importlib.import_module(f"wtw.{module_name}")
        for name in group:
            assert getattr(wtw, name) is getattr(module, name), name
    for module_name in ("hermitian", "twistor", "pseudoharmonic"):
        assert getattr(wtw, module_name) is importlib.import_module(f"wtw.{module_name}")
    with pytest.raises(AttributeError):
        wtw.no_such_name  # noqa: B018


# exports that no module of the package reads, kept as library surface: the
# README documents g_fiber and fiber_pairing_check, and demos/custom_frame.py
# reads nijenhuis, whose verdict the gate reads in ints; an oracle that only
# the tests read lives in ``tests/oracles.py``
ORACLES = {"g_fiber", "fiber_pairing_check", "nijenhuis"}


def test_every_export_is_read_inside_the_package():
    # an export is read where a module loads its name; an attribute such as
    # ``args.dim4`` in ``cli`` names something else
    read = {node.id for path in (SRC / "wtw").glob("*.py") if path.name != "__init__.py"
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert set(wtw.__all__) - read <= ORACLES


# public class members that no module reads, kept as oracles of the tests:
# the tests compare J o nabla J with ``compose`` and D J for the Weyl
# connection of the Lee form with the connection of a ``with_phi`` spec
MEMBER_ORACLES = {"CheckReport.failures", "FrameSpec.compose", "FrameSpec.with_phi"}


def test_every_public_class_member_is_read_inside_the_package():
    # a member is read where some module of the package loads it as an
    # attribute, ``x.member``, whatever ``x`` is
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in (SRC / "wtw").glob("*.py")]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    members = {member for tree in trees for member in public_members(tree)}
    assert "FrameSpec.dot" in members and "VerticalBasis.norm_sq" in members
    assert {m for m in members if m.rsplit(".", 1)[1] not in read} == MEMBER_ORACLES


def test_equal_specs_and_rings_hash_alike():
    spec = builtin("inoue-s0")
    twin = spec.with_phi(spec.phi)
    assert twin == spec and twin is not spec
    assert hash(twin) == hash(spec)
    renamed = FrameSpec(spec.dimension, spec.ring, spec.basis, spec.c, spec.J, spec.phi,
                        name="other")
    assert renamed != spec and spec.with_phi([p.substitute({"a1": 0}) for p in spec.phi]) != spec
    ring = Ring(("a1", "a2"))
    assert Ring(("a1", "a2")) == ring and hash(Ring(("a1", "a2"))) == hash(ring)
    assert Ring(("a2", "a1")) != ring
    assert spec.ring == Ring(("a1", "a2", "a3", "a4"))


def test_scalars_and_specs_survive_pickle_and_deepcopy():
    spec = builtin("inoue-s0")
    scalar = spec.ring.parse("-1/2*a2^2 + a1*a3^3 - 3")
    for value in (scalar, spec.ring.zero(), spec.ring, spec):
        copies = [pickle.loads(pickle.dumps(value, protocol))
                  for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for twin in (*copies, copy.deepcopy(value), copy.copy(value)):
            assert twin == value and hash(twin) == hash(value)
    twin = pickle.loads(pickle.dumps(spec))
    assert str(twin.phi[1] * scalar) == str(spec.phi[1] * scalar)
    assert curvature(weyl(twin)).r == curvature(weyl(spec)).r


@pytest.mark.parametrize("symbols", [("a1", "a1"), ("a 1",), ("1a",), ("",)])
def test_ring_rejects_bad_symbols(symbols):
    with pytest.raises(ValueError):
        Ring(symbols)


def test_records_refuse_assignment():
    from wtw import conditions, lck_check, verify_assignment, vertical_basis
    spec = builtin("inoue-s0")
    report = conditions(spec)
    records = [
        (spec.ring, "symbols"), (spec, "phi"), (weyl(spec), "gamma"),
        (curvature(levi_civita(spec)), "r"), (spec.phi[0], "ring"),
        (lck_check(spec).checks[0], "ok"),
        (report, "condition_i"), (verify_assignment(report, {"a1": Fraction(0)}), "holds"),
        (vertical_basis(spec), "norm_sq"),
    ]
    for record, field in records:
        for name in (field, "new_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
