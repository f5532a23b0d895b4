from __future__ import annotations

import copy
import itertools
import json
import pathlib
import tomllib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frame_families
from oracles import linear_combination, wedge_oneforms
from wtw import (FrameError, FrameSpec, Ring, SpecFormatError, builtin, cov_deriv_endo,
                 curvature, d_oneform, eval_on_bivector, levi_civita, load_spec,
                 load_spec_file, weyl)
from wtw.frame import _alternating, _antisymmetric, _negative, wedge_iso
from wtw.polyalg import Scalar
from wtw.hermitian import _d_omega, _lee_residual, fundamental_form, lee_form, nijenhuis

INOUE_DOC = """
# frame document mirroring the inoue-s0 builtin
[frame]
dimension = 4
symbols = ["a1", "a2", "a3", "a4"]

[brackets]
"E1,E2" = { E1 = "-1" }
"E2,E3" = { E3 = "-1/2" }
"E2,E4" = { E4 = "-1/2" }

[complex_structure]
matrix = [
    ["0", "-1", "0", "0"],
    ["1", "0", "0", "0"],
    ["0", "0", "0", "-1"],
    ["0", "0", "1", "0"],
]

[weyl_form]
E1 = "a1"
E2 = "a2"
E3 = "a3"
E4 = "a4"
"""


class TestBuiltins:
    def test_inoue_structure_constants(self, inoue):
        half = Fraction(1, 2)
        assert inoue.c[0][1][0] == -1
        assert inoue.c[1][0][0] == 1
        assert inoue.c[1][2][2] == -half
        assert inoue.c[1][3][3] == -half
        nonzero = {(i, j, k) for i in range(4) for j in range(4) for k in range(4)
                   if inoue.c[i][j][k] != 0}
        assert nonzero == {(0, 1, 0), (1, 0, 0), (1, 2, 2), (2, 1, 2), (1, 3, 3), (3, 1, 3)}

    def test_inoue_complex_structure_and_phi(self, inoue):
        assert inoue.J[1][0] == 1 and inoue.J[0][1] == -1
        assert inoue.J[3][2] == 1 and inoue.J[2][3] == -1
        assert [str(p) for p in inoue.phi] == ["a1", "a2", "a3", "a4"]

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_kodaira_brackets_and_j(self, kodairas, signs):
        spec = kodairas[signs]
        e1, e2 = signs
        assert spec.c[0][1][3] == -2
        assert spec.J[1][0] == e1 and spec.J[3][2] == e2
        assert spec.basis == ("A1", "A2", "A3", "A4")

    def test_kodaira_requires_signs(self):
        with pytest.raises(FrameError):
            builtin("kodaira")
        with pytest.raises(FrameError):
            builtin("kodaira", (2, 1))

    def test_unknown_builtin(self):
        with pytest.raises(FrameError):
            builtin("unknown")

    def test_inoue_lee_form_is_second_coframe_vector(self, inoue):
        lee = lee_form(inoue)
        assert [str(t) for t in lee] == ["0", "1", "0", "0"]


class TestLoader:
    def test_roundtrip_matches_builtin(self, inoue):
        loaded = load_spec(INOUE_DOC)
        assert loaded.c == inoue.c
        assert loaded.J == inoue.J
        assert loaded.phi == inoue.phi

    def test_rejects_bad_complex_structure(self):
        doc = INOUE_DOC.replace('["1", "0", "0", "0"]', '["1", "1", "0", "0"]')
        with pytest.raises(FrameError):
            load_spec(doc)

    @pytest.mark.parametrize("first, second", [("E1,E2", "E2,E1"), ("E2,E1", "E1,E2")])
    def test_rejects_a_pair_named_in_both_orders(self, first, second):
        doc = INOUE_DOC.replace('"E1,E2" = { E1 = "-1" }',
                                f'"{first}" = {{ E1 = "-1" }}\n"{second}" = {{ E1 = "5" }}')
        with pytest.raises(SpecFormatError) as info:
            load_spec(doc)
        assert str(info.value) == f"[brackets] '{first}' and '{second}' name the same pair"

    def test_rejects_jacobi_violation(self):
        doc = INOUE_DOC.replace('"E2,E3" = { E3 = "-1/2" }',
                                '"E1,E3" = { E3 = "1" }')
        with pytest.raises(FrameError, match="Jacobi"):
            load_spec(doc)

    def test_rejects_unknown_section_and_keys(self):
        with pytest.raises(SpecFormatError):
            load_spec(INOUE_DOC + "\n[extras]\nx = 1\n")
        with pytest.raises(SpecFormatError):
            load_spec(INOUE_DOC.replace("[frame]", "[frame]\nflavour = 3\n", 1))

    def test_rejects_odd_dimension(self):
        doc = INOUE_DOC.replace("dimension = 4", "dimension = 5")
        with pytest.raises((FrameError, SpecFormatError)):
            load_spec(doc)

    @pytest.mark.parametrize("dimension", [2, 18, 10**12])
    def test_rejects_dimension_outside_the_range(self, dimension):
        doc = INOUE_DOC.replace("dimension = 4", f"dimension = {dimension}")
        with pytest.raises(FrameError, match="from 4 to 16"):
            load_spec(doc)
        with pytest.raises(FrameError, match="from 4 to 16"):
            FrameSpec.create(dimension=dimension, symbols=(), brackets={}, J=[], phi=())

    def test_rejects_symbolic_structure_constant(self):
        doc = INOUE_DOC.replace('"E1,E2" = { E1 = "-1" }', '"E1,E2" = { E1 = "a1" }')
        with pytest.raises(SpecFormatError):
            load_spec(doc)

    def test_rejects_malformed_syntax(self):
        with pytest.raises(SpecFormatError):
            load_spec("[frame\ndimension = 4")

    def test_abelian_document_valid(self):
        doc = """
[frame]
dimension = 4
symbols = []

[brackets]

[complex_structure]
matrix = [["0","-1","0","0"],["1","0","0","0"],["0","0","0","-1"],["0","0","1","0"]]

[weyl_form]
"""
        spec = load_spec(doc)
        assert all(spec.c[i][j][k] == 0 for i in range(4) for j in range(4) for k in range(4))
        assert all(p.is_zero for p in spec.phi)


def _inoue_with(*edits: tuple[str, str]) -> str:
    """INOUE_DOC with each (old, new) replacement made; each old text must occur."""
    doc = INOUE_DOC
    for old, new in edits:
        assert old in doc, old
        doc = doc.replace(old, new)
    return doc


class TestDocumentSyntax:
    """The document syntax (TOML), checked through ``load_spec``."""

    def test_sections_keys_and_values(self, kodairas):
        doc = load_spec("""
# leading comment
[frame]
dimension = 4   # trailing comment
symbols = []
basis = ["A1", "A2", "A3", "A4"]

[brackets]
"A1,A2" = { A4 = -2 }

[complex_structure]
matrix = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]

[weyl_form]
A4 = "1/2"
""")
        assert doc.c == kodairas[(1, 1)].c and doc.J == kodairas[(1, 1)].J
        assert doc.ring.symbols == () and doc.basis == ("A1", "A2", "A3", "A4")
        assert [str(p) for p in doc.phi] == ["0", "0", "0", "1/2"]

    def test_quoted_keys_inside_inline_tables(self, inoue):
        doc = _inoue_with(('{ E1 = "-1" }', '{ "E1" = "-1" }'))
        assert load_spec(doc).c == inoue.c

    def test_multiline_array(self, inoue):
        doc = _inoue_with(('symbols = ["a1", "a2", "a3", "a4"]',
                           'symbols = [\n    "a1", "a2",\n    "a3", "a4",\n]'))
        spec = load_spec(doc)
        assert spec.ring.symbols == ("a1", "a2", "a3", "a4")
        assert spec.J == inoue.J

    def test_hash_inside_string_is_not_a_comment(self):
        doc = _inoue_with(('symbols = [', 'basis = ["E#1", "E2", "E3", "E4"]\nsymbols = ['),
                          ('"E1,E2" = { E1 = "-1" }', '"E#1,E2" = { "E#1" = "-1" }'),
                          ('E1 = "a1"', '"E#1" = "a1"'))
        spec = load_spec(doc)
        assert spec.basis[0] == "E#1" and spec.c[0][1][0] == -1
        assert str(spec.phi[0]) == "a1"

    @pytest.mark.parametrize("old, new", [
        pytest.param("[frame]", "x = 1\n[frame]", id="key-outside-section"),
        pytest.param('E4 = "a4"', 'E4 = "a4"\n[frame]', id="duplicate-section"),
        pytest.param("dimension = 4", "dimension = 4\ndimension = 4", id="duplicate-key"),
        pytest.param('"a3", "a4"]', '"a3", "a4"', id="unterminated-bracket"),
        pytest.param('{ E1 = "-1" }', '{ E1 = "-1", E1 = "-1" }', id="duplicate-inline-key"),
        pytest.param("dimension = 4", "dimension = four", id="bare-word"),
        pytest.param("dimension = 4", "dimension = 4 4", id="trailing-input"),
        pytest.param("[frame]", "[frame!]", id="malformed-header"),
        pytest.param('"E2,E3" = { E3 = "-1/2" }', '"E2,E1" = { E1 = "-1" }',
                     id="pair-given-reversed"),
        pytest.param('"E2,E4" = { E4 = "-1/2" }', '"E2, E3" = { E3 = "1/2" }',
                     id="pair-given-with-space"),
    ])
    def test_rejects_malformed_documents(self, old, new):
        with pytest.raises(SpecFormatError):
            load_spec(_inoue_with((old, new)))

    def test_negative_integers_and_tight_spacing(self, inoue):
        doc = _inoue_with(('"E1,E2" = { E1 = "-1" }', '"E1,E2"={E1=-1}'),
                          ('["0", "-1", "0", "0"]', '[ 0,-1 ,0,0]'))
        spec = load_spec(doc)
        assert spec.c == inoue.c and spec.J == inoue.J

    @pytest.mark.parametrize("old, new, message", [
        pytest.param("dimension = 4", "dimension = true", "dimension must be an integer",
                     id="bool-dimension"),
        pytest.param('{ E1 = "-1" }', "{ E1 = true }", "expected integer",
                     id="bool-bracket"),
        pytest.param('["0", "-1", "0", "0"]', '[false, "-1", "0", "0"]', "expected integer",
                     id="bool-matrix"),
        pytest.param("dimension = 4", "dimension = 4.0", "dimension must be an integer",
                     id="float-dimension"),
        pytest.param('{ E3 = "-1/2" }', "{ E3 = -0.5 }", "expected integer",
                     id="float-bracket"),
        pytest.param('{ E1 = "-1" }', "{ E1 = 1979-05-27 }", "expected integer",
                     id="date"),
        pytest.param("[brackets]", "[[brackets]]", "must be a table",
                     id="array-of-tables"),
        pytest.param('[frame]\ndimension = 4\nsymbols = ["a1", "a2", "a3", "a4"]',
                     "frame = 1", "must be a table", id="top-level-scalar"),
        pytest.param('["1", "0", "0", "0"],', "1,", "requires matrix",
                     id="matrix-row-not-a-list"),
        pytest.param('{ E3 = "-1/2" }', '{ E3 = "1e9999999" }', "not a rational constant",
                     id="exponent-bracket"),
        pytest.param('["0", "-1", "0", "0"]', '["0.0", "-1", "0", "0"]',
                     "not a rational constant", id="decimal-matrix"),
    ])
    def test_rejects_toml_values_outside_the_format(self, old, new, message):
        with pytest.raises(SpecFormatError, match=message):
            load_spec(_inoue_with((old, new)))


_FLAT_TORUS = (pathlib.Path(__file__).parent / "data" / "flat_torus.toml").read_text()


@pytest.mark.parametrize("edits, error, message", [
    pytest.param([("symbols = []", 'symbols = ["1a"]')], SpecFormatError,
                 "invalid symbol name '1a'", id="symbol-name"),
    pytest.param([("symbols = []", 'symbols = ["a"]'), ("[weyl_form]", '[weyl_form]\nE1 = "a +"')],
                 SpecFormatError, "unexpected token '' in 'a +'", id="weyl-form-syntax"),
    pytest.param([("symbols = []", 'symbols = ["a"]'), ("[weyl_form]", '[weyl_form]\nE1 = "b"')],
                 SpecFormatError, "undeclared symbol 'b' in 'b'", id="weyl-form-symbol"),
    pytest.param([('["0", "-1", "0", "0"]', '["0", "-2", "0", "0"]'),
                  ('["1", "0", "0", "0"]', '["1/2", "0", "0", "0"]')],
                 FrameError, "J is not g-orthogonal (J^T J = Identity fails)", id="j-orthogonal"),
    pytest.param([("symbols = []", 'symbols = []\nbasis = ["E1", "E1", "E3", "E4"]')],
                 FrameError, "basis must list n distinct vector names", id="basis-repeated"),
])
def test_load_spec_keeps_frame_errors_and_converts_value_errors(edits, error, message):
    # FrameError is a ValueError too: a document that parses but fails
    # FrameSpec's validation keeps it, any other ValueError becomes SpecFormatError
    text = _FLAT_TORUS
    for old, new in edits:
        assert old in text
        text = text.replace(old, new, 1)
    with pytest.raises(ValueError) as info:
        load_spec(text)
    assert type(info.value) is error
    assert str(info.value) == message


_INOUE_TABLES = tomllib.loads(INOUE_DOC)
_KEYS = sorted({key for table in _INOUE_TABLES.values() for key in table} | {"basis"})

_toml_values = st.recursive(
    st.booleans()
    | st.integers(min_value=-10**12, max_value=10**12)
    | st.floats()
    | st.sampled_from(["a1", "E1", "-1/2", "1/0", "x", "", "E1,E2", "a1*a2"])
    | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3),
                                     inner, max_size=3)),
    max_leaves=8)


def _quote(text: str) -> str:
    # with non-ASCII kept literally, a JSON string is a TOML basic string
    # unless it holds a raw DEL, which TOML rejects (also an allowed outcome)
    return json.dumps(text, ensure_ascii=False)


def _toml(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, list):
        return "[" + ", ".join(_toml(v) for v in value) + "]"
    return "{" + ", ".join(f"{_quote(k)} = {_toml(v)}" for k, v in value.items()) + "}"


@st.composite
def _fuzzed_inoue_documents(draw) -> str:
    """The inoue document with one random TOML value at a random key; the key
    None replaces a whole section."""
    doc = copy.deepcopy(_INOUE_TABLES)
    section = draw(st.sampled_from(sorted(doc)))
    key = draw(st.none() | st.sampled_from(_KEYS))
    value = draw(_toml_values)
    if key is None:
        doc[section] = value
    else:
        doc[section][key] = value
    lines = [f"{name} = {_toml(table)}" for name, table in doc.items()
             if not isinstance(table, dict)]
    for name, table in doc.items():
        if isinstance(table, dict):
            lines.append(f"[{name}]")
            lines.extend(f"{_quote(k)} = {_toml(v)}" for k, v in table.items())
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(_fuzzed_inoue_documents())
def test_load_spec_fuzz_raises_only_spec_errors(text):
    try:
        load_spec(text)
    except (FrameError, SpecFormatError):
        pass


class TestExteriorCalculus:
    def test_inoue_d_oneform(self, inoue):
        omega = (inoue.ring.sym("a1"), inoue.ring.sym("a2"), inoue.zero(), inoue.zero())
        d = d_oneform(inoue, omega)
        assert str(d[0][1]) == "a1"
        assert all(d[i][j].is_zero for i in range(4) for j in range(4)
                   if {i, j} != {0, 1})

    def test_kodaira_d_alpha4(self, kodairas):
        spec = kodairas[(1, 1)]
        omega = (spec.zero(), spec.zero(), spec.zero(), spec.const(1))
        d = d_oneform(spec, omega)
        assert d[0][1] == spec.const(2)

    def test_abelian_d_is_zero(self, abelian):
        omega = tuple(abelian.const(k) for k in (3, -1, 2, 7))
        assert all(x.is_zero for row in d_oneform(abelian, omega) for x in row)

    def test_d_composed_with_d_vanishes(self, inoue, kodairas):
        for spec in (inoue, kodairas[(1, -1)]):
            for k in range(4):
                eta = tuple(spec.const(1 if i == k else 0) for i in range(4))
                ddeta = _d_two(spec, d_oneform(spec, eta))
                assert all(x.is_zero for plane in ddeta for row in plane for x in row)

    def test_d_oneform_linearity(self, inoue):
        r = inoue.ring
        a = (r.sym("a1"), r.sym("a2"), r.zero(), r.zero())
        b = (r.zero(), r.sym("a3"), r.sym("a4"), r.zero())
        combo = tuple(3 * x + Fraction(1, 2) * y for x, y in zip(a, b))
        da, db, dc = d_oneform(inoue, a), d_oneform(inoue, b), d_oneform(inoue, combo)
        assert all((dc[i][j] - 3 * da[i][j]
                    - Fraction(1, 2) * db[i][j]).is_zero
                   for i in range(4) for j in range(4))

    def test_wedge_pairing_normalization(self, inoue):
        eta1 = tuple(inoue.const(1 if i == 0 else 0) for i in range(4))
        eta2 = tuple(inoue.const(1 if i == 1 else 0) for i in range(4))
        form = wedge_oneforms(inoue, eta1, eta2)
        e1 = tuple(inoue.const(1 if i == 0 else 0) for i in range(4))
        e2 = tuple(inoue.const(1 if i == 1 else 0) for i in range(4))
        assert eval_on_bivector(inoue, form, wedge_oneforms(inoue, e1, e2)) == inoue.const(1)

    def test_dphi_on_j_bivector(self, inoue, kodairas):
        from wtw.twistor import wedge_iso
        dphi = d_oneform(inoue, inoue.phi)
        assert str(eval_on_bivector(inoue, dphi, wedge_iso(inoue.J))) == "a1"
        for (e1, e2), spec in kodairas.items():
            dphi = d_oneform(spec, spec.phi)
            value = eval_on_bivector(spec, dphi, wedge_iso(spec.J))
            assert value == 2 * e1 * spec.ring.sym("a4")

    def test_inoue_d_omega_equals_lee_wedge_omega(self, inoue):
        omega, lee, ix = fundamental_form(inoue), lee_form(inoue), range(4)
        assert _d_two(inoue, omega) == [[[
            lee[i] * omega[j][k] - lee[j] * omega[i][k] + lee[k] * omega[i][j] for k in ix]
            for j in ix] for i in ix]
        _, residual = _lee_residual(inoue)
        assert not any(v for plane in residual for row in plane for v in row)


class TestValidation:
    def test_with_phi_takes_a_substituted_weyl_form(self, inoue):
        reduced = inoue.with_phi([p.substitute({"a3": 0, "a4": 0}) for p in inoue.phi])
        assert [str(p) for p in reduced.phi] == ["a1", "a2", "0", "0"]
        assert reduced.c == inoue.c

    def test_with_phi_revalidates_length(self, inoue):
        with pytest.raises(FrameError):
            inoue.with_phi(("a1",))

    def test_with_phi_revalidates_ring(self, inoue):
        foreign = Ring(("b1",)).sym("b1")
        with pytest.raises(FrameError, match="foreign ring"):
            inoue.with_phi((foreign, "a2", "a3", "a4"))

    def test_create_rejects_bad_j(self):
        with pytest.raises(FrameError, match="J"):
            FrameSpec.create(dimension=4, symbols=(), brackets={},
                             J=[[0, 1, 0, 0], [1, 0, 0, 0],
                                [0, 0, 0, -1], [0, 0, 1, 0]],
                             phi=(0, 0, 0, 0))

    def test_create_rejects_out_of_range_bracket_indices(self):
        J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        with pytest.raises(FrameError, match="out of range"):
            FrameSpec.create(dimension=4, symbols=(), brackets={(0, 9): {0: 1}},
                             J=J, phi=(0, 0, 0, 0))
        with pytest.raises(FrameError, match="out of range"):
            FrameSpec.create(dimension=4, symbols=(), brackets={(0, 1): {7: 1}},
                             J=J, phi=(0, 0, 0, 0))

    @pytest.mark.parametrize("pairs", [((0, 1), (1, 0)), ((1, 0), (0, 1))])
    def test_create_rejects_a_pair_given_in_both_orders(self, inoue, pairs):
        half = Fraction(1, 2)
        brackets = {pairs[0]: {0: -1}, pairs[1]: {0: 5}, (1, 2): {2: -half}, (1, 3): {3: -half}}
        with pytest.raises(FrameError) as info:
            FrameSpec.create(dimension=4, symbols=("a1", "a2", "a3", "a4"), brackets=brackets,
                             J=inoue.J, phi=("a1", "a2", "a3", "a4"))
        assert str(info.value) == f"brackets {pairs[0]} and {pairs[1]} name the same pair"

    def test_create_accepts_a_single_reversed_pair(self, inoue):
        half = Fraction(1, 2)
        spec = FrameSpec.create(dimension=4, symbols=("a1", "a2", "a3", "a4"),
                                brackets={(1, 0): {0: 1}, (1, 2): {2: -half}, (1, 3): {3: -half}},
                                J=inoue.J, phi=("a1", "a2", "a3", "a4"), name="inoue-s0")
        assert spec == inoue

    @pytest.mark.parametrize("text", ["1e3", "1.5", "1_000", "1e9999999"])
    def test_create_refuses_rational_strings_in_other_notations(self, text):
        """Exponent, decimal and underscore notation are refused at once, in a
        bracket, on the diagonal of the brackets and in J, as ``load_spec``
        refuses them; ``Fraction`` alone would spend unbounded time on
        ``"1e9999999"``."""
        J = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        for brackets, matrix in (({(0, 1): {0: text}}, J), ({(2, 2): {0: text}}, J),
                                 ({}, [[text, *J[0][1:]], *J[1:]])):
            with pytest.raises(ValueError, match="not a rational constant"):
                FrameSpec.create(dimension=4, symbols=(), brackets=brackets, J=matrix,
                                 phi=(0, 0, 0, 0))

    def test_create_takes_rational_strings_ints_and_fractions(self, inoue):
        J = [["0", " -1 ", 0, 0], [Fraction(1), 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
        spec = FrameSpec.create(dimension=4, symbols=("a1", "a2", "a3", "a4"),
                                brackets={(0, 1): {0: " -1 "}, (1, 2): {2: " -1/2 "},
                                          (1, 3): {3: Fraction(-1, 2)}, (2, 2): {0: "0"}},
                                J=J, phi=("a1", "a2", "a3", "a4"), name="inoue-s0")
        assert spec == inoue


def _dense_j(n: int):
    """Q J0 Q^T for the standard J0: orthogonal, J^2 = -I, and not a signed
    permutation."""
    Q = frame_families.cayley(n)
    return frame_families.matmul(frame_families.matmul(Q, frame_families.standard_j(n)),
                                 [list(col) for col in zip(*Q)])


def _rotated(base: FrameSpec, name: str) -> FrameSpec:
    """``base`` in the orthonormal basis F_i = sum_a Q[i][a] E_a of
    ``frame_families.cayley``, with the Weyl form of the base's symbols in the
    new basis."""
    brackets, J = frame_families.rotate(base.c, base.J, frame_families.cayley(base.n))
    return FrameSpec.create(dimension=base.n, symbols=base.ring.symbols, brackets=brackets,
                            J=J, phi=base.ring.symbols, name=name)


def _rotated_inoue() -> FrameSpec:
    """inoue-s0 in the rotated basis, whose J is ``_dense_j(4)``, with the
    Weyl form a1 .. a4 in the new basis."""
    return _rotated(builtin("inoue-s0"), "inoue-s0 rotated")


class TestContractionsOnDenseJ:
    """The FrameSpec contraction helpers against explicit index sums, on an
    abelian frame whose J is not a signed permutation."""

    @pytest.fixture(scope="class", params=[4, 6], ids=["n4", "n6"])
    def data(self, request):
        n = request.param
        J = _dense_j(n)
        assert all(J[i][j] for i in range(n) for j in range(n) if i != j)
        names = ([f"u{p}" for p in range(n)] + [f"v{p}" for p in range(n)]
                 + [f"m{p}_{q}" for p in range(n) for q in range(n)])
        spec = FrameSpec.create(dimension=n, symbols=names, brackets={}, J=J,
                                phi=(0,) * n, name="dense-J")
        sym = spec.ring.sym
        u = tuple(sym(f"u{p}") for p in range(n))
        v = tuple(sym(f"v{p}") for p in range(n))
        M = tuple(tuple(sym(f"m{p}_{q}") for q in range(n)) for p in range(n))
        return spec, u, v, M

    def test_dot_left_right_and_j_apply(self, data):
        spec, u, v, M = data
        n, J, z = spec.n, spec.J, spec.zero()
        assert spec.dot(u, v) == sum((u[p] * v[p] for p in range(n)), z)
        assert spec.left(u, M) == tuple(sum((u[p] * M[p][k] for p in range(n)), z)
                                        for k in range(n))
        assert spec.right(M, u) == tuple(sum((M[k][q] * u[q] for q in range(n)), z)
                                         for k in range(n))
        assert spec.j_apply(u) == tuple(sum((J[l][p] * u[p] for p in range(n)), z)
                                        for l in range(n))
        assert spec.left(u, J) == tuple(sum((u[p] * J[p][k] for p in range(n)), z)
                                        for k in range(n))

    def test_twist_and_j_pair(self, data):
        spec, _, _, M = data
        n, J, z = spec.n, spec.J, spec.zero()
        assert spec.twist(M) == tuple(tuple(
            sum((J[p][i] * J[q][k] * M[p][q] for p in range(n) for q in range(n)), z)
            for k in range(n)) for i in range(n))
        assert spec.j_pair(M) == tuple(tuple(
            sum((J[p][i] * M[p][k] for p in range(n)), z)
            + sum((M[i][q] * J[q][k] for q in range(n)), z)
            for k in range(n)) for i in range(n))
        # on a rational matrix: J(J., J.) = J, and J(J., .) + J(., J.) = 0
        assert spec.twist(J) == tuple(tuple(spec.const(x) for x in row) for row in J)
        assert all(entry.is_zero for row in spec.j_pair(J) for entry in row)

    def test_left_and_right_on_zero_entries(self, data):
        spec, u, _, M = data
        n, z = spec.n, spec.zero()
        # zero entries as scalars, ints and Fractions, beside rationals and scalars
        partial = (z, 0, Fraction(0), Fraction(-2, 3), u[1], z)[:n]
        nothing = tuple((z, 0, Fraction(0))[p % 3] for p in range(n + 1))
        wide = tuple(row + (u[0],) for row in M)  # n rows, n + 1 columns
        assert spec.left(partial, wide) == tuple(
            sum((partial[p] * wide[p][k] for p in range(n)), z) for k in range(n + 1))
        assert spec.right(wide, partial + (u[2],)) == tuple(
            sum((wide[k][q] * (partial + (u[2],))[q] for q in range(n + 1)), z)
            for k in range(n))
        assert spec.left(nothing[:n], wide) == (z,) * (n + 1)
        assert spec.right(wide, nothing) == (z,) * n

    def test_endo_product_and_linear_combination(self, data):
        """``compose`` against the triple loop, on the dense J, the dense
        orthogonal Q of ``frame_families.cayley`` and symbolic matrices, one
        with a zero column; the tests' ``linear_combination`` (``oracles.py``)
        against entrywise weighted sums, and all-zero weights give the n x n
        zero array."""
        spec, u, _, M = data
        n, z = spec.n, spec.zero()
        Q = frame_families.cayley(n)
        assert all(Q[i][j] for i in range(n) for j in range(n))
        gapped = tuple(row[:1] + (z,) + row[2:] for row in M)
        endos = (spec.J, tuple(tuple(spec.const(x) for x in row) for row in Q), M, gapped)
        for a in endos:
            for b in endos:
                assert spec.compose(a, b) == tuple(tuple(
                    sum((a[i][m] * b[m][j] for m in range(n)), z)
                    for j in range(n)) for i in range(n))
        arrays = (M, spec.J, Q)
        for weights in ((u[0], 0, Fraction(-3, 2)), (z, u[1], 1)):
            assert linear_combination(spec, weights, arrays) == tuple(tuple(
                sum((w * A[k][l] for w, A in zip(weights, arrays)), z)
                for l in range(n)) for k in range(n))
        assert linear_combination(spec, (0, z, Fraction(0)), arrays) == ((z,) * n,) * n


@pytest.mark.parametrize("frame", ["hyperbolic6", "inoue-s0 rotated"])
def test_cov_deriv_endo_matches_its_definition(frame):
    """(D_{E_i} S)(E_j) = D_{E_i}(S E_j) - S(D_{E_i} E_j) written out with
    Scalar operators, on a sparse frame and on one whose J is dense."""
    if frame == "hyperbolic6":
        spec = load_spec_file(pathlib.Path(__file__).parent / "data" / "hyperbolic6.toml")
    else:
        spec = _rotated_inoue()
        assert all(spec.J[i][j] for i in range(4) for j in range(4) if i != j)
    n, z = spec.n, spec.zero()
    for conn in (levi_civita(spec), weyl(spec)):
        g = conn.gamma
        for S in (spec.J, tuple(zip(*curvature(weyl(spec)).r[0][1]))):
            derived = cov_deriv_endo(conn, S)
            for i in range(n):
                assert derived[i] == tuple(tuple(
                    sum((g[i][k][l] * S[k][j] - S[l][k] * g[i][j][k] for k in range(n)), z)
                    for j in range(n)) for l in range(n))


# -- the symbol-free layer against its definitions ---------------------------

_J4 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
_J6 = [[0, -1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 0, 0, -1, 0, 0],
       [0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, -1], [0, 0, 0, 0, 1, 0]]


def _frames_with_constants():
    """Every loadable tests/data document, the built-ins, a frame whose only
    brackets are [E1, E3] = E5 and [E3, E4] = E6, and inoue-s0 and hyperbolic6
    in a Cayley-rotated basis whose J is dense."""
    specs = []
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.toml")):
        try:
            specs.append(load_spec_file(path))
        except (FrameError, SpecFormatError):
            pass
    specs += [builtin("inoue-s0"), *(builtin("kodaira", signs)
                                     for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)))]
    # d of a 2-form on (E1, E2, E3) comes from [E3, E1] alone, and on
    # (E2, E3, E4) from [E3, E4] alone
    symbols = [f"a{i}" for i in range(1, 7)]
    specs.append(FrameSpec.create(dimension=6, symbols=symbols,
                                  brackets={(0, 2): {4: 1}, (2, 3): {5: 1}},
                                  J=_J6, phi=symbols, name="lone brackets"))
    specs.append(_rotated_inoue())
    hyperbolic = load_spec_file(pathlib.Path(__file__).parent / "data" / "hyperbolic6.toml")
    specs.append(_rotated(hyperbolic, "hyperbolic6 rotated"))
    return specs


FRAMES_WITH_CONSTANTS = _frames_with_constants()


def _bracket(spec, u, v):
    """[u, v] of two rational vectors, summed over every structure constant."""
    ix = range(spec.n)
    return [sum(u[a] * v[b] * spec.c[a][b][k] for a in ix for b in ix) for k in ix]


def _apply_j(spec, v):
    return [sum(spec.J[k][l] * v[l] for l in range(spec.n)) for k in range(spec.n)]


def _d_two(spec, F):
    """dF(X,Y,Z) = -F([X,Y],Z) + F([X,Z],Y) - F([Y,Z],X), summed densely."""
    n, c, z = spec.n, spec.c, spec.zero()

    def f_of(bracket, k):  # F([E_a, E_b], E_k)
        return sum((c[bracket[0]][bracket[1]][m] * F[m][k] for m in range(n)), z)

    return [[[-f_of((i, j), k) + f_of((i, k), j) - f_of((j, k), i) for k in range(n)]
             for j in range(n)] for i in range(n)]


def _builtins_and_documents():
    """The 5 built-ins and the 14 documents under tests/data that load."""
    specs = [builtin("inoue-s0"), *(builtin("kodaira", signs)
                                    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)))]
    for path in sorted((pathlib.Path(__file__).parent / "data").glob("*.toml")):
        try:
            specs.append(load_spec_file(path))
        except (FrameError, SpecFormatError):
            pass
    assert len(specs) == 19
    return specs


@pytest.mark.parametrize("spec", _builtins_and_documents(), ids=lambda spec: spec.name)
def test_two_forms_and_bivectors_are_antisymmetric_arrays(spec):
    """Each built 2-form and bivector is an n x n array of the spec's scalars,
    antisymmetric with a zero diagonal; the 3-form builders and the twistor
    checks, which read dphi(X, MY) as -dphi(MY, X), rely on it."""
    n, phi = spec.n, spec.phi
    arrays = {"dphi": spec.dphi(), "d theta": d_oneform(spec, lee_form(spec)),
              "Omega": fundamental_form(spec),
              "phi ^ J phi": wedge_oneforms(spec, phi, spec.j_apply(phi))}
    for name, F in arrays.items():
        assert len(F) == n and all(len(row) == n for row in F), name
        assert all(isinstance(x, Scalar) and x.ring == spec.ring for row in F for x in row), name
        assert all(F[i][i].is_zero for i in range(n)), name
        assert all(F[i][j] == -F[j][i] for i in range(n) for j in range(i + 1, n)), name


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("kind", ["scalar", "array"])
def test_antisymmetric_forms_each_pair_once_and_mirrors_it(n, kind):
    """``_antisymmetric`` calls entry once per pair i < j, stores the ``negate``
    of that entry at (j, i) and ``zero`` on the diagonal: with scalar entries
    and the default negation, and with n x n arrays and ``_negative``."""
    ring = Ring(("a",))
    a, ix = ring.sym("a"), range(n)
    calls = []

    def entry(i, j):
        calls.append((i, j))
        if kind == "scalar":
            return a * (n * i + j) + 1
        return tuple(tuple(a * (n * i + j) + (k - l) for l in ix) for k in ix)

    if kind == "scalar":
        zero = ring.zero()
        out = _antisymmetric(n, zero, entry)
    else:
        zero = ((ring.zero(),) * n,) * n
        out = _antisymmetric(n, zero, entry, _negative)
    pairs = [(i, j) for i in ix for j in ix if i < j]
    assert sorted(calls) == pairs
    assert len(out) == n and all(type(row) is tuple and len(row) == n for row in out)
    assert all(out[i][i] is zero for i in ix)
    assert all(out[i][j] == entry(i, j) for i, j in pairs)
    if kind == "scalar":
        assert all(out[j][i] == -out[i][j] for i, j in pairs)
    else:
        assert all(out[j][i][k][l] == -out[i][j][k][l] for i, j in pairs for k in ix for l in ix)


@pytest.mark.parametrize("n", [3, 4, 8])
@pytest.mark.parametrize("kind", ["scalar", "row"])
def test_alternating_forms_each_triple_once_and_permutes_it(n, kind):
    """``_alternating`` calls entry once per triple i < j < k, stores it at
    the even permutations of the triple, its ``negate`` at the odd ones and
    ``zero`` wherever two indices agree: with scalar entries and the default
    negation, and with rows of scalars and a row negation."""
    ring = Ring(("a",))
    a, ix = ring.sym("a"), range(n)
    calls = []

    def entry(i, j, k):
        calls.append((i, j, k))
        value = a * (n * n * i + n * j + k) + 1
        return value if kind == "scalar" else tuple(value + l for l in ix)

    if kind == "scalar":
        zero, negate = ring.zero(), (lambda x: -x)
        out = _alternating(n, zero, entry)
    else:
        zero, negate = (ring.zero(),) * n, (lambda row: tuple(-x for x in row))
        out = _alternating(n, zero, entry, negate)
    triples = list(itertools.combinations(ix, 3))
    assert sorted(calls) == triples
    for i, j, k in itertools.product(ix, repeat=3):
        if len({i, j, k}) < 3:
            assert out[i][j][k] is zero
            continue
        sorted_triple = tuple(sorted((i, j, k)))
        even = (i, j, k) in [sorted_triple[m:] + sorted_triple[:m] for m in range(3)]
        value = entry(*sorted_triple)
        assert out[i][j][k] == (value if even else negate(value))


@pytest.mark.parametrize("spec", FRAMES_WITH_CONSTANTS, ids=lambda spec: spec.name)
def test_symbol_free_layer_matches_its_definitions(spec):
    n, c, J, ix = spec.n, spec.c, spec.J, range(spec.n)
    const, z = spec.const, spec.zero()
    if spec.name.endswith("rotated"):
        assert all(J[i][j] for i in ix for j in ix if i != j)
    # the Koszul formula in an orthonormal frame
    assert levi_civita(spec).gamma == tuple(tuple(tuple(
        const(Fraction(c[i][j][k] - c[i][k][j] - c[j][k][i], 2)) for k in ix) for j in ix)
        for i in ix)
    # N(Y, Z) = -[Y, Z] + [JY, JZ] - J[Y, JZ] - J[JY, Z], component k
    basis = [[int(a == i) for a in ix] for i in ix]
    cols = [_apply_j(spec, e) for e in basis]
    table = [[[Fraction(0)] * n for _ in ix] for _ in ix]
    for i in ix:
        for j in ix:
            value = [-x + y - p - q for x, y, p, q in zip(
                _bracket(spec, basis[i], basis[j]), _bracket(spec, cols[i], cols[j]),
                _apply_j(spec, _bracket(spec, basis[i], cols[j])),
                _apply_j(spec, _bracket(spec, cols[i], basis[j])))]
            for k in ix:
                table[k][i][j] = value[k]
    comps, integrable = nijenhuis(spec)
    assert comps == tuple(tuple(tuple(const(x) for x in row) for row in plane)
                          for plane in table)
    assert integrable == (not any(x for plane in table for row in plane for x in row))
    # d of the fundamental form, and the Lee residual d(Omega) - theta ^ Omega,
    # each formed as int numerators over one denominator
    omega = [[const(J[j][i]) for j in ix] for i in ix]
    d_omega = _d_two(spec, omega)
    assert _fractions(*_d_omega(spec)) == d_omega
    theta = lee_form(spec)
    assert _fractions(*_lee_residual(spec)) == [[[
        d_omega[i][j][k] - theta[i] * omega[j][k] + theta[j] * omega[i][k]
        - theta[k] * omega[i][j] for k in ix] for j in ix] for i in ix]
    # d of the polynomial Weyl form
    phi = spec.phi
    assert spec.dphi() == tuple(tuple(
        -sum((c[i][j][k] * phi[k] for k in ix), z) for j in ix) for i in ix)


def _fractions(den, form):
    """A 3-form of int numerators over ``den`` as nested lists of Fractions."""
    return [[[Fraction(v, den) for v in row] for row in plane] for plane in form]


def _inoue_data():
    """inoue-s0's structure constants and J as nested lists, to corrupt."""
    base = builtin("inoue-s0")
    return [[list(row) for row in plane] for plane in base.c], [list(row) for row in base.J]


def _first_asymmetry(c):
    n = len(c)
    return next((i + 1, j + 1, k + 1) for i in range(n) for j in range(n) for k in range(n)
                if c[i][j][k] != -c[j][i][k])


@pytest.mark.parametrize("edits, first", [
    ([((2, 1, 2), 0)], (2, 3, 3)),                    # one side of [E2, E3] lost
    ([((3, 3, 1), 1)], (4, 4, 2)),                    # a nonzero [E4, E4]
    ([((2, 1, 2), 0), ((3, 0, 2), 1)], (1, 4, 3)),    # the later row's fault comes first
    ([((3, 2, 0), Fraction(1, 3)), ((2, 3, 0), Fraction(-1, 2))], (3, 4, 1)),
])
def test_validate_names_the_first_asymmetric_constant(edits, first):
    c, J = _inoue_data()
    for (i, j, k), value in edits:
        c[i][j][k] = Fraction(value)
    assert _first_asymmetry(c) == first
    ring = Ring(())
    spec = FrameSpec(4, ring, ("E1", "E2", "E3", "E4"),
                     tuple(tuple(tuple(row) for row in plane) for plane in c),
                     tuple(tuple(row) for row in J), (ring.zero(),) * 4)
    with pytest.raises(FrameError) as info:
        spec.validate()
    assert str(info.value) == "structure constants not antisymmetric at ({},{},{})".format(*first)


def _spec_from(brackets, J, n=4):
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), comps in brackets.items():
        for k, value in comps.items():
            c[i][j][k], c[j][i][k] = Fraction(value), -Fraction(value)
    ring = Ring(())
    return FrameSpec(n, ring, tuple(f"E{i + 1}" for i in range(n)),
                     tuple(tuple(tuple(row) for row in plane) for plane in c),
                     tuple(tuple(Fraction(x) for x in row) for row in J), (ring.zero(),) * n)


@pytest.mark.parametrize("brackets, J, message", [
    # bad_jacobi.toml: [E1, E2] = -E1, [E1, E3] = E3
    ({(0, 1): {0: -1}, (0, 2): {2: 1}}, _J4, "Jacobi identity fails on (E1,E2,E3)"),
    # the same two brackets on E4, E5, E6 at n = 6, beside a nilpotent pair
    ({(3, 4): {3: -1}, (3, 5): {5: 1}, (0, 1): {2: 1}}, _J6,
     "Jacobi identity fails on (E4,E5,E6)"),
    ({}, [[0, -2, 0, 0], [Fraction(1, 2), 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
     "J is not g-orthogonal (J^T J = Identity fails)"),
    ({}, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
     "J is not g-orthogonal (J^T J = Identity fails)"),
    ({}, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], "J^2 = -Identity fails"),
    ({}, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "J^2 = -Identity fails"),
])
def test_validate_messages(brackets, J, message):
    spec = _spec_from(brackets, J, n=len(J))
    with pytest.raises(FrameError) as info:
        spec.validate()
    assert str(info.value) == message
