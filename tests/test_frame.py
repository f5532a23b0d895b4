from __future__ import annotations

import copy
import json
import tomllib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wtw import (FrameError, FrameSpec, SpecFormatError, builtin, d_oneform,
                 d_twoform, eval_on_bivector, load_spec, sharp)
from wtw.frame import Bivector, TwoForm, wedge_oneforms, wedge_one_two
from wtw.hermitian import fundamental_form, lee_form

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
        assert [str(t) for t in lee.theta] == ["0", "1", "0", "0"]


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
    ])
    def test_rejects_toml_values_outside_the_format(self, old, new, message):
        with pytest.raises(SpecFormatError, match=message):
            load_spec(_inoue_with((old, new)))


_INOUE_TABLES = tomllib.loads(INOUE_DOC)
_KEYS = sorted({key for table in _INOUE_TABLES.values() for key in table} | {"basis"})

_toml_values = st.recursive(
    st.booleans()
    # small integers only: a huge dimension builds an n-element basis list
    # before any check; capping the dimension is ROADMAP item 5, not tested here
    | st.integers(min_value=-8, max_value=8)
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
        assert str(d.comps[0][1]) == "a1"
        assert all(d.comps[i][j].is_zero for i in range(4) for j in range(4)
                   if {i, j} != {0, 1})

    def test_kodaira_d_alpha4(self, kodairas):
        spec = kodairas[(1, 1)]
        omega = (spec.zero(), spec.zero(), spec.zero(), spec.const(1))
        d = d_oneform(spec, omega)
        assert d.comps[0][1] == spec.const(2)

    def test_abelian_d_is_zero(self, abelian):
        omega = tuple(abelian.const(k) for k in (3, -1, 2, 7))
        assert d_oneform(abelian, omega).is_zero

    def test_d_composed_with_d_vanishes(self, inoue, kodairas):
        for spec in (inoue, kodairas[(1, -1)]):
            for k in range(4):
                eta = tuple(spec.const(1 if i == k else 0) for i in range(4))
                assert d_twoform(spec, d_oneform(spec, eta)).is_zero

    def test_d_oneform_linearity(self, inoue):
        r = inoue.ring
        a = (r.sym("a1"), r.sym("a2"), r.zero(), r.zero())
        b = (r.zero(), r.sym("a3"), r.sym("a4"), r.zero())
        combo = tuple(3 * x + Fraction(1, 2) * y for x, y in zip(a, b))
        da, db, dc = d_oneform(inoue, a), d_oneform(inoue, b), d_oneform(inoue, combo)
        assert all((dc.comps[i][j] - 3 * da.comps[i][j]
                    - Fraction(1, 2) * db.comps[i][j]).is_zero
                   for i in range(4) for j in range(4))

    def test_wedge_pairing_normalization(self, inoue):
        eta1 = tuple(inoue.const(1 if i == 0 else 0) for i in range(4))
        eta2 = tuple(inoue.const(1 if i == 1 else 0) for i in range(4))
        form = wedge_oneforms(inoue, eta1, eta2)
        e1 = tuple(inoue.const(1 if i == 0 else 0) for i in range(4))
        e2 = tuple(inoue.const(1 if i == 1 else 0) for i in range(4))
        assert eval_on_bivector(form, Bivector.wedge_vectors(inoue, e1, e2)) == inoue.const(1)

    def test_dphi_on_j_bivector(self, inoue, kodairas):
        from wtw.twistor import wedge_iso
        dphi = d_oneform(inoue, inoue.phi)
        assert str(eval_on_bivector(dphi, wedge_iso(inoue.j_endo()))) == "a1"
        for (e1, e2), spec in kodairas.items():
            dphi = d_oneform(spec, spec.phi)
            value = eval_on_bivector(dphi, wedge_iso(spec.j_endo()))
            assert value == 2 * e1 * spec.ring.sym("a4")

    def test_sharp_is_identity_on_components(self, inoue):
        omega = (inoue.ring.sym("a1"), inoue.ring.sym("a2"), inoue.zero(), inoue.zero())
        assert sharp(inoue, omega) == omega
        lee = lee_form(inoue)
        assert sharp(inoue, lee.theta) == lee.B

    def test_inoue_d_omega_equals_lee_wedge_omega(self, inoue):
        omega = fundamental_form(inoue)
        lee = lee_form(inoue)
        residual = d_twoform(inoue, omega) - wedge_one_two(inoue, lee.theta, omega)
        assert residual.is_zero

    def test_two_form_antisymmetry_enforced(self, inoue):
        bad = [[inoue.const(1) for _ in range(4)] for _ in range(4)]
        with pytest.raises(FrameError):
            TwoForm(inoue, bad)


class TestValidation:
    def test_restrict_substitutes_weyl_form(self, inoue):
        reduced = inoue.restrict({"a3": 0, "a4": 0})
        assert [str(p) for p in reduced.phi] == ["a1", "a2", "0", "0"]
        assert reduced.c == inoue.c

    def test_with_phi_revalidates_length(self, inoue):
        with pytest.raises(FrameError):
            inoue.with_phi(("a1",))

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
