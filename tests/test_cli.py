from __future__ import annotations

import contextlib
import io
import json
import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from golden_cases import GOLDEN_CASES
from wtw.cli import main

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def plain_output(monkeypatch):
    monkeypatch.setenv("WTW_COLOR", "0")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse errors
            status = exc.code
    return status, out.getvalue(), err.getvalue()


class TestExitCodes:
    def test_validate_builtin_ok(self):
        status, out, _ = run(["validate", "--builtin", "inoue-s0"])
        assert status == 0
        assert "Jacobi identity: ok" in out

    def test_missing_source_is_usage_error(self):
        status, _, _ = run(["validate"])
        assert status == 2

    def test_kodaira_needs_signs(self):
        status, _, err = run(["validate", "--builtin", "kodaira"])
        assert status == 2
        assert "signs" in err

    def test_bad_signs(self):
        status, _, _ = run(["validate", "--builtin", "kodaira", "--signs", "0,9"])
        assert status == 2

    def test_unknown_builtin_rejected_by_parser(self):
        status, _, _ = run(["validate", "--builtin", "torus"])
        assert status == 2

    def test_malformed_document(self):
        status, _, err = run(["validate", "--spec", str(DATA / "bad_syntax.toml")])
        assert status == 2
        assert "spec error" in err

    @pytest.mark.parametrize("old, new", [
        ('{ E1 = "-1" }', "{ E1 = true }"),
        ("[brackets]", "[[brackets]]"),
        ("[frame]\ndimension = 4\nsymbols = []", "frame = 1"),
        ('["1", "0", "0", "0"],', "1,"),
        ('"E2,E3" = { E3 = "-1/2" }', '"E2,E1" = { E1 = "-1" }'),
        ('{ E3 = "-1/2" }', '{ E3 = "1e9999999" }'),
        ("dimension = 4", "dimension = 18"),
        ("dimension = 4", "dimension = 1000000000000"),
        ('{ E3 = "-1/2" }', "{ E3 = " + "9" * 5000 + " }"),
    ], ids=["bool-constant", "array-of-tables", "top-level-scalar", "matrix-row-not-a-list",
            "pair-given-twice", "exponent-constant", "dimension-above-cap", "huge-dimension",
            "integer-too-long"])
    def test_hostile_document_is_one_line_spec_error(self, tmp_path, old, new):
        text = (DATA / "inoue_lee.toml").read_text()
        assert old in text
        path = tmp_path / "hostile.toml"
        path.write_text(text.replace(old, new))
        status, out, err = run(["validate", "--spec", str(path)])
        assert status == 2 and out == ""
        assert err.startswith("spec error: ") and err.count("\n") == 1

    CHAIN = "*".join(["a1"] * 1200)

    @pytest.mark.parametrize("edits, message", [
        ([('"E1,E2" = { E1 = "-1" }', '"E1,E2" = { E1 = "-1" }\n"E1,E1" = { E2 = "1" }')],
         "[E_1, E_1] must vanish"),
        ([('[weyl_form]\nE2 = "1"\n', "")], "missing section [weyl_form]"),
        ([("dimension = 4\n", "")], "[frame] requires dimension and symbols"),
        ([("symbols = []", 'symbols = "a1"')], "symbols must be a list of strings"),
        ([("symbols = []", 'symbols = []\nbasis = "E1"')], "basis must be a list of strings"),
        ([('{ E1 = "-1" }', '{ E9 = "-1" }')], "[brackets] 'E1,E2': unknown basis vector 'E9'"),
        ([('"E1,E2" = {', '"E1" = {')], "[brackets] key must name two basis vectors, got 'E1'"),
        ([('{ E1 = "-1" }', '"-1"')], "[brackets] 'E1,E2' must map basis vectors to constants"),
        ([('    ["0", "0", "1", "0"],\n', "")], "complex structure must be an n x n matrix"),
        ([("[complex_structure]", "[complex_structure]\nsize = 4")],
         "unknown keys in [complex_structure]: ['size']"),
        ([('E2 = "1"', 'E7 = "1"')], "[weyl_form]: unknown basis vector 'E7'"),
        ([('E2 = "1"', "E2 = 1")], "[weyl_form] coefficients must be strings"),
        ([("symbols = []", 'symbols = ["a1"]'), ('E2 = "1"', f'E2 = "{CHAIN}"')],
         f"too long a chain of operators in '{CHAIN}'"),
    ], ids=["bracket-of-a-vector-with-itself", "missing-section", "no-dimension",
            "symbols-not-a-list", "basis-not-a-list", "unknown-vector-in-a-bracket",
            "bracket-key-of-one-vector", "bracket-not-a-table", "three-rows-of-j",
            "unknown-key-in-complex-structure", "unknown-vector-in-weyl-form",
            "weyl-form-not-a-string", "chain-of-1200-factors"])
    def test_refused_document_prints_its_one_line(self, tmp_path, edits, message):
        text = (DATA / "inoue_lee.toml").read_text()
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        path = tmp_path / "refused.toml"
        path.write_text(text)
        assert run(["validate", "--spec", str(path)]) == (2, "", f"spec error: {message}\n")

    @pytest.mark.parametrize("argv, status, message", [
        (["validate", "--builtin", "inoue-s0", "--signs", "+1,+1"], 2,
         "spec error: inoue-s0 takes no signs"),
        (["conditions", "--spec", str(DATA / "hyperbolic6.toml"), "--dim4"], 1,
         "gate failure: dimension-four mode: requires n = 4, got n = 6"),
    ], ids=["signs-for-inoue", "dim4-at-n-6"])
    def test_refused_source_prints_its_one_line(self, argv, status, message):
        assert run(argv) == (status, "", f"{message}\n")

    def test_jacobi_violation_is_spec_error(self):
        status, _, err = run(["validate", "--spec", str(DATA / "bad_jacobi.toml")])
        assert status == 2
        assert "Jacobi" in err

    def test_missing_file(self):
        status, _, _ = run(["validate", "--spec", str(DATA / "nope.toml")])
        assert status == 2

    def test_verify_requires_assign(self):
        status, _, _ = run(["verify", "--builtin", "inoue-s0"])
        assert status == 2

    @pytest.mark.parametrize("verb, value", [("ricci", "a1=0"), ("conditions", ""),
                                             ("suite", ""), ("lee", " ")])
    def test_assign_rejected_elsewhere(self, verb, value):
        """Any --assign, an empty one too, is refused by a verb that takes none."""
        status, out, err = run([verb, "--builtin", "inoue-s0", "--assign", value])
        assert (status, out) == (2, "")
        assert err == f"error: --assign is not accepted by {verb}\n"

    @pytest.mark.parametrize("verb", ["verify", "report"])
    def test_empty_assign_is_the_empty_assignment(self, verb):
        """``--assign ""`` is the empty assignment, as ``--assign ","`` is:
        verify runs on it and report prints its assignment section."""
        outputs = [run([verb, "--builtin", "inoue-s0", "--assign", value, "--format", "json"])
                   for value in ("", ",")]
        assert outputs[0] == outputs[1]
        status, out, err = outputs[0]
        assert status in (0, 1) and err == ""
        assert json.loads(out)["assignment"]["values"] == {}

    @pytest.mark.parametrize("verb", ["verify", "report"])
    @pytest.mark.parametrize("value", ["1/0", "x", "1e9999999", "0.5"])
    def test_bad_assignment_value_is_usage_error(self, verb, value):
        status, out, err = run([verb, "--builtin", "inoue-s0", "--assign", f"a1={value}"])
        assert status == 2
        assert out == ""
        assert err == f"error: assignment entry 'a1={value}' does not have a rational value\n"

    @pytest.mark.parametrize("verb", ["verify", "report"])
    @pytest.mark.parametrize("entries, message", [
        ("b7=0", "assignment entry 'b7=0' names an undeclared symbol"),
        ("=1", "assignment entry '=1' has no symbol name"),
        ("a1=0,a1=1", "assignment entry 'a1=1' assigns 'a1' a second time"),
    ], ids=["undeclared", "no-name", "repeated"])
    def test_bad_assignment_name_is_usage_error(self, verb, entries, message):
        status, out, err = run([verb, "--builtin", "inoue-s0", "--assign", entries])
        assert status == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("nested", ["(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"],
                             ids=["parentheses", "unary-signs"])
    def test_deeply_nested_weyl_form_is_one_line_spec_error(self, tmp_path, nested):
        text = (DATA / "inoue_lee.toml").read_text()
        assert 'E2 = "1"' in text
        path = tmp_path / "nested.toml"
        path.write_text(text.replace('E2 = "1"', f'E2 = "{nested}"'))
        status, out, err = run(["validate", "--spec", str(path)])
        assert status == 2 and out == ""
        assert err.startswith("spec error: ") and err.count("\n") == 1

    def test_non_ascii_digit_in_weyl_form_is_one_line_spec_error(self, tmp_path):
        """"\u0663*a1" is not 3*a1: polynomial strings take ASCII digits only, as
        brackets, J and ``--assign`` do."""
        text = (DATA / "hyperbolic6.toml").read_text()
        assert 'E1 = "a1"' in text
        path = tmp_path / "digit.toml"
        path.write_text(text.replace('E1 = "a1"', 'E1 = "\u0663*a1"'), encoding="utf-8")
        status, out, err = run(["validate", "--spec", str(path)])
        assert status == 2 and out == ""
        assert err.startswith("spec error: ") and err.count("\n") == 1
        assert "\u0663" in err

    @pytest.mark.parametrize("key, nested", [("matrix", "[" * 1000 + "]" * 1000),
                                             ("x", "{a = " * 400 + "1" + "}" * 400)],
                             ids=["arrays", "inline-tables"])
    def test_deeply_nested_document_is_one_line_spec_error(self, tmp_path, key, nested):
        """A value nested past the depth the TOML parser's recursion reaches
        makes the document malformed."""
        text = (DATA / "inoue_lee.toml").read_text()
        text = re.sub(r"matrix = \[.*?\n\]", lambda _: f"{key} = {nested}", text, flags=re.S)
        assert nested in text
        path = tmp_path / "nested.toml"
        path.write_text(text)
        assert run(["validate", "--spec", str(path)]) == (
            2, "", "spec error: values nest too deeply to parse\n")

    def test_exponent_overflow_is_one_line_error(self, tmp_path):
        # a1^20000 is below the exponent cap, so the document loads; the Weyl
        # curvature squares phi, which passes the cap
        text = (DATA / "inoue_lee.toml").read_text()
        assert 'symbols = []' in text and 'E2 = "1"' in text
        path = tmp_path / "power.toml"
        path.write_text(text.replace("symbols = []", 'symbols = ["a1"]')
                        .replace('E2 = "1"', 'E2 = "a1^20000"'))
        assert run(["validate", "--spec", str(path)])[0] == 0
        status, out, err = run(["curvature", "--spec", str(path)])
        assert status == 2 and out == ""
        assert err.startswith("error: exponent above the cap") and err.count("\n") == 1
        path.write_text(path.read_text().replace("a1^20000", "a1^40000"))
        status, out, err = run(["validate", "--spec", str(path)])
        assert status == 2 and out == ""
        assert err.startswith("spec error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["curvature", "conditions"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_coefficient_past_the_int_digit_limit_is_one_line_error(self, tmp_path, verb, fmt):
        # 10^2200*a1 loads and prints; the Weyl curvature squares phi, and a
        # coefficient near 10^4400 has more digits than int-to-str converts
        text = (DATA / "inoue_lee.toml").read_text()
        path = tmp_path / "long.toml"
        path.write_text(text.replace("symbols = []", 'symbols = ["a1"]')
                        .replace('E2 = "1"', 'E2 = "10^2200*a1"'))
        assert run(["connection", "--spec", str(path)])[0] == 0
        status, out, err = run([verb, "--spec", str(path), "--format", fmt])
        assert status == 2 and out == ""
        assert re.fullmatch(r"error: cannot print a coefficient of 146\d\d bits: it has more "
                            r"decimal digits than the interpreter converts\n", err)

    def test_product_past_the_term_pair_bound_is_one_line_error(self, tmp_path):
        # 900 terms load, as the parser caps only written products; the Weyl
        # curvature multiplies phi_1 by itself, 810,000 term pairs
        text = (DATA / "hyperbolic6.toml").read_text()
        assert 'E1 = "a1"' in text
        wide = " + ".join(f"a1^{i}*a2^{j}" for i in range(30) for j in range(30))
        path = tmp_path / "wide.toml"
        path.write_text(text.replace('E1 = "a1"', f'E1 = "{wide}"'))
        assert run(["validate", "--spec", str(path)])[0] == 0
        status, out, err = run(["curvature", "--spec", str(path)])
        assert status == 2 and out == ""
        assert err.startswith("error: a product of 900 by 900 terms passes the cap")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["nosuchverb"], "argument verb: invalid choice: 'nosuchverb' (choose from "),
        (["validate", "--spec", "x", "--bogus"], "unrecognized arguments: --bogus"),
        (["validate"], "one of the arguments --builtin --spec is required"),
        ([], "the following arguments are required: verb"),
        (["curvature", "--builtin", "inoue-s0", "--format", "xml"], "argument --format: "),
        (["verify", "--builtin", "inoue-s0"], "verify requires --assign"),
        (["lee", "--builtin", "inoue-s0", "--assign", "a1=1"], "--assign is not accepted"),
        (["lee", "--builtin", "inoue-s0", "--b\nad"], "unrecognized arguments: --b\\nad"),
        (["validate", "--spec", str(DATA / "hyperbolic6.toml"), "--signs", "garbage"],
         "--signs requires --builtin"),
        (["conditions", "--spec", str(DATA / "inoue_lee.toml"), "--signs=+1,+1"],
         "--signs requires --builtin"),
        (["suite", "--builtin", "inoue-s0", "--dim4"], "--dim4 is not accepted by suite"),
        (["lee", "--builtin", "kodaira", "--signs", "+1,-1", "--dim4", "--format", "json"],
         "--dim4 is not accepted by lee"),
        (["validate", "--builtin", "kodaira", "--signs", "+1"], "signs must look like +1,-1"),
        (["verify", "--builtin", "inoue-s0", "--assign", "a1=0, a2"],
         "assignment entry 'a2' is not name=value"),
    ])
    def test_rejected_command_line_is_one_error_line(self, argv, message):
        status, out, err = run(argv)
        assert status == 2 and out == ""
        assert err.startswith("error: " + message) and err.count("\n") == 1
        assert "usage" not in err

    def test_help_still_prints_usage(self):
        status, out, err = run(["--help"])
        assert status == 0 and err == ""
        assert out.startswith("usage: wtw ") and "--builtin" in out


_VERBS = ("validate", "connection", "curvature", "ricci", "star-ricci", "lee", "lck",
          "conditions", "verify", "suite", "report")
_SOURCES = (["--builtin", "inoue-s0"], ["--builtin", "kodaira"],
            *(["--spec", str(DATA / name)] for name in (
                "flat_torus.toml", "inoue_lee.toml", "nonintegrable.toml", "bad_jacobi.toml",
                "bad_syntax.toml", "missing.toml", "")))
# pieces of hostile --assign and --signs values
_PIECES = st.sampled_from(["a1", "a2", "a4", "b7", "t", "=", ",", "/", "-", "+", " ", "0", "1",
                           "-1", "+1", "2/3", "1/0", "1e9", "0.5", "9" * 5000, "(", "\n",
                           "\x00", "\u2028", "é"])
_hostile = st.lists(_PIECES, max_size=8).map("".join) | st.text(max_size=12)
_entries = st.lists(st.tuples(st.sampled_from(["a1", "a2", "a3", "a4", "b7", "", " a1 "]),
                              st.sampled_from(["0", "1", "-1/2", " 2/3 ", "1/0", "0.5", ""])),
                    min_size=1, max_size=4).map(lambda es: ",".join(f"{n}={v}" for n, v in es))
_assign = _entries | _hostile


@st.composite
def _argv(draw) -> list[str]:
    """A command line that argparse accepts: any verb, a built-in frame or a
    document, hostile --signs and --assign values and the output flags."""
    verb = draw(st.sampled_from(_VERBS))
    argv = [verb, *draw(st.sampled_from(_SOURCES))]
    if draw(st.booleans()):
        argv.append(f"--signs={draw(_hostile)}")
    if verb == "verify":  # verify without --assign is refused before any work
        argv.append(f"--assign={draw(_assign)}")
    elif verb == "report" and draw(st.booleans()):
        argv.append(f"--assign={draw(_assign)}")
    argv.append(f"--format={draw(st.sampled_from(['table', 'json']))}")
    if draw(st.booleans()):
        argv.append("--dim4")
    return argv


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_argv())
def test_cli_fuzz_exits_cleanly(argv):
    status, _, err = run(argv)
    assert status in (0, 1, 2)
    assert err.count("\n") <= 1 and err.endswith("\n") == bool(err)
    assert "Traceback" not in err


class TestGateBehavior:
    @pytest.mark.parametrize("verb", ["conditions", "verify"])
    def test_nonintegrable_rejected(self, verb):
        argv = [verb, "--spec", str(DATA / "nonintegrable.toml")]
        if verb == "verify":
            argv += ["--assign", "a1=0"]
        status, _, err = run(argv)
        assert status == 1
        assert err == ("gate failure: integrability assumption: "
                       "the Nijenhuis tensor of J does not vanish\n")

    def test_heisenberg_rejected_by_lee_identity(self):
        status, _, err = run(["conditions", "--spec", str(DATA / "heisenberg6.toml")])
        assert status == 1
        assert "Lee identity assumption" in err

    def test_heisenberg_lck_fails(self):
        status, out, _ = run(["lck", "--spec", str(DATA / "heisenberg6.toml")])
        assert status == 1
        assert "d(Omega) = theta ^ Omega: FAIL" in out

    def test_failing_check_prints_its_detail(self):
        _, out, _ = run(["lck", "--spec", str(DATA / "heisenberg6.toml")])
        lines = out.splitlines()
        detail = lines[lines.index("d(Omega) = theta ^ Omega: FAIL") + 1]
        assert re.fullmatch(r"    \d+ nonzero entries, first at \(E\d,E\d,E\d\): .+", detail)
        assert lines[lines.index("d(theta) = 0: ok") + 1] == "Nijenhuis tensor vanishes: ok"

    def test_json_detail_on_failing_checks_only(self):
        status, out, _ = run(["lck", "--spec", str(DATA / "heisenberg6.toml"),
                              "--format", "json"])
        assert status == 1
        for check in json.loads(out)["lck"]["checks"]:
            assert ("detail" in check) == (not check["ok"])
            if not check["ok"]:
                assert check["detail"].startswith("24 nonzero entries, first at (")

    def test_report_survives_gate_failure(self):
        status, out, _ = run(["report", "--spec", str(DATA / "nonintegrable.toml")])
        assert status == 1
        document = json.loads(out)
        assert document["conditions"]["assumption"] == "integrability assumption"


class TestConditionVerbs:
    def test_conditions_nonempty_exits_one(self):
        status, out, _ = run(["conditions", "--builtin", "inoue-s0"])
        assert status == 1
        assert "condition_i.1 = a3" in out

    def test_conditions_empty_exits_zero(self):
        status, out, _ = run(["conditions", "--spec", str(DATA / "inoue_lee.toml")])
        assert status == 0
        assert "holds_identically = true" in out

    def test_flat_torus_conditions_empty(self):
        status, _, _ = run(["conditions", "--spec", str(DATA / "flat_torus.toml")])
        assert status == 0

    def test_verify_solution_point(self):
        status, out, _ = run(["verify", "--builtin", "inoue-s0",
                              "--assign", "a1=0,a2=1,a3=0,a4=0"])
        assert status == 0
        assert "holds: ok" in out

    def test_verify_partial_point_fails(self):
        status, out, _ = run(["verify", "--builtin", "inoue-s0",
                              "--assign", "a1=0,a2=1"])
        assert status == 1
        assert "residual_symbols.1 = a3" in out
        assert "residual_symbols.2 = a4" in out

    def test_verify_rational_values(self):
        status, _, _ = run(["verify", "--builtin", "kodaira", "--signs", "+1,-1",
                            "--assign", "a1=0,a2=0,a3=1/2,a4=-3"])
        assert status == 0

    def test_dim4_flag(self):
        status, out, _ = run(["conditions", "--builtin", "kodaira",
                              "--signs", "+1,+1", "--dim4"])
        assert status == 1
        assert "dim4_mode = true" in out
        assert "condition_ii.1 = a1^2 + a2^2" in out


class TestSuiteVerb:
    def test_suite_green_on_builtin(self):
        status, out, _ = run(["suite", "--builtin", "kodaira", "--signs", "+1,-1"])
        assert status == 0
        assert "FAIL" not in out

    def test_suite_flags_gate_failure(self):
        status, out, _ = run(["suite", "--spec", str(DATA / "nonintegrable.toml")])
        assert status == 1
        assert "gate (integrability assumption): FAIL" in out
        lines = out.splitlines()
        detail = lines[lines.index("gate (integrability assumption): FAIL") + 1]
        assert detail == ("    integrability assumption: "
                          "the Nijenhuis tensor of J does not vanish")

    @pytest.mark.parametrize("name", ["hyperbolic6", "inoue_like6", "inoue_like6_double",
                                      "vaisman6", "inoue_rotation6", "hyperbolic8",
                                      "inoue_like8", "inoue_like8_double", "vaisman8",
                                      "inoue_rotation8"])
    def test_six_dimensional_identities_hold(self, name):
        """Every identity holds at n = 6 and 8, where n(n-4)/(2(n-2)) is not zero;
        only the vertical-trace route comparison may fail, and then it names where."""
        _, out, _ = run(["suite", "--spec", str(DATA / f"{name}.toml"), "--format", "json"])
        checks = json.loads(out)["suite"]["checks"]
        assert len(checks) == 27
        for check in checks:
            if check["name"] != "vertical trace paths agree":
                assert check["ok"], check
            elif not check["ok"]:
                assert re.fullmatch(r"\d+ nonzero entr(y|ies), first at \(E\d,E\d\): .+",
                                    check["detail"])
                assert not check["detail"].endswith(": 0")


class TestJsonOutput:
    def test_json_is_valid_and_deterministic(self):
        argv = ["ricci", "--builtin", "inoue-s0", "--format", "json"]
        status1, out1, _ = run(argv)
        status2, out2, _ = run(argv)
        assert status1 == status2 == 0
        assert out1 == out2
        document = json.loads(out1)
        assert document["ricci"][0] == "rho[1][1] = -1/2*a2^2 - a2 - 1/2*a3^2 - 1/2*a4^2"

    def test_report_contains_tables_and_verdicts(self):
        status, out, _ = run(["report", "--builtin", "kodaira", "--signs", "+1,+1"])
        assert status == 1  # the condition system is nonempty
        document = json.loads(out)
        assert document["conditions"]["condition_ii"] == ["a1^2 + a2^2"]
        assert document["identities"]["ok"] is True
        assert document["equivalence"]["ok"] is True
        assert document["verdict"] == "conditional; see the condition systems"

    def test_report_lee_weyl_form_verdict(self):
        status, out, _ = run(["report", "--spec", str(DATA / "inoue_lee.toml")])
        assert status == 0
        document = json.loads(out)
        assert document["verdict"] == "pseudo-harmonic for all parameter values"


class TestColor:
    def test_forced_color_emits_ansi(self, monkeypatch):
        monkeypatch.setenv("WTW_COLOR", "1")
        _, out, _ = run(["validate", "--builtin", "inoue-s0"])
        assert "\x1b[" in out

    def test_plain_by_default_without_tty(self, monkeypatch):
        monkeypatch.delenv("WTW_COLOR", raising=False)
        _, out, _ = run(["validate", "--builtin", "inoue-s0"])
        assert "\x1b[" not in out


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_output(name):
    argv = GOLDEN_CASES[name]
    status, out, _ = run(argv)
    recorded = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert out + f"# exit {status}\n" == recorded
