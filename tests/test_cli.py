from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest

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
    ], ids=["bool-constant", "array-of-tables", "top-level-scalar", "matrix-row-not-a-list"])
    def test_hostile_document_is_one_line_spec_error(self, tmp_path, old, new):
        text = (DATA / "inoue_lee.toml").read_text()
        assert old in text
        path = tmp_path / "hostile.toml"
        path.write_text(text.replace(old, new))
        status, out, err = run(["validate", "--spec", str(path)])
        assert status == 2 and out == ""
        assert err.startswith("spec error: ") and err.count("\n") == 1

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

    def test_assign_rejected_elsewhere(self):
        status, _, _ = run(["ricci", "--builtin", "inoue-s0", "--assign", "a1=0"])
        assert status == 2

    @pytest.mark.parametrize("verb", ["verify", "report"])
    @pytest.mark.parametrize("value", ["1/0", "x"])
    def test_bad_assignment_value_is_usage_error(self, verb, value):
        status, out, err = run([verb, "--builtin", "inoue-s0", "--assign", f"a1={value}"])
        assert status == 2
        assert out == ""
        assert err == f"error: assignment entry 'a1={value}' does not have a rational value\n"


class TestGateBehavior:
    @pytest.mark.parametrize("verb", ["conditions", "verify"])
    def test_nonintegrable_rejected(self, verb):
        argv = [verb, "--spec", str(DATA / "nonintegrable.toml")]
        if verb == "verify":
            argv += ["--assign", "a1=0"]
        status, _, err = run(argv)
        assert status == 1
        assert "integrability assumption" in err

    def test_heisenberg_rejected_by_lee_identity(self):
        status, _, err = run(["conditions", "--spec", str(DATA / "heisenberg6.toml")])
        assert status == 1
        assert "Lee identity assumption" in err

    def test_heisenberg_lck_fails(self):
        status, out, _ = run(["lck", "--spec", str(DATA / "heisenberg6.toml")])
        assert status == 1
        assert "d(Omega) = theta ^ Omega: FAIL" in out

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
