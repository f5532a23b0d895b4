"""Command line front end.

Verbs: validate, connection, curvature, ricci, star-ricci, lee, lck,
conditions, verify, suite, report.  Every verb takes exactly one spec source:
``--builtin NAME`` (with ``--signs e1,e2`` for the built-in that needs them)
or ``--spec PATH``.  Output is a deterministic table by default or JSON with
``--format json``; the ``report`` verb always emits JSON.

Exit codes: 0 success / all checks hold; 1 failed check, unsatisfied
condition system, or gate failure (the violated assumption is named);
2 usage or spec-document errors.

Set ``WTW_COLOR=1`` to force ANSI colors, ``WTW_COLOR=0`` to disable them
(the default follows whether stdout is a terminal).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import pseudoharmonic, twistor
from .connection import levi_civita, weyl
from .curvature import curvature, identity_suite, ricci, ricci_formula_check, star_ricci
from .frame import FrameError, FrameSpec, SpecFormatError, builtin, load_spec_file
from .hermitian import GateError, lck_check, lee_form, nabla_j_checks
from .polyalg import PolynomialParseError
from .reports import CheckReport

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class _Output:
    def __init__(self, color: bool):
        self.color = color
        self.lines: list[str] = []

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def header(self, text: str) -> None:
        self.lines.append(self._paint(f"[{text}]", "1"))

    def verdict(self, name: str, ok: bool) -> None:
        word = self._paint("ok", "32") if ok else self._paint("FAIL", "31")
        self.lines.append(f"{name}: {word}")

    def _paint(self, text: str, code: str) -> str:
        if not self.color:
            return text
        return f"\x1b[{code}m{text}\x1b[0m"

    def emit(self) -> None:
        sys.stdout.write("\n".join(self.lines) + "\n")


def _want_color() -> bool:
    env = os.environ.get("WTW_COLOR")
    if env == "1":
        return True
    if env == "0":
        return False
    return sys.stdout.isatty()


def _parse_signs(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("signs must look like +1,-1")
    values = []
    for part in parts:
        part = part.strip()
        if part in ("+1", "1"):
            values.append(1)
        elif part == "-1":
            values.append(-1)
        else:
            raise ValueError(f"sign must be +1 or -1, got {part!r}")
    return values[0], values[1]


def _parse_assignment(text: str) -> dict[str, Fraction]:
    out: dict[str, Fraction] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"assignment entry {chunk!r} is not name=value")
        name, _, value = chunk.partition("=")
        try:
            out[name.strip()] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"assignment entry {chunk!r} does not have a rational value") from None
    return out


def _load(args) -> FrameSpec:
    if args.builtin:
        signs = _parse_signs(args.signs) if args.signs else None
        return builtin(args.builtin, signs)
    return load_spec_file(args.spec)


def _report_to_data(report: CheckReport) -> dict:
    return {
        "title": report.title,
        "ok": report.ok,
        "checks": [{"name": c.name, "ok": c.ok} for c in report.checks],
        "notes": dict(sorted(report.notes.items())),
    }


def _spec_data(spec: FrameSpec) -> dict:
    return {
        "name": spec.name,
        "dimension": spec.dimension,
        "symbols": list(spec.ring.symbols),
        "basis": list(spec.basis),
    }


def _gamma_table(conn) -> list[str]:
    return [f"gamma[{i+1}][{j+1}][{k+1}] = {value}"
            for i, j, k, value in conn.nonzero()]


def _curvature_table(conn) -> list[str]:
    """Nonzero curvature entries r[i][j][k][l] with i < j."""
    r = curvature(conn).r
    n = conn.spec.n
    return [f"r[{i+1}][{j+1}][{k+1}][{l+1}] = {r[i][j][k][l]}"
            for i in range(n) for j in range(i + 1, n)
            for k in range(n) for l in range(n) if not r[i][j][k][l].is_zero]


def _matrix_table(label: str, matrix) -> list[str]:
    n = len(matrix)
    return [f"{label}[{i+1}][{j+1}] = {matrix[i][j]}"
            for i in range(n) for j in range(n)]


def _conditions_data(spec: FrameSpec, dim4_mode: bool) -> dict:
    report = pseudoharmonic.conditions(spec, dim4_mode=dim4_mode)
    return {
        "dim4_mode": report.dim4_mode,
        "condition_i": [str(p) for p in report.condition_i],
        "condition_ii": [str(p) for p in report.condition_ii],
        "dropped_zero_i": report.dropped_i,
        "dropped_zero_ii": report.dropped_ii,
        "holds_identically": report.holds_identically,
    }, report


def _suite_report(spec: FrameSpec) -> CheckReport:
    from .connection import metric_residual, reconstruct_weyl_form, torsion_residual
    total = CheckReport(title="full check suite")
    for conn in (levi_civita(spec), weyl(spec)):
        ok = all(entry.is_zero for plane in torsion_residual(conn)
                 for row in plane for entry in row)
        total.add(f"torsion-free contract ({conn.kind})", ok)
        ok = all(entry.is_zero for plane in metric_residual(conn)
                 for row in plane for entry in row)
        total.add(f"metric contract ({conn.kind})", ok)
    recovered = reconstruct_weyl_form(weyl(spec))
    total.add("Weyl form round-trips through its connection",
              all((a - b).is_zero for a, b in zip(recovered, spec.phi)))
    total.extend(identity_suite(spec))
    total.extend(ricci_formula_check(spec))
    total.extend(lck_check(spec))
    try:
        total.extend(nabla_j_checks(spec))
        basis = twistor.vertical_basis(spec)
        j_endo = spec.j_endo()
        ok = all(twistor.fiber_pairing_check(spec, j_endo, v).ok for v in basis.elements)
        total.add("fiber curvature pairing against every vertical direction", ok)
        ok = all(twistor.vertical_antisymmetry_check(spec, v).ok for v in basis.elements)
        total.add("vertical antisymmetry of the fiber curvature", ok)
        total.extend(twistor.curvature_pairing_with_dj_check(spec))
        total.extend(pseudoharmonic.equivalence_check(spec))
    except GateError as exc:
        total.add(f"gate ({exc.assumption})", False, str(exc))
    return total


def _run_verb(args, out: _Output) -> int:
    spec = _load(args)
    verb = args.verb
    data: dict = {"spec": _spec_data(spec)}
    status = EXIT_OK

    if verb == "validate":
        # load_spec/builtin already validated; reaching here means all hold
        data["checks"] = [
            {"name": "brackets antisymmetric", "ok": True},
            {"name": "Jacobi identity", "ok": True},
            {"name": "J^2 = -Identity and J orthogonal", "ok": True},
        ]
    elif verb == "connection":
        data["levi_civita"] = _gamma_table(levi_civita(spec))
        data["weyl"] = _gamma_table(weyl(spec))
    elif verb == "curvature":
        data["levi_civita"] = _curvature_table(levi_civita(spec))
        data["weyl"] = _curvature_table(weyl(spec))
    elif verb == "ricci":
        data["ricci"] = _matrix_table("rho", ricci(curvature(weyl(spec))))
    elif verb == "star-ricci":
        data["star_ricci"] = _matrix_table("rho_star", star_ricci(curvature(weyl(spec))))
    elif verb == "lee":
        lee = lee_form(spec)
        data["theta"] = [f"theta[{k+1}] = {value}" for k, value in enumerate(lee.theta)]
        data["lee_vector"] = [f"B[{k+1}] = {value}" for k, value in enumerate(lee.B)]
    elif verb == "lck":
        report = lck_check(spec)
        data["lck"] = _report_to_data(report)
        if not report.ok:
            status = EXIT_CHECK_FAILED
    elif verb == "conditions":
        cond, report = _conditions_data(spec, args.dim4)
        data["conditions"] = cond
        if not report.holds_identically:
            status = EXIT_CHECK_FAILED
    elif verb == "verify":
        assignment = _parse_assignment(args.assign)
        cond, report = _conditions_data(spec, args.dim4)
        verdict = pseudoharmonic.verify_assignment(report, assignment)
        report = report.with_assignment(verdict)
        data["conditions"] = cond
        data["assignment"] = {
            "values": {name: str(value) for name, value in verdict.assignment},
            "per_polynomial": [{"name": name, "ok": ok}
                               for name, ok in verdict.per_polynomial],
            "holds": verdict.holds,
            "residual_symbols": list(verdict.residual_symbols),
        }
        if not verdict.holds:
            status = EXIT_CHECK_FAILED
    elif verb == "suite":
        report = _suite_report(spec)
        data["suite"] = _report_to_data(report)
        if not report.ok:
            status = EXIT_CHECK_FAILED
    elif verb == "report":
        data.update(_full_report(spec, args))
        sys.stdout.write(json.dumps(data, indent=2, sort_keys=False) + "\n")
        return _report_status(data)
    else:  # pragma: no cover - argparse restricts the choices
        raise AssertionError(verb)

    if args.format == "json":
        sys.stdout.write(json.dumps(data, indent=2, sort_keys=False) + "\n")
        return status
    _render_table(verb, data, out)
    out.emit()
    return status


def _full_report(spec: FrameSpec, args) -> dict:
    """The machine-readable document: validation, Lee data, tables, conditions."""
    data: dict = {}
    data["validation"] = {"ok": True}
    lee = lee_form(spec)
    data["lee"] = {"theta": [str(v) for v in lee.theta],
                   "B": [str(v) for v in lee.B]}
    data["lck"] = _report_to_data(lck_check(spec))
    rw = curvature(weyl(spec))
    data["ricci"] = [[str(v) for v in row] for row in ricci(rw)]
    data["star_ricci"] = [[str(v) for v in row] for row in star_ricci(rw)]
    data["identities"] = _report_to_data(identity_suite(spec))
    data["ricci_formulas"] = _report_to_data(ricci_formula_check(spec))
    try:
        cond, report = _conditions_data(spec, args.dim4)
        data["conditions"] = cond
        data["equivalence"] = _report_to_data(pseudoharmonic.equivalence_check(spec))
        if report.holds_identically:
            data["verdict"] = "pseudo-harmonic for all parameter values"
        else:
            data["verdict"] = "conditional; see the condition systems"
        if args.assign:
            verdict = pseudoharmonic.verify_assignment(
                report, _parse_assignment(args.assign))
            data["assignment"] = {
                "values": {name: str(value) for name, value in verdict.assignment},
                "holds": verdict.holds,
            }
    except GateError as exc:
        data["conditions"] = {"gate_error": str(exc), "assumption": exc.assumption}
        data["verdict"] = "rejected by the standing assumptions"
    return data


def _report_status(data: dict) -> int:
    conditions = data.get("conditions", {})
    if "gate_error" in conditions:
        return EXIT_CHECK_FAILED
    checks_ok = all(section.get("ok", True)
                    for key, section in data.items()
                    if isinstance(section, dict) and key != "conditions")
    if not checks_ok:
        return EXIT_CHECK_FAILED
    if "assignment" in data:
        return EXIT_OK if data["assignment"]["holds"] else EXIT_CHECK_FAILED
    if not conditions.get("holds_identically", True):
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _render_table(verb: str, data: dict, out: _Output) -> None:
    spec = data["spec"]
    out.header(f"spec {spec['name']}")
    out.line(f"dimension = {spec['dimension']}")
    out.line(f"symbols = {', '.join(spec['symbols'])}")
    out.line(f"basis = {', '.join(spec['basis'])}")
    for key, value in data.items():
        if key == "spec":
            continue
        out.line()
        out.header(key.replace("_", "-"))
        _render_value(value, out)


def _render_value(value, out: _Output, prefix: str = "") -> None:
    if isinstance(value, dict):
        for key, inner in value.items():
            if key == "checks" and isinstance(inner, list):
                for check in inner:
                    out.verdict(check["name"], check["ok"])
                continue
            if isinstance(inner, (dict, list)):
                _render_value(inner, out, prefix=f"{key}.")
            elif isinstance(inner, bool):
                if key in ("ok", "holds"):
                    out.verdict(f"{prefix}{key}", inner)
                else:
                    out.line(f"{prefix}{key} = {'true' if inner else 'false'}")
            else:
                out.line(f"{prefix}{key} = {inner}")
    elif isinstance(value, list):
        if not value:
            out.line(f"{prefix.rstrip('.')} = (none)")
        for idx, item in enumerate(value, start=1):
            if isinstance(item, str) and "=" in item:
                out.line(item)
            elif isinstance(item, dict) and set(item) == {"name", "ok"}:
                out.verdict(item["name"], item["ok"])
            else:
                out.line(f"{prefix}{idx} = {item}")
    else:
        out.line(f"{prefix.rstrip('.')} = {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wtw",
        description="Exact Weyl-connection and twistor pseudo-harmonicity calculator")
    parser.add_argument("verb", choices=[
        "validate", "connection", "curvature", "ricci", "star-ricci", "lee",
        "lck", "conditions", "verify", "suite", "report"])
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", choices=["inoue-s0", "kodaira"],
                        help="use a built-in geometry")
    source.add_argument("--spec", help="path to a frame document")
    parser.add_argument("--signs", help="e1,e2 signs for the kodaira builtin (e.g. +1,-1)")
    parser.add_argument("--assign", help="comma-separated name=value rational assignment")
    parser.add_argument("--format", choices=["table", "json"], default="table")
    parser.add_argument("--dim4", action="store_true",
                        help="use the rearranged dimension-four form of condition (ii)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "verify" and not args.assign:
        parser.error("verify requires --assign")
    if args.verb != "verify" and args.assign and args.verb != "report":
        parser.error(f"--assign is not accepted by {args.verb}")
    out = _Output(color=_want_color())
    try:
        return _run_verb(args, out)
    except GateError as exc:
        sys.stderr.write(f"gate failure ({exc.assumption}): {exc}\n")
        return EXIT_CHECK_FAILED
    except (FrameError, SpecFormatError, PolynomialParseError) as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
