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

Start-up: this module loads the frame, connection and curvature layers.  The
Hermitian, twistor and pseudo-harmonicity layers are imported inside the
verbs that use them, and ``json`` only when JSON is printed, because every
call is a fresh process and each module it imports is compiled again when no
bytecode cache is written.  ``validate``, ``connection``, ``curvature``,
``ricci`` and ``star-ricci`` load none of the three; ``conditions`` and
``verify`` do not load the twistor layer.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .connection import (levi_civita, metric_residual, reconstruct_weyl_form,
                         torsion_residual, weyl)
from .curvature import curvature, identity_suite, ricci, ricci_formula_check, star_ricci
from .frame import FrameError, FrameSpec, GateError, SpecFormatError, builtin, load_spec_file
from .polyalg import PolynomialParseError, Ring, _parse_rational
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
    if env in ("0", "1"):
        return env == "1"
    return sys.stdout.isatty()


def _parse_signs(text: str) -> tuple[int, int]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 2:
        raise ValueError("signs must look like +1,-1")
    signs = {"+1": 1, "1": 1, "-1": -1}
    for part in parts:
        if part not in signs:
            raise ValueError(f"sign must be +1 or -1, got {part!r}")
    return signs[parts[0]], signs[parts[1]]


def _parse_assignment(text: str, ring: Ring) -> dict[str, Fraction]:
    """Comma-separated ``name=value`` entries; each name is a symbol of
    ``ring`` given once, and each value a rational constant."""
    out: dict[str, Fraction] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"assignment entry {chunk!r} is not name=value")
        name, _, value = chunk.partition("=")
        name = name.strip()
        if not name:
            raise ValueError(f"assignment entry {chunk!r} has no symbol name")
        if name not in ring.symbols:
            raise ValueError(f"assignment entry {chunk!r} names an undeclared symbol")
        if name in out:
            raise ValueError(f"assignment entry {chunk!r} assigns {name!r} a second time")
        try:
            out[name] = _parse_rational(value)
        except ValueError:
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
        "checks": [{"name": c.name, "ok": c.ok} if c.ok
                   else {"name": c.name, "ok": c.ok, "detail": c.detail}
                   for c in report.checks],
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


def _print_json(data: dict) -> None:
    import json
    sys.stdout.write(json.dumps(data, indent=2, sort_keys=False) + "\n")


def _conditions_data(spec: FrameSpec, dim4_mode: bool) -> dict:
    from .pseudoharmonic import conditions
    report = conditions(spec, dim4_mode=dim4_mode)
    return {
        "dim4_mode": report.dim4_mode,
        "condition_i": [str(p) for p in report.condition_i],
        "condition_ii": [str(p) for p in report.condition_ii],
        "dropped_zero_i": report.dropped_i,
        "dropped_zero_ii": report.dropped_ii,
        "holds_identically": report.holds_identically,
    }, report


def _suite_report(spec: FrameSpec) -> CheckReport:
    from .hermitian import lck_check, nabla_j_checks
    from .twistor import curvature_pairing_with_dj_check, equivalence_check, vertical_checks
    total = CheckReport(title="full check suite")
    basis = spec.basis
    for conn in (levi_civita(spec), weyl(spec)):
        total.require_zero(f"torsion-free contract ({conn.kind})", torsion_residual(conn),
                           (basis,) * 3)
        total.require_zero(f"metric contract ({conn.kind})", metric_residual(conn),
                           (basis,) * 3)
    recovered = reconstruct_weyl_form(weyl(spec))
    total.require_zero("Weyl form round-trips through its connection",
                       [a - b for a, b in zip(recovered, spec.phi)], (basis,))
    total.extend(identity_suite(spec))
    total.extend(ricci_formula_check(spec))
    total.extend(lck_check(spec))
    try:
        total.extend(nabla_j_checks(spec))
        total.extend(vertical_checks(spec))
        total.extend(curvature_pairing_with_dj_check(spec))
        total.extend(equivalence_check(spec))
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
        from .hermitian import lee_form
        theta = lee_form(spec)  # the Lee vector B has theta's components
        data["theta"] = [f"theta[{k+1}] = {value}" for k, value in enumerate(theta)]
        data["lee_vector"] = [f"B[{k+1}] = {value}" for k, value in enumerate(theta)]
    elif verb in ("lck", "suite"):
        from .hermitian import lck_check
        report = lck_check(spec) if verb == "lck" else _suite_report(spec)
        data[verb] = _report_to_data(report)
        status = EXIT_OK if report.ok else EXIT_CHECK_FAILED
    elif verb == "conditions":
        cond, report = _conditions_data(spec, args.dim4)
        data["conditions"] = cond
        status = EXIT_OK if report.holds_identically else EXIT_CHECK_FAILED
    elif verb == "verify":
        from .pseudoharmonic import verify_assignment
        assignment = _parse_assignment(args.assign, spec.ring)
        cond, report = _conditions_data(spec, args.dim4)
        verdict = verify_assignment(report, assignment)
        data["conditions"] = cond
        data["assignment"] = {
            "values": {name: str(value) for name, value in verdict.assignment},
            "per_polynomial": [{"name": name, "ok": ok}
                               for name, ok in verdict.per_polynomial],
            "holds": verdict.holds,
            "residual_symbols": list(verdict.residual_symbols),
        }
        status = EXIT_OK if verdict.holds else EXIT_CHECK_FAILED
    elif verb == "report":
        report_data, status = _full_report(spec, args)
        data.update(report_data)
        _print_json(data)
        return status
    else:  # pragma: no cover - argparse restricts the choices
        raise AssertionError(verb)

    if args.format == "json":
        _print_json(data)
        return status
    _render_table(verb, data, out)
    out.emit()
    return status


def _full_report(spec: FrameSpec, args) -> tuple[dict, int]:
    """The machine-readable document and its exit status: 0 exactly when the gate
    passes and its four check reports and the conditions (or the assignment) hold."""
    from .hermitian import lck_check, lee_form
    from .pseudoharmonic import verify_assignment
    from .twistor import equivalence_check
    assignment = None if args.assign is None else _parse_assignment(args.assign, spec.ring)
    data: dict = {}
    data["validation"] = {"ok": True}
    theta = [str(v) for v in lee_form(spec)]
    data["lee"] = {"theta": theta, "B": theta}
    lck = lck_check(spec)
    data["lck"] = _report_to_data(lck)
    rw = curvature(weyl(spec))
    data["ricci"] = [[str(v) for v in row] for row in ricci(rw)]
    data["star_ricci"] = [[str(v) for v in row] for row in star_ricci(rw)]
    identities, formulas = identity_suite(spec), ricci_formula_check(spec)
    data["identities"] = _report_to_data(identities)
    data["ricci_formulas"] = _report_to_data(formulas)
    try:
        cond, report = _conditions_data(spec, args.dim4)
        data["conditions"] = cond
        equivalence = equivalence_check(spec)
        data["equivalence"] = _report_to_data(equivalence)
        data["verdict"] = ("pseudo-harmonic for all parameter values" if report.holds_identically
                           else "conditional; see the condition systems")
        holds = report.holds_identically
        if assignment is not None:
            verdict = verify_assignment(report, assignment)
            data["assignment"] = {
                "values": {name: str(value) for name, value in verdict.assignment},
                "holds": verdict.holds,
            }
            holds = verdict.holds
    except GateError as exc:
        data["conditions"] = {"gate_error": str(exc), "assumption": exc.assumption}
        data["verdict"] = "rejected by the standing assumptions"
        return data, EXIT_CHECK_FAILED
    ok = holds and all(r.ok for r in (lck, identities, formulas, equivalence))
    return data, EXIT_OK if ok else EXIT_CHECK_FAILED


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
            elif isinstance(item, dict) and "ok" in item:  # a check
                out.verdict(item["name"], item["ok"])
                if "detail" in item:
                    out.line(f"    {item['detail']}")
            else:
                out.line(f"{prefix}{idx} = {item}")
    else:
        out.line(f"{prefix.rstrip('.')} = {value}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors end in the one ``error:`` line of
    :func:`main` instead of a usage block."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        if args.verb == "verify" and args.assign is None:
            raise ValueError("verify requires --assign")
        if args.verb not in ("verify", "report") and args.assign is not None:
            raise ValueError(f"--assign is not accepted by {args.verb}")
        if args.signs is not None and not args.builtin:
            raise ValueError("--signs requires --builtin")
        if args.dim4 and args.verb not in ("conditions", "verify", "report"):
            raise ValueError(f"--dim4 is not accepted by {args.verb}")
        return _run_verb(args, _Output(color=_want_color()))
    except GateError as exc:
        sys.stderr.write(f"gate failure: {exc}\n")
        return EXIT_CHECK_FAILED
    except (FrameError, SpecFormatError, PolynomialParseError) as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        # one line, even where argparse quotes an argument with a line break
        text = str(exc).replace("\n", "\\n").replace("\r", "\\r")
        sys.stderr.write(f"error: {text}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
