"""Benchmark of wtw: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/`` with no install step.  Workloads (see README.md in this directory):

* ``cli-n4``: one ``python -m wtw VERB --spec DOC`` process per operation;
* ``suite-n4``: in-process ``wtw.cli.main(["suite", ...])`` on rotated n = 4 frames;
* ``scan-n6``: ``load_spec``, ``conditions``, ``verify_assignment`` on n = 6 frames.

Each run is a closed loop with one client: a fixed list of whole rounds of
operations, sized from ``--seconds``, every operation on a frame no earlier
operation of the run used.  Inputs and oracle values are made before an
operation is timed and its outputs are checked after, outside the timed
region.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` the per-layer metrics, from a separate traced pass.  The last
line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import frames  # noqa: E402
import oracle  # noqa: E402
from tracing import LAYERS, Totals, Tracer  # noqa: E402

SETUP_REPEATS = 9
PROBE_REPEATS = 5
LOAD_PROBE_DOCS = 6
MAIN_PROBE_FRAMES = 3
VERBS = ("validate", "connection", "curvature", "ricci", "star-ricci", "lee", "lck",
         "conditions", "verify", "report")
PER_FRAME = (("hermitian.nijenhuis", "hermitian.nijenhuis_per_frame"),
             ("hermitian.lee_form", "hermitian.lee_form_per_frame"),
             ("hermitian.require_gate", "hermitian.require_gate_per_frame"),
             ("curvature.curvature", "curvature.curvature_per_frame"),
             ("connection.cov_deriv_endo", "connection.cov_deriv_endo_per_frame"))


# The host this benchmark runs on is shared: the same operation on the same
# input runs up to 1.4x faster or slower from one minute to the next.  Every
# time the benchmark reports is therefore scaled by the host's speed at that
# moment, measured by a fixed reference kernel (exact rational arithmetic in
# a dict, like the program's inner loops) right before and right after each
# timed piece, to seconds on a host where the kernel takes REFERENCE_S.
REFERENCE_S = 0.005
REFERENCE_RUNS = 3


def reference_kernel() -> dict:
    table: dict = {}
    for i in range(1, 500):
        key = (i % 5, i % 7, i % 3)
        table[key] = table.get(key, Fraction(0)) + Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return table


class HostClock:
    """Times pieces of work and scales them to the reference host speed."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        """Median time of a few runs of the reference kernel."""
        times = []
        for _ in range(REFERENCE_RUNS):
            start = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))

    def _scaled(self, elapsed: float) -> float:
        return elapsed * REFERENCE_S / statistics.mean(self.samples[-2:])

    def measured(self, measure) -> float:
        """Scale the seconds that ``measure()`` timed itself and returns by
        the mean of the reference samples taken right before and after."""
        self.sample()
        elapsed = measure()
        self.sample()
        return self._scaled(elapsed)

    def time(self, fn, *args):
        """Run ``fn(*args)``; return its result and its scaled duration."""
        self.sample()
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.sample()
        return result, self._scaled(elapsed)

    @property
    def reference_ms(self) -> float:
        return statistics.median(self.samples) * 1e3 if self.samples else 0.0


def pin_to_current_cpu() -> None:
    """Keep this process and its children on the CPU it runs on now, so the
    reference kernel reads the speed of the CPU that runs the operations."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        cpu = int(handle.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["WTW_COLOR"] = "0"
    return env


def import_program():
    """Import ``wtw`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import wtw
    import wtw.cli
    if not Path(wtw.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"wtw was imported from {wtw.__file__}, not from {SRC}")
    return wtw


def lee_assignment(frame: frames.Frame, theta) -> dict:
    """The symbol values at which the frame's Weyl form equals ``theta``."""
    inv = frames.inverse([list(row) for row in frame.phi])
    n = frame.n
    return {s: sum((inv[a][b] * theta[b] for b in range(n)), Fraction(0))
            for a, s in enumerate(frame.symbols)}


def format_assignment(values: dict) -> str:
    return ",".join(f"{name}={value}" for name, value in values.items())


@dataclass
class Op:
    index: int
    frame: frames.Frame
    path: Path
    text: str
    point: dict
    values: oracle.OracleValues
    assign: dict
    verb: str = ""
    argv: list = field(default_factory=list)


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    failed: int = 0
    max_terms: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def prepare(workdir: Path, tag: str, index: int, frame: frames.Frame, drawer) -> Op:
    text = frames.document(frame)
    path = workdir / f"{tag}{index:03d}.toml"
    path.write_text(text, encoding="utf-8")
    point = drawer.point(frame.symbols)
    values = oracle.evaluate(frame.c, frame.J, frame.phi_at(point))
    return Op(index, frame, path, text, point, values, lee_assignment(frame, values.theta))


# -- output checks -----------------------------------------------------------

def labelled(label: str, arr, idx=()) -> dict:
    """Flatten a nested array into ``{"label[1][2]": entry}`` (1-based, as printed)."""
    if not isinstance(arr, (tuple, list)):
        return {label + "".join(f"[{k + 1}]" for k in idx): arr}
    out = {}
    for k, sub in enumerate(arr):
        out.update(labelled(label, sub, idx + (k,)))
    return out


def mismatches(printed: dict, expected: dict, point: dict) -> list[str]:
    """Printed polynomials, evaluated at the point, against the oracle's
    values; an entry the program did not print must be zero."""
    problems = []
    for key, want in expected.items():
        text = printed.get(key)
        got = oracle.eval_poly(text, point) if text is not None else Fraction(0)
        if got != want:
            problems.append(f"{key}: printed {text!r} is {got} at the point, oracle {want}")
    return problems[:3]


def table_entries(lines) -> dict:
    out = {}
    for line in lines:
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def table_sections(stdout: str) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], [])
        elif current is not None and line:
            current.append(line)
    return sections


def verdicts(lines) -> list[bool]:
    return [line.endswith(": ok") for line in lines
            if line.endswith(": ok") or line.endswith(": FAIL")]


def upper_pairs(r4):
    """Curvature entries with i < j, the ones the curvature table lists."""
    n = len(r4)
    return {f"r[{i + 1}][{j + 1}][{k + 1}][{l + 1}]": r4[i][j][k][l]
            for i in range(n) for j in range(i + 1, n) for k in range(n) for l in range(n)}


def matrix_terms(entries) -> int:
    return max((oracle.term_count(text) for text in entries), default=0)


# -- workloads -------------------------------------------------------------

class CliWorkload:
    name = "cli-n4"
    round_size = len(VERBS)
    nominal_round_s = 4.0
    table_verbs = {"validate", "connection", "curvature", "lee", "lck"}

    def __init__(self, wtw, workdir: Path):
        self.wtw = wtw
        self.workdir = workdir
        self.env = child_env()

    def make_ops(self, drawer, tag: str, count: int) -> list[Op]:
        ops = []
        for index in range(count):
            algebra = frames.N4_ALGEBRAS[index % len(frames.N4_ALGEBRAS)]
            op = prepare(self.workdir, tag, index, drawer.rotated_n4(algebra), drawer)
            op.verb = VERBS[index % len(VERBS)]
            op.argv = [op.verb, "--spec", str(op.path)]
            if op.verb not in self.table_verbs and op.verb != "report":
                op.argv += ["--format", "json"]
            if op.verb == "verify":
                op.argv += ["--assign", format_assignment(op.assign)]
            ops.append(op)
        return ops

    def command(self, op: Op, trace_file: Path | None) -> list[str]:
        if trace_file is None:
            return [sys.executable, "-m", "wtw", *op.argv]
        return [sys.executable, str(HERE / "tracing.py"), str(trace_file), *op.argv]

    def run(self, op: Op, trace_file: Path | None = None):
        return subprocess.run(self.command(op, trace_file), env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=170)

    def failed(self, result) -> bool:
        return result.returncode not in (0, 1)

    def check(self, op: Op, result) -> tuple[list[str], int]:
        out, rc, verb, v = result.stdout, result.returncode, op.verb, op.values
        if verb in self.table_verbs:
            lines = table_sections(out)
            if verb == "validate":
                oks = verdicts(lines.get("checks", []))
                return ([] if oks and all(oks) and rc == 0 else [f"validate: exit {rc}"]), 0
            if verb == "lck":
                oks = verdicts(lines.get("lck", []))
                want = 0 if all(oks) else 1
                return ([] if oks and rc == want else [f"lck: exit {rc}, verdicts {oks}"]), 0
            sections = {name: table_entries(entries) for name, entries in lines.items()}
            problems = [] if rc == 0 else [f"{verb}: exit {rc}"]
            if verb == "connection":
                for section, gamma in (("levi-civita", v.lc), ("weyl", v.weyl)):
                    problems += mismatches(sections.get(section, {}), labelled("gamma", gamma),
                                           op.point)
            elif verb == "curvature":
                for section, r4 in (("levi-civita", v.r_lc), ("weyl", v.r_weyl)):
                    problems += mismatches(sections.get(section, {}), upper_pairs(r4), op.point)
            elif verb == "lee":
                problems += mismatches(sections.get("theta", {}), labelled("theta", v.theta),
                                       op.point)
                problems += mismatches(sections.get("lee-vector", {}), labelled("B", v.theta),
                                       op.point)
            return problems, 0
        try:
            data = json.loads(out)
        except json.JSONDecodeError:
            return [f"{verb}: output is not JSON (exit {rc})"], 0
        problems, terms = [], 0
        if verb in ("ricci", "star-ricci"):
            key, label, want = (("ricci", "rho", v.rho) if verb == "ricci"
                                else ("star_ricci", "rho_star", v.rho_star))
            printed = table_entries(data[key])
            problems += mismatches(printed, labelled(label, want), op.point)
            terms = matrix_terms(printed.values())
            if rc != 0:
                problems.append(f"{verb}: exit {rc}")
        elif verb == "conditions":
            cond = data["conditions"]
            want = 0 if not cond["condition_i"] and not cond["condition_ii"] else 1
            if rc != want:
                problems.append(f"conditions: exit {rc}, expected {want}")
        elif verb == "verify":
            if rc != 0 or not data["assignment"]["holds"]:
                problems.append(f"verify at the Lee assignment: exit {rc}")
        elif verb == "report":
            for key, label, want in (("ricci", "rho", v.rho), ("star_ricci", "rho_star", v.rho_star)):
                printed = labelled(label, data[key])
                problems += mismatches(printed, labelled(label, want), op.point)
                terms = max(terms, matrix_terms(printed.values()))
            problems += mismatches(labelled("theta", data["lee"]["theta"]),
                                   labelled("theta", v.theta), op.point)
            sections_ok = all(section.get("ok", True) for section in data.values()
                              if isinstance(section, dict))
            cond = data["conditions"]
            holds = "gate_error" not in cond and not cond["condition_i"] and not cond["condition_ii"]
            want = 0 if sections_ok and holds else 1
            if rc != want:
                problems.append(f"report: exit {rc}, expected {want}")
        return problems, terms


class SuiteWorkload:
    name = "suite-n4"
    round_size = len(frames.N4_ALGEBRAS)
    nominal_round_s = 12.0

    def __init__(self, wtw, workdir: Path):
        self.wtw = wtw
        self.workdir = workdir

    def make_ops(self, drawer, tag: str, count: int) -> list[Op]:
        ops = []
        for index in range(count):
            algebra = frames.N4_ALGEBRAS[index % len(frames.N4_ALGEBRAS)]
            op = prepare(self.workdir, tag, index, drawer.rotated_n4(algebra), drawer)
            op.argv = ["suite", "--spec", str(op.path), "--format", "json"]
            ops.append(op)
        return ops

    def run(self, op: Op, trace_file=None):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            status = self.wtw.cli.main(op.argv)
        return status, buf.getvalue()

    def failed(self, result) -> bool:
        return result[0] not in (0, 1)

    def check(self, op: Op, result) -> tuple[list[str], int]:
        status, out = result
        suite = json.loads(out)["suite"]
        problems = [f"suite check failed: {c['name']}" for c in suite["checks"] if not c["ok"]]
        if status != 0:
            problems.append(f"suite: exit {status}")
        if not suite["notes"].get("jstar_term_sign", "").startswith("-1/2"):
            problems.append(f"rho* formula sign: {suite['notes'].get('jstar_term_sign')!r}")
        more, terms = ricci_against_oracle(self.wtw, op)
        return problems + more, terms


def ricci_against_oracle(wtw, op: Op) -> tuple[list[str], int]:
    """Weyl rho and rho* of the operation's frame, substituted at the point,
    against the oracle; also their largest term count."""
    spec = wtw.load_spec(op.text, name=op.path.name)
    R = wtw.curvature(wtw.weyl(spec))
    problems, terms = [], 0
    for label, matrix, want in (("rho", wtw.ricci(R), op.values.rho),
                                ("rho_star", wtw.star_ricci(R), op.values.rho_star)):
        for i, row in enumerate(matrix):
            for k, entry in enumerate(row):
                terms = max(terms, oracle.term_count(str(entry)))
                if entry.substitute(op.point).constant_value() != want[i][k]:
                    problems.append(f"{label}[{i + 1}][{k + 1}] differs from the oracle")
    return problems[:3], terms


class ScanWorkload:
    name = "scan-n6"
    round_size = 4
    nominal_round_s = 3.7

    def __init__(self, wtw, workdir: Path):
        self.wtw = wtw
        self.workdir = workdir

    def make_ops(self, drawer, tag: str, count: int) -> list[Op]:
        ops = []
        for index in range(count):
            op = prepare(self.workdir, tag, index, drawer.hyperbolic_n6(), drawer)
            op.argv = ["verify", "--spec", str(op.path), "--assign",
                       format_assignment(op.assign), "--format", "json"]
            ops.append(op)
        return ops

    def run(self, op: Op, trace_file=None):
        spec = self.wtw.load_spec(op.text, name=op.path.name)
        report = self.wtw.conditions(spec)
        return report, self.wtw.verify_assignment(report, op.assign)

    def failed(self, result) -> bool:
        return False

    def check(self, op: Op, result) -> tuple[list[str], int]:
        _, verdict = result
        problems = [] if verdict.holds else ["conditions do not vanish at the Lee assignment"]
        more, terms = ricci_against_oracle(self.wtw, op)
        return problems + more, terms


WORKLOADS = {w.name: w for w in (CliWorkload, SuiteWorkload, ScanWorkload)}


# -- passes and probes ----------------------------------------------------------

def run_pass(workload, ops: list[Op], clock: HostClock, tracer: Tracer | None = None,
             totals: Totals | None = None, spans: list | None = None) -> PassResult:
    result = PassResult()
    for op in ops:
        trace_file = op.path.with_suffix(".trace.json") if totals is not None else None
        gc.collect()
        if tracer is not None:
            tracer.op = op.index
            tracer.enabled = True
        try:
            outcome, latency = clock.time(workload.run, op, trace_file)
        except Exception as exc:  # an operation that raises counts as failed
            result.failed += 1
            result.problems.append(f"op {op.index}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if tracer is not None:
                tracer.enabled = False
        if workload.failed(outcome):
            result.failed += 1
            continue
        result.latencies.append(latency)
        if trace_file is not None:
            data = json.loads(trace_file.read_text(encoding="utf-8"))
            totals.add(data["totals"])
            spans.extend([op.index, *span[1:]] for span in data["spans"])
        problems, terms = workload.check(op, outcome)
        result.problems += [f"op {op.index} ({op.frame.name} {op.verb}): {p}" for p in problems]
        result.max_terms = max(result.max_terms, terms)
    return result


def child_import_s() -> float:
    """Seconds a fresh interpreter takes to import ``wtw`` and ``wtw.cli``,
    timed inside it, so that interpreter start-up is left out."""
    code = ("import sys, time\nstart = time.perf_counter()\nimport wtw, wtw.cli\n"
            "sys.stdout.write(repr(time.perf_counter() - start))\n")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def run_child(argv: list[str]):
    return subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, timeout=170)


def measure_setup(clock: HostClock) -> float:
    """The program's set-up, importing ``wtw`` and its command line module,
    as the median of several fresh interpreters."""
    return statistics.median(clock.measured(child_import_s) for _ in range(SETUP_REPEATS))


def rounds_for(workload, seconds: int) -> int:
    return max(1, round(seconds / workload.nominal_round_s))


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in metrics.items()}})


def median_ms(seconds: list[float]) -> float:
    return statistics.median(seconds) * 1e3 if seconds else 0.0


def end_to_end(workload, seed: int, seconds: int) -> tuple[PassResult, dict]:
    clock = HostClock()
    setup_s = measure_setup(clock)
    count = rounds_for(workload, seconds) * workload.round_size
    ops = workload.make_ops(frames.Drawer(workload.name, seed), "A", count)
    result = run_pass(workload, ops, clock)
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliWorkload) else resource.RUSAGE_SELF
    return result, {
        "setup_s": (setup_s, "s"),
        "wall_s": (result.wall_s, "s"),
        "op_p50_ms": (median_ms(result.latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def traced_pass(workload, seed: int, seconds: int, wtw) -> dict:
    """The untraced run's operations again, traced; run in a fresh process so
    that nothing the untraced pass left in the program's caches serves them."""
    ops = workload.make_ops(frames.Drawer(workload.name, seed), "A",
                            rounds_for(workload, seconds) * workload.round_size)
    totals, spans, clock = Totals(), [], HostClock()
    if isinstance(workload, CliWorkload):
        result = run_pass(workload, ops, clock, totals=totals, spans=spans)
    else:
        tracer = Tracer()
        tracer.install(wtw)
        try:
            result = run_pass(workload, ops, clock, tracer=tracer)
        finally:
            tracer.uninstall()
        totals.add(tracer.totals())
        spans = [list(span) for span in tracer.spans]
    return {"result": vars(result), "totals": totals.as_dict(), "spans": spans}


def per_layer(workload, seed: int, seconds: int, wtw) -> tuple[list[PassResult], dict]:
    """The traced run: the untraced pass, the same operations traced in a
    child process, then the probes that give the command line figures."""
    count = rounds_for(workload, seconds) * workload.round_size
    is_cli = isinstance(workload, CliWorkload)
    clock = HostClock()
    # One drawer for the run keeps the probes' frames apart from the pass's;
    # the pass is drawn first, so it matches the untraced run's.
    drawer = frames.Drawer(workload.name, seed)
    plain_ops = workload.make_ops(drawer, "A", count)
    plain = run_pass(workload, plain_ops, clock)

    out_file = workload.workdir / "traced-pass.json"
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload.name,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--traced-pass", str(out_file)],
                   env=child_env(), cwd=ROOT, timeout=170, check=True)
    data = json.loads(out_file.read_text(encoding="utf-8"))
    traced = PassResult(**data["result"])
    totals, spans = Totals(), data["spans"]
    totals.add(data["totals"])
    if isinstance(workload, ScanWorkload):
        # The scan never enters the command line layer; that layer's figures
        # come from the same operation made through wtw.cli.main.
        cli_tracer = Tracer()
        cli_tracer.install(wtw)
        try:
            main_probe(wtw, workload.make_ops(drawer, "C", 1), clock, cli_tracer)
        finally:
            cli_tracer.uninstall()
        totals.self_s["cli"] = cli_tracer.self_s["cli"]
        totals.calls["cli"] = cli_tracer.calls["cli"]
    write_spans(workload.name, seed, spans)

    metrics: dict = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (totals.self_s[layer], "s")
        metrics[f"{layer}.calls"] = (totals.calls[layer], "count")
    metrics["polyalg.add_calls"] = (totals.ops["add"], "count")
    metrics["polyalg.mul_calls"] = (totals.ops["mul"], "count")
    metrics["polyalg.add_us"] = (totals.median_us("add"), "us")
    metrics["polyalg.mul_us"] = (totals.median_us("mul"), "us")
    metrics["polyalg.max_terms"] = (traced.max_terms, "count")
    for fn, name in PER_FRAME:
        metrics[name] = (totals.fn_calls[fn] / count, "calls/frame")

    probes = {}
    probes["frame.load_spec_ms"] = median_ms([
        clock.time(wtw.load_spec, op.text, op.path.name)[1] for op in plain_ops[:LOAD_PROBE_DOCS]])
    interp = median_ms([clock.time(run_child, [sys.executable, "-c", "pass"])[1]
                        for _ in range(PROBE_REPEATS)])
    imported = median_ms([clock.time(run_child, [sys.executable, "-c", "import wtw.cli"])[1]
                          for _ in range(PROBE_REPEATS)])
    probes["cli.interp_ms"] = interp
    probes["cli.import_ms"] = imported - interp

    if is_cli:
        main_s = main_probe(wtw, plain_ops[:len(VERBS)], clock)
    elif isinstance(workload, SuiteWorkload):
        main_s = plain.latencies
    else:
        main_s = main_probe(wtw, workload.make_ops(drawer, "M", MAIN_PROBE_FRAMES), clock)
    probes["cli.main_ms"] = median_ms(main_s)

    problems = []
    if is_cli:
        for verb in VERBS:
            times = [t for op, t in zip(plain_ops, plain.latencies) if op.verb == verb]
            probes[f"cli.verb.{verb}_ms"] = median_ms(times)
    else:
        # One fresh frame of this workload through every verb, as a process.
        cli = CliWorkload(wtw, workload.workdir)
        op = workload.make_ops(drawer, "V", 1)[0]
        for verb in VERBS:
            op.verb, op.argv = verb, [verb, "--spec", str(op.path)]
            if verb == "verify":
                op.argv += ["--assign", format_assignment(op.assign)]
            proc, seconds_taken = clock.time(cli.run, op)
            probes[f"cli.verb.{verb}_ms"] = seconds_taken * 1e3
            if cli.failed(proc):
                problems.append(f"verb probe {verb}: exit {proc.returncode}")
    metrics.update((name, (value, "ms")) for name, value in probes.items())
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    metrics["host.reference_ms"] = (clock.reference_ms, "ms")
    plain.problems += problems
    return [plain, traced], metrics


def main_probe(wtw, ops: list[Op], clock: HostClock, tracer: Tracer | None = None) -> list[float]:
    """In-process ``wtw.cli.main`` on each operation's argv; seconds per call."""
    def call(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return wtw.cli.main(argv)

    times = []
    for op in ops:
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        try:
            times.append(clock.time(call, op.argv)[1])
        finally:
            if tracer is not None:
                tracer.enabled = False
    return times


def write_spans(workload: str, seed: int, spans: list) -> None:
    path = OUT / f"trace-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for op, span_id, parent, name, start, end in spans:
            handle.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced-pass", metavar="OUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        wtw = import_program()
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import wtw from {SRC}: {exc}\n")
        return 2

    pin_to_current_cpu()
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](wtw, workdir)
    try:
        if args.traced_pass:
            data = traced_pass(workload, args.seed, args.seconds, wtw)
            Path(args.traced_pass).write_text(json.dumps(data), encoding="utf-8")
            return 0
        if args.trace:
            passes, metrics = per_layer(workload, args.seed, args.seconds, wtw)
        else:
            result, metrics = end_to_end(workload, args.seed, args.seconds)
            passes = [result]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = [p for result in passes for p in result.problems]
    for problem in problems[:20]:
        sys.stderr.write(f"perfbench: {problem}\n")
    attempted = sum(len(result.latencies) + result.failed for result in passes)
    failed = sum(result.failed for result in passes)
    print(result_line(not problems, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
