"""ecogrid benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload sweep-ieee24 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

The seed makes the workload's inputs (the N-2 sample, the tie lines of the
tiled cases, the order of the outage scan); ecogrid only sees those inputs,
through its public API and CLI. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. The lines
before it carry a header (commit, nproc, library versions), every metric
with its unit, the result counts and the workload's own metric names.

With --trace 0 the metrics are the end-to-end ones, measured untraced:

    setup_s      median over fresh interpreters, spread over the run, of
                 importing ecogrid, reading the workload's case, parse_case
                 and validate
    ops_per_s    median over timed steps of operations per second; an
                 operation is one contingency, one analysis or one scan state
    peak_rss_mb  peak resident memory of the workload's process

With --trace 1 the run alternates untraced and traced steps, and reports
per-layer metrics from spans recorded around the public calls
into each ecogrid module (see spans.py), plus the tracing overhead. The
spans are written to .perfbench/trace-<workload>-seed<n>.json.

An operation fails when it raises or fails an output check; unsolved and
violated contingencies are results and are printed as counts. `attempted`
counts the operations plus one base-case check per run; error_rate is
failed / attempted. See README.md in this directory for why each workload
was chosen and which metric each layer should move.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

WORKLOADS = ("sweep-ieee24", "sweep-ieee24-jobs2", "analysis-tiled2400", "rscan-tiled240")
SETUP_PROBES = 9  # the fewest set-up probes in a run; one runs before every timed step
SETUP_REPEATS_TRACED = 3
SWEEP_CAP = 100  # per-depth sample cap; above the 71 N-1 cases, so N-1 stays complete
ANALYSIS_TILES = 100
RSCAN_TILES = 10
RSCAN_BLOCK = 20  # scan states per timed step
MISMATCH_TOL = 1e-6  # pu; base-case nodal mismatch at the solved generator outputs
R_MAX = math.exp(-1)
REL_EPS = 1e-12

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))
FLOWS = ("real", "reactive", "apparent")
MODES = ("aggregate", "split")
PER_LAYER = (
    ("caseio.parse_case_ms", "ms"),
    ("model.validate_ms", "ms"),
    ("model.apply_outage_us", "us"),
    ("model.connected_components_us", "us"),
    ("powerflow.build_admittance_ms", "ms"),
    ("powerflow.solve_ms_p50", "ms"),
    ("powerflow.solve_ms_tail", "ms"),
    ("powerflow.solve_count", "count"),
    ("powerflow.newton_iterations", "count"),
    ("powerflow.ms_per_newton_iteration", "ms"),
    ("powerflow.converged_ratio", "ratio"),
    ("powerflow.branch_flows_ms", "ms"),
    *((f"ecomatrix.build_ms.{f}.{m}", "ms") for f in FLOWS for m in MODES),
    ("ecomatrix.nnz", "count"),
    ("ecomatrix.dense_entries", "count"),
    ("ecomatrix.density", "ratio"),
    ("ecomatrix.dense_bytes_computed", "B"),
    ("ecometrics.metrics_ms", "ms"),
    ("ecometrics.ns_per_dense_entry", "ns"),
    ("stats.flow_stats_ms", "ms"),
    ("stats.case_report_self_ms", "ms"),
    ("contingency.enumerate_ms", "ms"),
    ("contingency.evaluate_ms_p50", "ms"),
    ("contingency.evaluate_ms_tail", "ms"),
    ("contingency.evaluate_count", "count"),
    ("contingency.unsolved", "count"),
    ("contingency.prefilter_unsolved", "count"),
    ("contingency.violated", "count"),
    ("cli.contingency_self_ms", "ms"),
    ("run.cpu_util", "ratio"),
    *((f"{layer}.self_ms_per_op", "ms") for layer in (
        "caseio", "model", "powerflow", "ecomatrix", "ecometrics", "stats", "contingency", "cli")),
    ("trace.overhead_pct", "%"),
)


class BenchmarkError(Exception):
    """The benchmark cannot produce a result."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def load_program():
    """Import ecogrid from this checkout's src/, never from anywhere else."""
    if not (SRC / "ecogrid" / "__init__.py").is_file():
        raise BenchmarkError(f"no ecogrid package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ecogrid
    import ecogrid.cli  # noqa: F401  (loads every module, so all can be traced)

    if Path(ecogrid.__file__).resolve().parent != SRC / "ecogrid":
        raise BenchmarkError(f"imported ecogrid from {ecogrid.__file__}, not from {SRC}")


def header(args, jobs: int) -> dict:
    import numpy
    import scipy

    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                                capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "jobs": jobs}


@dataclass
class Step:
    """One timed unit of work: `ops` operations, `failed` of them failed."""

    ops: int
    failed: int
    seconds: float
    cpu: float


def _report_exception(what: str) -> None:
    print(f"error in {what}:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def base_case_failures(network, solution) -> list[str]:
    from ecogrid.powerflow import nodal_mismatch

    if not solution.converged:
        return [f"base case of {network.name} did not converge"]
    if len(solution.solved_island) != len(network.buses):
        return [f"base case of {network.name} is not one island"]
    mismatch = nodal_mismatch(network, solution.bus_voltage, solution.bus_angle,
                              solution.generator_P, solution.generator_Q)
    worst = max(max(abs(p), abs(q)) for p, q in mismatch.values())
    if worst > MISMATCH_TOL:
        return [f"base case nodal mismatch {worst:.3e} pu exceeds {MISMATCH_TOL:.0e}"]
    return []


def metric_failures(m) -> list[str]:
    values = (m.tstp, m.asc, m.dc, m.ratio, m.robustness)
    if not all(math.isfinite(v) for v in values):
        return [f"non-finite metrics {m}"]
    out = []
    if not 0.0 <= m.robustness <= R_MAX + REL_EPS:
        out.append(f"R = {m.robustness} outside [0, 1/e]")
    if m.asc > m.dc * (1.0 + REL_EPS):
        out.append(f"ASC {m.asc} > DC {m.dc}")
    return out


def matrix_failures(matrix) -> list[str]:
    from ecogrid.ecomatrix import conservation_report

    unbalanced = conservation_report(matrix)
    return [f"{len(unbalanced)} actors not conserved, e.g. {unbalanced[0]}"] if unbalanced else []


class Sweep:
    """`ecogrid contingency` on ieee24_rts through cli.main: full N-1 plus an N-2 sample.

    Every timed sweep draws a new N-2 sample, its --seed taken from the run's
    seed. About 3% of the N-2 cases diverge and cost ten times the others, so
    one sample of 100 holds anywhere from none to eight of them; a run that
    repeated one sample would measure its seed more than the program. The
    first sample is also swept untimed at jobs=1 beforehand, and the timed
    report of that sample must be byte-identical to it.
    """

    def __init__(self, seed: int, jobs: int, tmp: Path):
        from ecogrid.caseio import load_case
        from ecogrid.cases import case_path

        self.case_file = case_path("ieee24_rts")
        self.jobs = jobs
        self.samples = random.Random(seed)
        self.outputs = (tmp / "report.json", tmp / "report.csv")
        network, _ = load_case(self.case_file)
        n = len(network.in_service_branches) + len(network.in_service_generators)
        self.expected = [min(math.comb(n, depth), SWEEP_CAP) for depth in (1, 2)]
        self.contingencies = sum(self.expected)
        self.counts: dict[str, int] = {}
        self.reference = None

    def _sweep(self, jobs: int, sample_seed: int):
        from ecogrid import cli

        for path in self.outputs:
            path.unlink(missing_ok=True)
        argv = ["contingency", "--case", str(self.case_file), "--classes", "branch,gen",
                "--depth", "2", "--cap", str(SWEEP_CAP), "--seed", str(sample_seed),
                "--jobs", str(jobs), "--out", str(self.outputs[0]), "--csv", str(self.outputs[1])]
        code = cli.main(argv)
        return code, tuple(p.read_bytes() if p.exists() else b"" for p in self.outputs)

    def _problems(self, code: int, outputs) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        depths = json.loads(outputs[0])["survivability"]["depths"]
        rows = [ln for ln in outputs[1].decode().splitlines() if ln and not ln.startswith("#")][1:]
        problems = []
        totals = [d["total_contingencies"] for d in depths]
        if totals != self.expected:
            problems.append(f"depth totals {totals}, expected {self.expected}")
        if len(rows) != self.contingencies:
            problems.append(f"{len(rows)} CSV rows, expected {self.contingencies}")
        if not {ln.split(",")[2] for ln in rows} <= {"solved", "unsolved"}:
            problems.append("CSV status other than solved/unsolved")
        if not self.counts:  # the counts printed are those of the run's first sample
            self.counts = {
                "contingency.unsolved": sum(d["num_unsolved"] for d in depths),
                "contingency.violated": sum(d["num_violated_contingencies"] for d in depths),
                "contingency.violations": sum(d["num_violations"] for d in depths),
            }
        return problems

    def prepare(self) -> None:
        """Sweep the first sample at jobs=1, the reference for the first timed sweep."""
        self.first_sample = self.samples.randrange(1 << 31)
        self.reference = self._sweep(1, self.first_sample)

    def step(self) -> Step:
        first = self.reference is not None
        sample_seed = self.first_sample if first else self.samples.randrange(1 << 31)
        start, cpu0 = perf_counter(), process_time()
        try:
            code, outputs = self._sweep(self.jobs, sample_seed)
            elapsed, cpu = perf_counter() - start, process_time() - cpu0
            problems = self._problems(code, outputs)
        except Exception:
            _report_exception(f"contingency sweep (--seed {sample_seed})")
            return Step(self.contingencies, self.contingencies,
                        perf_counter() - start, process_time() - cpu0)
        if first:
            if (code, outputs) != self.reference:
                problems.append(f"report at jobs={self.jobs} differs from the jobs=1 report")
            self.reference = None
        for p in problems:
            print(f"contingency sweep (--seed {sample_seed}): {p}", file=sys.stderr)
        return Step(self.contingencies, self.contingencies if problems else 0, elapsed, cpu)

    def verify(self) -> list[str]:
        from ecogrid.caseio import load_case
        from ecogrid.powerflow import solve

        network, _ = load_case(self.case_file)
        return base_case_failures(network, solve(network))


class Analysis:
    """stats.case_report on the 100-tile (2400-bus) case."""

    jobs = 1

    def __init__(self, seed: int, tmp: Path, cases):
        from ecogrid import caseio

        self.text = cases.text(ANALYSIS_TILES, seed)
        self.case_file = tmp / "case.m"
        self.case_file.write_text(self.text)
        self.first = None
        self.counts: dict[str, int] = {}
        # bound before any tracing starts: the untimed parse below stays untraced
        self._parse = caseio.parse_case

    def prepare(self) -> None:
        pass

    def step(self) -> Step:
        from ecogrid import stats

        # a freshly parsed network per analysis, so nothing cached on it carries over
        network = self._parse(self.text)
        start, cpu0 = perf_counter(), process_time()
        try:
            report = stats.case_report(network.name, network)
        except Exception:
            _report_exception("case_report")
            return Step(1, 1, perf_counter() - start, process_time() - cpu0)
        elapsed, cpu = perf_counter() - start, process_time() - cpu0
        problems = [p for m in report.reco.values() for p in metric_failures(m)]
        if len(report.reco) != 6:
            problems.append(f"{len(report.reco)} metric sets, expected 6")
        counts = {st.sample_count for st in report.stats.values()}
        if not all(math.isfinite(st.mean) and math.isfinite(st.std) for st in report.stats.values()) \
                or len(counts) != 1:
            problems.append(f"bad flow statistics {report.stats}")
        if self.first is None:
            self.first = report
        elif report.to_dict() != self.first.to_dict():
            problems.append("analysis differs from the first analysis of this run")
        for p in problems:
            print(f"case_report check failed: {p}", file=sys.stderr)
        return Step(1, 1 if problems else 0, elapsed, cpu)

    def verify(self) -> list[str]:
        """Base case, and the six matrices behind the first report's metrics."""
        from ecogrid.caseio import parse_case
        from ecogrid.ecomatrix import FlowType, RedundancyMode, build_eco_matrix
        from ecogrid.powerflow import solve

        network = parse_case(self.text)
        solution = solve(network)
        problems = base_case_failures(network, solution)
        if problems or self.first is None:
            return problems
        for flow in FlowType:
            for mode in RedundancyMode:
                matrix = build_eco_matrix(network, solution, flow, mode)
                problems += matrix_failures(matrix)
                tstp = self.first.reco[(flow, mode)].tstp
                if abs(matrix.values.sum() - tstp) > REL_EPS * tstp:
                    problems.append(f"{flow.name.lower()}/{mode.value}: report TSTp {tstp} "
                                    f"!= matrix sum {matrix.values.sum()}")
                del matrix
        return problems


class RScan:
    """R-vs-outage scan on the 10-tile (240-bus) case: outage, solve, 6 x (matrix, metrics)."""

    jobs = 1

    def __init__(self, seed: int, tmp: Path, cases):
        from ecogrid.caseio import parse_case

        text = cases.text(RSCAN_TILES, seed)
        self.case_file = tmp / "case.m"
        self.case_file.write_text(text)
        self.base = parse_case(text)
        order = [br.id for br in self.base.branches if br.in_service]
        random.Random(seed).shuffle(order)
        self.order = itertools.cycle(order)
        self.counts = {"rscan.unsolved": 0, "rscan.states": 0}

    def prepare(self) -> None:
        pass

    def step(self) -> Step:
        from ecogrid import ecomatrix, ecometrics, model, powerflow

        failed, elapsed, cpu = 0, 0.0, 0.0
        for _ in range(RSCAN_BLOCK):
            branch_id = next(self.order)
            start, cpu0 = perf_counter(), process_time()
            try:
                network = model.apply_outage(self.base, model.OutageSet.of([branch_id]))
                solution = powerflow.solve(network)
                scored = []
                if solution.converged:
                    for flow in ecomatrix.FlowType:
                        for mode in ecomatrix.RedundancyMode:
                            matrix = ecomatrix.build_eco_matrix(network, solution, flow, mode)
                            scored.append((matrix, ecometrics.metrics(matrix)))
            except Exception:
                elapsed, cpu = elapsed + perf_counter() - start, cpu + process_time() - cpu0
                _report_exception(f"scan state (branch {branch_id} out)")
                failed += 1
                continue
            elapsed, cpu = elapsed + perf_counter() - start, cpu + process_time() - cpu0
            self.counts["rscan.states"] += 1
            self.counts["rscan.unsolved"] += not solution.converged
            problems = [p for matrix, m in scored for p in matrix_failures(matrix) + metric_failures(m)]
            for p in problems:
                print(f"scan state (branch {branch_id} out): {p}", file=sys.stderr)
            failed += bool(problems)
        return Step(RSCAN_BLOCK, failed, elapsed, cpu)

    def verify(self) -> list[str]:
        from ecogrid.ecomatrix import FlowType, RedundancyMode, build_eco_matrix
        from ecogrid.powerflow import solve

        solution = solve(self.base)
        problems = base_case_failures(self.base, solution)
        if not problems:
            for flow in FlowType:
                for mode in RedundancyMode:
                    problems += matrix_failures(build_eco_matrix(self.base, solution, flow, mode))
        return problems


# the workload's own name for ops_per_s: (name, unit, convert)
ALIASES = {
    "sweep-ieee24": ("sweep_cps", "1/s", lambda r: r),
    "sweep-ieee24-jobs2": ("sweep_cps_jobs2", "1/s", lambda r: r),
    "analysis-tiled2400": ("analysis_s", "s", lambda r: 1.0 / r),
    "rscan-tiled240": ("rscan_states_per_s", "1/s", lambda r: r),
}


def make_workload(name: str, seed: int, jobs: int, tmp: Path):
    if name.startswith("sweep"):
        return Sweep(seed, jobs, tmp)
    from tiled import TiledCases

    cases = TiledCases()
    return Analysis(seed, tmp, cases) if name.startswith("analysis") else RScan(seed, tmp, cases)


@dataclass
class Measurement:
    steps: list[Step]
    jobs: int

    @property
    def cpu_util(self) -> float:
        """CPU seconds / (wall seconds x worker threads) over the timed work."""
        return sum(s.cpu for s in self.steps) / (sum(s.seconds for s in self.steps) * self.jobs)

    @property
    def ops(self) -> int:
        return sum(s.ops for s in self.steps)

    @property
    def failed(self) -> int:
        return sum(s.failed for s in self.steps)

    @property
    def ops_per_s(self) -> float:
        return statistics.median(s.ops / s.seconds for s in self.steps)


def measure(workload, seconds: float, case_file: Path) -> tuple[Measurement, float]:
    """Run timed steps for `seconds` (at least one step); returns them and set-up time.

    A set-up probe runs before each step, and after the last step until there
    are SETUP_PROBES of them; the set-up time is their median. The machine's
    speed moves in plateaus of a few seconds, so probes spread over the whole
    run vary far less from run to run than probes taken in one burst. The
    probes' own time does not count towards `seconds`.
    """
    steps, setups = [], []
    measured = 0.0
    while measured < seconds or not steps:
        setups.append(setup_probe(case_file))
        start = perf_counter()
        steps.append(workload.step())
        measured += perf_counter() - start
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(case_file))
    return Measurement(steps, workload.jobs), statistics.median(setups)


def measure_traced(workload, seconds: float, tracer) -> tuple[Measurement, Measurement]:
    """Alternate untraced and traced steps for `seconds`; returns (untraced, traced).

    Alternating, rather than timing two halves, lets both sides see the same
    drift in machine speed and a similar mix of inputs.
    """
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or not traced:
        if len(untraced) <= len(traced):
            untraced.append(workload.step())
        else:
            tracer.run = len(traced)
            with tracer.installed():
                traced.append(workload.step())
    return Measurement(untraced, workload.jobs), Measurement(traced, workload.jobs)


def setup_probe(case_file: Path) -> float:
    """Set-up time of one fresh interpreter (see setup_probe.py)."""
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(case_file)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{done.stderr}")
    probe = json.loads(done.stdout.splitlines()[-1])
    if Path(probe["module"]).resolve().parent != SRC / "ecogrid":
        raise BenchmarkError(f"set-up probe imported {probe['module']}")
    if probe["issues"]:
        raise BenchmarkError(f"{case_file.name} does not validate: {probe['issues']}")
    return probe["setup_s"]


def tail(values: list[float]) -> float:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, else the maximum."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    for q in (0.999, 0.99, 0.9):
        if n * (1.0 - q) >= 10:
            return ordered[min(n - 1, math.ceil(q * n) - 1)]
    return ordered[-1]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer, traced: Measurement, untraced: Measurement, counts: dict) -> dict:
    """Per-layer metrics from the spans of the traced steps (and of the traced set-up)."""
    self_time = tracer.self_times()
    by_name = defaultdict(list)
    for s in tracer.spans:
        by_name[s.name].append(s)

    def med(name, scale=1e3):
        return _median(s.duration * scale for s in by_name[name])

    solves = by_name["powerflow.solve"]
    iterations = sum(s.info["iterations"] for s in solves)
    matrices = by_name["ecomatrix.build_eco_matrix"]
    evaluates = by_name["contingency.evaluate"]
    solve_parents = {id(s.parent) for s in solves}
    sweeps = len(by_name["cli.main"]) or 1
    dense = [s.info["dim"] ** 2 for s in matrices]
    scored = by_name["ecometrics.metrics"]
    per_op = defaultdict(float)
    for s in tracer.spans:
        if s.run != "setup":
            per_op[s.layer] += self_time[id(s)]

    out = {
        "caseio.parse_case_ms": med("caseio.parse_case"),
        "model.validate_ms": med("model.validate"),
        "model.apply_outage_us": med("model.apply_outage", 1e6),
        "model.connected_components_us": med("model.connected_components", 1e6),
        "powerflow.build_admittance_ms": med("powerflow.build_admittance"),
        "powerflow.solve_ms_p50": med("powerflow.solve"),
        "powerflow.solve_ms_tail": tail([s.duration * 1e3 for s in solves]),
        "powerflow.solve_count": len(solves),
        "powerflow.newton_iterations": iterations / len(solves) if solves else 0.0,
        "powerflow.ms_per_newton_iteration":
            sum(self_time[id(s)] for s in solves) * 1e3 / iterations if iterations else 0.0,
        "powerflow.converged_ratio":
            sum(s.info["converged"] for s in solves) / len(solves) if solves else 0.0,
        "powerflow.branch_flows_ms": med("powerflow.branch_flows"),
    }
    for flow in FLOWS:
        for mode in MODES:
            out[f"ecomatrix.build_ms.{flow}.{mode}"] = _median(
                s.duration * 1e3 for s in matrices
                if s.info["flow"] == flow and s.info["mode"] == mode)
    out.update({
        # nnz is counted on the scored matrices (see spans._metrics_info)
        "ecomatrix.nnz": _mean(s.info["nnz"] for s in scored),
        "ecomatrix.dense_entries": _mean(dense),
        "ecomatrix.density": sum(s.info["nnz"] for s in scored)
        / sum(s.info["dim"] ** 2 for s in scored) if scored else 0.0,
        "ecomatrix.dense_bytes_computed": _mean(dense) * 8,
        "ecometrics.metrics_ms": med("ecometrics.metrics"),
        "ecometrics.ns_per_dense_entry":
            sum(s.duration for s in scored) * 1e9 / sum(s.info["dim"] ** 2 for s in scored)
            if scored else 0.0,
        "stats.flow_stats_ms": med("stats.flow_stats"),
        "stats.case_report_self_ms": _median(self_time[id(s)] * 1e3 for s in by_name["stats.case_report"]),
        "contingency.enumerate_ms": med("contingency.enumerate_contingencies"),
        "contingency.evaluate_ms_p50": med("contingency.evaluate"),
        "contingency.evaluate_ms_tail": tail([s.duration * 1e3 for s in evaluates]),
        "contingency.evaluate_count": len(evaluates),
        "contingency.unsolved": counts.get("contingency.unsolved", 0),
        "contingency.prefilter_unsolved": sum(
            1 for s in evaluates if s.info["status"] == "unsolved" and id(s) not in solve_parents
        ) / sweeps if evaluates else 0,
        "contingency.violated": counts.get("contingency.violated", 0),
        "cli.contingency_self_ms": _median(self_time[id(s)] * 1e3 for s in by_name["cli.main"]),
        "run.cpu_util": untraced.cpu_util,
    })
    for layer in ("caseio", "model", "powerflow", "ecomatrix", "ecometrics", "stats", "contingency", "cli"):
        out[f"{layer}.self_ms_per_op"] = per_op[layer] * 1e3 / traced.ops
    out["trace.overhead_pct"] = (untraced.ops_per_s / traced.ops_per_s - 1.0) * 100.0
    return out


def run_workload(args) -> int:
    load_program()
    jobs = min(2, nproc()) if args.workload == "sweep-ieee24-jobs2" else 1
    if not 1 <= jobs <= nproc():
        raise BenchmarkError(f"refusing jobs={jobs}: this machine has nproc={nproc()}")
    print("# header " + json.dumps(header(args, jobs), sort_keys=True), flush=True)

    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as tmp:
        workload = make_workload(args.workload, args.seed, jobs, Path(tmp))
        if args.trace:
            from spans import Tracer

            from ecogrid import caseio, model

            tracer = Tracer()
            workload.prepare()
            with tracer.installed():
                tracer.run = "setup"
                for _ in range(SETUP_REPEATS_TRACED):
                    model.validate(caseio.parse_case(workload.case_file.read_text()))
            untraced, traced = measure_traced(workload, args.seconds, tracer)
            runs = [untraced, traced]
            metrics = layer_metrics(tracer, traced, untraced, workload.counts)
            units = dict(PER_LAYER)
            tracer.dump(WORKDIR / f"trace-{args.workload}-seed{args.seed}.json")
        else:
            workload.prepare()
            run, setup = measure(workload, args.seconds, workload.case_file)
            runs = [run]
            metrics = {
                "setup_s": setup,
                "ops_per_s": run.ops_per_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = dict(END_TO_END)
        problems = workload.verify()
    for p in problems:
        print(f"base-case check failed: {p}", file=sys.stderr)

    attempted = sum(r.ops for r in runs) + 1
    failed = sum(r.failed for r in runs) + bool(problems)
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    if not args.trace:
        alias, unit, convert = ALIASES[args.workload]
        print(f"metric {alias} {convert(metrics['ops_per_s'])!r} {unit}")
    print(f"metric error_rate {failed / attempted!r} ratio")
    for name, value in sorted(workload.counts.items()):
        print(f"count {name} {value}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a summary under the workloads' own names."""
    summary, ok = [], True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            print(f"## {name} exited with {done.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        summary += [f"{name}: {ln}" for ln in lines[:-1] if ln.startswith(("metric ", "count "))]
        summary.append(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
    print("## summary")
    print("\n".join(summary))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        return run_all(args) if args.workload == "all" else run_workload(args)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
