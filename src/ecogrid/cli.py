"""Command-line entry point: pf, matrix, reco, stats, contingency, report.

Every machine-readable artifact carries a metadata block (tool version,
case checksum, convention flags, seed) so any number in any output can be
traced back to the conventions that produced it. All randomness flows
from --seed (default 0); outputs are deterministic for a fixed seed and
identical for any --jobs value.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

from . import CONVENTIONS, __version__
from .caseio import CaseFormatError, case_checksum, network_to_json, parse_case
from .contingency import survivability
from .ecomatrix import FlowType, RedundancyMode, build_eco_matrix, export_matrix
from .ecometrics import metrics
from .model import validate
from .powerflow import BranchFlow, PowerFlowError, SolverOptions, solve
from .stats import case_report, comparison_csv, comparison_report, stats_csv

EXIT_OK = 0
EXIT_DATA_ERROR = 1
EXIT_DIVERGED = 2


# branch-flow columns of `pf`: the BranchFlow fields, branch_id written as "branch"
_FLOW_COLUMNS = tuple(
    "branch" if f.name == "branch_id" else f.name for f in dataclasses.fields(BranchFlow)
)


class _DataError(Exception):
    """User-facing data problem; maps to exit status 1."""


def _load(case: str) -> tuple:
    path = Path(case)
    try:
        text = path.read_text()
    except OSError as exc:
        raise _DataError(f"cannot read case file {path}: {exc}") from exc
    try:
        network = parse_case(text, name=path.stem)
    except CaseFormatError as exc:
        raise _DataError(f"{path}: {exc}") from exc
    issues = validate(network)
    if issues:
        raise _DataError(f"{path}: invalid network: " + "; ".join(issues))
    return network, case_checksum(text)


def _solver_options(args) -> SolverOptions:
    return SolverOptions(tolerance=args.tol, max_iterations=args.max_iter)


def _metadata(**fields) -> dict:
    """The metadata block of every command's output: tool, version, conventions, fields."""
    return {"tool": "ecogrid", "version": __version__, "conventions": CONVENTIONS, **fields}


def _case_metadata(args, checksum: str, **fields) -> dict:
    return _metadata(case=Path(args.case).name, case_sha256=checksum, **fields)


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _metadata_comments(md: dict) -> str:
    flat = {k: v for k, v in md.items() if k != "conventions"}
    lines = [f"# {k}: {v}" for k, v in sorted(flat.items())]
    lines += [f"# convention {k}: {v}" for k, v in sorted(md["conventions"].items())]
    return "\n".join(lines) + "\n"


def _csv(md: dict, header: list[str], rows) -> str:
    """CSV text under the metadata comment header."""
    buf = io.StringIO()
    buf.write(_metadata_comments(md))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_pf(args) -> int:
    network, checksum = _load(args.case)
    if args.dump_network:
        Path(args.dump_network).write_text(network_to_json(network) + "\n")
    solution = solve(network, _solver_options(args))
    flows = [dataclasses.astuple(f) for _, f in sorted(solution.branch_flows.items())]
    payload = {
        "metadata": _case_metadata(args, checksum, tolerance=args.tol, max_iterations=args.max_iter),
        "converged": solution.converged,
        "iterations": solution.iterations,
        "max_mismatch_pu": solution.max_mismatch,
        "solved_island": sorted(solution.solved_island),
        "islands": [sorted(isl) for isl in solution.islands],
        "bus_voltage": {str(k): v for k, v in sorted(solution.bus_voltage.items())},
        "bus_angle": {str(k): v for k, v in sorted(solution.bus_angle.items())},
        "generator_P": {str(k): v for k, v in sorted(solution.generator_P.items())},
        "generator_Q": {str(k): v for k, v in sorted(solution.generator_Q.items())},
        "branch_flows": [dict(zip(_FLOW_COLUMNS, row)) for row in flows],
    }
    _emit(json.dumps(payload, sort_keys=True, indent=2), args.out)
    if args.csv:
        rows = [[format(v, ".9f") if isinstance(v, float) else v for v in row] for row in flows]
        Path(args.csv).write_text(_csv(payload["metadata"], _FLOW_COLUMNS, rows))
    if not solution.converged:
        print(
            f"power flow diverged after {solution.iterations} iterations "
            f"(max mismatch {solution.max_mismatch:.3e} pu)",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    return EXIT_OK


def _solved(args):
    network, checksum = _load(args.case)
    solution = solve(network, _solver_options(args))
    if not solution.converged:
        raise _DataError("power flow did not converge; cannot continue")
    return network, checksum, solution


def _cmd_matrix(args) -> int:
    network, checksum, solution = _solved(args)
    matrix = build_eco_matrix(
        network,
        solution,
        FlowType[args.flow.upper()],
        RedundancyMode(args.mode),
        absorbed_gen_q=args.absorbed_gen_q,
    )
    md = _case_metadata(args, checksum, flow=args.flow, mode=args.mode,
                        absorbed_gen_q=args.absorbed_gen_q)
    _emit(_metadata_comments(md) + export_matrix(matrix), args.out)
    return EXIT_OK


def _metrics_entry(network, solution, flow: FlowType, mode: RedundancyMode, absorbed: str) -> dict:
    m = metrics(build_eco_matrix(network, solution, flow, mode, absorbed_gen_q=absorbed))
    return {"flow": flow.name.lower(), "mode": mode.value, "units": flow.value,
            **dataclasses.asdict(m)}


def _cmd_reco(args) -> int:
    if not args.all and (args.flow is None or args.mode is None):
        raise _DataError("reco requires --flow and --mode unless --all is given")
    network, checksum, solution = _solved(args)
    if args.all:
        combos = [(f, m) for f in FlowType for m in RedundancyMode]
    else:
        combos = [(FlowType[args.flow.upper()], RedundancyMode(args.mode))]
    rows = [
        _metrics_entry(network, solution, f, m, args.absorbed_gen_q) for f, m in combos
    ]
    md = _case_metadata(args, checksum, absorbed_gen_q=args.absorbed_gen_q)
    if args.csv:
        header = ["flow", "mode", "units", "tstp", "asc", "dc", "ratio", "robustness"]
        table = [[r["flow"], r["mode"], r["units"]] + [format(r[k], ".9f") for k in header[3:]]
                 for r in rows]
        _emit(_csv(md, header, table), args.out)
    else:
        _emit(json.dumps({"metadata": md, "results": rows}, sort_keys=True, indent=2), args.out)
    return EXIT_OK


def _cmd_stats(args) -> int:
    network, checksum = _load(args.case)
    report = case_report(Path(args.case).stem, network, _solver_options(args), checksum=checksum)
    md = _case_metadata(args, checksum)
    if args.format == "json":
        _emit(json.dumps({"metadata": md, **comparison_report([report])}, sort_keys=True, indent=2),
              args.out)
    else:
        _emit(_metadata_comments(md) + stats_csv([report]), args.out)
    return EXIT_OK


def _worst(violations) -> str:
    if not violations:
        return ""
    v = max(violations, key=lambda v: v.magnitude)
    return f"{v.kind.value}:{v.element_id}:{v.magnitude:.6f}"


def _cmd_contingency(args) -> int:
    network, checksum = _load(args.case)
    classes = [c for c in args.classes.split(",") if c]
    report = survivability(network, args.depth, classes, _solver_options(args),
                           cap=args.cap, seed=args.seed, jobs=args.jobs)
    md = _case_metadata(args, checksum, seed=args.seed, cap=args.cap,
                        classes=list(report.classes), jobs_independent=True)
    _emit(json.dumps({"metadata": md, "survivability": report.to_dict()}, sort_keys=True, indent=2),
          args.out)
    if args.csv:
        rows = [[d.depth, " ".join(r.outage.tokens()), r.status, len(r.violations), _worst(r.violations)]
                for d in report.depths for r in d.results]
        header = ["depth", "outage", "status", "violations", "worst_violation"]
        Path(args.csv).write_text(_csv(md, header, rows))
    return EXIT_OK


def _cmd_report(args) -> int:
    reports = []
    checksums = []
    for case in args.case:
        network, checksum = _load(case)
        checksums.append(checksum)
        reports.append(
            case_report(
                Path(case).stem,
                network,
                _solver_options(args),
                checksum=checksum,
                survivability_depth=args.depth,
                cap=args.cap,
                seed=args.seed,
                jobs=args.jobs,
            )
        )
    md = _metadata(cases=[Path(c).name for c in args.case], case_sha256=checksums, seed=args.seed)
    if args.format == "json":
        _emit(json.dumps({"metadata": md, **comparison_report(reports)}, sort_keys=True, indent=2),
              args.out)
    else:
        _emit(_metadata_comments(md) + comparison_csv(reports), args.out)
    return EXIT_OK


def _add_case(p):
    p.add_argument("--case", required=True, help="path to a case file")


def _add_solver(p):
    p.add_argument("--tol", type=float, default=1e-8, help="mismatch tolerance in pu")
    p.add_argument("--max-iter", type=int, default=30, dest="max_iter")


def _add_matrix_flags(p, require=True):
    p.add_argument("--flow", choices=["real", "reactive", "apparent"],
                   required=require, help="flow type populating the matrix")
    p.add_argument("--mode", choices=["aggregate", "split"], required=require,
                   help="same-bus device handling")
    p.add_argument(
        "--absorbed-gen-q",
        choices=["dissipation", "export"],
        default="dissipation",
        dest="absorbed_gen_q",
        help="boundary column receiving generator-absorbed reactive power",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecogrid",
        description="Ecological flow-matrix robustness analysis for AC power systems",
    )
    parser.add_argument("--version", action="version", version=f"ecogrid {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pf", help="solve the AC power flow")
    _add_case(p)
    _add_solver(p)
    p.add_argument("--out", help="write the JSON result here instead of stdout")
    p.add_argument("--csv", help="also write branch flows as CSV")
    p.add_argument("--dump-network", help="write the parsed network as canonical JSON")
    p.set_defaults(func=_cmd_pf)

    p = sub.add_parser("matrix", help="build the ecological flow matrix")
    _add_case(p)
    _add_solver(p)
    _add_matrix_flags(p)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("reco", help="ecological metrics for one matrix or all six")
    _add_case(p)
    _add_solver(p)
    _add_matrix_flags(p, require=False)
    p.add_argument("--all", action="store_true", help="emit the 3-flow x 2-mode table")
    p.add_argument("--csv", action="store_true", help="CSV output instead of JSON")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_reco)

    p = sub.add_parser("stats", help="flow-distribution statistics")
    _add_case(p)
    _add_solver(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("contingency", help="N-x survivability analysis")
    _add_case(p)
    _add_solver(p)
    p.add_argument("--depth", type=int, required=True, help="maximum outage depth x")
    p.add_argument("--classes", default="branch,gen",
                   help="comma list of component classes (branch, gen)")
    p.add_argument("--cap", type=int, default=None,
                   help="sample at most this many contingencies per depth")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel evaluations (result-identical for any value)")
    p.add_argument("--out", help="survivability JSON path (default stdout)")
    p.add_argument("--csv", help="per-contingency CSV path")
    p.set_defaults(func=_cmd_contingency)

    p = sub.add_parser("report", help="combined comparison report across cases")
    p.add_argument("--case", action="append", required=True,
                   help="case file (repeat for several cases)")
    _add_solver(p)
    p.add_argument("--depth", type=int, default=None,
                   help="include survivability up to this depth")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
    except (CaseFormatError, ValueError, PowerFlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
