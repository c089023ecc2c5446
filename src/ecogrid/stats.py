"""Flow-distribution statistics and the cross-case comparison report."""

from __future__ import annotations

import io
import csv
from dataclasses import asdict, dataclass

import numpy as np

from .contingency import SurvivabilityReport, survivability
from .ecomatrix import FlowType, RedundancyMode, build_eco_matrix
from .ecometrics import EcoMetrics, metrics
from .model import Network
from .powerflow import BranchFlow, PowerFlowError, PowerFlowSolution, SolverOptions, solve

# Table-style column headers, one (mean, std) pair per flow type
STAT_COLUMNS = ("Mean(pf)", "STD(pf)", "Mean(rf)", "STD(rf)", "Mean(MVA)", "STD(MVA)")

_STAT_KEYS = {
    FlowType.REAL: ("Mean(pf)", "STD(pf)"),
    FlowType.REACTIVE: ("Mean(rf)", "STD(rf)"),
    FlowType.APPARENT: ("Mean(MVA)", "STD(MVA)"),
}


@dataclass(frozen=True)
class FlowStats:
    """Mean and population standard deviation of from-end flow magnitudes."""

    mean: float
    std: float
    sample_count: int


def flow_stats(flows, flow: FlowType) -> FlowStats:
    """Statistics over |P_from|, |Q_from|, or S_from across branches.

    Accepts a PowerFlowSolution or any iterable of branch-flow records.
    Standard deviation is the population form (divisor N).
    """
    if isinstance(flows, PowerFlowSolution):
        records: list[BranchFlow] = list(flows.branch_flows.values())
    else:
        records = list(flows)
    if not records:
        raise ValueError("no branch flows to aggregate")
    values = np.array([abs(flow.signed(f.P_from, f.Q_from)) for f in records])
    return FlowStats(mean=float(values.mean()), std=float(values.std()), sample_count=len(records))


@dataclass(frozen=True)
class CaseReport:
    """One comparison row: robustness 6 ways, Table-style statistics, survivability."""

    case: str
    checksum: str | None
    reco: dict[tuple[FlowType, RedundancyMode], EcoMetrics]
    stats: dict[FlowType, FlowStats]
    survivability: SurvivabilityReport | None = None

    def to_dict(self) -> dict:
        out: dict = {"case": self.case, "checksum": self.checksum}
        reco = {f"{flow.name.lower()}_{mode.value}": m for (flow, mode), m in self.reco.items()}
        out["robustness"] = {key: m.robustness for key, m in reco.items()}
        out["metrics"] = {key: asdict(m) for key, m in reco.items()}
        stats_row = {}
        for flow, st in self.stats.items():
            mean_key, std_key = _STAT_KEYS[flow]
            stats_row[mean_key] = st.mean
            stats_row[std_key] = st.std
        out["flow_stats"] = stats_row
        out["sample_count"] = next(iter(self.stats.values())).sample_count if self.stats else 0
        if self.survivability is not None:
            out["survivability"] = self.survivability.to_dict()
        return out


def case_report(
    name: str,
    network: Network,
    options: SolverOptions | None = None,
    checksum: str | None = None,
    survivability_depth: int | None = None,
    classes=("branch", "generator"),
    cap: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> CaseReport:
    """Solve one case and assemble its comparison row."""
    solution = solve(network, options)
    if not solution.converged:
        raise PowerFlowError(f"case {name}: power flow did not converge")
    reco = {
        (flow, mode): metrics(build_eco_matrix(network, solution, flow, mode))
        for flow in FlowType
        for mode in RedundancyMode
    }
    stats = {flow: flow_stats(solution, flow) for flow in FlowType}
    surv = None
    if survivability_depth is not None:
        surv = survivability(
            network, survivability_depth, classes, options, cap=cap, seed=seed, jobs=jobs
        )
    return CaseReport(case=name, checksum=checksum, reco=reco, stats=stats, survivability=surv)


def comparison_report(reports: list[CaseReport]) -> dict:
    """JSON-ready combined report across cases."""
    return {"cases": [r.to_dict() for r in reports]}


def stats_csv(reports: list[CaseReport]) -> str:
    """Table-style CSV: case, Mean(pf), STD(pf), Mean(rf), STD(rf), Mean(MVA), STD(MVA)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("case",) + STAT_COLUMNS)
    for r in reports:
        row = [r.case]
        d = r.to_dict()["flow_stats"]
        row += [format(d[c], ".6f") for c in STAT_COLUMNS]
        writer.writerow(row)
    return buf.getvalue()


def comparison_csv(reports: list[CaseReport]) -> str:
    """One row per case: six robustness values, statistics, survivability totals."""
    reco_cols = [
        f"reco_{flow.name.lower()}_{mode.value}"
        for flow in FlowType
        for mode in RedundancyMode
    ]
    surv_cols = ["violations", "violated_contingencies", "unsolved"]
    has_surv = any(r.survivability is not None for r in reports)
    header = ["case"] + reco_cols + list(STAT_COLUMNS) + (surv_cols if has_surv else [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for r in reports:
        row = [r.case]
        for flow in FlowType:
            for mode in RedundancyMode:
                row.append(format(r.reco[(flow, mode)].robustness, ".9f"))
        d = r.to_dict()["flow_stats"]
        row += [format(d[c], ".6f") for c in STAT_COLUMNS]
        if has_surv:
            if r.survivability is not None:
                row += [
                    str(sum(s.num_violations for s in r.survivability.depths)),
                    str(sum(s.num_violated_contingencies for s in r.survivability.depths)),
                    str(sum(s.num_unsolved for s in r.survivability.depths)),
                ]
            else:
                row += ["", "", ""]
        writer.writerow(row)
    return buf.getvalue()
