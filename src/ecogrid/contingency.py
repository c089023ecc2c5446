"""N-x contingency enumeration, evaluation, and survivability aggregation.

Each contingency removes x in-service components, re-solves the slack
island, and is classified as solved or unsolved; violations (voltage,
thermal, islanded load) are only counted for solved cases. Enumeration is
lexicographic and any sampling is seeded, so reports are reproducible
bit for bit.
"""

from __future__ import annotations

import enum
import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import Network, OutageSet, apply_outage, connected_components
from .powerflow import PowerFlowError, SolverOptions, solve

COMPONENT_CLASSES = ("branch", "generator")


class ViolationKind(enum.Enum):
    VOLTAGE_LOW = "voltage_low"
    VOLTAGE_HIGH = "voltage_high"
    BRANCH_OVERLOAD = "branch_overload"
    ISLAND_LOAD_SHED = "island_load_shed"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    element_id: int
    magnitude: float  # pu beyond the voltage band, MVA over rating, or MW shed


@dataclass(frozen=True)
class ContingencyResult:
    outage: OutageSet
    status: str  # "solved" | "unsolved"
    violations: tuple[Violation, ...]
    iterations: int


@dataclass(frozen=True)
class DepthSummary:
    """One depth's per-contingency results; the counters derive from them."""

    depth: int
    results: tuple[ContingencyResult, ...]

    @property
    def total_contingencies(self) -> int:
        return len(self.results)

    @property
    def num_violations(self) -> int:
        return sum(len(r.violations) for r in self.results)

    @property
    def num_violated_contingencies(self) -> int:
        return sum(1 for r in self.results if r.violations)

    @property
    def num_unsolved(self) -> int:
        return sum(1 for r in self.results if r.status == "unsolved")


@dataclass(frozen=True)
class SurvivabilityReport:
    depths: tuple[DepthSummary, ...]
    classes: tuple[str, ...]
    cap: int | None
    seed: int

    def to_dict(self) -> dict:
        return {
            "classes": list(self.classes),
            "cap": self.cap,
            "seed": self.seed,
            "depths": [
                {
                    "depth": d.depth,
                    "total_contingencies": d.total_contingencies,
                    "num_violations": d.num_violations,
                    "num_violated_contingencies": d.num_violated_contingencies,
                    "num_unsolved": d.num_unsolved,
                }
                for d in self.depths
            ],
        }


def _normalize_classes(classes: Iterable[str]) -> tuple[str, ...]:
    alias = {"branch": "branch", "branches": "branch", "gen": "generator",
             "gens": "generator", "generator": "generator", "generators": "generator"}
    out: list[str] = []
    for c in classes:
        key = alias.get(c.strip().lower())
        if key is None:
            raise ValueError(f"unknown component class {c!r}")
        if key not in out:
            out.append(key)
    if not out:
        raise ValueError("at least one component class is required")
    return tuple(sorted(out, key=COMPONENT_CLASSES.index))


def _unrank_combination(index: int, n: int, k: int) -> tuple[int, ...]:
    """index-th k-combination of range(n) in lexicographic order."""
    combo = []
    pos = 0
    remaining = k
    while remaining:
        count = math.comb(n - pos - 1, remaining - 1)
        if index < count:
            combo.append(pos)
            remaining -= 1
        else:
            index -= count
        pos += 1
    return tuple(combo)


def _candidates(network: Network, classes: tuple[str, ...], depth: int) -> list[tuple[str, int]]:
    """In-service elements of the classes, branches then generators, each by id;
    raises unless 1 <= depth <= their count."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    elements: list[tuple[str, int]] = []
    if "branch" in classes:
        elements += [("branch", br.id) for br in sorted(network.in_service_branches, key=lambda b: b.id)]
    if "generator" in classes:
        elements += [("generator", g.id) for g in sorted(network.in_service_generators, key=lambda g: g.id)]
    if depth > len(elements):
        raise ValueError(f"depth {depth} exceeds the {len(elements)} available in-service elements")
    return elements


def enumerate_contingencies(
    network: Network,
    depth: int,
    classes: Iterable[str] = COMPONENT_CLASSES,
    cap: int | None = None,
    seed: int = 0,
) -> list[OutageSet]:
    """All size-depth outage combinations of in-service elements.

    Elements are ordered branches-then-generators by id, and combinations
    come out in lexicographic order over that sequence. When cap is given
    and the combination count exceeds it, a uniform sample of cap distinct
    combinations is drawn with the given seed (then re-sorted), so any
    (network, depth, classes, cap, seed) tuple is reproducible.
    """
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    elements = _candidates(network, _normalize_classes(classes), depth)
    n = len(elements)

    total = math.comb(n, depth)
    if cap is not None and total > cap:
        indices = sorted(random.Random(seed).sample(range(total), cap))
    else:
        indices = range(total)

    outages: list[OutageSet] = []
    for idx in indices:
        combo = _unrank_combination(idx, n, depth)
        branches = [elements[i][1] for i in combo if elements[i][0] == "branch"]
        gens = [elements[i][1] for i in combo if elements[i][0] == "generator"]
        outages.append(OutageSet.of(branches, gens))
    return outages


def evaluate(
    network: Network,
    outage: OutageSet,
    options: SolverOptions | None = None,
) -> ContingencyResult:
    """Apply the outage, re-solve, and classify.

    Unsolved means static infeasibility: Newton divergence, a slack
    island with no in-service unit, or aggregate P_max below the island
    load.
    Load stranded on non-slack islands is a violation of the solved case,
    not an unsolved one.
    """
    options = options or SolverOptions()
    outaged = apply_outage(network, outage)
    islands = connected_components(outaged)
    slack_ids = [b.id for b in outaged.slack_buses]
    slack_island = next((isl for isl in islands if slack_ids and slack_ids[0] in isl), None)
    if slack_island is None:
        return ContingencyResult(outage, "unsolved", (), 0)

    island_gens = [g for g in outaged.in_service_generators if g.bus in slack_island]
    island_load = sum(outaged.bus_by_id[b].load_P for b in slack_island)
    if not island_gens or sum(g.P_max for g in island_gens) < island_load:
        return ContingencyResult(outage, "unsolved", (), 0)

    try:
        solution = solve(outaged, options)
    except PowerFlowError:
        return ContingencyResult(outage, "unsolved", (), 0)
    if not solution.converged:
        return ContingencyResult(outage, "unsolved", (), solution.iterations)

    violations: list[Violation] = []
    for bid in sorted(solution.solved_island):
        bus = outaged.bus_by_id[bid]
        vm = solution.bus_voltage[bid]
        if vm < bus.v_min:
            violations.append(Violation(ViolationKind.VOLTAGE_LOW, bid, bus.v_min - vm))
        elif vm > bus.v_max:
            violations.append(Violation(ViolationKind.VOLTAGE_HIGH, bid, vm - bus.v_max))
    for bid in sorted(solution.branch_flows):
        flow = solution.branch_flows[bid]
        rate = outaged.branch_by_id[bid].rate_MVA
        if rate > 0:
            loading = max(flow.S_from, flow.S_to)
            if loading > rate:
                violations.append(Violation(ViolationKind.BRANCH_OVERLOAD, bid, loading - rate))
    for isl in islands:
        if isl is slack_island:
            continue
        shed = sum(outaged.bus_by_id[b].load_P for b in isl)
        if shed > 0:
            violations.append(Violation(ViolationKind.ISLAND_LOAD_SHED, min(isl), shed))

    return ContingencyResult(outage, "solved", tuple(violations), solution.iterations)


def evaluate_all(
    network: Network,
    outages: Sequence[OutageSet],
    options: SolverOptions | None = None,
    jobs: int = 1,
) -> list[ContingencyResult]:
    """Evaluate outages in order; results are identical for any jobs count."""
    if jobs <= 1 or len(outages) < 2:
        return [evaluate(network, o, options) for o in outages]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(lambda o: evaluate(network, o, options), outages))


def survivability(
    network: Network,
    max_depth: int,
    classes: Iterable[str] = COMPONENT_CLASSES,
    options: SolverOptions | None = None,
    cap: int | None = None,
    seed: int = 0,
    jobs: int = 1,
) -> SurvivabilityReport:
    """Evaluate x = 1..max_depth and keep each depth's results and counters.

    max_depth is checked against the in-service element count before any
    depth is evaluated.
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    classes = _normalize_classes(classes)
    _candidates(network, classes, max_depth)
    summaries = []
    for depth in range(1, max_depth + 1):
        outages = enumerate_contingencies(network, depth, classes, cap=cap, seed=seed)
        summaries.append(DepthSummary(depth, tuple(evaluate_all(network, outages, options, jobs=jobs))))
    return SurvivabilityReport(tuple(summaries), classes, cap, seed)
