"""Extended ecological flow matrix for a solved grid operating point.

Actors are generators, bus shunts, and buses of the solved island; three
boundary environs (input row, useful-export column, dissipation column)
close the system. Every entry is a nonnegative flow magnitude in physical
units (MW, Mvar, or MVA) and each actor conserves flow: what enters a
generator, shunt, or bus leaves it again through branches, loads, losses,
or the boundary.

Sign conventions for the cases the mapping leaves open (absorbed device
output, charging-dominated branches, apparent-magnitude non-additivity)
are centralized here and echoed in report metadata.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .ecometrics import pairwise_sums
from .model import Network
from .powerflow import PowerFlowSolution

ENVIRON_LABELS = ("input", "export", "dissipation")

_KIND_PREFIX = {"generator": "gen", "shunt": "shunt", "bus": "bus"}
_PREFIX_KIND = {v: k for k, v in _KIND_PREFIX.items()}


class FlowType(enum.Enum):
    """Which power quantity populates the matrix; value is the unit."""

    REAL = "MW"
    REACTIVE = "Mvar"
    APPARENT = "MVA"

    def signed(self, p: float, q: float) -> float:
        """This flow's projection of the complex power p + jq, signed by direction.

        Apparent flow is |S| oriented by p, or by q where p is zero.
        """
        if self is FlowType.REAL:
            return p
        if self is FlowType.REACTIVE:
            return q
        s = math.hypot(p, q)
        return math.copysign(s, p if p != 0.0 else q) if s else 0.0


class RedundancyMode(enum.Enum):
    AGGREGATE = "aggregate"
    SPLIT = "split"


@dataclass(eq=False)
class EcoFlowMatrix:
    """Square (A+3)x(A+3) nonnegative flow matrix over actors + environs,
    stored as its nonzero entries: index arrays i, j and flows t, row-major."""

    actor_labels: tuple[tuple[str, int], ...]
    entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    units: str

    @property
    def n_actors(self) -> int:
        return len(self.actor_labels)

    @property
    def values(self) -> np.ndarray:
        """The dense matrix, built anew on each read."""
        n = self.n_actors + 3
        values = np.zeros((n, n))
        i, j, t = self.entries
        values[i, j] = t
        return values

    @property
    def input_index(self) -> int:
        return self.n_actors

    @property
    def export_index(self) -> int:
        return self.n_actors + 1

    @property
    def dissipation_index(self) -> int:
        return self.n_actors + 2

    def actor_index(self, kind: str, element_id: int) -> int:
        return self.actor_labels.index((kind, element_id))

    def all_labels(self) -> tuple[str, ...]:
        actor = tuple(f"{_KIND_PREFIX[k]}:{i}" for k, i in self.actor_labels)
        return actor + ENVIRON_LABELS


class _Builder:
    def __init__(self, labels, units):
        self.labels = tuple(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.n = n = len(self.labels) + 3
        self.flows: dict[int, float] = {}  # i * n + j -> T[i, j], summed in insertion order
        self.input = n - 3
        self.export = n - 2
        self.dissipation = n - 1
        self.units = units

    def add(self, i: int, j: int, value: float):
        if value != 0.0:
            k = i * self.n + j
            self.flows[k] = self.flows.get(k, 0.0) + value

    def device(self, actor: int, bus: int, value: float, absorbed_to: int):
        """Source devices feed input->device->bus; sinks bus->device->boundary."""
        if value > 0.0:
            self.add(self.input, actor, value)
            self.add(actor, bus, value)
        elif value < 0.0:
            self.add(bus, actor, -value)
            self.add(actor, absorbed_to, -value)

    def pair(self, f: int, t: int, into_f: float, into_t: float):
        """Branch entry between two buses from the signed flows into the branch.

        Positive = feeding the branch. A through flow runs from the sending
        to the receiving bus, which closes the difference (a loss to
        dissipation, a surplus from input). A branch fed at both ends
        dissipates at each bus; one feeding both ends is an input at each.
        """
        if into_t > 0.0 > into_f:
            f, t, into_f, into_t = t, f, into_t, into_f
        if into_f > 0.0 > into_t:
            self.add(f, t, into_f)
            net = into_f + into_t  # sent minus received
            if net >= 0.0:
                self.add(t, self.dissipation, net)
            else:
                self.add(self.input, t, -net)
        else:
            for bus, into in ((f, into_f), (t, into_t)):
                if into > 0.0:
                    self.add(bus, self.dissipation, into)
                elif into < 0.0:
                    self.add(self.input, bus, -into)

    def load(self, bus: int, value: float):
        if value > 0.0:
            self.add(bus, self.export, value)
        elif value < 0.0:
            self.add(self.input, bus, -value)

    def balance_buses(self, buses):
        """Close each bus balance through the boundary (apparent flow only).
        Closing a bus touches no other bus's row or column, so every residual
        (dense column sum minus row sum) comes from the matrix before balancing."""
        i, j, t = self.entries()
        row = pairwise_sums(i, j, t, self.n, self.n)
        by_col = np.lexsort((i, j))
        col = pairwise_sums(j[by_col], i[by_col], t[by_col], self.n, self.n)
        for bus in buses:
            residual = col[bus] - row[bus]
            if residual > 0.0:
                self.add(bus, self.dissipation, residual)
            elif residual < 0.0:
                self.add(self.input, bus, -residual)

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """i, j, t of the nonzero entries, row-major."""
        keys = np.fromiter(self.flows, dtype=np.intp, count=len(self.flows))
        t = np.fromiter(self.flows.values(), dtype=float, count=len(self.flows))
        order = np.argsort(keys)
        i, j = np.divmod(keys[order], self.n)
        return i, j, t[order]

    def finish(self) -> EcoFlowMatrix:
        return EcoFlowMatrix(actor_labels=self.labels, entries=self.entries(), units=self.units)


def build_eco_matrix(
    network: Network,
    solution: PowerFlowSolution,
    flow: FlowType,
    mode: RedundancyMode,
    absorbed_gen_q: str = "dissipation",
) -> EcoFlowMatrix:
    """Map a converged operating point into the extended flow matrix.

    mode chooses whether same-bus generators stay individual actors
    (SPLIT) or are merged per bus after summing their signed outputs
    (AGGREGATE). absorbed_gen_q selects the boundary column receiving
    reactive power absorbed by generators ('dissipation' or 'export').
    """
    if not solution.converged:
        raise ValueError("cannot build a flow matrix from an unconverged solution")
    if absorbed_gen_q not in ("dissipation", "export"):
        raise ValueError(f"absorbed_gen_q must be 'dissipation' or 'export', got {absorbed_gen_q!r}")
    island = solution.solved_island
    bus_ids = sorted(island)
    if not bus_ids:
        raise ValueError("solved island is empty")

    # one (label, P, Q) record per generator actor
    gen_records: list[tuple[tuple[str, int], float, float]] = []
    if mode is RedundancyMode.SPLIT:
        for g in network.generators:
            if g.in_service and g.bus in island and g.id in solution.generator_P:
                gen_records.append(
                    (("generator", g.id), solution.generator_P[g.id], solution.generator_Q[g.id])
                )
    else:
        for bid in bus_ids:
            gens = [
                g
                for g in network.generators_by_bus.get(bid, ())
                if g.in_service and g.id in solution.generator_P
            ]
            if gens:
                p = sum(solution.generator_P[g.id] for g in gens)
                q = sum(solution.generator_Q[g.id] for g in gens)
                gen_records.append((("generator", bid), p, q))
    gen_bus = {
        label: (label[1] if mode is RedundancyMode.AGGREGATE else network.generator_by_id[label[1]].bus)
        for label, _, _ in gen_records
    }

    shunt_buses = [bid for bid in bus_ids if network.bus_by_id[bid].has_shunt]

    labels = (
        [label for label, _, _ in gen_records]
        + [("shunt", bid) for bid in shunt_buses]
        + [("bus", bid) for bid in bus_ids]
    )
    b = _Builder(labels, flow.value)
    bus_idx = {bid: b.index[("bus", bid)] for bid in bus_ids}
    absorbed_to = b.dissipation
    if absorbed_gen_q == "export" and flow is not FlowType.REAL:
        absorbed_to = b.export  # absorbed real power is always dissipated

    for label, p, q in gen_records:
        b.device(b.index[label], bus_idx[gen_bus[label]], flow.signed(p, q), absorbed_to)
    for bid in shunt_buses:
        p_sh = solution.shunt_P_consumed.get(bid, 0.0)
        if flow is FlowType.REAL:
            # shunts are real-power passive: their draw is bus dissipation
            b.add(bus_idx[bid], b.dissipation, p_sh)
        else:
            # a consuming (G > 0) or inductive shunt absorbs; capacitive injects
            value = flow.signed(-p_sh, solution.shunt_Q_injected.get(bid, 0.0))
            b.device(b.index[("shunt", bid)], bus_idx[bid], value, b.dissipation)
    for fl in solution.branch_flows.values():
        b.pair(
            bus_idx[fl.from_bus],
            bus_idx[fl.to_bus],
            flow.signed(fl.P_from, fl.Q_from),
            flow.signed(fl.P_to, fl.Q_to),
        )
    for bid in bus_ids:
        bus = network.bus_by_id[bid]
        b.load(bus_idx[bid], flow.signed(bus.load_P, bus.load_Q))
    if flow is FlowType.APPARENT:
        # apparent magnitudes are not nodally additive: phase cancellation
        # at each bus is closed out through the boundary
        b.balance_buses([bus_idx[bid] for bid in bus_ids])

    return b.finish()


def actor_imbalances(matrix: EcoFlowMatrix) -> np.ndarray:
    """|inflow - outflow| per actor, in matrix units, equal to the dense
    column sums (added in row order) minus the dense row sums."""
    a, n = matrix.n_actors, matrix.n_actors + 3
    i, j, t = matrix.entries
    inflow = np.bincount(j, weights=t, minlength=n)[:a]
    outflow = pairwise_sums(i, j, t, n, n)[:a]
    return np.abs(inflow - outflow)


def conservation_report(
    matrix: EcoFlowMatrix, rel_tol: float = 1e-6
) -> list[tuple[tuple[str, int], float]]:
    """Actors whose imbalance exceeds rel_tol * TSTp (empty when conserved)."""
    imbalances = actor_imbalances(matrix)
    n = matrix.n_actors + 3
    i, j, t = matrix.entries
    threshold = rel_tol * pairwise_sums(np.zeros_like(i), i * n + j, t, n * n, 1)[0]
    return [
        (label, float(imb))
        for label, imb in zip(matrix.actor_labels, imbalances)
        if imb > threshold
    ]


def export_matrix(matrix: EcoFlowMatrix) -> str:
    """CSV rendering: header row/column of labels, corner cell = units."""
    labels = matrix.all_labels()
    lines = [",".join((matrix.units,) + labels)]
    for lab, row in zip(labels, matrix.values):
        lines.append(",".join([lab] + [format(v, ".12g") for v in row]))
    return "\n".join(lines) + "\n"


def import_matrix(text: str) -> EcoFlowMatrix:
    """Inverse of export_matrix; lines starting with '#' are ignored."""
    rows = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not rows:
        raise ValueError("matrix CSV has no header row")
    header = rows[0].split(",")
    units = header[0]
    labels = header[1:]
    if len(labels) < 3 or tuple(labels[-3:]) != ENVIRON_LABELS:
        raise ValueError("matrix CSV must end with input/export/dissipation columns")
    actor_labels = []
    for lab in labels[:-3]:
        prefix, _, ident = lab.partition(":")
        if prefix not in _PREFIX_KIND:
            raise ValueError(f"unknown actor label {lab!r}")
        actor_labels.append((_PREFIX_KIND[prefix], int(ident)))
    n = len(labels)
    values = np.zeros((n, n))
    if len(rows) != n + 1:
        raise ValueError(f"expected {n + 1} CSV rows, got {len(rows)}")
    for i, ln in enumerate(rows[1:]):
        cells = ln.split(",")
        if len(cells) != n + 1:
            raise ValueError(f"row {i + 2}: expected {n + 1} cells, got {len(cells)}")
        values[i] = [float(c) for c in cells[1:]]
    i, j = np.nonzero(values)
    return EcoFlowMatrix(actor_labels=tuple(actor_labels), entries=(i, j, values[i, j]), units=units)
