"""Full AC power flow: polar Newton-Raphson with PV->PQ switching.

Only the island containing the slack bus is solved; other islands are
reported but carry no solution values. The slack bus absorbs the whole
real and reactive residual (no distributed slack).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .model import Branch, BusKind, Network, connected_components


class PowerFlowError(RuntimeError):
    """Structural problem that prevents setting up the solve."""


class SingularJacobianError(PowerFlowError):
    """Newton step failed because the Jacobian factorization is singular."""


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-8
    max_iterations: int = 30

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass(frozen=True)
class BranchFlow:
    """Signed flows into the branch at each end, MW/Mvar/MVA."""

    branch_id: int
    from_bus: int
    to_bus: int
    P_from: float
    Q_from: float
    P_to: float
    Q_to: float
    S_from: float
    S_to: float


@dataclass
class PowerFlowSolution:
    converged: bool
    iterations: int
    max_mismatch: float
    bus_voltage: dict[int, float] = field(default_factory=dict)
    bus_angle: dict[int, float] = field(default_factory=dict)
    generator_P: dict[int, float] = field(default_factory=dict)
    generator_Q: dict[int, float] = field(default_factory=dict)
    branch_flows: dict[int, BranchFlow] = field(default_factory=dict)
    shunt_P_consumed: dict[int, float] = field(default_factory=dict)
    shunt_Q_injected: dict[int, float] = field(default_factory=dict)
    solved_island: frozenset[int] = frozenset()
    islands: tuple[frozenset[int], ...] = ()


def _branch_admittances(branch: Branch) -> tuple[complex, complex, complex, complex]:
    """(yff, yft, ytf, ytt) with tap and phase shift on the from side."""
    z = complex(branch.r, branch.x)
    if z == 0:
        raise PowerFlowError(f"branch {branch.id}: zero series impedance while in service")
    ys = 1.0 / z
    ysh = complex(0.0, branch.b_charging / 2.0)
    tap = branch.tap_ratio if branch.tap_ratio != 0.0 else 1.0
    t = tap * cmath.exp(1j * math.radians(branch.phase_shift))
    yff = (ys + ysh) / (tap * tap)
    yft = -ys / t.conjugate()
    ytf = -ys / t
    ytt = ys + ysh
    return yff, yft, ytf, ytt


def build_admittance(network: Network) -> sp.csr_matrix:
    """Assemble the bus admittance matrix, rows and columns in network.buses order.

    Series admittance 1/(r+jx), half the charging susceptance at each end,
    bus shunts (shunt_G + j shunt_B)/base on the diagonal, off-nominal tap
    and phase shift applied at the from side.
    """
    pos = {b.id: i for i, b in enumerate(network.buses)}
    n = len(network.buses)
    rows: list[int] = []
    cols: list[int] = []
    vals: list[complex] = []
    for br in network.branches:
        if not br.in_service:
            continue
        yff, yft, ytf, ytt = _branch_admittances(br)
        f, t = pos[br.from_bus], pos[br.to_bus]
        rows += [f, f, t, t]
        cols += [f, t, f, t]
        vals += [yff, yft, ytf, ytt]
    for b in network.buses:
        if b.has_shunt:
            rows.append(pos[b.id])
            cols.append(pos[b.id])
            vals.append(complex(b.shunt_G, b.shunt_B) / network.base_MVA)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=complex).tocsr()


class _Jacobian:
    """Polar Jacobian [[dP/dVa, dP/dVm], [dQ/dVa, dQ/dVm]] over pvpq/pq.

    The CSC structure is built once from the pattern of Ybus plus its
    diagonal; each call refills only the values. The derivatives are
    MATPOWER's dSbus_dV taken entry by entry, with every complex product
    written out in real arithmetic as scipy's sparse kernels compute it, so
    the matrix equals the one assembled from scipy.sparse products bit for
    bit and SuperLU picks the same column ordering.
    """

    def __init__(self, Ybus: sp.csr_matrix, pvpq: np.ndarray, pq: np.ndarray):
        n = Ybus.shape[0]
        Y = Ybus.tocoo()
        off = Y.row != Y.col
        self.n_off = int(off.sum())
        self.rows = np.concatenate([Y.row[off], np.arange(n)])
        self.cols = np.concatenate([Y.col[off], np.arange(n)])
        y = np.concatenate([Y.data[off], Ybus.diagonal()])
        self.y_re, self.y_im = y.real.copy(), y.imag.copy()

        # J row of each bus's P (Q) equation = J column of its angle (magnitude)
        npvpq = len(pvpq)
        m = npvpq + len(pq)
        angle = np.full(n, -1)
        angle[pvpq] = np.arange(npvpq)
        magnitude = np.full(n, -1)
        magnitude[pq] = np.arange(npvpq, m)
        # J11, J12, J21, J22 read rows 0-3 of dS_dV(): Re dVa, Re dVm, Im dVa, Im dVm
        npat = len(self.rows)
        pick, at_row, at_col = [], [], []
        for source, (row_of, col_of) in enumerate(
            [(angle, angle), (angle, magnitude), (magnitude, angle), (magnitude, magnitude)]
        ):
            r, c = row_of[self.rows], col_of[self.cols]
            ok = (r >= 0) & (c >= 0)
            pick.append(source * npat + np.flatnonzero(ok))
            at_row.append(r[ok])
            at_col.append(c[ok])
        at_row, at_col = np.concatenate(at_row), np.concatenate(at_col)
        order = np.lexsort((at_row, at_col))
        self.pick = np.concatenate(pick)[order]
        self.indices = at_row[order].astype(np.int32)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(at_col, minlength=m))]
        ).astype(np.int32)
        self.shape = (m, m)

    def dS_dV(self, V: np.ndarray, Ibus: np.ndarray) -> np.ndarray:
        """Rows Re dS/dVa, Re dS/dVm, Im dS/dVa, Im dS/dVm on the pattern."""
        r, c, yr, yi = self.rows, self.cols, self.y_re, self.y_im
        diag = slice(self.n_off, None)
        Vn = V / np.abs(V)
        vr, vi = V.real[r], V.imag[r]
        cr, ci = V.real[c], V.imag[c]
        nr, ni = Vn.real[c], Vn.imag[c]
        # d = -y*V_c, plus I_i on the diagonal
        d_re = yi * ci - yr * cr
        d_im = -(yr * ci + yi * cr)
        d_re[diag] += Ibus.real
        d_im[diag] += Ibus.imag
        # q = y*Vn_c
        q_re = yr * nr - yi * ni
        q_im = yr * ni + yi * nr
        out = np.empty((4, len(r)))
        # dS/dVa = 1j*V_r*conj(d)
        out[0] = vr * d_im - vi * d_re
        out[2] = vi * d_im + vr * d_re
        # dS/dVm = V_r*conj(q), plus conj(I_i)*Vn_i on the diagonal
        out[1] = vr * q_re + vi * q_im
        out[3] = vi * q_re - vr * q_im
        out[1, diag] += Ibus.real * Vn.real + Ibus.imag * Vn.imag
        out[3, diag] += Ibus.real * Vn.imag - Ibus.imag * Vn.real
        return out

    def __call__(self, V: np.ndarray, Ibus: np.ndarray) -> sp.csc_matrix:
        """The Jacobian at V, given the bus currents Ibus = Ybus @ V."""
        values = self.dS_dV(V, Ibus)
        data = values.ravel()[self.pick]
        indices, indptr = self.indices, self.indptr
        stored = (values[:2] != 0) | (values[2:] != 0)
        if not stored.all():
            # scipy's products store no exact zero, e.g. where Ybus holds a
            # stored zero or cancelling branches meet a flat start
            keep = stored.ravel()[self.pick % stored.size]
            data, indices = data[keep], indices[keep]
            indptr = np.concatenate([[0], np.cumsum(keep)[indptr[1:] - 1]])
        return sp.csc_matrix((data, indices, indptr), shape=self.shape)


def _newton(Ybus, Sbus, V0, pv, pq, tol, max_iter):
    """Polar Newton-Raphson; returns (V, converged, iterations, final norm)."""
    V = V0.copy()
    Vm = np.abs(V)
    Va = np.angle(V)
    pvpq = np.concatenate([pv, pq])
    npvpq = len(pvpq)
    jacobian = _Jacobian(Ybus, pvpq, pq)

    def mismatch(V):
        Ibus = Ybus @ V
        mis = V * np.conj(Ibus) - Sbus
        return Ibus, np.concatenate([mis[pvpq].real, mis[pq].imag])

    Ibus, F = mismatch(V)
    norm = float(np.max(np.abs(F))) if F.size else 0.0
    converged = norm < tol
    iterations = 0
    while not converged and iterations < max_iter:
        iterations += 1
        try:
            dx = -splu(jacobian(V, Ibus)).solve(F)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularJacobianError(str(exc)) from exc
        if not np.all(np.isfinite(dx)):
            raise SingularJacobianError("non-finite Newton step")
        Va[pvpq] += dx[:npvpq]
        Vm[pq] += dx[npvpq:]
        V = Vm * np.exp(1j * Va)
        Ibus, F = mismatch(V)
        norm = float(np.max(np.abs(F))) if F.size else 0.0
        converged = norm < tol
    return V, converged, iterations, norm


def _pilot_voltage(network: Network, bus_id: int) -> float:
    """Regulated magnitude at a bus: first in-service unit's setpoint."""
    for g in network.generators_by_bus.get(bus_id, ()):
        if g.in_service:
            return g.voltage_setpoint
    return network.bus_by_id[bus_id].voltage_magnitude_setpoint


def _allocate_bus_q(gens, q_total: float) -> list[float]:
    """Split a bus reactive requirement across units by Q-range width.

    Each unit gets Q_min plus a share of the excess over the aggregate
    minimum proportional to its range; this keeps every unit inside its
    limits whenever the bus total is feasible.
    """
    widths = [g.Q_max - g.Q_min for g in gens]
    if any(math.isinf(w) for w in widths):
        widths = [1.0 if math.isinf(w) else 0.0 for w in widths]
    total_width = sum(widths)
    floor = sum(g.Q_min for g in gens if math.isfinite(g.Q_min))
    excess = q_total - floor
    n = len(gens)
    out = []
    for g, w in zip(gens, widths):
        base = g.Q_min if math.isfinite(g.Q_min) else 0.0
        share = w / total_width if total_width > 0 else 1.0 / n
        out.append(base + excess * share)
    return out


def solve(network: Network, options: SolverOptions | None = None) -> PowerFlowSolution:
    """Newton-Raphson AC power flow on the slack bus's island.

    PV buses whose aggregate generator reactive limits are violated are
    switched to PQ at the binding limit and the solve is repeated; each
    round re-converges Newton, so the process terminates after at most
    one round per PV bus. The converged flag is honest: a solution that
    ran out of iterations is returned with converged=False.
    """
    options = options or SolverOptions()
    islands = connected_components(network)
    slack_ids = sorted(b.id for b in network.slack_buses)
    if not slack_ids:
        raise PowerFlowError("no slack bus in network")
    island = next(isl for isl in islands if slack_ids[0] in isl)
    in_island_slacks = [s for s in slack_ids if s in island]
    if len(in_island_slacks) > 1:
        raise PowerFlowError(f"multiple slack buses in one island: {in_island_slacks}")
    slack_bus = in_island_slacks[0]

    ids = sorted(island)
    pos = {bid: i for i, bid in enumerate(ids)}
    n = len(ids)
    base = network.base_MVA

    bus_pos = {b.id: i for i, b in enumerate(network.buses)}
    sel = [bus_pos[bid] for bid in ids]
    Ybus = build_admittance(network)[sel, :][:, sel].tocsr()

    gens_by_bus = {
        bid: [g for g in network.generators_by_bus.get(bid, ()) if g.in_service]
        for bid in ids
    }
    slack_units = gens_by_bus[slack_bus]
    if not slack_units:
        raise PowerFlowError(f"slack bus {slack_bus} has no in-service generator")

    Pd = np.array([network.bus_by_id[b].load_P for b in ids]) / base
    Qd = np.array([network.bus_by_id[b].load_Q for b in ids]) / base
    Pg = np.zeros(n)
    Qg = np.zeros(n)
    for bid, gens in gens_by_bus.items():
        Pg[pos[bid]] = sum(g.P_out for g in gens) / base
        Qg[pos[bid]] = sum(g.Q_out for g in gens) / base
    Sbus = (Pg - Pd) + 1j * (Qg - Qd)

    # effective types: PV only while backed by an in-service unit
    slack_idx = pos[slack_bus]
    pv_set = {
        pos[bid]
        for bid in ids
        if network.bus_by_id[bid].kind is BusKind.PV and gens_by_bus[bid]
    }
    # buses whose reactive output is solved rather than taken from dispatch
    controlled = set(pv_set) | {slack_idx}

    Vm = np.ones(n)
    Va = np.zeros(n)
    for i, bid in enumerate(ids):
        if i in pv_set or i == slack_idx:
            Vm[i] = _pilot_voltage(network, bid)
    V = Vm * np.exp(1j * Va)

    q_tol = options.tolerance
    total_iterations = 0
    converged = False
    norm = math.inf
    max_rounds = len(pv_set) + 1
    for _ in range(max_rounds):
        pv = np.array(sorted(pv_set), dtype=int)
        pq = np.array(
            sorted(set(range(n)) - pv_set - {slack_idx}), dtype=int
        )
        V, converged, its, norm = _newton(
            Ybus, Sbus, V, pv, pq, options.tolerance, options.max_iterations
        )
        total_iterations += its
        if not converged:
            break
        S_inj = V * np.conj(Ybus @ V)
        switched = False
        for i in sorted(pv_set):
            bid = ids[i]
            gens = gens_by_bus[bid]
            q_req = (S_inj[i].imag + Qd[i]) * base
            q_min = sum(g.Q_min for g in gens)
            q_max = sum(g.Q_max for g in gens)
            bound = None
            if q_req > q_max + q_tol * base:
                bound = q_max
            elif q_req < q_min - q_tol * base:
                bound = q_min
            if bound is not None:
                Sbus[i] = Sbus[i].real + 1j * (bound / base - Qd[i])
                pv_set.discard(i)
                switched = True
        if not switched:
            break

    solution = PowerFlowSolution(
        converged=converged,
        iterations=total_iterations,
        max_mismatch=norm,
        solved_island=frozenset(island),
        islands=islands,
    )
    if not converged:
        return solution

    Vm = np.abs(V)
    Va = np.angle(V)
    for i, bid in enumerate(ids):
        solution.bus_voltage[bid] = float(Vm[i])
        solution.bus_angle[bid] = float(Va[i])

    S_inj = V * np.conj(Ybus @ V)
    for bid, gens in gens_by_bus.items():
        if not gens:
            continue
        i = pos[bid]
        if bid == slack_bus:
            p_req = (S_inj[i].real + Pd[i]) * base
            dispatch = sum(g.P_out for g in gens)
            for k, g in enumerate(gens):
                extra = p_req - dispatch if k == 0 else 0.0
                solution.generator_P[g.id] = g.P_out + extra
        else:
            for g in gens:
                solution.generator_P[g.id] = g.P_out
        if i in controlled:
            q_req = (S_inj[i].imag + Qd[i]) * base
            for g, q in zip(gens, _allocate_bus_q(gens, q_req)):
                solution.generator_Q[g.id] = q
        else:
            for g in gens:
                solution.generator_Q[g.id] = g.Q_out

    vm_map = dict(solution.bus_voltage)
    va_map = dict(solution.bus_angle)
    solution.branch_flows = branch_flows(network, vm_map, va_map)
    for bid in ids:
        b = network.bus_by_id[bid]
        if b.has_shunt:
            v2 = solution.bus_voltage[bid] ** 2
            solution.shunt_P_consumed[bid] = b.shunt_G * v2
            solution.shunt_Q_injected[bid] = b.shunt_B * v2
    return solution


def branch_flows(
    network: Network,
    voltage_magnitude: Mapping[int, float],
    voltage_angle: Mapping[int, float],
) -> dict[int, BranchFlow]:
    """Per-branch MW/Mvar/MVA flows at both ends from the given voltages.

    Covers every in-service branch whose two terminal buses appear in the
    voltage maps; branches outside the solved island are skipped.
    """
    out: dict[int, BranchFlow] = {}
    base = network.base_MVA
    for br in network.branches:
        if not br.in_service:
            continue
        if br.from_bus not in voltage_magnitude or br.to_bus not in voltage_magnitude:
            continue
        yff, yft, ytf, ytt = _branch_admittances(br)
        vf = voltage_magnitude[br.from_bus] * cmath.exp(1j * voltage_angle[br.from_bus])
        vt = voltage_magnitude[br.to_bus] * cmath.exp(1j * voltage_angle[br.to_bus])
        sf = vf * (yff * vf + yft * vt).conjugate() * base
        st = vt * (ytf * vf + ytt * vt).conjugate() * base
        out[br.id] = BranchFlow(
            branch_id=br.id,
            from_bus=br.from_bus,
            to_bus=br.to_bus,
            P_from=sf.real,
            Q_from=sf.imag,
            P_to=st.real,
            Q_to=st.imag,
            S_from=math.hypot(sf.real, sf.imag),
            S_to=math.hypot(st.real, st.imag),
        )
    return out


def nodal_mismatch(
    network: Network,
    voltage_magnitude: Mapping[int, float],
    voltage_angle: Mapping[int, float],
    generator_P: Mapping[int, float] | None = None,
    generator_Q: Mapping[int, float] | None = None,
) -> dict[int, tuple[float, float]]:
    """Per-bus (dP, dQ) scheduled-minus-computed injection, in per-unit.

    Generator outputs default to dispatch values; pass the solved outputs
    (e.g. solution.generator_P/Q) to evaluate a converged operating point,
    where every entry is ~0 including slack and PV buses.
    """
    ids = [b.id for b in network.buses]
    pos = {bid: i for i, bid in enumerate(ids)}
    Ybus = build_admittance(network)
    V = np.array(
        [voltage_magnitude[b] * cmath.exp(1j * voltage_angle[b]) for b in ids]
    )
    base = network.base_MVA
    sched = np.zeros(len(ids), dtype=complex)
    for i, bid in enumerate(ids):
        bus = network.bus_by_id[bid]
        sched[i] -= complex(bus.load_P, bus.load_Q) / base
    for g in network.generators:
        if not g.in_service:
            continue
        p = generator_P[g.id] if generator_P is not None else g.P_out
        q = generator_Q[g.id] if generator_Q is not None else g.Q_out
        sched[pos[g.bus]] += complex(p, q) / base
    mis = sched - V * np.conj(Ybus @ V)
    return {bid: (float(mis[i].real), float(mis[i].imag)) for i, bid in enumerate(ids)}
