"""Solver correctness: admittances, Newton convergence, flows, mismatch."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_network
from ecogrid import powerflow
from ecogrid.model import Branch, Bus, BusKind, Generator, Network, OutageSet, apply_outage
from ecogrid.powerflow import (
    PowerFlowError,
    SolverOptions,
    _Jacobian,
    branch_flows,
    build_admittance,
    nodal_mismatch,
    solve,
)


def two_bus(load_p=100.0, load_q=0.0, r=0.0, x=0.1, receiving_pv=False, q_max=300.0):
    buses = (
        Bus(id=1, kind=BusKind.SLACK),
        Bus(id=2, kind=BusKind.PV if receiving_pv else BusKind.PQ,
            load_P=load_p, load_Q=load_q),
    )
    gens = [Generator(id=1, bus=1, P_out=load_p, Q_min=-300, Q_max=300, P_max=500)]
    if receiving_pv:
        gens.append(Generator(id=2, bus=2, P_out=0.0, Q_min=-q_max, Q_max=q_max, P_max=0.0))
    branches = (Branch(id=1, from_bus=1, to_bus=2, r=r, x=x),)
    return Network("twobus", 100.0, buses, tuple(gens), branches)


class TestAdmittance:
    def test_single_reactance_branch_entries(self):
        net = two_bus()
        Y = build_admittance(net).toarray()
        assert Y[0, 1] == pytest.approx(10j)
        assert Y[1, 0] == pytest.approx(10j)
        assert Y[0, 0] == pytest.approx(-10j)
        assert Y[1, 1] == pytest.approx(-10j)

    def test_bus_shunt_raises_diagonal_imag_by_its_pu_value(self):
        net = two_bus()
        shunted = dataclasses.replace(
            net, buses=(dataclasses.replace(net.buses[0], shunt_B=20.0), net.buses[1])
        )
        y0 = build_admittance(net).toarray()[0, 0]
        y1 = build_admittance(shunted).toarray()[0, 0]
        assert (y1 - y0).imag == pytest.approx(0.2)  # 20 Mvar on 100 MVA base
        assert (y1 - y0).real == pytest.approx(0.0)

    def test_ieee24_structural_nonzeros(self, ieee24):
        Y = build_admittance(ieee24)
        pairs = {frozenset((br.from_bus, br.to_bus)) for br in ieee24.in_service_branches}
        assert Y.nnz == 24 + 2 * len(pairs)
        assert Y.nnz <= 24 + 2 * 38

    def test_zero_impedance_in_service_branch_rejected(self):
        net = two_bus()
        bad = (dataclasses.replace(net.branches[0], r=0.0, x=0.0),)
        with pytest.raises(PowerFlowError, match="zero series impedance"):
            build_admittance(dataclasses.replace(net, branches=bad))

    def test_tap_is_applied_on_the_from_side(self):
        br = Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.1, tap_ratio=1.05)
        net = dataclasses.replace(two_bus(), branches=(br,))
        Y = build_admittance(net).toarray()
        assert Y[0, 0] == pytest.approx(-10j / 1.05**2)
        assert Y[1, 1] == pytest.approx(-10j)
        assert Y[0, 1] == pytest.approx(10j / 1.05)


class TestSolve:
    def test_zero_injection_network_is_flat_in_zero_iterations(self):
        net = two_bus(load_p=0.0)
        net = dataclasses.replace(
            net, generators=(dataclasses.replace(net.generators[0], P_out=0.0),)
        )
        sol = solve(net)
        assert sol.converged and sol.iterations <= 1
        assert sol.bus_voltage[1] == pytest.approx(1.0)
        assert sol.bus_voltage[2] == pytest.approx(1.0)
        assert sol.bus_angle[2] == pytest.approx(0.0)

    def test_analytic_two_bus_receiving_angle(self, twobus_pv):
        sol = solve(twobus_pv)
        assert sol.converged
        assert sol.bus_voltage[2] == pytest.approx(1.0, abs=1e-12)
        assert sol.bus_angle[2] == pytest.approx(-math.asin(0.1), abs=1e-8)
        flow = sol.branch_flows[1]
        assert flow.P_from == pytest.approx(100.0, abs=1e-6)
        assert flow.P_to == pytest.approx(-100.0, abs=1e-6)
        assert flow.Q_from > 0  # the line's reactive demand comes from bus 1

    def test_analytic_two_bus_pq_variant(self, twobus_pq):
        # with Qd = 0 at the PQ end: v*sin = -0.1 and v = cos(theta), so
        # sin(2 theta) = -0.2
        sol = solve(twobus_pq)
        theta = math.asin(-0.2) / 2
        assert sol.converged
        assert sol.bus_angle[2] == pytest.approx(theta, abs=1e-9)
        assert sol.bus_voltage[2] == pytest.approx(math.cos(theta), abs=1e-9)

    def test_ieee24_flat_start_converges_fast(self, ieee24):
        sol = solve(ieee24)
        assert sol.converged
        assert sol.iterations <= 10
        assert sol.max_mismatch < 1e-8

    def test_divergence_reported_honestly(self):
        net = two_bus(load_p=5000.0)  # far beyond the tie's transfer limit
        sol = solve(net)
        assert not sol.converged
        assert sol.bus_voltage == {}
        assert sol.max_mismatch > 0

    def test_no_slack_and_genless_slack_raise(self, twobus_pq):
        no_slack = dataclasses.replace(
            twobus_pq,
            buses=tuple(dataclasses.replace(b, kind=BusKind.PQ) for b in twobus_pq.buses),
        )
        with pytest.raises(PowerFlowError, match="no slack"):
            solve(no_slack)
        dead_slack = apply_outage(twobus_pq, OutageSet.of(generators=[1]))
        with pytest.raises(PowerFlowError, match="no in-service generator"):
            solve(dead_slack)

    def test_non_slack_island_excluded_from_solution(self, twobus_pq):
        cut = apply_outage(twobus_pq, OutageSet.of(branches=[1]))
        sol = solve(cut)
        assert sol.converged
        assert sol.solved_island == frozenset({1})
        assert 2 not in sol.bus_voltage
        assert len(sol.islands) == 2

    def test_pv_bus_without_unit_is_demoted_to_pq(self):
        net = two_bus(receiving_pv=True)
        net = dataclasses.replace(net, generators=(net.generators[0],))
        sol = solve(net)
        assert sol.converged
        assert sol.bus_voltage[2] < 1.0  # magnitude floated, no condenser support


class TestQLimits:
    def test_pv_bus_switches_to_pq_at_binding_limit(self):
        # condenser capped at 2 Mvar cannot hold 1.0 pu
        net = two_bus(load_q=30.0, receiving_pv=True, q_max=2.0)
        sol = solve(net)
        assert sol.converged
        assert sol.generator_Q[2] == pytest.approx(2.0, abs=1e-6)
        assert sol.bus_voltage[2] < 1.0

    def test_unswitched_pv_units_stay_inside_limits(self):
        rng = np.random.default_rng(42)
        checked = 0
        for _ in range(30):
            net = random_network(rng)
            sol = solve(net)
            if not sol.converged:
                continue
            for g in net.in_service_generators:
                if g.id in sol.generator_Q and g.bus != 1:
                    q = sol.generator_Q[g.id]
                    assert q <= g.Q_max + 1e-6 * net.base_MVA
                    assert q >= g.Q_min - 1e-6 * net.base_MVA
                    checked += 1
        assert checked > 10

    def test_bus_reactive_requirement_split_by_range_width(self):
        net = two_bus(load_q=12.0, receiving_pv=True)
        wide = Generator(id=2, bus=2, Q_min=-30.0, Q_max=30.0, P_max=0.0)
        narrow = Generator(id=3, bus=2, Q_min=-10.0, Q_max=10.0, P_max=0.0)
        net = dataclasses.replace(net, generators=(net.generators[0], wide, narrow))
        sol = solve(net)
        assert sol.converged
        q_wide, q_narrow = sol.generator_Q[2], sol.generator_Q[3]
        assert q_wide == pytest.approx(3 * q_narrow, rel=1e-9)
        total = q_wide + q_narrow
        assert total == pytest.approx(
            sum(q for gid, q in sol.generator_Q.items() if gid != 1)
        )


class TestBranchFlows:
    def test_lossless_branch_flows_mirror(self, twobus_pv):
        sol = solve(twobus_pv)
        flow = sol.branch_flows[1]
        assert flow.P_from == pytest.approx(-flow.P_to, abs=1e-9)
        assert flow.S_from == pytest.approx(math.hypot(flow.P_from, flow.Q_from))
        assert flow.S_to == pytest.approx(math.hypot(flow.P_to, flow.Q_to))

    def test_identical_end_voltages_carry_no_real_flow(self):
        net = two_bus(r=0.02, x=0.1)
        flows = branch_flows(net, {1: 1.0, 2: 1.0}, {1: 0.0, 2: 0.0})
        assert flows[1].P_from == pytest.approx(0.0, abs=1e-12)
        assert flows[1].P_to == pytest.approx(0.0, abs=1e-12)

    def test_losses_nonnegative_for_nonnegative_resistance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            net = random_network(rng)
            sol = solve(net)
            if not sol.converged:
                continue
            for flow in sol.branch_flows.values():
                assert flow.P_from + flow.P_to >= -1e-9


class TestPhaseShift:
    def test_shifter_in_a_loop_drives_circulating_flow(self):
        buses = (
            Bus(id=1, kind=BusKind.SLACK),
            Bus(id=2, kind=BusKind.PQ),
            Bus(id=3, kind=BusKind.PQ),
        )
        gens = (Generator(id=1, bus=1, Q_min=-100, Q_max=100, P_max=100),)
        branches = (
            Branch(id=1, from_bus=1, to_bus=2, r=0.01, x=0.1),
            Branch(id=2, from_bus=2, to_bus=3, r=0.01, x=0.1),
            Branch(id=3, from_bus=3, to_bus=1, r=0.01, x=0.1, phase_shift=5.0),
        )
        net = Network("loop", 100.0, buses, gens, branches)
        sol = solve(net)
        assert sol.converged
        # no loads, but the shifter pumps power around the loop and the
        # slack unit covers the circulation losses
        assert abs(sol.branch_flows[1].P_from) > 1.0
        losses = sum(f.P_from + f.P_to for f in sol.branch_flows.values())
        assert losses > 0
        assert sol.generator_P[1] == pytest.approx(losses, abs=1e-5)

    def test_radial_shifter_only_offsets_the_angle(self):
        net = two_bus(load_p=0.0)
        net = dataclasses.replace(
            net,
            generators=(dataclasses.replace(net.generators[0], P_out=0.0),),
            branches=(dataclasses.replace(net.branches[0], phase_shift=10.0),),
        )
        sol = solve(net)
        assert sol.converged
        assert sol.branch_flows[1].P_from == pytest.approx(0.0, abs=1e-6)
        assert sol.bus_angle[2] == pytest.approx(math.radians(-10.0), abs=1e-8)


class TestMismatch:
    def test_converged_solution_has_tiny_mismatch_everywhere(self, twobus_pq, ieee24):
        for net in (twobus_pq, ieee24):
            sol = solve(net)
            mis = nodal_mismatch(
                net, sol.bus_voltage, sol.bus_angle, sol.generator_P, sol.generator_Q
            )
            for bid in sol.solved_island:
                dp, dq = mis[bid]
                assert abs(dp) < 1e-8 and abs(dq) < 1e-8

    def test_flat_start_mismatch_equals_negative_load(self, twobus_pq):
        net = dataclasses.replace(
            twobus_pq, generators=(dataclasses.replace(twobus_pq.generators[0], P_out=0.0),)
        )
        mis = nodal_mismatch(net, {1: 1.0, 2: 1.0}, {1: 0.0, 2: 0.0})
        assert mis[2][0] == pytest.approx(-1.0)  # -load_P / base
        assert mis[2][1] == pytest.approx(0.0)

    def test_power_balance_of_converged_solutions(self):
        rng = np.random.default_rng(11)
        tol = SolverOptions().tolerance
        count = 0
        for _ in range(25):
            net = random_network(rng)
            sol = solve(net)
            if not sol.converged:
                continue
            island = sol.solved_island
            gen_p = sum(sol.generator_P.values())
            load_p = sum(net.bus_by_id[b].load_P for b in island)
            shunt_p = sum(sol.shunt_P_consumed.values())
            losses = sum(f.P_from + f.P_to for f in sol.branch_flows.values())
            assert gen_p - load_p - shunt_p == pytest.approx(
                losses, abs=10 * tol * net.base_MVA
            )
            count += 1
        assert count > 15


def reference_dSbus_dV(Ybus, V):
    """MATPOWER's dSbus_dV assembled from scipy.sparse products."""
    Ibus = Ybus @ V
    diagV = sp.diags(V)
    diagI = sp.diags(Ibus)
    diagVnorm = sp.diags(V / np.abs(V))
    dS_dVa = 1j * diagV @ (diagI - Ybus @ diagV).conjugate()
    dS_dVm = diagV @ (Ybus @ diagVnorm).conjugate() + diagI.conjugate() @ diagVnorm
    return dS_dVa, dS_dVm


def reference_jacobian(Ybus, V, pvpq, pq):
    """The polar Jacobian as the solver assembled it before the fixed-pattern kernel."""
    dS_dVa, dS_dVm = reference_dSbus_dV(Ybus, V)
    J11 = dS_dVa[np.ix_(pvpq, pvpq)].real
    J12 = dS_dVm[np.ix_(pvpq, pq)].real
    J21 = dS_dVa[np.ix_(pq, pvpq)].imag
    J22 = dS_dVm[np.ix_(pq, pq)].imag
    return sp.bmat([[J11, J12], [J21, J22]], format="csc")


def kernel_dSbus_dV(Ybus, V):
    """The kernel's dS/dVa and dS/dVm as dense matrices."""
    n = Ybus.shape[0]
    jacobian = _Jacobian(Ybus, np.arange(n), np.arange(0))  # J's layout is unused
    values = jacobian.dS_dV(V, Ybus @ V)
    dS_dVa = np.zeros((n, n), dtype=complex)
    dS_dVm = np.zeros((n, n), dtype=complex)
    dS_dVa[jacobian.rows, jacobian.cols] = values[0] + 1j * values[2]
    dS_dVm[jacobian.rows, jacobian.cols] = values[1] + 1j * values[3]
    return dS_dVa, dS_dVm


def assert_jacobian_matches_reference(Ybus, V, pvpq, pq):
    J = _Jacobian(Ybus, pvpq, pq)(V, Ybus @ V)
    ref = reference_jacobian(Ybus, V, pvpq, pq)
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.indices, ref.indices)
    assert np.array_equal(J.data, ref.data)
    assert J.data.tobytes() == ref.data.tobytes()  # the signs of zeros too


def newton_rounds(monkeypatch, network):
    """(Ybus, pvpq, pq, [V of each Newton iteration]) for each round of solve()."""
    rounds = []

    class Recording(_Jacobian):
        def __init__(self, Ybus, pvpq, pq):
            super().__init__(Ybus, pvpq, pq)
            self.iterates = []
            rounds.append((Ybus, pvpq, pq, self.iterates))

        def __call__(self, V, Ibus):
            self.iterates.append(V.copy())
            return super().__call__(V, Ibus)

    monkeypatch.setattr(powerflow, "_Jacobian", Recording)
    try:
        solve(network)
    except PowerFlowError:
        pass
    return rounds


def assert_kernel_matches_reference_along_solve(monkeypatch, network, rng):
    checked = 0
    for Ybus, pvpq, pq, iterates in newton_rounds(monkeypatch, network):
        # every Newton iterate, the first being the flat start, plus a perturbed one
        V = iterates[0] if iterates else np.ones(Ybus.shape[0], dtype=complex)
        perturbed = np.abs(V) * rng.uniform(0.95, 1.05, V.size) * np.exp(
            1j * (np.angle(V) + rng.uniform(-0.2, 0.2, V.size))
        )
        for point in [*iterates, perturbed]:
            assert_jacobian_matches_reference(Ybus, point, pvpq, pq)
            checked += 1
    return checked


class TestJacobian:
    def test_kernel_equals_scipy_assembly_on_ieee24_and_every_n1_outage(
        self, ieee24, monkeypatch
    ):
        rng = np.random.default_rng(0)
        outages = [OutageSet.of(branches=[br.id]) for br in ieee24.branches]
        outages += [OutageSet.of(generators=[g.id]) for g in ieee24.generators]
        checked = assert_kernel_matches_reference_along_solve(monkeypatch, ieee24, rng)
        assert checked > 1
        for outage in outages:
            net = apply_outage(ieee24, outage)
            checked += assert_kernel_matches_reference_along_solve(monkeypatch, net, rng)
        assert checked > 3 * len(outages)

    def test_kernel_equals_scipy_assembly_on_random_networks(self, monkeypatch):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(30):
            net = random_network(rng)
            checked += assert_kernel_matches_reference_along_solve(monkeypatch, net, rng)
        assert checked > 60

    @pytest.mark.parametrize("layout", ["parallel", "series"])
    def test_exact_zeros_are_no_jacobian_entries(self, layout, monkeypatch):
        """A -0.2 reactance cancels a +0.2 one exactly.

        In parallel (2-3 twice) Ybus stores a zero between buses 2 and 3. In
        series (1-2-3) bus 2's own admittance is a stored zero, and so are its
        diagonal derivatives at flat start. Branch 1-3 carries the power.
        """
        cancelling = {
            "parallel": (
                Branch(id=1, from_bus=2, to_bus=3, r=0.0, x=0.2),
                Branch(id=2, from_bus=2, to_bus=3, r=0.0, x=-0.2),
                Branch(id=4, from_bus=1, to_bus=2, r=0.01, x=0.1),
            ),
            "series": (
                Branch(id=1, from_bus=1, to_bus=2, r=0.0, x=0.2),
                Branch(id=2, from_bus=2, to_bus=3, r=0.0, x=-0.2),
            ),
        }[layout]
        buses = (
            Bus(id=1, kind=BusKind.SLACK),
            Bus(id=2, kind=BusKind.PQ, load_P=20.0, load_Q=5.0),
            Bus(id=3, kind=BusKind.PQ, load_P=10.0),
        )
        gens = (Generator(id=1, bus=1, P_out=30.0, Q_min=-100, Q_max=100, P_max=100),)
        branches = (*cancelling, Branch(id=3, from_bus=1, to_bus=3, r=0.01, x=0.1))
        net = Network("cancel", 100.0, buses, gens, branches)
        Y = build_admittance(net)
        assert 0 in Y.data
        rng = np.random.default_rng(1)
        assert assert_kernel_matches_reference_along_solve(monkeypatch, net, rng) > 2
        assert solve(net).converged
        jacobian = _Jacobian(Y, np.array([1, 2]), np.array([1, 2]))
        V = np.ones(3, dtype=complex)
        assert jacobian(V, Y @ V).nnz < len(jacobian.pick)

    def test_injection_derivatives_match_central_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            net = random_network(rng)
            ids = [b.id for b in net.buses]
            vm = {b: float(rng.uniform(0.97, 1.03)) for b in ids}
            va = {b: float(rng.uniform(-0.1, 0.1)) for b in ids}
            Y = build_admittance(net)
            V = np.array([vm[b] * np.exp(1j * va[b]) for b in ids])
            dS_dVa, dS_dVm = kernel_dSbus_dV(Y, V)
            h = 1e-6
            for k in rng.choice(len(ids), size=3, replace=False):
                for which, analytic in (("angle", dS_dVa), ("mag", dS_dVm)):
                    plus, minus = dict(va), dict(va)
                    vmp, vmm = dict(vm), dict(vm)
                    if which == "angle":
                        plus[ids[k]] += h
                        minus[ids[k]] -= h
                        mp = nodal_mismatch(net, vm, plus)
                        mm = nodal_mismatch(net, vm, minus)
                    else:
                        vmp[ids[k]] += h
                        vmm[ids[k]] -= h
                        mp = nodal_mismatch(net, vmp, va)
                        mm = nodal_mismatch(net, vmm, va)
                    for i, bid in enumerate(ids):
                        # mismatch = scheduled - S(V), so d(mis)/dx = -dS/dx
                        fd_p = (mp[bid][0] - mm[bid][0]) / (2 * h)
                        fd_q = (mp[bid][1] - mm[bid][1]) / (2 * h)
                        ref = -analytic[i, k]
                        scale = max(1.0, abs(ref.real), abs(ref.imag))
                        assert fd_p == pytest.approx(ref.real, abs=1e-5 * scale)
                        assert fd_q == pytest.approx(ref.imag, abs=1e-5 * scale)


def test_solver_options_validated():
    with pytest.raises(ValueError):
        SolverOptions(tolerance=0.0)
    with pytest.raises(ValueError):
        SolverOptions(max_iterations=0)
