"""Flow-matrix construction: entry conventions, conservation, CSV round-trip."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import random_network
from ecogrid.ecomatrix import (
    FlowType,
    RedundancyMode,
    actor_imbalances,
    build_eco_matrix,
    conservation_report,
    export_matrix,
    import_matrix,
)
from ecogrid.ecometrics import metrics
from ecogrid.model import Branch, Bus, BusKind, Generator, Network, OutageSet, apply_outage
from ecogrid.powerflow import solve

ALL_COMBOS = [(f, m) for f in FlowType for m in RedundancyMode]


def solved(network):
    sol = solve(network)
    assert sol.converged
    return sol


def lossless_two_bus(r=0.0, gens=((100.0, 1),)):
    """Slack bus 1 feeding a 100 MW PQ load at bus 2; optional multi-unit."""
    buses = (
        Bus(id=1, kind=BusKind.SLACK),
        Bus(id=2, kind=BusKind.PQ, load_P=100.0),
    )
    generators = tuple(
        Generator(id=i + 1, bus=bus, P_out=p, Q_min=-300, Q_max=300, P_max=500)
        for i, (p, bus) in enumerate(gens)
    )
    branches = (Branch(id=1, from_bus=1, to_bus=2, r=r, x=0.1),)
    return Network("toy", 100.0, buses, generators, branches)


@pytest.mark.parametrize(
    "flow, p, q, expected",
    [
        (FlowType.REAL, 3.0, 4.0, 3.0),
        (FlowType.REAL, -3.0, 4.0, -3.0),
        (FlowType.REACTIVE, 3.0, 4.0, 4.0),
        (FlowType.REACTIVE, 3.0, -4.0, -4.0),
        (FlowType.APPARENT, 3.0, 4.0, 5.0),
        (FlowType.APPARENT, -3.0, 4.0, -5.0),
        (FlowType.APPARENT, 0.0, -4.0, -4.0),  # oriented by q where p is zero
        (FlowType.APPARENT, 0.0, 0.0, 0.0),
    ],
)
def test_flow_projection_table(flow, p, q, expected):
    value = flow.signed(p, q)
    assert value == expected
    assert np.copysign(1.0, value) == np.copysign(1.0, expected)


class TestRealMatrix:
    def test_lossless_single_path_entries(self):
        net = lossless_two_bus()
        m = build_eco_matrix(net, solved(net), FlowType.REAL, RedundancyMode.AGGREGATE)
        gen = m.actor_index("generator", 1)
        b1 = m.actor_index("bus", 1)
        b2 = m.actor_index("bus", 2)
        expected = np.zeros_like(m.values)
        expected[m.input_index, gen] = 100.0
        expected[gen, b1] = 100.0
        expected[b1, b2] = 100.0
        expected[b2, m.export_index] = 100.0
        assert np.allclose(m.values, expected, atol=1e-6)

    def test_loss_goes_to_receiving_bus_dissipation(self):
        net = lossless_two_bus(r=0.02)
        sol = solved(net)
        flow = sol.branch_flows[1]
        loss = flow.P_from + flow.P_to
        assert loss > 0
        m = build_eco_matrix(net, sol, FlowType.REAL, RedundancyMode.AGGREGATE)
        b1 = m.actor_index("bus", 1)
        b2 = m.actor_index("bus", 2)
        assert m.values[b1, b2] == pytest.approx(flow.P_from, abs=1e-9)
        assert m.values[b2, m.dissipation_index] == pytest.approx(loss, abs=1e-9)
        assert m.values[b2, m.export_index] == pytest.approx(flow.P_from - loss, abs=1e-6)

    def test_split_vs_aggregate_generator_stage(self):
        net = lossless_two_bus(gens=((30.0, 1), (70.0, 1)))
        sol = solved(net)
        agg = build_eco_matrix(net, sol, FlowType.REAL, RedundancyMode.AGGREGATE)
        spl = build_eco_matrix(net, sol, FlowType.REAL, RedundancyMode.SPLIT)
        assert agg.actor_labels[0] == ("generator", 1)  # bus id in aggregate
        assert spl.actor_labels[:2] == (("generator", 1), ("generator", 2))
        g = agg.actor_index("generator", 1)
        assert agg.values[agg.input_index, g] == pytest.approx(100.0, abs=1e-5)
        s1 = spl.actor_index("generator", 1)
        s2 = spl.actor_index("generator", 2)
        assert spl.values[spl.input_index, s1] == pytest.approx(30.0, abs=1e-5)
        assert spl.values[spl.input_index, s2] == pytest.approx(70.0, abs=1e-5)
        # generator-to-bus stage totals agree between modes
        assert spl.values[spl.input_index].sum() == pytest.approx(
            agg.values[agg.input_index].sum(), abs=1e-9
        )

    def test_negative_load_becomes_system_input(self):
        net = lossless_two_bus()
        buses = (net.buses[0], dataclasses.replace(net.buses[1], load_P=-50.0))
        net = dataclasses.replace(net, buses=buses)
        m = build_eco_matrix(net, solved(net), FlowType.REAL, RedundancyMode.AGGREGATE)
        b2 = m.actor_index("bus", 2)
        assert m.values[m.input_index, b2] == pytest.approx(50.0, abs=1e-9)
        assert m.values[b2, m.export_index] == 0.0

    def test_real_shunt_rows_are_zero(self, ieee24):
        m = build_eco_matrix(ieee24, solved(ieee24), FlowType.REAL, RedundancyMode.SPLIT)
        sh = m.actor_index("shunt", 6)
        assert np.all(m.values[sh, :] == 0.0)
        assert np.all(m.values[:, sh] == 0.0)


class TestReactiveAndApparent:
    def test_inductive_shunt_absorbs_from_bus(self, ieee24):
        sol = solved(ieee24)
        m = build_eco_matrix(ieee24, sol, FlowType.REACTIVE, RedundancyMode.SPLIT)
        sh = m.actor_index("shunt", 6)
        b6 = m.actor_index("bus", 6)
        absorbed = -sol.shunt_Q_injected[6]
        assert absorbed > 0  # bus 6 carries a reactor
        assert m.values[b6, sh] == pytest.approx(absorbed, abs=1e-9)
        assert m.values[sh, m.dissipation_index] == pytest.approx(absorbed, abs=1e-9)

    def test_capacitive_shunt_feeds_bus_from_input(self):
        net = lossless_two_bus()
        buses = (net.buses[0], dataclasses.replace(net.buses[1], shunt_B=20.0))
        net = dataclasses.replace(net, buses=buses)
        sol = solved(net)
        m = build_eco_matrix(net, sol, FlowType.REACTIVE, RedundancyMode.AGGREGATE)
        sh = m.actor_index("shunt", 2)
        b2 = m.actor_index("bus", 2)
        injected = sol.shunt_Q_injected[2]
        assert injected > 0
        assert m.values[m.input_index, sh] == pytest.approx(injected, abs=1e-9)
        assert m.values[sh, b2] == pytest.approx(injected, abs=1e-9)

    def test_absorbing_generator_routes_to_dissipation_or_export(self):
        net = lossless_two_bus()
        # strong line charging forces the slack unit to absorb reactive power
        branches = (dataclasses.replace(net.branches[0], b_charging=1.0),)
        net = dataclasses.replace(net, branches=branches)
        sol = solved(net)
        assert sol.generator_Q[1] < 0
        for destination in ("dissipation", "export"):
            m = build_eco_matrix(
                net, sol, FlowType.REACTIVE, RedundancyMode.SPLIT, absorbed_gen_q=destination
            )
            g = m.actor_index("generator", 1)
            b1 = m.actor_index("bus", 1)
            col = m.dissipation_index if destination == "dissipation" else m.export_index
            assert m.values[b1, g] == pytest.approx(-sol.generator_Q[1], abs=1e-9)
            assert m.values[g, col] == pytest.approx(-sol.generator_Q[1], abs=1e-9)

    def test_charging_surplus_enters_as_input(self):
        # lightly loaded charged line generates reactive power at both ends
        net = lossless_two_bus()
        buses = (net.buses[0], dataclasses.replace(net.buses[1], load_P=1.0, load_Q=5.0))
        branches = (dataclasses.replace(net.branches[0], b_charging=0.8),)
        net = dataclasses.replace(net, buses=buses, branches=branches)
        sol = solved(net)
        flow = sol.branch_flows[1]
        assert flow.Q_from < 0 and flow.Q_to < 0  # both ends receive Mvar
        m = build_eco_matrix(net, sol, FlowType.REACTIVE, RedundancyMode.AGGREGATE)
        b1 = m.actor_index("bus", 1)
        b2 = m.actor_index("bus", 2)
        assert m.values[m.input_index, b1] == pytest.approx(-flow.Q_from, abs=1e-9)
        assert m.values[m.input_index, b2] == pytest.approx(-flow.Q_to, abs=1e-9)
        assert m.values[b2, m.export_index] == pytest.approx(5.0, abs=1e-9)

    def test_apparent_flow_without_real_part_is_oriented_by_reactive(self):
        # both ends of the branch receive pure Mvar: the MVA enters each bus
        # from the input side, as the reactive matrix would have it
        net = lossless_two_bus()
        sol = solved(net)
        fl = dataclasses.replace(sol.branch_flows[1], P_from=0.0, Q_from=-40.0, P_to=0.0,
                                 Q_to=-30.0, S_from=40.0, S_to=30.0)
        sol = dataclasses.replace(sol, branch_flows={1: fl})
        m = build_eco_matrix(net, sol, FlowType.APPARENT, RedundancyMode.AGGREGATE)
        b1 = m.actor_index("bus", 1)
        b2 = m.actor_index("bus", 2)
        assert m.values[m.input_index, b1] == pytest.approx(40.0, abs=1e-9)
        assert m.values[b1, b2] == 0.0 and m.values[b2, b1] == 0.0
        assert conservation_report(m) == []

    def test_consuming_shunt_absorbs_apparent_flow_from_bus(self):
        net = lossless_two_bus()
        buses = (net.buses[0], dataclasses.replace(net.buses[1], shunt_G=10.0))
        net = dataclasses.replace(net, buses=buses)
        sol = solved(net)
        consumed = sol.shunt_P_consumed[2]
        assert consumed > 0 and sol.shunt_Q_injected[2] == 0.0
        m = build_eco_matrix(net, sol, FlowType.APPARENT, RedundancyMode.AGGREGATE)
        sh = m.actor_index("shunt", 2)
        b2 = m.actor_index("bus", 2)
        assert m.values[b2, sh] == pytest.approx(consumed, abs=1e-9)
        assert m.values[sh, m.dissipation_index] == pytest.approx(consumed, abs=1e-9)
        assert m.values[m.input_index, sh] == 0.0

    def test_aggregate_nets_mixed_sign_unit_outputs(self):
        # PQ bus with two fixed-dispatch units, one producing and one
        # absorbing reactive power: aggregate applies the direction rule
        # to the net, split keeps both directions
        net = lossless_two_bus()
        gens = (
            net.generators[0],
            Generator(id=2, bus=2, P_out=0.0, Q_out=5.0, Q_min=-50, Q_max=50, P_max=10),
            Generator(id=3, bus=2, P_out=0.0, Q_out=-3.0, Q_min=-50, Q_max=50, P_max=10),
        )
        net = dataclasses.replace(net, generators=gens)
        sol = solved(net)
        agg = build_eco_matrix(net, sol, FlowType.REACTIVE, RedundancyMode.AGGREGATE)
        g_agg = agg.actor_index("generator", 2)  # bus id labels the merged actor
        b2a = agg.actor_index("bus", 2)
        assert agg.values[agg.input_index, g_agg] == pytest.approx(2.0, abs=1e-9)
        assert agg.values[b2a, g_agg] == 0.0

        spl = build_eco_matrix(net, sol, FlowType.REACTIVE, RedundancyMode.SPLIT)
        s2 = spl.actor_index("generator", 2)
        s3 = spl.actor_index("generator", 3)
        b2s = spl.actor_index("bus", 2)
        assert spl.values[spl.input_index, s2] == pytest.approx(5.0, abs=1e-9)
        assert spl.values[b2s, s3] == pytest.approx(3.0, abs=1e-9)
        assert spl.values[s3, spl.dissipation_index] == pytest.approx(3.0, abs=1e-9)
        # both conserve despite the differing gen-stage totals
        assert conservation_report(agg) == []
        assert conservation_report(spl) == []

    def test_apparent_entries_dominate_real_entries(self, ieee24):
        sol = solved(ieee24)
        for mode in RedundancyMode:
            real = build_eco_matrix(ieee24, sol, FlowType.REAL, mode)
            apparent = build_eco_matrix(ieee24, sol, FlowType.APPARENT, mode)
            buses = [i for i, (k, _) in enumerate(real.actor_labels) if k == "bus"]
            sub_r = real.values[np.ix_(buses, buses)]
            sub_s = apparent.values[np.ix_(buses, buses)]
            assert np.all(sub_s >= sub_r - 1e-9)


class TestInvariantsAcrossCombos:
    def test_entries_nonnegative_and_environ_structure(self, ieee24):
        sol = solved(ieee24)
        for flow, mode in ALL_COMBOS:
            m = build_eco_matrix(ieee24, sol, flow, mode)
            assert np.all(m.values >= 0.0)
            assert np.all(m.values[:, m.input_index] == 0.0)
            assert np.all(m.values[m.export_index, :] == 0.0)
            assert np.all(m.values[m.dissipation_index, :] == 0.0)
            assert m.units == flow.value

    def test_bus_to_bus_submatrix_mode_independent(self, ieee24):
        sol = solved(ieee24)
        for flow in FlowType:
            agg = build_eco_matrix(ieee24, sol, flow, RedundancyMode.AGGREGATE)
            spl = build_eco_matrix(ieee24, sol, flow, RedundancyMode.SPLIT)
            ba = [i for i, (k, _) in enumerate(agg.actor_labels) if k == "bus"]
            bs = [i for i, (k, _) in enumerate(spl.actor_labels) if k == "bus"]
            assert np.allclose(
                agg.values[np.ix_(ba, ba)], spl.values[np.ix_(bs, bs)], atol=1e-12
            )

    def test_global_real_conservation(self, ieee24):
        sol = solved(ieee24)
        for mode in RedundancyMode:
            m = build_eco_matrix(ieee24, sol, FlowType.REAL, mode)
            inputs = m.values[m.input_index, :].sum()
            exports = m.values[:, m.export_index].sum()
            dissipated = m.values[:, m.dissipation_index].sum()
            assert inputs == pytest.approx(exports + dissipated, abs=1e-6 * m.values.sum())

    def test_conservation_on_random_networks(self):
        rng = np.random.default_rng(2024)
        solved_count = 0
        for _ in range(12):
            net = random_network(rng)
            sol = solve(net)
            if not sol.converged:
                continue
            solved_count += 1
            for flow, mode in ALL_COMBOS:
                m = build_eco_matrix(net, sol, flow, mode)
                assert np.all(m.values >= 0.0)
                assert conservation_report(m, rel_tol=1e-6) == []
        assert solved_count >= 8

    def test_dimension_counts(self, ieee24):
        sol = solved(ieee24)
        n_gens = len(ieee24.in_service_generators)
        n_shunts = sum(1 for b in ieee24.buses if b.has_shunt)
        spl = build_eco_matrix(ieee24, sol, FlowType.REACTIVE, RedundancyMode.SPLIT)
        assert spl.values.shape == (n_gens + n_shunts + 24 + 3,) * 2
        gen_buses = {g.bus for g in ieee24.in_service_generators}
        agg = build_eco_matrix(ieee24, sol, FlowType.REACTIVE, RedundancyMode.AGGREGATE)
        assert agg.values.shape == (len(gen_buses) + n_shunts + 24 + 3,) * 2

    def test_unconverged_solution_rejected(self, ieee24):
        sol = solved(ieee24)
        sol.converged = False
        with pytest.raises(ValueError, match="unconverged"):
            build_eco_matrix(ieee24, sol, FlowType.REAL, RedundancyMode.SPLIT)


class TestConservationReport:
    def test_clean_matrix_has_no_violations(self):
        net = lossless_two_bus(r=0.01)
        m = build_eco_matrix(net, solved(net), FlowType.REAL, RedundancyMode.AGGREGATE)
        assert conservation_report(m, rel_tol=1e-6) == []
        assert actor_imbalances(m).max() <= 1e-6 * m.values.sum()

    def test_perturbed_entry_flags_the_two_touched_actors(self):
        net = lossless_two_bus(r=0.01)
        m = build_eco_matrix(net, solved(net), FlowType.REAL, RedundancyMode.AGGREGATE)
        b1 = m.actor_index("bus", 1)
        b2 = m.actor_index("bus", 2)
        values = m.values
        values[b1, b2] += 1.0
        i, j = np.nonzero(values)
        perturbed = dataclasses.replace(m, entries=(i, j, values[i, j]))
        flagged = conservation_report(perturbed, rel_tol=1e-6)
        assert sorted(label for label, _ in flagged) == [("bus", 1), ("bus", 2)]
        for _, magnitude in flagged:
            assert magnitude == pytest.approx(1.0, abs=1e-6)

    def test_reactive_ieee24_conserves(self, ieee24):
        m = build_eco_matrix(
            ieee24, solved(ieee24), FlowType.REACTIVE, RedundancyMode.SPLIT
        )
        assert conservation_report(m, rel_tol=1e-6) == []


def dense_imbalances(matrix):
    """The dense formula: axis-0 sums of the actor columns minus the actor row sums."""
    values, a = matrix.values, matrix.n_actors
    return np.abs(values[:, :a].sum(axis=0) - values[:a, :].sum(axis=1))


def dense_conservation_report(matrix, rel_tol):
    threshold = rel_tol * matrix.values.sum()
    return [(label, float(imb)) for label, imb in zip(matrix.actor_labels, dense_imbalances(matrix))
            if imb > threshold]


class TestConservationFromStoredEntries:
    """actor_imbalances and conservation_report read the stored entries and
    equal the dense formulas bit for bit; rel_tol 1e-15 flags rounding-level
    imbalances, so the threshold comparison is exercised too."""

    @staticmethod
    def assert_dense_equal(matrix):
        assert actor_imbalances(matrix).tobytes() == dense_imbalances(matrix).tobytes()
        for rel_tol in (1e-6, 1e-15):
            got = conservation_report(matrix, rel_tol)
            assert [(lab, v.hex()) for lab, v in got] == [
                (lab, v.hex()) for lab, v in dense_conservation_report(matrix, rel_tol)]

    def test_ieee24_base_and_every_n1_outage(self, ieee24):
        outages = [OutageSet()]
        outages += [OutageSet.of(branches=[b.id]) for b in ieee24.branches]
        outages += [OutageSet.of(generators=[g.id]) for g in ieee24.generators]
        flagged = 0
        for outage in outages:
            network = apply_outage(ieee24, outage)
            sol = solve(network)
            if not sol.converged:
                continue
            for flow, mode in ALL_COMBOS:
                for absorbed_gen_q in ("dissipation", "export"):
                    m = build_eco_matrix(network, sol, flow, mode, absorbed_gen_q=absorbed_gen_q)
                    self.assert_dense_equal(m)
                    flagged += len(conservation_report(m, 1e-15))
        assert flagged > 0

    def test_random_networks(self):
        rng = np.random.default_rng(707)
        solved_count = 0
        for _ in range(60):
            network = random_network(rng)
            sol = solve(network)
            if not sol.converged:
                continue
            solved_count += 1
            for flow, mode in ALL_COMBOS:
                self.assert_dense_equal(build_eco_matrix(network, sol, flow, mode))
        assert solved_count >= 40


def test_building_and_scoring_never_allocate_the_dense_matrix(tiled10):
    network, sol = tiled10
    tracemalloc.start()
    try:
        m = build_eco_matrix(network, sol, FlowType.APPARENT, RedundancyMode.SPLIT)
        metrics(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n = m.n_actors + 3
    assert n == 583
    assert peak < n * n * 8 / 4


class TestCsv:
    def test_two_bus_grid_is_seven_by_seven(self):
        net = lossless_two_bus()
        m = build_eco_matrix(net, solved(net), FlowType.REAL, RedundancyMode.AGGREGATE)
        lines = export_matrix(m).strip().split("\n")
        # 3 actors (gen, two buses) + 3 environs + header row
        assert len(lines) == 7
        assert all(len(line.split(",")) == 7 for line in lines)
        assert lines[0].split(",")[0] == "MW"

    def test_round_trip_is_stable_at_printed_precision(self, ieee24):
        sol = solved(ieee24)
        for flow, mode in ALL_COMBOS:
            m = build_eco_matrix(ieee24, sol, flow, mode)
            text = export_matrix(m)
            again = import_matrix(text)
            assert again.actor_labels == m.actor_labels
            assert again.units == m.units
            assert export_matrix(again) == text

    def test_import_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            import_matrix("MW,bus:1,input,export\n")  # missing dissipation
        with pytest.raises(ValueError):
            import_matrix("MW,wat:1,input,export,dissipation\n" + "x,0,0,0,0\n" * 5)
        for text in ("", "# only a comment\n"):
            with pytest.raises(ValueError):
                import_matrix(text)
