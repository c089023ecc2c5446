"""Contingency enumeration, evaluation rules, and survivability counters."""

import dataclasses
import itertools
import math

import pytest

from ecogrid import contingency
from ecogrid.contingency import (
    ViolationKind,
    enumerate_contingencies,
    evaluate,
    evaluate_all,
    survivability,
)
from ecogrid.model import Branch, Bus, BusKind, Generator, Network, OutageSet
from ecogrid.powerflow import SolverOptions


def star_network():
    """Slack hub 1 with three spokes; bus 4 is load-only, bus 3 unloaded."""
    buses = (
        Bus(id=1, kind=BusKind.SLACK),
        Bus(id=2, kind=BusKind.PQ, load_P=30.0, load_Q=5.0),
        Bus(id=3, kind=BusKind.PQ),
        Bus(id=4, kind=BusKind.PQ, load_P=50.0, load_Q=10.0),
    )
    gens = (Generator(id=1, bus=1, P_out=80.0, Q_min=-100, Q_max=100, P_max=300),)
    branches = (
        Branch(id=1, from_bus=1, to_bus=2, r=0.01, x=0.1),
        Branch(id=2, from_bus=1, to_bus=3, r=0.01, x=0.1),
        Branch(id=3, from_bus=1, to_bus=4, r=0.01, x=0.1),
    )
    return Network("star", 100.0, buses, gens, branches)


class TestEnumerate:
    def test_depth1_branch_count_on_ieee24(self, ieee24):
        outages = enumerate_contingencies(ieee24, 1, classes=("branch",))
        assert len(outages) == 38
        assert all(o.size == 1 for o in outages)

    def test_depth1_both_classes_counts_add(self, ieee24):
        outages = enumerate_contingencies(ieee24, 1, classes=("branch", "gen"))
        assert len(outages) == 38 + 33

    def test_depth2_binomial_count(self, ieee24):
        outages = enumerate_contingencies(ieee24, 2, classes=("branch",))
        assert len(outages) == math.comb(38, 2) == 703

    def test_lexicographic_order_matches_itertools(self, ieee24):
        outages = enumerate_contingencies(ieee24, 2, classes=("branch",))
        ids = [br.id for br in ieee24.in_service_branches]
        expected = [frozenset(c) for c in itertools.combinations(ids, 2)]
        assert [o.branch_ids for o in outages] == expected

    def test_cap_sampling_is_seeded_and_reproducible(self, ieee24):
        a = enumerate_contingencies(ieee24, 2, classes=("branch",), cap=50, seed=7)
        b = enumerate_contingencies(ieee24, 2, classes=("branch",), cap=50, seed=7)
        c = enumerate_contingencies(ieee24, 2, classes=("branch",), cap=50, seed=8)
        assert a == b
        assert len(a) == 50
        assert a != c
        full = enumerate_contingencies(ieee24, 2, classes=("branch",))
        assert set(a) <= set(full)

    def test_cap_larger_than_total_is_exhaustive(self, ieee24):
        assert len(enumerate_contingencies(ieee24, 1, classes=("branch",), cap=1000)) == 38

    def test_excessive_depth_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            enumerate_contingencies(star_network(), 5, classes=("branch",))

    def test_negative_cap_rejected(self, ieee24):
        with pytest.raises(ValueError, match=r"^cap must be >= 1, got -1$"):
            enumerate_contingencies(ieee24, 1, cap=-1)

    def test_zero_cap_rejected(self, ieee24):
        # a zero cap would sample no contingency and report a clean grid
        with pytest.raises(ValueError, match=r"^cap must be >= 1, got 0$"):
            enumerate_contingencies(ieee24, 1, cap=0)

    def test_out_of_service_elements_are_not_candidates(self, ieee24):
        from ecogrid.model import apply_outage

        reduced = apply_outage(ieee24, OutageSet.of(branches=[1, 2]))
        outages = enumerate_contingencies(reduced, 1, classes=("branch",))
        assert len(outages) == 36


class TestEvaluate:
    def test_zero_flow_radial_branch_is_clean(self):
        result = evaluate(star_network(), OutageSet.of(branches=[2]))
        assert result.status == "solved"
        assert result.violations == ()

    def test_isolated_load_island_is_shed_not_unsolved(self):
        result = evaluate(star_network(), OutageSet.of(branches=[3]))
        assert result.status == "solved"
        assert len(result.violations) == 1
        v = result.violations[0]
        assert v.kind is ViolationKind.ISLAND_LOAD_SHED
        assert v.element_id == 4
        assert v.magnitude == pytest.approx(50.0)

    def test_two_bus_tie_outage_sheds_the_whole_load(self, twobus_pq):
        result = evaluate(twobus_pq, OutageSet.of(branches=[1]))
        assert result.status == "solved"
        assert [v.kind for v in result.violations] == [ViolationKind.ISLAND_LOAD_SHED]
        assert result.violations[0].magnitude == pytest.approx(100.0)

    def test_losing_the_only_slack_unit_is_unsolved(self, twobus_pq):
        result = evaluate(twobus_pq, OutageSet.of(generators=[1]))
        assert result.status == "unsolved"
        assert result.violations == ()

    def test_insufficient_capability_is_unsolved(self):
        net = star_network()
        gens = (dataclasses.replace(net.generators[0], P_max=60.0),)  # 80 MW load
        result = evaluate(
            dataclasses.replace(net, generators=gens),
            OutageSet.of(branches=[2]),
        )
        assert result.status == "unsolved"

    def test_voltage_violation_detected(self):
        net = star_network()
        # long weak spoke to the big load drags its voltage under 0.95
        branches = tuple(
            dataclasses.replace(b, x=0.45, r=0.02) if b.id == 3 else b for b in net.branches
        )
        result = evaluate(
            dataclasses.replace(net, branches=branches),
            OutageSet.of(branches=[2]),
        )
        assert result.status == "solved"
        kinds = {v.kind for v in result.violations}
        assert ViolationKind.VOLTAGE_LOW in kinds

    def test_overload_detected_with_rating(self):
        net = star_network()
        branches = tuple(
            dataclasses.replace(b, rate_MVA=10.0) if b.id == 3 else b for b in net.branches
        )
        result = evaluate(
            dataclasses.replace(net, branches=branches),
            OutageSet.of(branches=[1]),
        )
        assert result.status == "solved"
        over = [v for v in result.violations if v.kind is ViolationKind.BRANCH_OVERLOAD]
        assert len(over) == 1 and over[0].element_id == 3
        assert over[0].magnitude > 0


class TestSurvivability:
    def test_redundant_unloaded_ring_has_clean_depth1(self):
        buses = tuple(
            Bus(id=i, kind=BusKind.SLACK if i == 1 else BusKind.PQ) for i in range(1, 5)
        )
        branches = tuple(
            Branch(id=i, from_bus=i, to_bus=i % 4 + 1, r=0.01, x=0.1) for i in range(1, 5)
        )
        gens = (Generator(id=1, bus=1, Q_min=-50, Q_max=50, P_max=100),)
        net = Network("ring", 100.0, buses, gens, branches)
        report = survivability(net, 1, classes=("branch",))
        d = report.depths[0]
        assert (d.num_violations, d.num_violated_contingencies, d.num_unsolved) == (0, 0, 0)
        assert d.total_contingencies == 4

    def test_ieee24_depth1_totals(self, ieee24):
        report = survivability(ieee24, 1, classes=("branch", "gen"))
        d = report.depths[0]
        assert d.total_contingencies == 38 + 33
        assert d.num_violated_contingencies <= d.total_contingencies - d.num_unsolved
        assert d.num_violations >= d.num_violated_contingencies - 1  # sanity: counters coupled

    def test_report_invariant_across_depths(self, ieee24):
        report = survivability(ieee24, 2, classes=("branch",), cap=60, seed=1)
        for d in report.depths:
            assert d.num_violated_contingencies <= d.total_contingencies - d.num_unsolved
            assert min(d.total_contingencies, d.num_violations,
                       d.num_violated_contingencies, d.num_unsolved) >= 0

    def test_deterministic_and_jobs_independent(self, ieee24):
        kwargs = dict(classes=("branch", "gen"), cap=40, seed=3)
        r1 = survivability(ieee24, 2, **kwargs)
        r2 = survivability(ieee24, 2, **kwargs)
        r4 = survivability(ieee24, 2, jobs=4, **kwargs)
        assert r1 == r2 == r4

    @pytest.mark.parametrize("depth, cap, message", [
        pytest.param(999, None, r"^depth 999 exceeds the 71 available in-service elements$",
                     id="depth-999"),
        pytest.param(72, 10, r"^depth 72 exceeds the 71 available in-service elements$",
                     id="depth-72-capped"),
        pytest.param(2, -1, r"^cap must be >= 1, got -1$", id="cap-negative"),
        pytest.param(2, 0, r"^cap must be >= 1, got 0$", id="cap-zero"),
    ])
    def test_bad_bounds_are_rejected_before_any_evaluation(self, ieee24, monkeypatch,
                                                           depth, cap, message):
        def no_evaluation(*args, **kwargs):
            raise AssertionError("a contingency was evaluated before the bounds were checked")

        monkeypatch.setattr(contingency, "evaluate", no_evaluation)
        with pytest.raises(ValueError, match=message):
            survivability(ieee24, depth, cap=cap)

    def test_parallel_results_match_serial_per_contingency(self, ieee24):
        outages = enumerate_contingencies(ieee24, 1, classes=("branch",))[:12]
        serial = evaluate_all(ieee24, outages, SolverOptions(), jobs=1)
        parallel = evaluate_all(ieee24, outages, SolverOptions(), jobs=3)
        assert serial == parallel
