"""Shared fixtures: bundled cases, hand-built two-bus networks, random grids."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ecogrid.caseio import load_case, parse_case
from ecogrid.cases import case_path
from ecogrid.model import Branch, Bus, BusKind, Generator, Network

# Minimal parseable case: 1 slack bus, 1 PQ bus, 1 generator, 1 branch.
TWOBUS_PQ_TEXT = """\
function mpc = twobus_pq
mpc.baseMVA = 100;
mpc.bus = [
\t1\t3\t0\t0\t0\t0\t1\t1.00\t0\t138\t1\t1.05\t0.95;
\t2\t1\t100\t0\t0\t0\t1\t1.00\t0\t138\t1\t1.05\t0.95;
];
mpc.gen = [
\t1\t100\t0\t300\t-300\t1.00\t100\t1\t400\t0;
];
mpc.branch = [
\t1\t2\t0\t0.1\t0\t250\t250\t250\t0\t0\t1\t-360\t360;
];
"""


@pytest.fixture(scope="session")
def ieee24() -> Network:
    network, _ = load_case(case_path("ieee24_rts"))
    return network


@pytest.fixture(scope="session")
def ieee24_checksum() -> str:
    _, checksum = load_case(case_path("ieee24_rts"))
    return checksum


@pytest.fixture(scope="session")
def tiled10():
    """The benchmark's 10-tile (240-bus) case at seed 0 and its solution."""
    from ecogrid.powerflow import solve

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tiled.py"
    spec = importlib.util.spec_from_file_location("perfbench_tiled", path)
    tiled = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tiled)
    network = parse_case(tiled.TiledCases().text(10, 0))
    solution = solve(network)
    assert solution.converged
    return network, solution


@pytest.fixture
def twobus_pq() -> Network:
    """Slack feeding a 100 MW PQ load over a lossless x=0.1 tie."""
    return parse_case(TWOBUS_PQ_TEXT)


@pytest.fixture
def twobus_pv() -> Network:
    """Receiving bus voltage-held at 1.0 by a condenser: theta2 = -asin(0.1)."""
    network, _ = load_case(case_path("twobus"))
    return network


def random_network(rng: np.random.Generator, max_buses: int = 8) -> Network:
    """Small solvable grid: light loading, occasional shunts, taps, and
    multi-unit buses so both redundancy modes get exercised."""
    n = int(rng.integers(4, max_buses + 1))
    bus_ids = list(range(1, n + 1))
    pv_buses = set(rng.choice(bus_ids[1:], size=int(rng.integers(0, 3)), replace=False).tolist())

    buses = []
    for bid in bus_ids:
        if bid == 1:
            kind = BusKind.SLACK
        elif bid in pv_buses:
            kind = BusKind.PV
        else:
            kind = BusKind.PQ
        load_p = load_q = 0.0
        if kind is BusKind.PQ or rng.random() < 0.3:
            load_p = float(rng.uniform(2.0, 25.0))
            load_q = float(rng.uniform(-4.0, 8.0))
            if rng.random() < 0.1:
                load_p = -float(rng.uniform(1.0, 5.0))
        shunt_g = shunt_b = 0.0
        if rng.random() < 0.25:
            shunt_b = float(rng.uniform(-15.0, 20.0))
            if rng.random() < 0.2:
                shunt_g = float(rng.uniform(0.5, 2.0))
        buses.append(
            Bus(id=bid, kind=kind, load_P=load_p, load_Q=load_q,
                shunt_G=shunt_g, shunt_B=shunt_b, base_kV=138.0)
        )

    branches = []
    bid = 1
    for k in range(2, n + 1):
        other = int(rng.integers(1, k))
        branches.append(_random_branch(rng, bid, other, k))
        bid += 1
    for _ in range(int(rng.integers(0, n - 1))):
        f, t = rng.choice(bus_ids, size=2, replace=False).tolist()
        branches.append(_random_branch(rng, bid, int(f), int(t)))
        bid += 1

    generators = [
        Generator(id=1, bus=1, P_out=0.0, Q_out=0.0, Q_min=-150.0, Q_max=200.0,
                  P_min=0.0, P_max=500.0, voltage_setpoint=float(rng.uniform(1.0, 1.03)))
    ]
    gid = 2
    for bus in sorted(pv_buses):
        units = 2 if rng.random() < 0.4 else 1
        vset = float(rng.uniform(0.99, 1.03))
        for _ in range(units):
            tight = rng.random() < 0.2
            generators.append(
                Generator(
                    id=gid, bus=bus,
                    P_out=float(rng.uniform(0.0, 20.0)),
                    Q_out=0.0,
                    Q_min=-1.0 if tight else -60.0,
                    Q_max=1.0 if tight else 80.0,
                    P_min=0.0, P_max=100.0,
                    voltage_setpoint=vset,
                )
            )
            gid += 1

    return Network(
        name=f"random{n}",
        base_MVA=100.0,
        buses=tuple(buses),
        generators=tuple(generators),
        branches=tuple(branches),
    )


def _random_branch(rng, branch_id, f, t) -> Branch:
    r = float(rng.uniform(0.0, 0.03)) if rng.random() > 0.2 else 0.0
    tap = float(rng.uniform(0.96, 1.04)) if rng.random() < 0.15 else 0.0
    shift = float(rng.uniform(-3.0, 3.0)) if rng.random() < 0.1 else 0.0
    return Branch(
        id=branch_id, from_bus=f, to_bus=t,
        r=r,
        x=float(rng.uniform(0.03, 0.25)),
        b_charging=float(rng.uniform(0.0, 0.08)) if rng.random() > 0.3 else 0.0,
        rate_MVA=0.0,
        tap_ratio=tap,
        phase_shift=shift,
    )
