"""Static grid data model: buses, generators, branches, outages, islanding.

All quantities follow the usual mixed-unit convention of grid case data:
impedances and voltage bounds in per-unit, injections and loads in MW/Mvar
on the network's MVA base.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable


class BusKind(enum.Enum):
    """Power-flow bus classification."""

    SLACK = "slack"
    PV = "PV"
    PQ = "PQ"


@dataclass(frozen=True)
class Bus:
    """One electrical node.

    shunt_G is the MW consumed and shunt_B the Mvar injected by the fixed
    bus shunt at V = 1 pu; both scale with V^2 at solution voltage.
    """

    id: int
    kind: BusKind
    voltage_magnitude_setpoint: float = 1.0
    load_P: float = 0.0
    load_Q: float = 0.0
    shunt_G: float = 0.0
    shunt_B: float = 0.0
    v_min: float = 0.95
    v_max: float = 1.05
    base_kV: float = 1.0

    @property
    def has_shunt(self) -> bool:
        return self.shunt_G != 0.0 or self.shunt_B != 0.0


@dataclass(frozen=True)
class Generator:
    """One generating unit (or synchronous condenser) attached to a bus."""

    id: int
    bus: int
    P_out: float = 0.0
    Q_out: float = 0.0
    Q_min: float = float("-inf")
    Q_max: float = float("inf")
    P_min: float = 0.0
    P_max: float = float("inf")
    in_service: bool = True
    voltage_setpoint: float = 1.0


@dataclass(frozen=True)
class Branch:
    """Series branch (line or transformer) between two buses.

    tap_ratio follows case-file convention: 0 means "no off-nominal tap"
    and is read as 1.0 when assembling admittances. phase_shift is in
    degrees. rate_MVA of 0 means unlimited.
    """

    id: int
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charging: float = 0.0
    rate_MVA: float = 0.0
    tap_ratio: float = 0.0
    phase_shift: float = 0.0
    in_service: bool = True


@dataclass(frozen=True)
class Network:
    """Immutable grid snapshot; outages produce new values via apply_outage."""

    name: str
    base_MVA: float
    buses: tuple[Bus, ...]
    generators: tuple[Generator, ...]
    branches: tuple[Branch, ...]

    @cached_property
    def bus_by_id(self) -> dict[int, Bus]:
        return {b.id: b for b in self.buses}

    @cached_property
    def generator_by_id(self) -> dict[int, Generator]:
        return {g.id: g for g in self.generators}

    @cached_property
    def branch_by_id(self) -> dict[int, Branch]:
        return {br.id: br for br in self.branches}

    @cached_property
    def generators_by_bus(self) -> dict[int, tuple[Generator, ...]]:
        out: dict[int, list[Generator]] = {}
        for g in self.generators:
            out.setdefault(g.bus, []).append(g)
        return {k: tuple(v) for k, v in out.items()}

    @property
    def in_service_branches(self) -> tuple[Branch, ...]:
        return tuple(br for br in self.branches if br.in_service)

    @property
    def in_service_generators(self) -> tuple[Generator, ...]:
        return tuple(g for g in self.generators if g.in_service)

    @property
    def slack_buses(self) -> tuple[Bus, ...]:
        return tuple(b for b in self.buses if b.kind is BusKind.SLACK)


@dataclass(frozen=True)
class OutageSet:
    """Component ids removed together; cardinality is the contingency depth."""

    branch_ids: frozenset[int] = frozenset()
    generator_ids: frozenset[int] = frozenset()

    @property
    def size(self) -> int:
        return len(self.branch_ids) + len(self.generator_ids)

    @classmethod
    def of(cls, branches: Iterable[int] = (), generators: Iterable[int] = ()) -> "OutageSet":
        return cls(frozenset(branches), frozenset(generators))

    def tokens(self) -> tuple[str, ...]:
        """`branch:<id>` then `gen:<id>` labels, each in id order."""
        return tuple(
            [f"branch:{i}" for i in sorted(self.branch_ids)]
            + [f"gen:{i}" for i in sorted(self.generator_ids)]
        )


def validate(network: Network) -> list[str]:
    """Check all type invariants; returns one message per violation.

    Issues are data, not failures: an empty list means the network is
    well formed.
    """
    issues: list[str] = []
    if network.base_MVA <= 0:
        issues.append(f"base_MVA must be positive, got {network.base_MVA}")

    seen_buses: set[int] = set()
    for b in network.buses:
        if b.id in seen_buses:
            issues.append(f"duplicate bus id {b.id}")
        seen_buses.add(b.id)
        if b.id <= 0:
            issues.append(f"bus {b.id}: id must be a positive integer")
        if not b.v_min < b.v_max:
            issues.append(f"bus {b.id}: v_min {b.v_min} must be < v_max {b.v_max}")

    slack_ids = [b.id for b in network.slack_buses]
    if not slack_ids:
        issues.append("no slack bus")
    elif len(slack_ids) > 1:
        issues.append(f"more than one slack bus: {sorted(slack_ids)}")

    seen_gens: set[int] = set()
    for g in network.generators:
        if g.id in seen_gens:
            issues.append(f"duplicate generator id {g.id}")
        seen_gens.add(g.id)
        if g.bus not in seen_buses:
            issues.append(f"generator {g.id}: attached to unknown bus {g.bus}")
        if g.Q_min > g.Q_max:
            issues.append(f"generator {g.id}: Q_min {g.Q_min} > Q_max {g.Q_max}")
        if g.P_min > g.P_max:
            issues.append(f"generator {g.id}: P_min {g.P_min} > P_max {g.P_max}")

    seen_branches: set[int] = set()
    for br in network.branches:
        if br.id in seen_branches:
            issues.append(f"duplicate branch id {br.id}")
        seen_branches.add(br.id)
        if br.from_bus == br.to_bus:
            issues.append(f"branch {br.id}: from_bus equals to_bus ({br.from_bus})")
        for end in (br.from_bus, br.to_bus):
            if end not in seen_buses:
                issues.append(f"branch {br.id}: references unknown bus {end}")
        if br.in_service and br.x == 0.0:
            issues.append(f"branch {br.id}: in-service branch with x = 0")
        if br.r < 0.0:
            issues.append(f"branch {br.id}: negative resistance r = {br.r}")

    if not any(g.in_service for g in network.generators):
        issues.append("no in-service generator")
    return issues


def apply_outage(network: Network, outage: OutageSet) -> Network:
    """Return a copy with the listed branches/generators out of service.

    Elements are flagged, never deleted, so ids stay stable across
    contingencies. The input network is not modified.
    """
    for bid in outage.branch_ids:
        if bid not in network.branch_by_id:
            raise KeyError(f"unknown branch id {bid}")
    for gid in outage.generator_ids:
        if gid not in network.generator_by_id:
            raise KeyError(f"unknown generator id {gid}")
    branches = tuple(
        replace(br, in_service=False) if br.id in outage.branch_ids else br
        for br in network.branches
    )
    generators = tuple(
        replace(g, in_service=False) if g.id in outage.generator_ids else g
        for g in network.generators
    )
    return replace(network, branches=branches, generators=generators)


def connected_components(network: Network) -> tuple[frozenset[int], ...]:
    """Partition bus ids into islands over in-service branches.

    Islands are returned sorted by their smallest bus id, so the output
    is deterministic for a given network.
    """
    adjacency: dict[int, set[int]] = {b.id: set() for b in network.buses}
    for br in network.branches:
        if br.in_service:
            adjacency[br.from_bus].add(br.to_bus)
            adjacency[br.to_bus].add(br.from_bus)

    unvisited = set(adjacency)
    islands: list[frozenset[int]] = []
    while unvisited:
        seed = min(unvisited)
        stack = [seed]
        members: set[int] = set()
        while stack:
            node = stack.pop()
            if node in members:
                continue
            members.add(node)
            stack.extend(adjacency[node] - members)
        unvisited -= members
        islands.append(frozenset(members))
    islands.sort(key=min)
    return tuple(islands)
