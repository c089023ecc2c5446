"""Case-file ingestion (matrix-block grid-case format) and JSON round-trip.

The supported dialect is the common MATLAB-style case layout: a scalar
``mpc.baseMVA`` plus numeric ``mpc.bus``/``mpc.gen``/``mpc.branch`` tables.
Generator-cost tables and any other blocks are ignored.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, fields
from pathlib import Path

from .model import Branch, Bus, BusKind, Generator, Network

_BUS_KIND_BY_CODE = {1: BusKind.PQ, 2: BusKind.PV, 3: BusKind.SLACK, 4: BusKind.PQ}
_RECORD_TYPES = {"buses": Bus, "generators": Generator, "branches": Branch}
# JSON values accepted per annotated field type; a bool is never a number
_JSON_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str}

_BASE_RE = re.compile(r"^\s*(?:mpc\.)?baseMVA\s*=\s*([0-9eE.+-]+)\s*;?\s*$")
_TABLE_RE = re.compile(r"^\s*(?:mpc\.)?(\w+)\s*=\s*\[(.*)$")
_NAME_RE = re.compile(r"^\s*function\s+\w+\s*=\s*(\w+)")


class CaseFormatError(ValueError):
    """Raised for malformed case text; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _strip_comment(line: str) -> str:
    for marker in ("%", "//"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line


def _parse_rows(lines, start, numbers_needed):
    """Collect numeric rows until the closing ``];`` of a table block."""
    rows: list[tuple[list[float], int]] = []
    i = start
    while i < len(lines):
        raw = _strip_comment(lines[i])
        done = "]" in raw
        raw = raw.split("]")[0]
        for chunk in raw.split(";"):
            tokens = chunk.split()
            if not tokens:
                continue
            try:
                values = [float(t) for t in tokens]
            except ValueError as exc:
                raise CaseFormatError(f"non-numeric token in table row: {exc}", i + 1) from None
            if len(values) < numbers_needed:
                raise CaseFormatError(
                    f"table row has {len(values)} columns, expected at least {numbers_needed}",
                    i + 1,
                )
            rows.append((values, i + 1))
        if done:
            return rows, i + 1
        i += 1
    raise CaseFormatError("unterminated table (missing '];')", start)


def _integer(value: float, column: str, line: int) -> int:
    """An id, type or bus column as an int; NaN, inf and fractions are errors."""
    if not value.is_integer():
        raise CaseFormatError(f"{column} must be an integer, got {value!r}", line)
    return int(value)


def parse_case(text: str, name: str | None = None) -> Network:
    """Parse case text into a Network, preserving per-unit fields as read.

    Raises CaseFormatError (with a line number where possible) on syntax
    errors, duplicate bus ids, dangling references, or a missing slack bus.
    """
    lines = text.splitlines()
    base_mva: float | None = None
    tables: dict[str, list[tuple[list[float], int]]] = {}
    case_name = name

    i = 0
    while i < len(lines):
        line = _strip_comment(lines[i])
        if case_name is None:
            m = _NAME_RE.match(lines[i])
            if m:
                case_name = m.group(1)
        m = _BASE_RE.match(line)
        if m:
            base_mva = float(m.group(1))
            i += 1
            continue
        m = _TABLE_RE.match(line)
        if m and m.group(1) in ("bus", "gen", "branch"):
            kind = m.group(1)
            min_cols = {"bus": 13, "gen": 10, "branch": 11}[kind]
            # inline content after '[' belongs to the first row
            rest = m.group(2).strip()
            if rest:
                lines[i] = rest
                rows, i = _parse_rows(lines, i, min_cols)
            else:
                rows, i = _parse_rows(lines, i + 1, min_cols)
            tables[kind] = rows
            continue
        i += 1

    if base_mva is None:
        raise CaseFormatError("missing baseMVA declaration")
    for required in ("bus", "gen", "branch"):
        if required not in tables:
            raise CaseFormatError(f"missing '{required}' table")

    buses: list[Bus] = []
    seen: set[int] = set()
    for values, line_no in tables["bus"]:
        bus_id = _integer(values[0], "bus id", line_no)
        if bus_id in seen:
            raise CaseFormatError(f"duplicate bus id {bus_id}", line_no)
        seen.add(bus_id)
        code = _integer(values[1], f"bus {bus_id}: type code", line_no)
        if code not in _BUS_KIND_BY_CODE:
            raise CaseFormatError(f"bus {bus_id}: unknown bus type code {code}", line_no)
        buses.append(
            Bus(
                id=bus_id,
                kind=_BUS_KIND_BY_CODE[code],
                load_P=values[2],
                load_Q=values[3],
                shunt_G=values[4],
                shunt_B=values[5],
                voltage_magnitude_setpoint=values[7],
                base_kV=values[9],
                v_max=values[11],
                v_min=values[12],
            )
        )

    generators: list[Generator] = []
    for idx, (values, line_no) in enumerate(tables["gen"], start=1):
        bus_id = _integer(values[0], f"generator {idx}: bus", line_no)
        if bus_id not in seen:
            raise CaseFormatError(f"generator {idx}: references unknown bus {bus_id}", line_no)
        generators.append(
            Generator(
                id=idx,
                bus=bus_id,
                P_out=values[1],
                Q_out=values[2],
                Q_max=values[3],
                Q_min=values[4],
                voltage_setpoint=values[5],
                in_service=values[7] > 0,
                P_max=values[8],
                P_min=values[9],
            )
        )

    branches: list[Branch] = []
    for idx, (values, line_no) in enumerate(tables["branch"], start=1):
        f_bus = _integer(values[0], f"branch {idx}: from bus", line_no)
        t_bus = _integer(values[1], f"branch {idx}: to bus", line_no)
        for end in (f_bus, t_bus):
            if end not in seen:
                raise CaseFormatError(f"branch {idx}: references unknown bus {end}", line_no)
        branches.append(
            Branch(
                id=idx,
                from_bus=f_bus,
                to_bus=t_bus,
                r=values[2],
                x=values[3],
                b_charging=values[4],
                rate_MVA=values[5],
                tap_ratio=values[8],
                phase_shift=values[9],
                in_service=values[10] > 0,
            )
        )

    if not any(b.kind is BusKind.SLACK for b in buses):
        raise CaseFormatError("no slack bus in case")

    return Network(
        name=case_name or "case",
        base_MVA=base_mva,
        buses=tuple(buses),
        generators=tuple(generators),
        branches=tuple(branches),
    )


def load_case(path: str | Path) -> tuple[Network, str]:
    """Read a case file; returns (network, sha256 of the raw text)."""
    text = Path(path).read_text()
    return parse_case(text, name=Path(path).stem), case_checksum(text)


def case_checksum(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_record(record) -> dict:
    row = asdict(record)
    if isinstance(record, Bus):
        row["kind"] = record.kind.value
    return row


def _typed(owner: str, f, value):
    """value, if its JSON type fits the annotated type of field f."""
    kinds = _JSON_TYPES.get(f.type, object)
    if not isinstance(value, kinds) or isinstance(value, bool) != (f.type == "bool"):
        raise TypeError(f"{owner} field {f.name} must be {f.type}, got {value!r}")
    return value


def _record(cls, row) -> Bus | Generator | Branch:
    names = {f.name for f in fields(cls)}
    if not isinstance(row, dict) or row.keys() != names:
        raise TypeError(f"{cls.__name__} record needs exactly the fields {sorted(names)}")
    row = {f.name: _typed(cls.__name__, f, row[f.name]) for f in fields(cls)}
    if cls is Bus:
        row["kind"] = BusKind(row["kind"])
    return cls(**row)


def network_to_json(network: Network) -> str:
    """Canonical JSON rendering of a Network (field names match the model)."""
    payload = {"name": network.name, "base_MVA": network.base_MVA}
    for key in _RECORD_TYPES:
        payload[key] = [_json_record(r) for r in getattr(network, key)]
    return json.dumps(payload, sort_keys=True, indent=2)


def network_from_json(text: str) -> Network:
    """Inverse of network_to_json; raises CaseFormatError on malformed JSON."""
    try:
        data = json.loads(text)
        records = {key: tuple(_record(cls, row) for row in data[key])
                   for key, cls in _RECORD_TYPES.items()}
        head = {f.name: _typed("Network", f, data[f.name])
                for f in fields(Network) if f.name not in records}
        return Network(**head, **records)
    except KeyError as exc:
        raise CaseFormatError(f"network JSON lacks the key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise CaseFormatError(f"malformed network JSON: {exc}") from None
