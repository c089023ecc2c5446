"""Case parsing, error reporting, and serialization round-trips."""

import copy
import json

import pytest

from conftest import TWOBUS_PQ_TEXT
from ecogrid.caseio import (
    CaseFormatError,
    case_checksum,
    network_from_json,
    network_to_json,
    parse_case,
)
from ecogrid.cases import case_path
from ecogrid.model import BusKind


def test_minimal_two_bus_counts_and_fields():
    net = parse_case(TWOBUS_PQ_TEXT)
    assert (len(net.buses), len(net.generators), len(net.branches)) == (2, 1, 1)
    assert net.bus_by_id[1].kind is BusKind.SLACK
    assert net.bus_by_id[2].kind is BusKind.PQ
    assert net.bus_by_id[2].load_P == 100.0
    assert net.branches[0].x == 0.1
    assert net.generators[0].Q_max == 300.0
    assert net.name == "twobus_pq"


def test_ieee24_row_counts_match_the_file():
    text = case_path("ieee24_rts").read_text()
    # count the data rows directly before parsing
    blocks = {}
    current = None
    for line in text.splitlines():
        stripped = line.split("%")[0].strip()
        if stripped.startswith("mpc.") and "[" in stripped:
            current = stripped.split("=")[0].split(".")[1].strip()
            blocks[current] = 0
            continue
        if current:
            if "]" in stripped:
                current = None
            elif stripped:
                blocks[current] += 1
    net = parse_case(text)
    assert len(net.buses) == blocks["bus"] == 24
    assert len(net.generators) == blocks["gen"] == 33
    assert len(net.branches) == blocks["branch"] == 38
    # one synchronous condenser row: zero real capability, wide Q range
    condensers = [g for g in net.generators if g.P_max == 0.0]
    assert len(condensers) == 1 and condensers[0].bus == 14
    # the single shunt of the case: reactor at bus 6
    assert [b.id for b in net.buses if b.has_shunt] == [6]
    assert net.bus_by_id[6].shunt_B == -100.0


def test_dangling_branch_reference_is_an_error():
    text = TWOBUS_PQ_TEXT.replace(
        "1\t2\t0\t0.1", "1\t99\t0\t0.1"
    )
    with pytest.raises(CaseFormatError, match="unknown bus 99"):
        parse_case(text)


def test_duplicate_bus_id_is_an_error():
    text = TWOBUS_PQ_TEXT.replace(
        "2\t1\t100", "1\t1\t100"
    )
    with pytest.raises(CaseFormatError, match="duplicate bus id 1"):
        parse_case(text)


def test_no_slack_bus_is_an_error():
    text = TWOBUS_PQ_TEXT.replace("1\t3\t0", "1\t1\t0")
    with pytest.raises(CaseFormatError, match="no slack bus"):
        parse_case(text)


def test_syntax_error_carries_line_number():
    text = TWOBUS_PQ_TEXT.replace("0\t0.1", "0\tbogus")
    with pytest.raises(CaseFormatError, match=r"line \d+") as info:
        parse_case(text)
    assert info.value.line is not None
    assert "bogus" in text.splitlines()[info.value.line - 1]


def test_missing_table_is_an_error():
    text = "\n".join(
        ln for ln in TWOBUS_PQ_TEXT.splitlines() if "gen" not in ln
    )
    with pytest.raises(CaseFormatError, match="missing 'gen' table"):
        parse_case(text + "\n")


def test_inline_and_multi_row_table_syntax():
    text = (
        "mpc.baseMVA = 100;\n"
        "mpc.bus = [ 1 3 0 0 0 0 1 1.0 0 138 1 1.05 0.95; 2 1 10 2 0 0 1 1.0 0 138 1 1.05 0.95 ];\n"
        "mpc.gen = [ 1 10 0 30 -30 1.0 100 1 50 0 ];\n"
        "mpc.branch = [ 1 2 0.01 1e-1 0 0 0 0 0 0 1 ];\n"
    )
    net = parse_case(text, name="inline")
    assert (len(net.buses), len(net.generators), len(net.branches)) == (2, 1, 1)
    assert net.branches[0].x == 0.1


def test_cost_tables_and_comments_ignored():
    text = (
        TWOBUS_PQ_TEXT
        + "\n% appended cost data\nmpc.gencost = [\n\t2\t0\t0\t3\t0.01\t40\t0;\n];\n"
    )
    net = parse_case(text)
    assert len(net.generators) == 1


def test_json_round_trip_is_identity():
    for source in (TWOBUS_PQ_TEXT, case_path("ieee24_rts").read_text()):
        net = parse_case(source)
        assert network_from_json(network_to_json(net)) == net


def test_json_float_fields_take_ints_and_infinity():
    net = parse_case(TWOBUS_PQ_TEXT)
    data = json.loads(network_to_json(net))
    data["branches"][0]["x"] = 0
    data["generators"][0]["P_max"] = float("inf")
    loaded = network_from_json(json.dumps(data))
    assert loaded.branches[0].x == 0 and loaded.generators[0].P_max == float("inf")


def _json_variants():
    good = json.loads(network_to_json(parse_case(TWOBUS_PQ_TEXT)))
    unknown_kind = copy.deepcopy(good)
    unknown_kind["buses"][0]["kind"] = "swing"
    unknown_field = copy.deepcopy(good)
    unknown_field["generators"][0]["cost"] = 1.0
    missing_field = copy.deepcopy(good)
    del missing_field["branches"][0]["r"]
    missing_default = copy.deepcopy(good)
    del missing_default["buses"][1]["load_P"]

    def edited(key, field, value):
        bad = copy.deepcopy(good)
        bad[key][0][field] = value
        return json.dumps(bad)

    def top(field, value):
        return json.dumps({**good, field: value})

    return {
        "empty-object": "{}",
        "not-json": "mpc.baseMVA = 100;",
        "list": "[]",
        "unknown-kind": json.dumps(unknown_kind),
        "unknown-field": json.dumps(unknown_field),
        "missing-field": json.dumps(missing_field),
        "missing-defaulted-field": json.dumps(missing_default),
        "string-bus-id": edited("buses", "id", "x"),
        "null-branch-r": edited("branches", "r", None),
        "string-in-service": edited("generators", "in_service", "yes"),
        "bool-load": edited("buses", "load_P", True),
        "float-bus-id": edited("buses", "id", 1.5),
        "int-in-service": edited("branches", "in_service", 1),
        "string-base-mva": top("base_MVA", "x"),
        "null-base-mva": top("base_MVA", None),
        "bool-base-mva": top("base_MVA", True),
        "int-name": top("name", 5),
    }


@pytest.mark.parametrize("text", [pytest.param(t, id=n) for n, t in _json_variants().items()])
def test_malformed_network_json_is_a_case_format_error(text):
    with pytest.raises(CaseFormatError):
        network_from_json(text)


def _case_variants():
    """TWOBUS_PQ_TEXT with one id, type or bus cell replaced; each names its line."""
    lines = TWOBUS_PQ_TEXT.splitlines()

    def cell(line_no, column, value):
        edited = list(lines)
        cells = edited[line_no - 1].strip().rstrip(";").split("\t")
        cells[column] = value
        edited[line_no - 1] = "\t" + "\t".join(cells) + ";"
        return "\n".join(edited) + "\n", line_no

    return {
        "bus-id-inf": cell(4, 0, "inf"),
        "bus-id-nan": cell(5, 0, "nan"),
        "bus-id-fraction": cell(5, 0, "2.7"),
        "bus-type-inf": cell(4, 1, "Inf"),
        "gen-bus-inf": cell(8, 0, "inf"),
        "branch-from-bus-nan": cell(11, 0, "NaN"),
        "branch-to-bus-inf": cell(11, 1, "inf"),
    }


@pytest.mark.parametrize("text, line", [pytest.param(*v, id=n) for n, v in _case_variants().items()])
def test_non_integral_id_columns_are_case_format_errors(text, line):
    with pytest.raises(CaseFormatError, match="must be an integer") as info:
        parse_case(text)
    assert info.value.line == line


def test_checksum_is_stable_and_content_sensitive():
    text = case_path("ieee24_rts").read_text()
    assert case_checksum(text) == case_checksum(text)
    assert case_checksum(text) != case_checksum(text + " ")
