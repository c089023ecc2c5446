"""CLI surface: exit codes, output shapes, metadata, determinism."""

import json

import pytest

from conftest import TWOBUS_PQ_TEXT
from ecogrid import cli
from ecogrid.caseio import load_case
from ecogrid.cases import case_path
from ecogrid.cli import main
from ecogrid.contingency import survivability
from ecogrid.ecomatrix import import_matrix

IEEE24 = str(case_path("ieee24_rts"))
TWOBUS = str(case_path("twobus"))


@pytest.fixture
def twobus_file(tmp_path):
    p = tmp_path / "twobus_pq.m"
    p.write_text(TWOBUS_PQ_TEXT)
    return str(p)


@pytest.fixture
def sick_file(tmp_path):
    """Two-bus case whose load is too heavy for the power flow to converge."""
    p = tmp_path / "sick.m"
    p.write_text(TWOBUS_PQ_TEXT.replace("2\t1\t100", "2\t1\t9000"))
    return str(p)


@pytest.fixture
def unloaded_file(tmp_path):
    """Valid two-bus case without load: every flow, and so every eco matrix, is zero."""
    p = tmp_path / "unloaded.m"
    p.write_text(TWOBUS_PQ_TEXT.replace("2\t1\t100", "2\t1\t0"))
    return str(p)


class TestPf:
    def test_json_payload_and_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "pf.json"
        assert main(["pf", "--case", IEEE24, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["converged"] is True
        assert payload["iterations"] <= 10
        assert len(payload["bus_voltage"]) == 24
        assert len(payload["branch_flows"]) == 38
        md = payload["metadata"]
        assert md["tool"] == "ecogrid"
        assert len(md["case_sha256"]) == 64
        assert "conventions" in md

    def test_csv_and_network_dump(self, tmp_path):
        csv_path = tmp_path / "flows.csv"
        net_path = tmp_path / "net.json"
        code = main(
            ["pf", "--case", TWOBUS, "--csv", str(csv_path), "--dump-network", str(net_path),
             "--out", str(tmp_path / "pf.json")]
        )
        assert code == 0
        lines = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("branch,from_bus,to_bus")
        assert len(lines) == 2
        from ecogrid.caseio import network_from_json

        net = network_from_json(net_path.read_text())
        assert len(net.buses) == 2

    def test_divergence_exits_two(self, tmp_path, sick_file):
        assert main(["pf", "--case", sick_file, "--out", str(tmp_path / "x.json")]) == 2

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["pf", "--case", str(tmp_path / "nope.m")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_bad_case_exits_one_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.m"
        bad.write_text(TWOBUS_PQ_TEXT.replace("0\t0.1", "0\tzz"))
        assert main(["pf", "--case", str(bad)]) == 1
        assert "line" in capsys.readouterr().err


class TestReco:
    def test_single_json_fields(self, capsys):
        assert main(["reco", "--case", IEEE24, "--flow", "reactive", "--mode", "split"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (entry,) = payload["results"]
        for key in ("tstp", "asc", "dc", "ratio", "robustness"):
            assert key in entry
        assert entry["units"] == "Mvar"

    def test_all_emits_six_rows(self, capsys):
        assert main(["reco", "--case", IEEE24, "--all"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 6
        combos = {(r["flow"], r["mode"]) for r in payload["results"]}
        assert len(combos) == 6

    def test_csv_variant(self, capsys):
        assert main(["reco", "--case", IEEE24, "--all", "--csv"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "flow,mode,units,tstp,asc,dc,ratio,robustness"
        assert len(rows) == 7

    def test_requires_flow_and_mode_without_all(self, capsys):
        assert main(["reco", "--case", IEEE24]) == 1

    def test_json_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["reco", "--case", TWOBUS, "--all", "--json"])
        assert info.value.code == 2


class TestMatrixCommand:
    def test_export_is_reimportable(self, tmp_path):
        out = tmp_path / "matrix.csv"
        code = main(
            ["matrix", "--case", IEEE24, "--flow", "apparent", "--mode", "split",
             "--out", str(out)]
        )
        assert code == 0
        matrix = import_matrix(out.read_text())
        assert matrix.units == "MVA"
        assert matrix.values.shape == (61, 61)

    def test_metadata_comments_present(self, tmp_path):
        out = tmp_path / "matrix.csv"
        main(["matrix", "--case", TWOBUS, "--flow", "real", "--mode", "aggregate",
              "--out", str(out)])
        text = out.read_text()
        assert "# case_sha256:" in text
        assert "# convention loss_allocation:" in text


class TestStatsCommand:
    def test_csv_header_matches_table_layout(self, capsys):
        assert main(["stats", "--case", IEEE24]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert rows[0] == "case,Mean(pf),STD(pf),Mean(rf),STD(rf),Mean(MVA),STD(MVA)"
        values = rows[1].split(",")
        assert values[0] == "ieee24_rts"
        assert float(values[1]) == pytest.approx(117.19, rel=0.05)

    def test_json_variant(self, capsys):
        assert main(["stats", "--case", IEEE24, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cases"][0]["flow_stats"]["Mean(MVA)"] == pytest.approx(124.07, rel=0.05)


class TestContingencyCommand:
    def test_reports_are_byte_identical_across_runs_and_jobs(self, tmp_path):
        args = ["contingency", "--case", IEEE24, "--depth", "1", "--classes", "branch",
                "--seed", "7"]
        outs = []
        for tag, jobs in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / f"report_{tag}.json"
            assert main(args + ["--jobs", jobs, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_per_contingency_csv(self, tmp_path, twobus_file):
        csv_path = tmp_path / "per.csv"
        out = tmp_path / "r.json"
        assert main(["contingency", "--case", twobus_file, "--depth", "1",
                     "--classes", "branch,gen", "--out", str(out), "--csv", str(csv_path)]) == 0
        rows = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "depth,outage,status,violations,worst_violation"
        assert len(rows) == 3  # one branch + one generator
        payload = json.loads(out.read_text())
        depth1 = payload["survivability"]["depths"][0]
        assert depth1["total_contingencies"] == 2
        assert depth1["num_unsolved"] == 1  # losing the only unit
        assert depth1["num_violated_contingencies"] == 1  # shedding the load island

    def test_seed_and_metadata_recorded(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["contingency", "--case", IEEE24, "--depth", "1",
                     "--classes", "branch", "--seed", "11", "--cap", "10",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["metadata"]["seed"] == 11
        assert payload["metadata"]["cap"] == 10
        assert payload["survivability"]["depths"][0]["total_contingencies"] == 10

    def test_matches_library_survivability(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["contingency", "--case", IEEE24, "--classes", "gen,branch", "--depth", "1",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        network, _ = load_case(IEEE24)
        expected = survivability(network, 1, ("branch", "generator")).to_dict()
        assert payload["survivability"] == expected
        assert payload["metadata"]["classes"] == ["branch", "generator"]


class TestReportCommand:
    def test_multi_case_json(self, tmp_path, twobus_file, capsys):
        assert main(["report", "--case", IEEE24, "--case", twobus_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [c["case"] for c in payload["cases"]] == ["ieee24_rts", "twobus_pq"]
        assert len(payload["metadata"]["case_sha256"]) == 2

    def test_csv_with_survivability(self, tmp_path, capsys):
        assert main(["report", "--case", TWOBUS, "--format", "csv", "--depth", "1"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        header = rows[0].split(",")
        assert "violations" in header and "unsolved" in header


@pytest.mark.parametrize("command", ["stats", "report"])
def test_divergence_exits_one_with_error_line(command, sick_file, capsys):
    assert main([command, "--case", sick_file]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    pytest.param(["pf", "--case", TWOBUS, "--tol", "0"], "tolerance must be > 0", id="pf-tol-0"),
    pytest.param(["pf", "--case", TWOBUS, "--max-iter", "0"], "max_iterations must be >= 1",
                 id="pf-max-iter-0"),
    pytest.param(["contingency", "--case", TWOBUS, "--depth", "1", "--cap", "-1"],
                 "cap must be >= 1, got -1", id="contingency-cap-negative"),
    pytest.param(["contingency", "--case", TWOBUS, "--depth", "1", "--cap", "0"],
                 "cap must be >= 1, got 0", id="contingency-cap-zero"),
    pytest.param(["contingency", "--case", TWOBUS, "--depth", "1", "--classes", "foo"],
                 "unknown component class 'foo'", id="contingency-classes-foo"),
    pytest.param(["reco", "--case", "{unloaded}", "--all"], "all-zero matrix", id="reco-unloaded"),
    pytest.param(["stats", "--case", "{unloaded}"], "all-zero matrix", id="stats-unloaded"),
])
def test_data_errors_exit_one_with_error_line(argv, message, unloaded_file, capsys):
    assert main([a.format(unloaded=unloaded_file) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_programming_errors_are_not_reported_as_data_errors(monkeypatch):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "_cmd_reco", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["reco", "--case", TWOBUS, "--all"])
