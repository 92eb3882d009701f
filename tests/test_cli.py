import contextlib
import copy
import csv
import functools
import io
import json
import math
import operator
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from detnet5g import sim
from detnet5g.cli import main
from detnet5g.sim import TRACE_COLUMNS
from conftest import canonical_scenario, canonical_topology
from test_golden import ue_transit_doc
from test_reference_engine import random_5g_doc
from test_sim import canonical_with, split_admission, tiny_regulator_queue
from test_sim_order import dense_ue_doc, hops_doc

REPO = Path(__file__).resolve().parents[1]


TRACE_HEADER = ",".join(TRACE_COLUMNS)
# stderr of a command given the canonical fabric without its S3 links
SPLIT = "error: Disconnected: switch graph not connected: reached ['S1', 'S2']\n"


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


@pytest.fixture
def topo_file(tmp_path):
    return write_json(tmp_path / "topo.json", canonical_topology())


@pytest.fixture
def scenario_file(tmp_path):
    return write_json(tmp_path / "scenario.json", canonical_scenario())


def flows_doc(entries):
    return {"schema_version": 1, "flows": entries}


def grid_doc():
    """A 4x4 switch grid with hosts A and B at opposite corners: 100,352 spanning trees."""
    switches = [f"S{r}{c}" for r in range(4) for c in range(4)]
    return {
        "switches": [{"id": s, "link_rate_Bps": 125_000, "port_buffer_B": 64_000}
                     for s in switches],
        "links": [[f"S{r}{c}.1", f"S{r}{c + 1}.3"] for r in range(4) for c in range(3)]
                 + [[f"S{r}{c}.2", f"S{r + 1}{c}.4"] for r in range(3) for c in range(4)],
        "hosts": [{"id": "A", "attach": "S00.5"}, {"id": "B", "attach": "S33.5"}],
    }


def orange_request(**overrides):
    req = {"flow_id": "orange", "src": "UE1", "dst": "D", "rate_Bps": 12_500,
           "burst_B": 1_250, "max_pkt_B": 1_250, "deadline_us": 100_000,
           "critical": True}
    req.update(overrides)
    return req


def long_flow_id(doc):
    """Orange's id 140,000 characters long, over 200 ms (a 14 MB trace) in which
    every source sends, the background one starting on."""
    doc["flows"][0]["flow_id"] = "o" * 140_000
    doc["sim"]["duration_ms"] = 200
    del doc["sim"]["sources"][1]["offset_us"]


def line_break_flow_ids(doc):
    """Orange's id holds a `\\r` and green's a `\\r\\n`, over 200 ms in which every
    source sends, the background one starting on."""
    doc["flows"][0]["flow_id"] = "a\rb"
    doc["sim"]["sources"][0]["flow_id"] = "c\r\nd"
    doc["sim"]["duration_ms"] = 200
    del doc["sim"]["sources"][1]["offset_us"]


def forced_regulator_without_block(doc):
    """No `nwtt.dejitter` block, yet `--dejitter on`: the extra `run` options."""
    del doc["nwtt"]
    return ["--dejitter", "on"]


class TestTrees:
    def test_canonical_lists_three(self, topo_file, capsys):
        assert main(["trees", topo_file]) == 0
        out = capsys.readouterr().out
        assert "3 spanning tree(s)" in out
        assert "vlan 100" in out and "vlan 102" in out

    def test_line_topology_single_tree(self, tmp_path, capsys):
        doc = {
            "switches": [{"id": s, "link_rate_Bps": 125_000, "port_buffer_B": 1_000}
                         for s in ("S1", "S2")],
            "links": [["S1.1", "S2.1"]],
            "hosts": [],
        }
        path = write_json(tmp_path / "line.json", doc)
        assert main(["trees", path]) == 0
        assert "1 spanning tree(s)" in capsys.readouterr().out

    def test_disconnected_exits_one(self, tmp_path, capsys):
        doc = {
            "switches": [{"id": s, "link_rate_Bps": 125_000, "port_buffer_B": 1_000}
                         for s in ("S1", "S2")],
            "links": [],
            "hosts": [],
        }
        path = write_json(tmp_path / "disc.json", doc)
        assert main(["trees", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_cap_past_vlan_space_stops_at_vlan_4094(self, tmp_path, capsys):
        # tree 3,996 would get VLAN 4095; it used to end in a ValueError traceback
        topo = write_json(tmp_path / "grid.json", grid_doc())
        assert main(["trees", topo, "--cap", "5000"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].startswith("vlan 4094 tree 3994: ")
        assert lines[-1] == "3995 spanning tree(s) [truncated]"

    def test_json_output(self, topo_file, capsys):
        assert main(["trees", topo_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["trees"]) == 3
        assert doc["truncated"] is False

    def test_stdout_redirected_to_a_string(self, topo_file):
        # a caller embedding the CLI may put any text stream in stdout's
        # place, also one without `reconfigure`
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["trees", topo_file]) == 0
        assert "3 spanning tree(s)" in out.getvalue()
        assert "vlan 100" in out.getvalue() and "vlan 102" in out.getvalue()


class TestAdmit:
    def test_canonical_two_flows_accepted(self, topo_file, tmp_path, capsys):
        flows = write_json(tmp_path / "flows.json", flows_doc([
            orange_request(),
            {"flow_id": "blue", "src": "G", "dst": "D", "rate_Bps": 12_500,
             "burst_B": 1_500, "max_pkt_B": 1_500, "deadline_us": 200_000},
        ]))
        assert main(["admit", topo_file, flows, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [d["accepted"] for d in doc["decisions"]] == [True, True]
        assert doc["decisions"][0]["e2e_bound_us"] == 49_200

    def test_critical_infeasible_exits_two(self, topo_file, tmp_path):
        flows = write_json(tmp_path / "flows.json",
                           flows_doc([orange_request(deadline_us=1)]))
        assert main(["admit", topo_file, flows]) == 2

    def test_noncritical_infeasible_exits_zero(self, topo_file, tmp_path):
        flows = write_json(tmp_path / "flows.json",
                           flows_doc([orange_request(deadline_us=1, critical=False)]))
        assert main(["admit", topo_file, flows]) == 0

    def test_empty_flow_list_exits_zero(self, topo_file, tmp_path, capsys):
        flows = write_json(tmp_path / "flows.json", flows_doc([]))
        assert main(["admit", topo_file, flows, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["decisions"] == []

    def test_malformed_request_exits_one(self, topo_file, tmp_path):
        bad = orange_request()
        del bad["burst_B"]
        flows = write_json(tmp_path / "flows.json", flows_doc([bad]))
        assert main(["admit", topo_file, flows]) == 1

    @pytest.mark.parametrize("mode", [["--json"], []], ids=["json", "text"])
    @pytest.mark.parametrize("entry, message", [
        (1, "flows[1]: must be dict"),
        ({"flow_id": "x"}, "flows[1].src: must be str"),
        # a bad field of a critical entry exits 1, never 2 as a rejected critical flow
        (orange_request(flow_id="o2", burst_B=10),
         "flows[1].burst_B: must be at least max_pkt_B (1250)"),
        # the wire rejects these, and `run` fails them as file faults: so does `admit`
        (orange_request(), "flows[1].flow_id: duplicate flow id 'orange'"),
        (orange_request(flow_id="o2", dst="Mars"), "flows[1].dst: 'Mars' is not a host or a UE"),
        (orange_request(flow_id="x2", rate_Bps=-5), "flows[1].rate_Bps: must be positive"),
        # JSON allows a lone surrogate; `admit` used to accept the flow, `run` to crash on it
        (orange_request(flow_id="x\ud800"),
         "flows[1].flow_id: must not hold a lone surrogate: UTF-8 cannot encode it"),
    ], ids=["not-an-object", "missing-field", "critical-bad-value", "repeated-id",
            "unknown-endpoint", "negative-rate", "surrogate-id"])
    def test_flow_entry_error_names_file_and_index(self, entry, message, mode, topo_file,
                                                   tmp_path, capsys):
        flows = write_json(tmp_path / "flows.json", flows_doc([orange_request(), entry]))
        assert main(["admit", topo_file, flows, *mode]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flows}: {message}\n"
        # in either mode, the decision on the good entry before it is not printed either
        assert captured.out == ""

    def test_reconfiguration_named_on_the_accept_line(self, tmp_path, capsys):
        # the flows of test_admission's reconfiguration test, on its ring
        topo = canonical_topology()
        del topo["transit5g"]
        topo["hosts"] = [{"id": "A_src", "attach": "S1.4"}, {"id": "B_src", "attach": "S1.5"},
                         {"id": "D", "attach": "S3.3"}, {"id": "E", "attach": "S3.4"}]
        flows = write_json(tmp_path / "flows.json", flows_doc([
            {"flow_id": "A", "src": "A_src", "dst": "E", "rate_Bps": 25_000,
             "burst_B": 5_000, "max_pkt_B": 1_500, "deadline_us": 500_000},
            {"flow_id": "B", "src": "B_src", "dst": "D", "rate_Bps": 12_500,
             "burst_B": 1_250, "max_pkt_B": 1_250, "deadline_us": 50_000},
        ]))
        assert main(["admit", write_json(tmp_path / "topo.json", topo), flows]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("  ACCEPTED vlan=100 ")
        assert lines[3].startswith("  ACCEPTED vlan=100 ") and lines[3].endswith(" reconfigured=A")

    @pytest.mark.parametrize("flag, value, message", [
        ("critical", "false", "flows[0].critical: must be bool"),
        ("critical", 0, "flows[0].critical: must be bool"),
        ("dejitter", "no", "flows[0].dejitter: must be bool"),
        # an explicit null is a wrong type, not the default
        ("critical", None, "flows[0].critical: must be bool"),
        ("dejitter", None, "flows[0].dejitter: must be bool"),
    ], ids=["critical-str", "critical-int", "dejitter-str", "critical-null", "dejitter-null"])
    def test_non_boolean_flag_exits_one(self, flag, value, message, topo_file, tmp_path,
                                        capsys):
        flows = write_json(tmp_path / "flows.json",
                           flows_doc([orange_request(**{flag: value})]))
        assert main(["admit", topo_file, flows]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flows}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("doc, message", [
        ({"schema_versoin": 2, "flows": [], "flowz": [{"flow_id": "x"}]},
         "schema_versoin: unknown field"),
        ({"flows": [], "flowz": []}, "flowz: unknown field"),
        ({"schema_version": 99, "flows": [orange_request()]},
         "schema_version: unsupported version 99"),
        # JSON `true` and `1.0` compare equal to 1 in Python, but are not version 1
        ({"schema_version": True, "flows": [orange_request()]},
         "schema_version: unsupported version True"),
        ({"schema_version": 1.0, "flows": [orange_request()]},
         "schema_version: unsupported version 1.0"),
    ], ids=["misspelled-version", "unknown-key", "version-99", "version-true", "version-1.0"])
    def test_flows_file_header_exits_one(self, doc, message, topo_file, tmp_path, capsys):
        flows = write_json(tmp_path / "flows.json", doc)
        assert main(["admit", topo_file, flows]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {flows}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["trees", "admit"])
    def test_topology_version_99_exits_one(self, command, tmp_path, capsys):
        topo = canonical_topology()
        topo["schema_version"] = 99
        argv = [command, write_json(tmp_path / "topo.json", topo)]
        if command == "admit":
            argv.append(write_json(tmp_path / "flows.json", flows_doc([orange_request()])))
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: topology.schema_version: unsupported version 99\n"
        assert captured.out == ""

    def test_tree_truncation_noted_on_stderr(self, tmp_path, capsys):
        # a 4x4 grid has far more spanning trees than the default cap of 64
        topo = write_json(tmp_path / "grid.json", grid_doc())
        flows = write_json(tmp_path / "flows.json", flows_doc([orange_request(
            src="A", dst="B", burst_B=1_500, max_pkt_B=1_500, deadline_us=1_000_000)]))
        assert main(["admit", topo, flows]) == 0
        captured = capsys.readouterr()
        notes = captured.err.splitlines()
        assert len(notes) == 1 and notes[0].startswith("note: ") and "cap of 64" in notes[0]
        assert "ACCEPTED" in captured.out and "note" not in captured.out

    def test_untruncated_trees_no_note(self, topo_file, tmp_path, capsys):
        flows = write_json(tmp_path / "flows.json", flows_doc([orange_request()]))
        assert main(["admit", topo_file, flows]) == 0
        assert capsys.readouterr().err == ""


class TestRun:
    def test_writes_trace_and_report(self, scenario_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", scenario_file, "--out", str(out), "--seed", "5"]) == 0
        trace = out / "scenario_scenario_seed5_trace.csv"
        report = out / "scenario_scenario_seed5_report.json"
        assert trace.exists() and report.exists()
        doc = json.loads(report.read_text())
        assert doc["violations"]["total"] == 0
        orange = doc["flows"]["orange"]
        assert orange["e2e_bound_us"] is not None
        assert orange["latency_us"]["max"] <= orange["e2e_bound_us"]

    def test_repeat_seed_byte_identical(self, scenario_file, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", scenario_file, "--out", str(out_a), "--seed", "9"]) == 0
        assert main(["run", scenario_file, "--out", str(out_b), "--seed", "9"]) == 0
        name = "scenario_scenario_seed9_trace.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        report = "scenario_scenario_seed9_report.json"
        assert (out_a / report).read_bytes() == (out_b / report).read_bytes()

    def test_dejitter_both_writes_pair_and_summary(self, scenario_file, tmp_path):
        out = tmp_path / "out"
        assert main(["run", scenario_file, "--out", str(out), "--dejitter", "both"]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "scenario_off_seed1_report.json",
            "scenario_off_seed1_trace.csv",
            "scenario_on_seed1_report.json",
            "scenario_on_seed1_trace.csv",
            "scenario_seed1_dejitter_summary.json",
        ]
        summary = json.loads((out / "scenario_seed1_dejitter_summary.json").read_text())
        orange = summary["flows"]["orange"]
        assert orange["jitter_on_us"] * 5 <= orange["jitter_off_us"]
        assert orange["min_latency_on_us"] > orange["min_latency_off_us"]

    def test_dejitter_both_summarises_runs_that_admit_apart(self, tmp_path, capsys):
        doc = canonical_scenario()
        split_admission(doc)
        path = write_json(tmp_path / "split.json", doc)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--dejitter", "both"]) == 0
        captured = capsys.readouterr()
        assert "[off] a: sent=" in captured.out and "[on] b: sent=" in captured.out
        assert "[off] b:" not in captured.out and "[on] a:" not in captured.out
        summary = json.loads((out / "split_seed1_dejitter_summary.json").read_text())
        assert list(summary["flows"]) == ["orange"]

    def test_dejitter_both_without_block_simulates_nothing(self, tmp_path, capsys,
                                                          monkeypatch):
        doc = canonical_scenario()
        del doc["nwtt"]
        path = write_json(tmp_path / "no_block.json", doc)
        runs = []
        engine_run = sim._Engine.run

        def counted_run(engine):
            runs.append(None)
            return engine_run(engine)

        monkeypatch.setattr(sim._Engine, "run", counted_run)
        assert main(["run", path, "--out", str(tmp_path / "out"), "--dejitter", "both"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "dejitter forced on but scenario has no nwtt.dejitter block" in captured.err
        assert runs == []
        assert not (tmp_path / "out").exists()

    def test_invalid_scenario_exits_one(self, tmp_path, capsys):
        doc = canonical_scenario()
        del doc["topology"]["switches"]
        path = write_json(tmp_path / "broken.json", doc)
        assert main(["run", path]) == 1
        assert "switches" in capsys.readouterr().err

    def test_negative_source_offset_exits_one(self, tmp_path, capsys):
        doc = canonical_scenario()
        doc["sim"]["sources"][0]["offset_us"] = -700
        path = write_json(tmp_path / "early.json", doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sim.sources[0].offset_us: must be non-negative" in captured.err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mutate, message", [
        (lambda doc: doc["sim"]["sources"][0].update(count="3"),
         "sim.sources[0].count: must be an integer"),
        # a second UE1 used to replace the first's TBS, so orange was rejected (exit 2)
        (lambda doc: doc["topology"]["transit5g"]["ues"].append(
            {"id": "UE1", "tbs_ul_B": 10, "tbs_dl_B": 3_000}),
         "topology.transit5g.ues[2].id: duplicate node id 'UE1'"),
        # a source frame above its flow's max_pkt_B used to load and deliver nothing
        (lambda doc: doc["flows"][0]["source"].update(pkt_B=99_999),
         "flows[0].source.pkt_B: must not exceed max_pkt_B (25)"),
        # an unregistered 9 kB frame blocks admitted flows beyond their bounds
        (lambda doc: doc["sim"]["sources"][1].update(pkt_B=9_000),
         "sim.sources[1].pkt_B: must be at most 1500"),
        # a source that loops back to its host used to crash the simulator
        (lambda doc: doc["sim"]["sources"][0].update(src="G", dst="G"),
         "sim.sources[0].dst: must differ from src"),
        # a non-critical flow that admission rejects used to vanish from the run
        (lambda doc: doc["flows"][0].update(critical=False, dejitter=True, src="G"),
         "flows[0].dejitter: needs a UE source"),
        # a misspelled field used to load and be ignored: here, dejitter stayed off
        (lambda doc: doc["flows"][0].update(dejiter=True), "flows[0].dejiter: unknown field"),
        (lambda doc: doc["sim"]["sources"][0].update(ofset_us=5),
         "sim.sources[0].ofset_us: unknown field"),
        # these loaded with numerology 1 and with 8 classes
        (lambda doc: doc["topology"]["transit5g"].update(numerolgy=0),
         "topology.transit5g.numerolgy: unknown field"),
        (lambda doc: doc["topology"]["switches"][0].update(clas_count=4),
         "topology.switches[0].clas_count: unknown field"),
        # a source wrote a trace that `report` refused
        (lambda doc: doc["sim"]["sources"][0].update(flow_id=""),
         "sim.sources[0].flow_id: must be non-empty"),
        # admission rejected it as an invalid spec, so a non-critical flow vanished
        (lambda doc: doc["flows"][0].update(critical=False, flow_id=""),
         "flows[0].flow_id: must be non-empty"),
        # a lone surrogate, which JSON allows, ended the run in a UnicodeEncodeError
        # traceback: the source's seed string cannot be encoded, nor can the trace
        (lambda doc: doc["flows"][0].update(flow_id="x\ud800"),
         "flows[0].flow_id: must not hold a lone surrogate"),
        (lambda doc: doc["sim"]["sources"][0].update(flow_id="y\udfff"),
         "sim.sources[0].flow_id: must not hold a lone surrogate"),
        (forced_regulator_without_block,
         "error: dejitter forced on but scenario has no nwtt.dejitter block\n"),
        # two de-jittered flows sharing one queue broke their regulator bounds (exit 3)
        (lambda doc: doc["nwtt"]["dejitter"].update(per_class=True),
         "nwtt.dejitter.per_class: must be false: "
         "each de-jittered flow has its own regulator queue"),
    ], ids=["string-count", "duplicate-ue", "oversized-flow-packet", "oversized-extra-packet",
            "source-loop", "host-dejitter", "misspelled-flow-field", "misspelled-source-field",
            "misspelled-numerology", "misspelled-class-count", "empty-source-id", "empty-flow-id",
            "surrogate-flow-id", "surrogate-source-id", "forced-regulator-without-block",
            "shared-regulator-queue"])
    def test_invalid_field_exits_one_before_running(self, mutate, message, tmp_path, capsys):
        doc = canonical_scenario()
        options = mutate(doc) or []
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["run", path, "--out", str(tmp_path / "out"), *options]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not (tmp_path / "out").exists()

    def test_nwtt_match_collision_exits_one(self, tmp_path, capsys):
        doc = canonical_scenario()
        doc["flows"].append(dict(doc["flows"][0], flow_id="orange2"))
        path = write_json(tmp_path / "twin.json", doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "flows[1].dst" in err and "'orange'" in err
        assert not (tmp_path / "out").exists()

    def test_rejected_critical_exits_two(self, tmp_path):
        doc = canonical_scenario()
        doc["flows"][0]["deadline_us"] = 1
        path = write_json(tmp_path / "tight.json", doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 2

    def test_bound_violation_exits_three(self, tmp_path):
        # a UE source that floods far beyond its admitted TSpec is not policed
        # in the 5G segment, so the checker must flag it and exit 3
        doc = canonical_scenario()
        doc["flows"][0]["source"] = {"mode": "periodic", "period_us": 100, "pkt_B": 25}
        doc["sim"]["sources"] = []
        doc["sim"]["duration_ms"] = 500
        path = write_json(tmp_path / "flood.json", doc)
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 3

    def test_out_dir_from_environment(self, scenario_file, tmp_path, monkeypatch):
        out = tmp_path / "envout"
        monkeypatch.setenv("DETNET5G_OUT", str(out))
        assert main(["run", scenario_file, "--seed", "2"]) == 0
        assert (out / "scenario_scenario_seed2_trace.csv").exists()

    @pytest.mark.parametrize("mode, name", [
        ([], "scenario_scenario_seed1_trace.csv"),
        # the summary and the `off` run's files are written before this one fails
        (["--dejitter", "both"], "scenario_on_seed1_report.json"),
    ], ids=["trace", "last-report"])
    def test_unwritable_output_file_exits_one(self, mode, name, scenario_file, tmp_path,
                                              capsys):
        out = tmp_path / "out"
        blocked = out / name
        blocked.mkdir(parents=True)
        assert main(["run", scenario_file, "--out", str(out), *mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {blocked}: ")
        assert captured.err.count("\n") == 1


class TestReport:
    @pytest.mark.parametrize("doc, dejitter, seed, code", [
        (canonical_scenario(), "off", 4, 0),
        (canonical_scenario(), "on", 4, 0),
        (ue_transit_doc(), "scenario", 4, 0),
        (canonical_with(tiny_regulator_queue)(), "on", 4, 0),  # orange drops at the regulator
        # policer drops (lo), port buffer drops (bulk) and regulated UE traffic
        (hops_doc(3, 1, "DSUUD", True), "scenario", 4, 0),
        # hole (a) of ROADMAP item 1 shows as one backlog violation: exit 3
        (dense_ue_doc(), "scenario", 1, 3),
        # drops and 36 packets in flight at the end, UE ends both ways
        (random_5g_doc(random.Random(2)), "scenario", 4, 0),
        # a flow id past the csv module's default field limit of 131,072 characters
        (canonical_with(long_flow_id)(), "scenario", 1, 0),
        # flow ids the trace quotes, as they hold line breaks
        (canonical_with(line_break_flow_ids)(), "scenario", 1, 0),
    ], ids=["canonical-off", "canonical-on", "ue-transit", "regulator-drops", "hops-drops",
            "dense-ue", "random-5g", "long-flow-id", "line-break-flow-ids"])
    def test_resummarize_trace(self, doc, dejitter, seed, code, tmp_path, capsys):
        path = write_json(tmp_path / "scn.json", doc)
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out), "--seed", str(seed),
                     "--dejitter", dejitter]) == code
        capsys.readouterr()
        stem = f"scn_{dejitter}_seed{seed}"
        limit = csv.field_size_limit()
        assert main(["report", str(out / f"{stem}_trace.csv")]) == 0
        assert csv.field_size_limit() == limit  # `report` lifts it only while it reads
        summary = json.loads(capsys.readouterr().out)["flows"]
        report = json.loads((out / f"{stem}_report.json").read_text())["flows"]
        assert sorted(summary) == sorted(report)
        keys = ("sent", "received", "dropped", "latency_us", "jitter_us")
        for fid, flow in report.items():
            assert {k: summary[fid][k] for k in keys} == {k: flow[k] for k in keys}, fid

    def test_lost_rows_exit_one_unless_they_were_last(self, tmp_path, capsys):
        """A flow's rows read back only as seqs 0 to n-1: a lost row below its last
        seq exits 1 naming it, and a lost last row reads as one packet fewer."""
        path = write_json(tmp_path / "scn.json", canonical_scenario())
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 0
        rows = (tmp_path / "out" / "scn_scenario_seed1_trace.csv").read_text().splitlines(True)
        orange = [k for k, row in enumerate(rows) if row.startswith("orange,")]
        trace = tmp_path / "lost.csv"
        for lost, code, sent in ((orange[5], 1, None), (orange[-1], 0, len(orange) - 1)):
            trace.write_text("".join(rows[:lost] + rows[lost + 1:]))
            capsys.readouterr()
            assert main(["report", str(trace)]) == code
            captured = capsys.readouterr()
            if sent is None:
                assert rows[lost].startswith("orange,5,")
                assert captured.err == f"error: {trace}: flow 'orange' has no row for seq 5\n"
                assert captured.out == ""
            else:
                assert json.loads(captured.out)["flows"]["orange"]["sent"] == sent

    def test_malformed_latency_exits_one(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text("flow_id,seq,size_B,t_send_us,t_recv_us,latency_us,dropped\n"
                         "orange,0,25,1.000,2.500,1.500,0\n"
                         "orange,1,25,3.000,4.000,abc,0\n")
        assert main(["report", str(trace)]) == 1
        err = capsys.readouterr().err
        assert "trace.csv: line 3 column latency_us" in err and "'abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("header, row, message", [
        (TRACE_HEADER, "orange,1", "line 3: expected 7 fields"),
        (TRACE_HEADER, "orange,1,25,3.000,4.000,1.000,0,extra", "line 3: expected 7 fields"),
        (TRACE_HEADER, ",,,,,,", "line 3 column flow_id: empty"),
        (TRACE_HEADER, "x,0,100,0.000,1.000,1.000,7",
         "line 3 column dropped: expected 0 or 1, got '7'"),
        ("flow_id,seq,size_B,t_send_us,t_recv_us,latency_us,lost", "orange,1,25,3.000,,,1",
         "unexpected columns ['flow_id', 'seq', 'size_B', 't_send_us', 't_recv_us', "
         "'latency_us', 'lost']"),
        (TRACE_HEADER, "orange,abc,25,3.000,4.000,1.000,0",
         "line 3 column seq: expected an integer >= 0, got 'abc'"),
        (TRACE_HEADER, "orange,-5,25,3.000,4.000,1.000,0",
         "line 3 column seq: expected an integer >= 0, got '-5'"),
        (TRACE_HEADER, "orange,1.0,25,3.000,4.000,1.000,0",
         "line 3 column seq: expected an integer >= 0, got '1.0'"),
        (TRACE_HEADER, f"orange,{'9' * 5_000},25,3.000,4.000,1.000,0",
         "line 3 column seq: expected an integer >= 0, got '999"),
        (TRACE_HEADER, "orange,1,0,3.000,4.000,1.000,0",
         "line 3 column size_B: expected an integer >= 1, got '0'"),
        (TRACE_HEADER, "orange,1,-5,3.000,4.000,1.000,0",
         "line 3 column size_B: expected an integer >= 1, got '-5'"),
        (TRACE_HEADER, "orange,1,,3.000,4.000,1.000,0",
         "line 3 column size_B: expected an integer >= 1, got ''"),
        (TRACE_HEADER, "orange,0,25,3.000,4.000,1.000,0",
         "line 3 column seq: 0 repeats a packet of flow 'orange'"),
        (TRACE_HEADER, "orange,2,25,3.000,4.000,1.000,0", "flow 'orange' has no row for seq 1"),
        # Arabic-Indic digits: `str.isdigit` accepts them, the trace never holds them
        (TRACE_HEADER, "orange,1,25,\u0661.\u0660\u0660\u0660,,,1",
         "line 3 column t_send_us: expected microseconds with three decimals, "
         "got '\u0661.\u0660\u0660\u0660'"),
    ], ids=["short-row", "long-row", "empty-flow-id", "bad-dropped", "other-columns",
            "seq-not-a-number", "negative-seq", "fractional-seq", "seq-too-long", "zero-size", "negative-size",
            "empty-size", "repeated-seq", "missing-seq", "non-ascii-send-time"])
    def test_malformed_row_exits_one(self, header, row, message, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{header}\norange,0,25,1.000,2.500,1.500,0\n{row}\n")
        assert main(["report", str(trace)]) == 1
        err = capsys.readouterr().err
        assert f"trace.csv: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("row, message", [
        ("orange,1,25,3.000,4.000,1.000,1",
         "line 3 column dropped: 1, but the packet has a receive time"),
        ("orange,1,25,3.000,4.000,,0", "line 3 column latency_us: empty, but t_recv_us is set"),
        ("orange,1,25,3.000,,1.000,0", "line 3 column t_recv_us: empty, but latency_us is set"),
        ("orange,1,25,3.000,4.000,99.000,0",
         "line 3 column latency_us: 99.000 is not t_recv_us - t_send_us (4.000 - 3.000)"),
        ("orange,1,25,3.000,4.000,0.999,0",
         "line 3 column latency_us: 0.999 is not t_recv_us - t_send_us (4.000 - 3.000)"),
        ("orange,1,25,3.000,4.0,1.000,0", "line 3 column t_recv_us: expected microseconds"),
        ("orange,1,25,,,,1", "line 3 column t_send_us: expected microseconds"),
    ], ids=["dropped-with-latency", "receive-time-only", "latency-only", "latency-too-long",
            "latency-short-by-1ns", "bad-receive-time", "no-send-time"])
    def test_contradictory_row_exits_one(self, row, message, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{TRACE_HEADER}\norange,0,25,1.000,2.500,1.500,0\n{row}\n")
        assert main(["report", str(trace)]) == 1
        captured = capsys.readouterr()
        assert f"trace.csv: {message}" in captured.err
        assert captured.out == "" and "Traceback" not in captured.err

    def test_dropped_and_in_flight_rows_have_no_latency(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{TRACE_HEADER}\norange,0,25,1.000,2.500,1.500,0\n"
                         "orange,1,25,3.000,,,1\norange,2,25,5.000,,,0\n")
        assert main(["report", str(trace)]) == 0
        flow = json.loads(capsys.readouterr().out)["flows"]["orange"]
        assert (flow["sent"], flow["received"], flow["dropped"]) == (3, 1, 1)
        assert flow["latency_us"]["max"] == 1.5

    def test_one_seq_in_two_flows_is_two_packets(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{TRACE_HEADER}\norange,0,25,1.000,2.500,1.500,0\n"
                         "green,0,25,1.000,,,0\n")
        assert main(["report", str(trace)]) == 0
        flows = json.loads(capsys.readouterr().out)["flows"]
        assert [(f["sent"], f["received"]) for f in flows.values()] == [(1, 0), (1, 1)]

    def test_undecodable_row_past_the_first_read_exits_one(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        rows = "".join(f"orange,{seq},25,1.000,2.500,1.500,0\n" for seq in range(2_000))
        trace.write_bytes(b"flow_id,seq,size_B,t_send_us,t_recv_us,latency_us,dropped\n"
                          + rows.encode() + b"caf\xe9,0,25,1.000,2.500,1.500,0\n")
        assert main(["report", str(trace)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {trace}: ") and err.count("\n") == 1

    def test_missing_file_exits_one(self):
        assert main(["report", "/nonexistent/trace.csv"]) == 1

    def test_csv_error_names_its_line(self, tmp_path, capsys, monkeypatch):
        """A row the csv module refuses exits 1 naming its line: here a field past a
        lowered limit."""
        monkeypatch.setattr(sim, "TRACE_FIELD_LIMIT", 100)
        trace = tmp_path / "trace.csv"
        row = ",0,25,1.000,2.500,1.500,0\n"
        trace.write_text(f"{TRACE_HEADER}\norange{row}{'o' * 200}{row}")
        assert main(["report", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {trace}: line 3: "
                                "field larger than field limit (100)\n")


    def test_reader_closing_early_exits_one_without_traceback(self, tmp_path):
        """`report TRACE | head -c 300`: the CLI in its own process, its stdout a
        pipe whose reader stops after 300 bytes of a summary far longer."""
        path = write_json(tmp_path / "scn.json", canonical_with(long_flow_id)())
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        command = [sys.executable, "-m", "detnet5g.cli"]
        subprocess.run([*command, "run", path, "--out", str(out)], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        # the context closes both pipes, so no file is left open on a failure either
        with subprocess.Popen([*command, "report", str(out / "scn_scenario_seed1_trace.csv")],
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as report:
            assert len(report.stdout.read(300)) == 300
            report.stdout.close()
            err = report.stderr.read()
            assert report.wait() == 1
        assert err == b""


# a locale whose encoding is ASCII: no coercion to C.UTF-8 and no UTF-8 mode
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def cli_process(args, env) -> subprocess.CompletedProcess:
    """The CLI run in its own process with `env` over this one's environment,
    its stdout and stderr captured as bytes; PYTHONIOENCODING is left out, as it
    would set stdout's encoding whatever the locale."""
    base = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    return subprocess.run([sys.executable, "-m", "detnet5g.cli", *args], capture_output=True,
                          env={**base, "PYTHONPATH": str(REPO / "src"), **env})


class TestAsciiLocale:
    """Every file is UTF-8 and stdout escapes what its encoding cannot hold, so
    a non-ASCII flow id runs under an ASCII locale as under a UTF-8 one."""

    def test_run_and_report_read_and_write_utf8(self, tmp_path):
        doc = canonical_scenario()
        doc["flows"][0]["flow_id"] = "orangé"
        doc["sim"]["duration_ms"] = 200
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        outputs = []
        for name, env in (("utf8", {"PYTHONUTF8": "1"}), ("ascii", ASCII_LOCALE)):
            done = cli_process(["run", str(path), "--out", str(tmp_path / name)], env)
            assert (done.returncode, done.stderr) == (0, b""), done.stderr.decode()
            outputs.append([(tmp_path / name / f"scn_scenario_seed1_{kind}").read_bytes()
                            for kind in ("trace.csv", "report.json")])
        assert outputs[0] == outputs[1]
        assert b"\r\norang\xc3\xa9,0," in outputs[1][0]
        assert b"  [scenario] orang\\xe9: sent=" in done.stdout

        trace = tmp_path / "ascii" / "scn_scenario_seed1_trace.csv"
        done = cli_process(["report", str(trace)], ASCII_LOCALE)
        assert (done.returncode, done.stderr) == (0, b""), done.stderr.decode()
        assert "orangé" in json.loads(done.stdout)["flows"]

    def test_admit_text_escapes_a_non_ascii_id(self, tmp_path, topo_file):
        # the file escapes the id (`\u00e91`): only stdout meets the `é`
        flows = write_json(tmp_path / "flows.json", flows_doc([
            {"flow_id": "é1", "src": "G", "dst": "D", "rate_Bps": 1_000, "burst_B": 1_500,
             "max_pkt_B": 1_500, "deadline_us": 100_000}]))
        done = cli_process(["admit", topo_file, flows], ASCII_LOCALE)
        assert (done.returncode, done.stderr) == (0, b""), done.stderr.decode()
        assert done.stdout.startswith(b"request \\xe91: G -> D rate=1000B/s ")
        assert b"  ACCEPTED vlan=" in done.stdout


class TestUsageAndInput:
    @pytest.mark.parametrize("argv, code", [
        (["bogus"], 1),
        (["trees"], 1),
        (["trees", "TOPO", "--cap", "x"], 1),
        (["trees", "TOPO", "--cap", "0"], 1),
        (["trees", "TOPO", "--cap", "-1"], 1),
        (["--help"], 0),
        (["trees", "--help"], 0),
    ], ids=["unknown-command", "missing-positional", "non-int-cap", "zero-cap",
            "negative-cap", "help", "subcommand-help"])
    def test_usage_exit_code(self, argv, code, topo_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([topo_file if arg == "TOPO" else arg for arg in argv])
        assert exc.value.code == code

    @pytest.mark.parametrize("argv, message", [
        (["report", "DIR"], "DIR"),
        (["admit", "TOPO", "DIR"], "DIR"),
        (["report", "BINARY"], "BINARY"),
        (["trees", "BINARY"], "BINARY"),
        (["run", "BINARY"], "BINARY"),
        (["admit", "TOPO", "BINARY"], "BINARY"),
        # S3 has no link: the input reads, yet no VLAN tree spans the fabric
        (["trees", "SPLIT_TOPO"], SPLIT),
        (["admit", "SPLIT_TOPO", "FLOWS"], SPLIT),
        (["run", "SPLIT_SCENARIO"], SPLIT),
        # 200,000 nested arrays: past the JSON decoder's recursion limit
        (["trees", "DEEP"], "DEEP"),
        (["run", "DEEP"], "DEEP"),
        (["admit", "TOPO", "DEEP"], "DEEP"),
        # an integer of 5,000 digits: past Python's int-conversion limit
        (["trees", "BIG_INT"], "BIG_INT"),
        (["run", "BIG_INT"], "BIG_INT"),
        (["admit", "TOPO", "BIG_INT"], "BIG_INT"),
    ], ids=["report-dir", "admit-dir", "report-binary", "trees-binary", "run-binary",
            "admit-binary", "trees-disconnected", "admit-disconnected", "run-disconnected",
            "trees-deep", "run-deep", "admit-deep", "trees-big-int", "run-big-int",
            "admit-big-int"])
    def test_unreadable_input_exits_one(self, argv, message, topo_file, tmp_path, capsys):
        """Exit 1 with one `error:` line naming the input or its fault; a
        `message` that names a path placeholder stands for that path."""
        split = canonical_scenario()
        split["topology"]["links"] = [["S1.1", "S2.1"]]
        paths = {"TOPO": topo_file, "DIR": tmp_path / "inputs",
                 "BINARY": tmp_path / "latin1.json",
                 "SPLIT_TOPO": write_json(tmp_path / "split_topology.json", split["topology"]),
                 "SPLIT_SCENARIO": write_json(tmp_path / "split.json", split),
                 "FLOWS": REPO / "scenarios" / "canonical_flows.json",
                 "DEEP": tmp_path / "deep.json", "BIG_INT": tmp_path / "big_int.json"}
        paths["DIR"].mkdir()
        paths["DEEP"].write_text("[" * 200_000 + "]" * 200_000)
        paths["BIG_INT"].write_text('{"flows": [' + "9" * 5_000 + "]}")
        paths["BINARY"].write_bytes(b'{"name": "caf\xe9"}')
        assert main([str(paths.get(arg, arg)) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(paths.get(message, message)) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("env", [False, True], ids=["option", "environment"])
    def test_out_naming_a_file_exits_one(self, env, scenario_file, tmp_path, monkeypatch,
                                         capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["run", scenario_file]
        if env:
            monkeypatch.setenv("DETNET5G_OUT", str(taken))
        else:
            argv += ["--out", str(taken)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot create output directory {taken}: ")
        assert err.count("\n") == 1


# what each field becomes in turn in the single-field mutation tests:
# deleted, or each of the values
DELETED = object()
MUTANT_VALUES = [None, True, False, -1, 0, 1, 2**63, 10**30, 1.5, -0.5, math.nan, math.inf, "",
                 "x", "\ud800", "S1.99", "UE1", [], {}, [1], [[]]]


def field_paths(node, path=()):
    """The path of every field below `node`, containers included, as key and
    index tuples."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from field_paths(child, path + (key,))


def field_mutants(doc):
    """`(label, mutant)` for each field of `doc` deleted or set to each
    `MUTANT_VALUES` entry, one field at a time."""
    for *head, last in field_paths(doc):
        for value in (DELETED, *MUTANT_VALUES):
            mutant = copy.deepcopy(doc)
            parent = functools.reduce(operator.getitem, head, mutant)
            if value is DELETED:
                del parent[last]
            else:
                parent[last] = value
            yield f"{(*head, last)} = {'<deleted>' if value is DELETED else repr(value)}", mutant


class TestSingleFieldMutations:
    """Each request file and trace that one field's change makes of a valid
    one: the command exits 0, 1 or 2, and no exception escapes `main`."""

    def test_admit_request_file(self, topo_file, tmp_path, capsys):
        doc = json.loads((REPO / "scenarios" / "canonical_flows.json").read_text())
        path = tmp_path / "flows.json"
        runs = 0
        for label, mutant in field_mutants(doc):
            path.write_text(json.dumps(mutant))
            for mode in ([], ["--json"]):
                assert main(["admit", topo_file, str(path), *mode]) in (0, 1, 2), label
                capsys.readouterr()
                runs += 1
        assert runs == 2 * 20 * (1 + len(MUTANT_VALUES))

    def test_report_trace(self, tmp_path, capsys):
        doc = canonical_scenario()
        doc["sim"]["duration_ms"] = 100
        out = tmp_path / "out"
        assert main(["run", write_json(tmp_path / "scn.json", doc), "--out", str(out)]) == 0
        lines = (out / "scn_scenario_seed1_trace.csv").read_bytes().split(b"\r\n")[:-1]
        trace = tmp_path / "trace.csv"
        cases = {}
        # the header, the first and last rows and one between: each field
        # deleted or set to a value it must not hold
        for i in (0, 1, len(lines) // 2, len(lines) - 1):
            for column in range(len(TRACE_COLUMNS)):
                for value in (None, b"", b"x", b"-1", b"1.5", b"9" * 30):
                    fields = lines[i].split(b",")
                    if value is None:
                        del fields[column]
                    else:
                        fields[column] = value
                    cases[f"line {i} field {column} = {value!r}"] = b"".join(
                        line + b"\r\n" for line in lines[:i] + [b",".join(fields)] + lines[i + 1:])
        whole = b"".join(line + b"\r\n" for line in lines)
        cases.update({
            "binary": bytes(range(256)) * 4,
            "empty": b"",
            "header only": lines[0] + b"\r\n",
            "NUL": whole.replace(b",", b"\0", 20),
            "unterminated quote": whole + b'"orange,0,25\r\n',
            "LF only": whole.replace(b"\r\n", b"\n"),
        })
        assert len(cases) == 4 * 7 * 6 + 6
        for label, data in cases.items():
            trace.write_bytes(data)
            assert main(["report", str(trace)]) in (0, 1, 2), label
            capsys.readouterr()
        for path in (tmp_path, tmp_path / "missing.csv"):  # a directory, no file
            assert main(["report", str(path)]) == 1
