import csv
import gc
import importlib
import io
import random
import tracemalloc
import weakref
from array import array
from collections import deque
from dataclasses import fields, replace
from pathlib import Path

import pytest

from detnet5g import sim
from detnet5g.admission import NetworkState, _dependency_ranks
from detnet5g.errors import AdmissionMissing, ScenarioInvalid
from detnet5g.scenario import load_scenario, load_topology
from detnet5g.sim import (
    IN_FLIGHT,
    TRACE_COLUMNS,
    RunResult,
    _admit_flows,
    _build_flow_ctxs,
    _Engine,
    dejitter_summary,
    parse_us,
    read_trace,
    run,
    write_trace,
)
from detnet5g.topology import path_in_tree
import reference_engine
from conftest import canonical_scenario, certify, reordered_flows
from test_golden import ue_transit_doc
from test_reference_engine import end_doc, hyperperiod_doc, lag_doc
from test_sim_order import hops_doc


def scenario(mutate=None):
    doc = canonical_scenario()
    if mutate:
        mutate(doc)
    return load_scenario(doc)


def trace_text(result) -> str:
    """The CSV text of a run's trace rows, the header left out."""
    return "".join(result.trace_rows.text())


def trace_rows(result) -> list:
    """A run's trace rows as the csv module reads them back."""
    return list(csv.reader(io.StringIO(trace_text(result), newline="")))


def without_background(doc):
    doc["sim"]["sources"] = [s for s in doc["sim"]["sources"] if s["flow_id"] != "bg"]


def single_switch_doc():
    return {
        "schema_version": 1,
        "topology": {
            "switches": [{"id": "S1", "link_rate_Bps": 125_000,
                          "fwd_delay_us": [300] * 8, "port_buffer_B": 32_768}],
            "links": [],
            "hosts": [{"id": "A", "attach": "S1.1"}, {"id": "B", "attach": "S1.2"}],
        },
        "flows": [{
            "flow_id": "solo", "src": "A", "dst": "B", "rate_Bps": 12_500,
            "burst_B": 1_000, "max_pkt_B": 1_000, "deadline_us": 1_000_000,
            "critical": True,
            "source": {"mode": "periodic", "period_us": 80_000, "pkt_B": 1_000},
        }],
        "sim": {"duration_ms": 1_000, "seed": 3},
    }


class TestUncontendedAnalytic:
    def test_latency_is_serialization_plus_fwd_delay(self):
        result = run(load_scenario(single_switch_doc()))
        stats = result.report["flows"]["solo"]
        # 1000 B at 125 kB/s = 8000 us, plus 300 us forwarding delay
        assert stats["latency_us"]["min"] == 8_300.0
        assert stats["latency_us"]["max"] == 8_300.0
        assert stats["bound_violations"] == 0

    def test_greedy_source_is_conforming(self):
        doc = single_switch_doc()
        doc["flows"][0]["source"] = {"mode": "greedy_token_bucket", "pkt_B": 1_000,
                                     "burst_B": 1_000, "rate_Bps": 12_500}
        result = run(load_scenario(doc))
        stats = result.report["flows"]["solo"]
        assert stats["drops"] == {}  # the policer never fires on its own TSpec
        assert stats["bound_violations"] == 0

    def test_nonconforming_source_is_policed(self):
        doc = single_switch_doc()
        doc["flows"][0]["source"] = {"mode": "periodic", "period_us": 10_000,
                                     "pkt_B": 1_000}  # 100 kB/s against a 12.5 kB/s TSpec
        result = run(load_scenario(doc))
        stats = result.report["flows"]["solo"]
        assert stats["drops"].get("policer", 0) > 0
        assert stats["bound_violations"] == 0  # what passes the policer is conforming


class TestCanonical:
    def test_all_bounds_hold_across_seeds(self):
        scn = scenario(without_background)
        for seed in range(10):
            result = run(scn, seed=seed)
            assert result.report["violations"]["total"] == 0, seed
            orange = result.report["flows"]["orange"]
            assert orange["received"] > 0
            assert orange["latency_us"]["max"] <= orange["e2e_bound_us"]

    def test_background_degrades_best_effort_not_critical(self):
        quiet = run(scenario(without_background))
        noisy = run(scenario())
        green_quiet = quiet.report["flows"]["green"]["latency_us"]["max"]
        green_noisy = noisy.report["flows"]["green"]["latency_us"]["max"]
        orange_noisy = noisy.report["flows"]["orange"]
        assert green_noisy >= 2 * green_quiet
        assert orange_noisy["latency_us"]["max"] <= orange_noisy["e2e_bound_us"]
        assert orange_noisy["dropped"] == 0
        assert noisy.report["violations"]["total"] == 0

    def test_conservation_and_order(self):
        result = run(scenario())
        for fid, stats in result.report["flows"].items():
            assert stats["sent"] == stats["received"] + stats["dropped"] + stats["in_flight"]
        assert reordered_flows(result) == []

    def test_per_hop_counts_every_hop_of_delivered_packets_only(self):
        # with zero per-hop bounds every finished hop overruns; only the
        # delivered packets of admitted flows count, so packets still in
        # flight at the end (the default duration leaves some) add nothing
        scn = scenario()
        state, _ = _admit_flows(scn, "scenario")
        flows = _build_flow_ctxs(scn, state)
        for ctx in flows.values():
            if ctx.assignment is not None:
                ctx.assignment = replace(ctx.assignment, per_hop_bounds_us=(0,) * len(ctx.route))
        _Engine(state.topology, flows, scn.duration_ms, scn.seed).run()
        assert any(ctx.assignment and len(ctx.t_send) > delivered(ctx) for ctx in flows.values())
        for fid, ctx in flows.items():
            expected = delivered(ctx) * len(ctx.route) if ctx.assignment else 0
            assert ctx.violations["per_hop"] == expected, fid

    def test_transit_checked_against_the_assignments_own_contract(self):
        # the engine reads the UL contract admission handed out: with a zero
        # delay bound there, every delivered packet of the UE flow overruns it
        scn = scenario()
        state, _ = _admit_flows(scn, "scenario")
        flows = _build_flow_ctxs(scn, state)
        orange = flows["orange"]
        assert orange.assignment.ul.delay_bound_us > 0
        orange.assignment = replace(
            orange.assignment, ul=replace(orange.assignment.ul, delay_bound_us=0))
        _Engine(state.topology, flows, scn.duration_ms, scn.seed).run()
        assert delivered(orange) > 0
        assert orange.violations["transit"] == delivered(orange)

    def test_critical_rejection_raises(self):
        def impossible(doc):
            doc["flows"][0]["deadline_us"] = 1
        with pytest.raises(AdmissionMissing):
            run(scenario(impossible))


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        a = run(scenario(), seed=7)
        b = run(scenario(), seed=7)
        assert trace_text(a) == trace_text(b)
        assert a.report == b.report

    def test_different_seed_changes_phases(self):
        a = run(scenario(), seed=1)
        b = run(scenario(), seed=2)
        assert trace_text(a) != trace_text(b)

    def test_disabled_regulator_equals_off_run(self):
        # 'scenario' mode with dejitter flags false is the off-run identity
        a = run(scenario(without_background), dejitter="scenario")
        b = run(scenario(without_background), dejitter="off")
        assert trace_text(a) == trace_text(b)

    def test_rows_tied_on_send_time_are_ordered_by_flow_then_seq(self):
        doc = single_switch_doc()
        doc["topology"]["switches"][0].update(link_rate_Bps=125_000_000, port_buffer_B=1_000_000)
        timing = {"period_us": 2_000, "offset_us": 500, "pkt_B": 100}
        doc["sim"]["sources"] = [
            {"flow_id": "p2", "src": "A", "dst": "B", "mode": "periodic", **timing},
            {"flow_id": "burst", "src": "B", "dst": "A", "mode": "periodic",
             "count": 3, **timing},
            {"flow_id": "p1", "src": "A", "dst": "B", "mode": "periodic", **timing},
        ]
        rows = trace_rows(run(load_scenario(doc)))
        assert rows == sorted(rows, key=lambda row: (parse_us(row[3]), row[0], int(row[1])))
        senders = {}
        for row in rows:
            senders.setdefault(row[3], set()).add(row[0])
        assert any(len(flows) > 1 for flows in senders.values())

    def test_engine_is_freed_without_the_cycle_collector(self):
        scn = scenario()
        state, _ = _admit_flows(scn, "scenario")
        flows = _build_flow_ctxs(scn, state)
        gc.disable()
        try:
            engine = _Engine(state.topology, flows, scn.duration_ms, scn.seed)
            engine.run()
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()


def moved_flow_doc():
    """Two host flows on the canonical ring; admitting B moves A from VLAN 100 to 101."""
    doc = canonical_scenario()
    doc["topology"]["hosts"] = [{"id": host, "attach": port} for host, port in (
        ("A_src", "S1.4"), ("B_src", "S1.5"), ("D", "S3.3"), ("E", "S3.4"))]
    doc["flows"] = [
        {"flow_id": fid, "src": src, "dst": dst, "rate_Bps": rate, "burst_B": burst,
         "max_pkt_B": pkt, "deadline_us": deadline, "critical": True,
         "source": {"mode": "periodic", "period_us": period, "pkt_B": pkt}}
        for fid, src, dst, rate, burst, pkt, deadline, period in (
            ("A", "A_src", "E", 25_000, 5_000, 1_500, 500_000, 60_000),
            ("B", "B_src", "D", 12_500, 1_250, 1_250, 50_000, 100_000))
    ]
    doc["sim"] = {"duration_ms": 2_000}
    return doc


def delivered(ctx) -> int:
    """The packets of a flow delivered so far, read from its trace column."""
    return sum(t >= 0 for t in ctx.t_recv)


def treatment(doc, dejitter="scenario"):
    """The admitted state and the flow contexts a run of `doc` would simulate."""
    scn = load_scenario(doc)
    state, _ = _admit_flows(scn, dejitter)
    return state, _build_flow_ctxs(scn, state)


class TestFlowTreatment:
    """Class, VLAN, route, policer and regulator of each kind of simulated flow."""

    @pytest.mark.parametrize("dejitter", ["off", "on"])
    def test_admitted_ue_flow_follows_its_nwtt_rule(self, dejitter):
        state, flows = treatment(canonical_scenario(), dejitter)
        orange, assignment = flows["orange"], state.flows()["orange"]
        rule = state.nwtt_rule(assignment)
        assert orange.assignment == assignment
        assert orange.pcp == rule.pcp == assignment.priority_class > 0
        assert (orange.vlan_id, orange.route) == (assignment.vlan_id, assignment.hop_ports)
        assert orange.policer is None
        if dejitter == "on":
            assert orange.regulator.cfg == rule.regulator is not None
            assert orange.regulator.queue == deque()
        else:
            assert orange.regulator is None

    def test_moved_flow_is_simulated_where_the_registry_put_it(self):
        state, flows = treatment(moved_flow_doc())
        a, ctx = state.flows()["A"], flows["A"]
        tree = next(t for t in state.trees if t.vlan_id == 101)
        assert (a.vlan_id, ctx.vlan_id) == (101, 101)
        assert ctx.route == a.hop_ports == tuple(path_in_tree(state.topology, tree, "A_src", "E"))
        result = run(load_scenario(moved_flow_doc()))
        report = result.report["flows"]["A"]
        assert (report["vlan_id"], report["pcp"], report["bound_violations"]) == (101, 7, 0)
        assert result.report["violations"]["total"] == 0
        # the records stay those handed out at each acceptance: A's names VLAN 100
        first, second = result.decisions
        assert (first["flow_id"], first["vlan_id"], first["host_config"]["vlan_id"]) == (
            "A", 100, 100)
        assert second["reconfigured"] == ["A"]

    def test_extras_take_class_0_on_the_first_tree(self):
        state, flows = treatment(canonical_scenario(), "on")
        tree = state.trees[0]
        for fid in ("green", "bg"):  # a UE source, then a host source
            ctx = flows[fid]
            route = tuple(path_in_tree(state.topology, tree, ctx.source.src, ctx.source.dst))
            assert ctx.assignment is None and not ctx.critical
            assert (ctx.pcp, ctx.vlan_id, ctx.route) == (0, tree.vlan_id, route), fid
            assert ctx.policer is None and ctx.regulator is None, fid

    def test_admitted_host_flow_takes_its_class_and_a_policer(self):
        state, flows = treatment(ue_transit_doc())
        down, assignment = flows["down"], state.flows()["down"]
        assert down.critical
        assert down.pcp == assignment.priority_class > 0
        assert (down.vlan_id, down.route) == (assignment.vlan_id, assignment.hop_ports)
        policer = down.policer
        assert (policer.burst_B, policer.rate_Bps) == (1_500, 12_500)
        assert down.regulator is None

    def test_each_dejittered_flow_has_its_own_regulator(self):
        # its regulator bound is that of a flow alone in its queue
        doc = canonical_scenario()
        doc["flows"].append(dict(doc["flows"][0], flow_id="orange2", src="UE2"))
        _, flows = treatment(doc, "on")
        orange, orange2 = flows["orange"], flows["orange2"]
        assert orange.pcp == orange2.pcp > 0
        assert orange.regulator is not orange2.regulator
        assert orange.regulator.cfg == orange2.regulator.cfg is not None
        assert flows["green"].regulator is None


class TestDejitter:
    def test_regulator_collapses_jitter_and_adds_latency(self):
        scn = scenario(without_background)
        off, on = run(scn, dejitter="off"), run(scn, dejitter="on")
        summary = dejitter_summary(off, on)["flows"]["orange"]
        assert summary["jitter_on_us"] * 5 <= summary["jitter_off_us"]
        assert summary["min_latency_on_us"] > summary["min_latency_off_us"]
        assert on.report["violations"]["total"] == 0

    def test_inter_departure_spacing_visible_at_sink(self):
        on = run(scenario(without_background), dejitter="on")
        orange = on.report["flows"]["orange"]
        assert orange["jitter_us"] == 0.0  # steady backlog, perfectly paced

    def test_undersized_queue_reports_drops(self):
        def tiny_queue(doc):
            without_background(doc)
            doc["nwtt"]["dejitter"]["queue_cap_pkts"] = 1
            doc["nwtt"]["dejitter"]["hold_us"] = 50_000
        result = run(scenario(tiny_queue), dejitter="on")
        stats = result.report["flows"]["orange"]
        assert stats["drops"].get("regulator", 0) > 0
        assert stats["sent"] == stats["received"] + stats["dropped"] + stats["in_flight"]

    def test_summary_leaves_out_a_regulated_flow_the_off_run_rejected(self):
        # `b` is regulated with the regulator on; off, `a` is admitted first and
        # the ports the two share have no room left for `b`
        def b_from_ue(doc):
            doc["flows"] = [periodic_flow("a", "UE2", 60_000, 100, 80_000, 2_000),
                            periodic_flow("b", "UE1", 70_000, 1_500, 200_000, 30_000)]
            doc["sim"]["duration_ms"] = 200
        scn = scenario(b_from_ue)
        off, on = run(scn, dejitter="off"), run(scn, dejitter="on")
        assert [d["flow_id"] for d in on.decisions if "nwtt_config" in d] == ["b"]
        assert "b" not in off.report["flows"]
        assert dejitter_summary(off, on)["flows"] == {}

    def test_unknown_mode_raises(self):
        with pytest.raises(ScenarioInvalid) as exc:
            run(scenario(), dejitter="bogus")
        assert str(exc.value) == "dejitter mode must be scenario/on/off, got 'bogus'"


class TestDecisions:
    """`run` hands out the wire's response to each scenario flow, and nothing else."""

    @pytest.mark.parametrize("dejitter", ["off", "on"])
    def test_record_is_the_wire_response(self, dejitter):
        doc = canonical_scenario()
        scn = load_scenario(doc)
        [orange] = run(scn, dejitter=dejitter).decisions
        regulator = doc["nwtt"]["dejitter"] if dejitter == "on" else None
        if regulator is not None:  # the wire carries no `per_class`: each queue is per flow
            regulator = {k: v for k, v in regulator.items() if k != "per_class"}
        assert orange["nwtt_config"]["regulator"] == regulator
        state = NetworkState(scn.topology, class_count=scn.class_count,
                             default_regulator=scn.dejitter)
        request = {k: v for k, v in doc["flows"][0].items() if k not in ("critical", "source")}
        assert orange == state.handle_flow_request({**request, "dejitter": dejitter == "on"})

    def test_rejected_record_carries_reason_not_placement(self):
        def hopeless(doc):
            doc["flows"][0].update(critical=False, deadline_us=1)
        [orange] = run(scenario(hopeless)).decisions
        assert (orange["accepted"], orange["reason"]) == (False, "DeadlineInfeasible")
        assert orange["detail"] == "flow 'orange': bound at least 15200 us > deadline 1 us"
        assert not {"vlan_id", "pcp", "e2e_bound_us", "nwtt_config"} & set(orange)

    def test_result_keeps_no_registry(self):
        assert [f.name for f in fields(RunResult)] == ["decisions", "report", "trace_rows"]

    def test_summary_covers_the_regulated_flows_only(self):
        # `loop` leaves UE1 through the NW-TT; `down` is a host flow
        scn = load_scenario(ue_transit_doc())
        off, on = run(scn, dejitter="off"), run(scn, dejitter="on")
        assert [d["flow_id"] for d in on.decisions if "nwtt_config" in d] == ["loop"]
        assert list(dejitter_summary(off, on)["flows"]) == ["loop"]


class TestFiveGsegment:
    def test_ue_to_ue_flow(self):
        def ue_to_ue(doc):
            without_background(doc)
            doc["sim"]["sources"] = []
            doc["flows"] = [{
                "flow_id": "loop", "src": "UE1", "dst": "UE2", "rate_Bps": 12_500,
                "burst_B": 1_500, "max_pkt_B": 1_500, "deadline_us": 200_000,
                "critical": True,
                "source": {"mode": "periodic", "period_us": 120_000, "pkt_B": 1_500},
            }]
        result = run(scenario(ue_to_ue))
        stats = result.report["flows"]["loop"]
        assert stats["received"] > 0
        assert stats["bound_violations"] == 0

    def test_downlink_flow(self):
        def dl(doc):
            without_background(doc)
            doc["sim"]["sources"] = []
            doc["flows"] = [{
                "flow_id": "down", "src": "G", "dst": "UE2", "rate_Bps": 12_500,
                "burst_B": 1_500, "max_pkt_B": 1_500, "deadline_us": 200_000,
                "critical": True,
                "source": {"mode": "periodic", "period_us": 120_000, "pkt_B": 1_500},
            }]
        result = run(scenario(dl))
        stats = result.report["flows"]["down"]
        assert stats["received"] > 0
        assert stats["bound_violations"] == 0

    def test_transit_latency_within_contract_window(self):
        scn = scenario(without_background)
        result = run(scn)
        stats = result.report["flows"]["orange"]
        assert stats["violations"]["transit"] == 0
        assert stats["violations"]["transit_best"] == 0

    @pytest.mark.parametrize("mutate, fid, received", [
        (lambda doc: doc["flows"][0].update(  # two UL blocks at tbs_ul_B 1500
            burst_B=3_000, max_pkt_B=100, deadline_us=1_000_000,
            source={"mode": "periodic", "period_us": 10_000, "pkt_B": 100}), "orange", 199),
        (lambda doc: doc["flows"].append({  # two DL blocks at tbs_dl_B 3000
            "flow_id": "down", "src": "G", "dst": "UE2", "rate_Bps": 12_500,
            "burst_B": 6_000, "max_pkt_B": 100, "deadline_us": 1_000_000, "critical": True,
            "source": {"mode": "periodic", "period_us": 9_900, "pkt_B": 100}}), "down", 202),
    ], ids=["uplink", "downlink"])
    def test_best_case_is_one_block(self, mutate, fid, received):
        # the flow's burst takes two transport blocks, but each lone 100 B
        # packet drains in one: none beats the best case
        def two_block_burst(doc):
            doc["sim"]["duration_ms"] = 2_000
            mutate(doc)
        flow = run(scenario(two_block_burst), dejitter="off").report["flows"][fid]
        assert flow["received"] == received
        assert flow["violations"]["transit_best"] == 0

    def test_dl_delay_and_both_best_cases_are_checked(self, monkeypatch):
        # a zero DL delay bound makes every delivered DL packet overrun it, and
        # best cases past any latency of the run make every delivered packet
        # of a UE flow beat its UL or DL best case
        def with_downlink(doc):
            doc["sim"]["duration_ms"] = 1_000
            doc["flows"].append({
                "flow_id": "down", "src": "G", "dst": "UE2", "rate_Bps": 12_500,
                "burst_B": 1_500, "max_pkt_B": 1_500, "deadline_us": 200_000,
                "critical": True,
                "source": {"mode": "periodic", "period_us": 20_000, "pkt_B": 1_500},
            })

        limits_ns = sim._limits_ns
        late = 10**15

        def tightened(a):
            e2e, ul_delay, ul_best, ul_regulated, dl_delay, dl_best = limits_ns(a)
            return (e2e, ul_delay, ul_best if ul_best is None else late, ul_regulated,
                    dl_delay if dl_delay is None else 0, dl_best if dl_best is None else late)

        monkeypatch.setattr(sim, "_limits_ns", tightened)
        flows = run(scenario(with_downlink)).report["flows"]
        orange, down = flows["orange"], flows["down"]
        assert orange["received"] > 0 and down["received"] > 0
        assert orange["violations"]["transit"] == 0
        assert down["violations"]["transit"] == down["received"]
        assert orange["violations"]["transit_best"] == orange["received"]
        assert down["violations"]["transit_best"] == down["received"]


class TestWorkConservation:
    def test_saturated_port_moves_line_rate(self):
        doc = single_switch_doc()
        doc["flows"] = []
        doc["sim"]["sources"] = [{
            "flow_id": "hog", "src": "A", "dst": "B", "mode": "onoff_background",
            "pkt_B": 1_000, "rate_Bps": 200_000, "on_ms": 1_000, "off_ms": 1,
            "offset_us": 0,
        }]
        doc["sim"]["duration_ms"] = 1_000
        result = run(load_scenario(doc))
        stats = result.report["flows"]["hog"]
        moved = stats["received"] * 1_000
        # the 125 kB/s link must be busy essentially the whole second
        assert moved >= 125_000 * 0.95


class TestScaleRegistry:
    def test_scale_probe_registry_meets_its_bounds(self, monkeypatch):
        """A registry of scale-probe size, its flows chaining ports into cycles,
        simulated with every source greedy from t = 0: no bound is broken,
        and every packet's send and receive times are the reference engine's.

        The registry is admission's scale-probe recipe on a 6x6 grid: 2 hosts
        per switch, 12.5 MB/s links, 1 MiB buffers, 200 requests of 10 kB/s
        with burst = packet = 1,500 B, and the batch pass off.  The run
        re-admits the accepted flows in order, so it places them as the
        registry did.
        """
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        workloads = importlib.import_module("workloads")
        topology = workloads.grid_topology_doc(6, 6, link_rate_Bps=12_500_000, buffer_B=1 << 20,
                                               hosts_per_switch=2, ue_count=1)
        state = NetworkState(load_topology(topology), enable_reconfig=False)
        hosts = sorted(state.topology.hosts)
        rng = random.Random(1)
        flows = []
        for i in range(200):
            request = {"flow_id": f"f{i}", **dict(zip(("src", "dst"), rng.sample(hosts, 2))),
                       "rate_Bps": 10_000, "burst_B": 1_500, "max_pkt_B": 1_500,
                       "deadline_us": rng.randint(5_000, 100_000)}
            if state.handle_flow_request(request)["accepted"]:
                flows.append({**request, "critical": True, "source": {
                    "mode": "greedy_token_bucket", "pkt_B": 1_500, "burst_B": 1_500,
                    "rate_Bps": 10_000, "offset_us": 0}})
        assert len(flows) == 191
        _, cycles = _dependency_ranks(state._solver, sorted(state._solver.members))
        assert max(map(len, cycles)) > 40
        scn = load_scenario({
            "schema_version": 1,
            "topology": topology,
            "classes": {"count": 8, "best_effort_class": 0},
            "flows": flows,
            "sim": {"duration_ms": 2_000, "seed": 1, "sources": []},
        })
        result = run(scn)
        assert {ctx.source.flow_id: ctx.assignment
                for ctx in result.trace_rows.ctxs} == state.flows()
        assert result.report["violations"]["total"] == 0
        diffs = reference_engine.differences(reference_engine.engine_outcome(result),
                                             reference_engine.simulate(scn))
        assert not diffs, "engine and reference differ:\n" + "\n".join(diffs)
        certify(state.topology, state._solver)


def send_times_us(source: dict) -> list[float]:
    """`t_send_us` of every packet one unregistered source emits from A to B."""
    doc = single_switch_doc()
    doc["topology"]["switches"][0].update(link_rate_Bps=125_000_000, port_buffer_B=1_000_000)
    doc["flows"] = []
    doc["sim"] = {"duration_ms": 12, "sources": [
        {"flow_id": "src", "src": "A", "dst": "B", "pkt_B": 1_000, **source},
    ]}
    return [float(row[3]) for row in trace_rows(run(load_scenario(doc)))]


class TestSourceSchedules:
    ONOFF = {"mode": "onoff_background", "rate_Bps": 1_000_000, "on_ms": 3, "off_ms": 2}
    PERIODIC = {"period_us": 5_000, "offset_us": 1_000}

    def test_onoff_moves_a_window_end_emission_to_the_next_window(self):
        assert send_times_us(self.ONOFF) == [
            0, 1_000, 2_000, 5_000, 6_000, 7_000, 10_000, 11_000, 12_000,
        ]

    def test_onoff_starting_off(self):
        # an offset of `off_ms` starts the source with an off period
        assert send_times_us({**self.ONOFF, "offset_us": 2_000}) == [
            2_000, 3_000, 4_000, 7_000, 8_000, 9_000, 12_000,
        ]

    def test_onoff_windows_shift_by_the_offset(self):
        assert send_times_us({**self.ONOFF, "offset_us": 500}) == [
            500, 1_500, 2_500, 5_500, 6_500, 7_500, 10_500, 11_500,
        ]
        assert send_times_us({**self.ONOFF, "offset_us": 2_500}) == [
            2_500, 3_500, 4_500, 7_500, 8_500, 9_500,
        ]

    def test_greedy_sends_its_burst_then_paces_at_rate(self):
        greedy = {"mode": "greedy_token_bucket", "burst_B": 3_000, "rate_Bps": 200_000,
                  "offset_us": 500}
        assert send_times_us(greedy) == [500] * 3 + [5_500, 10_500]

    def test_burst_periodic(self):
        # a burst of packets each period is a periodic source with a count
        burst = {"mode": "periodic", "count": 2, **self.PERIODIC}
        assert send_times_us(burst) == [1_000] * 2 + [6_000] * 2 + [11_000] * 2

    def test_periodic_with_count(self):
        periodic = {"mode": "periodic", "count": 3, **self.PERIODIC}
        assert send_times_us(periodic) == [1_000] * 3 + [6_000] * 3 + [11_000] * 3


def odd_ids(doc):
    """Flow ids the CSV must quote (`,` and `"`), that carry `%` or are not ASCII."""
    doc["flows"][0]["flow_id"] = "o,range"
    doc["sim"]["sources"][0]["flow_id"] = 'q"x'
    doc["sim"]["sources"][1]["flow_id"] = "p%d"
    doc["sim"]["sources"].append(dict(doc["sim"]["sources"][0], flow_id="grün %s", src="G",
                                      dst="UE2"))


def tiny_regulator_queue(doc):
    doc["nwtt"]["dejitter"].update(queue_cap_pkts=1, hold_us=50_000)


def same_ns_senders(doc):
    """Twelve sources that each send at t = 0 and every 1 ms after: 401 packets
    each, every 12 of them in the same ns."""
    doc["sim"]["duration_ms"] = 400
    doc["sim"]["sources"] += [
        {"flow_id": f"tick{i:02d}", "src": "G" if i % 2 else "D", "dst": "D" if i % 2 else "G",
         "mode": "periodic", "period_us": 1_000, "pkt_B": 100, "offset_us": 0}
        for i in range(12)]


def same_ns_bursts(doc):
    """Four sources, listed against flow_id order, that each send 3 packets at
    t = 0 and every 10 ms after: 12 rows in each such ns, which the trace
    puts in flow_id order, each flow's in seq order."""
    doc["sim"]["duration_ms"] = 100
    doc["sim"]["sources"] += [
        {"flow_id": f"burst{i}", "src": "G" if i % 2 else "D", "dst": "D" if i % 2 else "G",
         "mode": "periodic", "period_us": 10_000, "pkt_B": 100, "count": 3, "offset_us": 0}
        for i in reversed(range(4))]


def periodic_flow(flow_id, src, rate_Bps, max_pkt_B, deadline_us, period_us) -> dict:
    """A non-critical flow from `src` to D with a 1,500 B burst that sends one
    `max_pkt_B` packet every `period_us`."""
    return {"flow_id": flow_id, "src": src, "dst": "D", "rate_Bps": rate_Bps, "burst_B": 1_500,
            "max_pkt_B": max_pkt_B, "deadline_us": deadline_us,
            "source": {"mode": "periodic", "period_us": period_us, "pkt_B": max_pkt_B}}


def split_admission(doc):
    """Flows `a` and `b` that the two dejitter modes admit apart, for 200 ms.
    With the regulator on, its delay puts `a` past its deadline and `b` is
    admitted; with it off, `a` is admitted, and S3.3 cannot carry orange,
    `a` and `b` together."""
    doc["flows"] += [periodic_flow("a", "UE2", 60_000, 100, 80_000, 2_000),
                     periodic_flow("b", "G", 55_000, 1_500, 200_000, 30_000)]
    doc["sim"]["duration_ms"] = 200


def silent_source(doc):
    doc["sim"]["sources"].append({"flow_id": "late", "src": "G", "dst": "D", "mode": "periodic",
                                  "period_us": 1_000, "pkt_B": 100, "offset_us": 10**9})


def no_packets(doc):
    for source in [doc["flows"][0]["source"], *doc["sim"]["sources"]]:
        source["offset_us"] = 10**9


def repeating(doc, duration_ms=200):
    """The canonical scenario without `bg` and with green every 10 ms, so
    every source and the UE slots repeat with H = 10 ms."""
    doc["sim"]["sources"] = [dict(doc["sim"]["sources"][0], period_us=10_000)]
    doc["sim"]["duration_ms"] = duration_ms


def repeating_odd_ids(doc):
    """`odd_ids` on a repeating run, green's copy from D standing in for `bg`."""
    repeating(doc)
    doc["sim"]["sources"].append(dict(doc["sim"]["sources"][0], src="D"))
    odd_ids(doc)


def repeating_same_ns_bursts(doc):
    """`same_ns_bursts` on a repeating run: 12 rows in one ns of each period."""
    same_ns_bursts(doc)
    doc["sim"]["sources"] = [source for source in doc["sim"]["sources"] if source["flow_id"] != "bg"]
    doc["sim"]["sources"][0]["period_us"] = 10_000


def sub_us_period_doc(duration_ms):
    """UE1 on a numerology-4 (62.5 us) `DDDSU` pattern, from `end_doc`, and
    two greedy sources of 100 B packets, UE1 -> B every 312.5 us and A -> C
    every 156.25 us: the hyperperiod is 312.5 us, so two periods make the
    least span of whole microseconds."""
    doc = end_doc(duration_ms, [])
    doc["topology"]["transit5g"].update(numerology=4, tdd_pattern="DDDSU")
    doc["sim"]["sources"] = [
        {"flow_id": fid, "src": src, "dst": dst, "mode": "greedy_token_bucket", "pkt_B": 100,
         "burst_B": 100, "rate_Bps": rate_Bps}
        for fid, src, dst, rate_Bps in (("up", "UE1", "B", 320_000), ("host", "A", "C", 640_000))]
    return doc


def copied_blocks(result):
    """The blocks of repeated periods the trace writes from one template, or
    None if the run did not jump."""
    rows = result.trace_rows
    return None if rows.repeat is None else rows.blocks()[2]


def unsettled_copies(result) -> bool:
    """Whether the last periods the run's jump copied hold packets in flight."""
    rep = result.trace_rows.repeat
    end_ns = result.report["duration_ms"] * 1_000_000
    return rep.settled < (end_ns + 1 - rep.start_ns) // rep.period_ns


def canonical_with(mutate):
    def make() -> dict:
        doc = canonical_scenario()
        mutate(doc)
        return doc
    return make


# every trace writer case, each under three window sizes
TRACE_WINDOWS = pytest.mark.parametrize("window_rows", [1, 5, sim.WINDOW_ROWS])
TRACE_CASES = pytest.mark.parametrize("make_doc, dejitter, check", [
    (canonical_with(odd_ids), "scenario",
     lambda r: {"o,range", 'q"x', "p%d", "grün %s"} <= set(r.report["flows"])),
    (lambda: hops_doc(3, 1, "DSUUD", True), "scenario",
     lambda r: r.report["flows"]["lo"]["drops"]["policer"] and r.report["flows"]["bulk"]["drops"]),
    (canonical_with(tiny_regulator_queue), "on",
     lambda r: r.report["flows"]["orange"]["drops"]["regulator"] > 0),
    (canonical_scenario, "scenario",
     lambda r: any(f["in_flight"] for f in r.report["flows"].values())),
    (canonical_with(same_ns_senders), "scenario",
     lambda r: r.report["flows"]["tick00"]["sent"] == 401),
    (canonical_with(same_ns_bursts), "scenario",
     lambda r: all(r.report["flows"][f"burst{i}"]["sent"] == 33 for i in range(4))),
    (canonical_with(silent_source), "scenario", lambda r: r.report["flows"]["late"]["sent"] == 0),
    (canonical_with(no_packets), "scenario",
     lambda r: not any(f["sent"] for f in r.report["flows"].values())),
    # runs that jump: every case but the last two writes a block from its template
    (lambda: hyperperiod_doc(random.Random(10)), "scenario",
     lambda r: copied_blocks(r) >= 1 and unsettled_copies(r)
     and all(r.report["flows"][f]["drops"] for f in ("bg", "greedy"))
     and any(f["in_flight"] for f in r.report["flows"].values())),
    (lambda: sub_us_period_doc(3), "scenario",
     lambda r: r.trace_rows.repeat.period_ns == 312_500 and copied_blocks(r) >= 1),
    (canonical_with(repeating_odd_ids), "scenario",
     lambda r: {"o,range", 'q"x', "p%d", "grün %s"} <= set(r.report["flows"])
     and copied_blocks(r) >= 1),
    (canonical_with(repeating_same_ns_bursts), "scenario",
     lambda r: all(r.report["flows"][f"burst{i}"]["sent"] == 33 for i in range(4))
     and copied_blocks(r) >= 1),
    # one period copied, in which a packet is in flight: fewer than two settle
    (lambda: sub_us_period_doc(1), "scenario",
     lambda r: r.trace_rows.repeat.settled < 2 and copied_blocks(r) == 0),
    # one period copied, and packets in flight three periods: none settles
    (lambda: lag_doc(55), "scenario",
     lambda r: r.trace_rows.repeat.settled == 0 and r.report["flows"]["up"]["in_flight"] == 3),
], ids=["odd-ids", "policer-and-port-drops", "regulator-drops", "in-flight",
        "same-ns-senders", "same-ns-bursts", "silent-flow", "no-packets",
        "jumped-drops-and-in-flight", "jumped-sub-us-period", "jumped-odd-ids",
        "jumped-same-ns-bursts", "jumped-no-block", "jumped-lag-past-the-end"])


class TestTraceWriter:
    """`write_trace` formats whole columns a window at a time; its bytes must be
    what the csv module writes for rows made from each flow's send and
    receive columns a packet at a time, and `read_trace` must read those
    columns back."""

    @staticmethod
    def reference_rows(result) -> list:
        """The trace's rows, each made from its flow's columns by itself and
        sorted by (t_send, flow_id, seq)."""
        def us(ns: int) -> str:
            return "%d.%03d" % divmod(ns, 1_000)

        rows = []
        for ctx in result.trace_rows.ctxs:
            fid, size_B = ctx.source.flow_id, ctx.source.params["pkt_B"]
            for seq, (s, r) in enumerate(zip(ctx.t_send, ctx.t_recv)):
                received = (us(r), us(r - s)) if r >= 0 else ("", "")
                rows.append((s, fid, seq, size_B, us(s), *received, int(r == sim.DROPPED)))
        rows.sort(key=lambda row: row[:3])
        return [row[1:] for row in rows]

    @staticmethod
    def reference_trace(path, rows: list):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\r\n")
            writer.writerow(TRACE_COLUMNS)
            writer.writerows(rows)

    @TRACE_WINDOWS
    @TRACE_CASES
    def test_bytes_equal_csv_module_rows(self, make_doc, dejitter, check, window_rows,
                                         tmp_path, monkeypatch):
        monkeypatch.setattr(sim, "WINDOW_ROWS", window_rows)
        result = run(load_scenario(make_doc()), dejitter=dejitter)
        assert check(result)
        rows = self.reference_rows(result)
        assert len(rows) == sum(flow["sent"] for flow in result.report["flows"].values())
        write_trace(tmp_path / "trace.csv", result.trace_rows)
        self.reference_trace(tmp_path / "reference.csv", rows)
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @TRACE_WINDOWS
    @TRACE_CASES
    def test_read_trace_returns_each_flows_columns(self, make_doc, dejitter, check, window_rows,
                                                   tmp_path, monkeypatch):
        # receive times `DROPPED` and `IN_FLIGHT` included: a silent flow has no rows
        monkeypatch.setattr(sim, "WINDOW_ROWS", window_rows)
        result = run(load_scenario(make_doc()), dejitter=dejitter)
        assert check(result)
        write_trace(tmp_path / "trace.csv", result.trace_rows)
        assert read_trace(tmp_path / "trace.csv") == {
            ctx.source.flow_id: (tuple(ctx.t_send), tuple(ctx.t_recv))
            for ctx in result.trace_rows.ctxs if ctx.t_send
        }

    def test_read_trace_puts_each_flows_rows_in_seq_order(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(",".join(TRACE_COLUMNS) + "\n"
                        "orange,1,25,3.000,,,1\n"
                        "green,0,25,2.000,,,0\n"
                        "orange,0,25,1.000,2.500,1.500,0\n")
        assert read_trace(path) == {"orange": ((1_000, 3_000), (2_500, sim.DROPPED)),
                                    "green": ((2_000,), (IN_FLIGHT,))}

    def test_write_trace_holds_a_window_not_the_trace(self, tmp_path):
        # 60 s of canonical: about 39k rows and 2 MB of CSV
        result = run(scenario(lambda doc: doc["sim"].update(duration_ms=60_000)))
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            write_trace(path, result.trace_rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 2_000_000
        assert peak < size / 4

    def test_write_trace_holds_a_block_not_the_repeated_trace(self, tmp_path):
        # 60 s of a run that repeats every 10 ms: about 36k rows and 1.9 MB
        # of CSV, nearly all of them in blocks written from one template
        result = run(scenario(lambda doc: repeating(doc, 60_000)))
        assert copied_blocks(result) >= 1
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            write_trace(path, result.trace_rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 1_800_000
        assert peak < size / 4


class TestPacketSummary:
    def test_equals_its_definition(self):
        # send time 0, a zero latency and receive times DROPPED and IN_FLIGHT,
        # from both a run's columns and `read_trace`'s tuples
        t_send = [0, 0, 5, 7, 7, 9, 12, 3_000, 3_000, 4_001]
        t_recv = [0, sim.DROPPED, 5, IN_FLIGHT, 1_007, sim.DROPPED, 2_500, IN_FLIGHT, 3_000, 4_500]
        # latencies 0, 0, 1_000, 2_488, 0 and 499 ns
        want = {"sent": 10, "received": 6, "dropped": 2, "jitter_us": 2.488,
                "latency_us": {"min": 0.0, "mean": round(3_987 / 6 / 1_000, 3),
                               "max": 2.488, "p99": 2.488}}
        assert sim.packet_summary(array("q", t_send), array("q", t_recv)) == want
        assert sim.packet_summary(tuple(t_send), tuple(t_recv)) == want

    @pytest.mark.parametrize("t_recv", [[], [IN_FLIGHT], [sim.DROPPED, IN_FLIGHT]])
    def test_no_delivery_has_no_latency(self, t_recv):
        t_send = [0] * len(t_recv)
        summary = sim.packet_summary(array("q", t_send), array("q", t_recv))
        assert summary == {"sent": len(t_recv), "received": 0, "dropped": t_recv.count(sim.DROPPED),
                           "latency_us": None, "jitter_us": None}
