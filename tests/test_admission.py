import copy
import heapq
import importlib
import math
import random
import re
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from detnet5g import admission
from detnet5g.admission import (
    FlowSpec,
    NetworkState,
    _Placement,
    _port_state,
    _SolverState,
    _Terms,
)
from detnet5g.calculus import (ClassAggregate, backlog_bound, hop_delay_bound, port_bounds,
                               propagate_burst)
from detnet5g import errors
from detnet5g.errors import (BufferExceeded, DeadlineInfeasible, ScenarioInvalid, UnknownFlow,
                             Unschedulable)
from detnet5g.nwtt import RegulatorConfig
from detnet5g.scenario import load_topology
from detnet5g.topology import PortId, SwitchProfile, Topology, make_link, path_in_tree
from detnet5g.transit5g import DOWNLINK, TddConfig, transit_contract

from conftest import (aggregates, certify, cold_aggregates, cold_solve, first_fit_only,
                      grid_topology, line_topology, ring_topology, snapshot)


def spec(fid="f1", src="UE1", dst="D", rate=12_500, burst=1_250, pkt=1_250,
         deadline=100_000, dejitter=False):
    return FlowSpec(flow_id=fid, src=src, dst=dst, rate_Bps=rate, burst_B=burst,
                    max_pkt_B=pkt, deadline_us=deadline, dejitter=dejitter)


def reconfig_topology():
    """Ring with two sources at S1 and two sinks at S3."""
    topo = ring_topology(with_transit=False)
    topo.hosts = {
        "A_src": PortId("S1", 4),
        "B_src": PortId("S1", 5),
        "D": PortId("S3", 3),
        "E": PortId("S3", 4),
    }
    return topo


class TestRegisterFlow:
    def test_demo_flow_accepted_with_pinned_bound(self, ring):
        state = NetworkState(ring)
        decision = state.register_flow(spec())
        assert decision.accepted
        a = decision.assignment
        assert a.priority_class == 7
        assert a.vlan_id == 100
        assert a.hop_ports == (PortId("S1", 2), PortId("S3", 3))
        assert a.per_hop_bounds_us == (22_000, 24_200)
        assert a.ul.delay_bound_us == 3_000
        assert a.dl is None
        assert a.regulator_bound_us == 0
        assert a.e2e_bound_us == 49_200

    def test_impossible_deadline_rejected_atomically(self, ring):
        state = NetworkState(ring)
        before = snapshot(state)
        decision = state.register_flow(spec(deadline=1))
        assert not decision.accepted
        assert decision.reason == "DeadlineInfeasible"
        assert snapshot(state) == before

    def test_unknown_endpoint_unreachable(self, ring):
        state = NetworkState(ring)
        decision = state.register_flow(spec(dst="nowhere"))
        assert (decision.accepted, decision.reason) == (False, "Unreachable")

    def test_duplicate_flow_id(self, ring):
        state = NetworkState(ring)
        assert state.register_flow(spec()).accepted
        dup = state.register_flow(spec())
        assert (dup.accepted, dup.reason) == (False, "InvalidSpec")

    # admission is the only check of a UE's TDD capacity: under DDDSU at mu=1
    # UE1's uplink carries 600,000 B/s and UE2's downlink 4,800,000 B/s
    UE_DIRECTIONS = [("UE1", "D", "uplink", "UE1", 600_000),
                     ("G", "UE2", "downlink", "UE2", 4_800_000)]

    @pytest.mark.parametrize("src, dst, name, ue, capacity", UE_DIRECTIONS,
                             ids=["uplink", "downlink"])
    def test_capacity_aggregated_per_ue(self, src, dst, name, ue, capacity):
        topo = ring_topology(profile=SwitchProfile(link_rate_Bps=10_000_000))
        state = NetworkState(topo)
        rate = capacity * 7 // 12  # one fits, two do not
        ok = state.register_flow(spec(fid="f1", src=src, dst=dst, rate=rate, burst=1_500,
                                      pkt=1_500))
        assert ok.accepted
        before = snapshot(state)
        over = state.register_flow(spec(fid="f2", src=src, dst=dst, rate=rate, burst=1_500,
                                        pkt=1_500))
        assert (over.accepted, over.reason, over.detail) == (
            False, "Unschedulable", f"aggregate {name} rate of {ue} exceeds TDD capacity")
        assert snapshot(state) == before

    @pytest.mark.parametrize("src, dst, name, ue, capacity", UE_DIRECTIONS,
                             ids=["uplink", "downlink"])
    def test_flow_alone_above_capacity(self, src, dst, name, ue, capacity):
        state = NetworkState(ring_topology(profile=SwitchProfile(link_rate_Bps=10_000_000)))
        at = state.register_flow(spec(fid="at", src=src, dst=dst, rate=capacity, burst=1_500,
                                      pkt=1_500))
        assert at.accepted
        state.remove_flow("at")
        before = snapshot(state)
        over = state.register_flow(spec(fid="over", src=src, dst=dst, rate=capacity + 1,
                                        burst=1_500, pkt=1_500))
        assert (over.accepted, over.reason, over.detail) == (
            False, "Unschedulable", f"aggregate {name} rate of {ue} exceeds TDD capacity")
        assert snapshot(state) == before

    @pytest.mark.parametrize("pattern, src, dst, name, ue", [
        ("DDDDD", "UE1", "D", "uplink", "UE1"),
        ("UUUUU", "G", "UE2", "downlink", "UE2"),
    ])
    def test_direction_without_usable_slot_named(self, ring, pattern, src, dst, name, ue):
        ring.transit.tdd = TddConfig(pattern, numerology_mu=1)
        state = NetworkState(ring)
        before = snapshot(state)
        decision = state.register_flow(spec(src=src, dst=dst))
        assert (decision.accepted, decision.reason) == (False, "Unschedulable")
        assert decision.detail == f"TDD pattern {pattern!r} has no usable {name} slot for {ue}"
        assert snapshot(state) == before

    def test_downlink_flow_uses_dl_transit_as_last_hop(self, ring):
        state = NetworkState(ring)
        decision = state.register_flow(spec(fid="dl", src="G", dst="UE2",
                                            burst=1_500, pkt=1_500))
        assert decision.accepted
        a = decision.assignment
        assert a.hop_ports[-1] == PortId("S1", 3)  # egress toward the NW-TT
        expected = transit_contract(ring.transit, "UE2", DOWNLINK, 1_500, 12_500)
        assert (a.ul, a.dl) == (None, expected)
        assert a.e2e_bound_us == sum(a.per_hop_bounds_us) + expected.delay_bound_us

    def test_contender_lands_on_disjoint_tree(self):
        topo = reconfig_topology()
        state = NetworkState(topo)
        first = state.register_flow(
            spec(fid="A", src="A_src", dst="E", rate=25_000, burst=5_000,
                 pkt=1_500, deadline=114_400))
        assert first.accepted
        assert first.assignment.e2e_bound_us == 114_400  # exactly at deadline
        second = state.register_flow(
            spec(fid="B", src="B_src", dst="D", rate=12_500, burst=1_250,
                 pkt=1_250, deadline=500_000))
        assert second.accepted
        # sharing S1.2 would push A past its deadline, so B detours via S2
        assert second.assignment.vlan_id == 101
        assert second.reconfigured == ()
        assert state.flows()["A"].vlan_id == first.assignment.vlan_id

    def test_reconfiguration_moves_existing_flow(self):
        topo = reconfig_topology()
        state = NetworkState(topo)
        a = state.register_flow(
            spec(fid="A", src="A_src", dst="E", rate=25_000, burst=5_000,
                 pkt=1_500, deadline=500_000))
        assert a.accepted
        assert a.assignment.vlan_id == 100
        b = state.register_flow(
            spec(fid="B", src="B_src", dst="D", rate=12_500, burst=1_250,
                 pkt=1_250, deadline=50_000))
        assert b.accepted
        assert b.reconfigured == ("A",)
        assert state.flows()["B"].vlan_id == 100
        assert state.flows()["A"].vlan_id == 101
        # every admitted flow still meets its deadline
        assert state.flows()["A"].e2e_bound_us <= 500_000
        assert state.flows()["B"].e2e_bound_us <= 50_000

    def test_reject_when_reconfiguration_disabled(self):
        topo = reconfig_topology()
        state = NetworkState(topo)
        first_fit_only(state)
        state.register_flow(spec(fid="A", src="A_src", dst="E", rate=25_000,
                                 burst=5_000, pkt=1_500, deadline=500_000))
        before = snapshot(state)
        b = state.register_flow(spec(fid="B", src="B_src", dst="D", rate=12_500,
                                     burst=1_250, pkt=1_250, deadline=50_000))
        assert not b.accepted
        assert b.reason == "DeadlineInfeasible"
        assert snapshot(state) == before

    def test_buffer_exceeded_reason(self):
        topo = ring_topology(
            with_transit=False,
            profile=SwitchProfile(link_rate_Bps=125_000, port_buffer_B=2_000),
        )
        topo.hosts = {"A": PortId("S1", 4), "D": PortId("S3", 3)}
        state = NetworkState(topo)
        decision = state.register_flow(
            spec(fid="big", src="A", dst="D", rate=12_500, burst=1_900,
                 pkt=1_500, deadline=10_000_000))
        assert not decision.accepted
        assert decision.reason == "BufferExceeded"

    def test_dejitter_adds_regulator_bound(self, ring):
        reg = RegulatorConfig(hold_us=5_000, release_period_us=2_000)
        state = NetworkState(ring, default_regulator=reg)
        plain = NetworkState(ring).register_flow(spec(burst=2_500, pkt=1_250))
        withreg = state.register_flow(spec(burst=2_500, pkt=1_250, dejitter=True))
        assert withreg.accepted
        a = withreg.assignment
        assert a.regulator_bound_us == 5_000 + (2 - 1) * 2_000
        assert a.e2e_bound_us == plain.assignment.e2e_bound_us + 7_000

    def test_dejitter_without_config_rejected(self, ring):
        state = NetworkState(ring)
        decision = state.register_flow(spec(dejitter=True))
        assert (decision.accepted, decision.reason) == (False, "InvalidSpec")


class TestRemoveFlow:
    def test_add_remove_roundtrip(self, ring):
        state = NetworkState(ring)
        before = snapshot(state)
        state.register_flow(spec())
        certify(ring, state._solver)
        state.remove_flow("f1")
        assert snapshot(state) == before

    def test_survivor_bound_shrinks(self, ring):
        state = NetworkState(ring)
        state.register_flow(spec(fid="f1"))
        state.register_flow(spec(fid="f2", src="UE2"))
        certify(ring, state._solver)
        with_both = state.flows()["f1"].e2e_bound_us
        state.remove_flow("f2")
        certify(ring, state._solver)
        assert state.flows()["f1"].e2e_bound_us <= with_both

    def test_unknown_flow(self, ring):
        state = NetworkState(ring)
        with pytest.raises(UnknownFlow):
            state.remove_flow("ghost")


class TestFlowRequests:
    def request(self, **overrides):
        base = {
            "flow_id": "f1", "src": "UE1", "dst": "D", "rate_Bps": 12_500,
            "burst_B": 1_250, "max_pkt_B": 1_250, "deadline_us": 100_000,
            "dejitter": False,
        }
        base.update(overrides)
        return base

    def test_wellformed_accepted_with_configs(self, ring):
        state = NetworkState(ring)
        response = state.handle_flow_request(self.request())
        assert response["accepted"] is True
        assert response["vlan_id"] == 100
        assert response["pcp"] == 7
        assert response["e2e_bound_us"] == 49_200
        assert response["nwtt_config"]["match"] == {"src": "UE1", "dst": "D"}
        assert response["reconfigured"] == []

    def test_host_flow_gets_policer_config(self, ring):
        state = NetworkState(ring)
        response = state.handle_flow_request(
            self.request(src="G", burst_B=1_500, max_pkt_B=1_500))
        assert response["accepted"] is True
        assert response["host_config"] == {
            "flow_id": "f1",
            "match": {"src": "G", "dst": "D"},
            "vlan_id": 100,
            "pcp": 7,
            "policer": {"burst_B": 1_500, "rate_Bps": 12_500},
        }

    @pytest.mark.parametrize("overrides, message", [
        ({"flow_id": ""}, "request.flow_id: must be non-empty"),
        ({"dst": "UE1"}, "request.dst: must differ from src"),
        ({"rate_Bps": 0}, "request.rate_Bps: must be positive"),
        ({"max_pkt_B": 0}, "request.max_pkt_B: must be positive"),
        ({"burst_B": 100}, "request.burst_B: must be at least max_pkt_B (1250)"),
        ({"deadline_us": 0}, "request.deadline_us: must be positive"),
        ({"burst_B": None}, "request.burst_B: must be an integer"),  # None: key deleted
        ({"rate_Bps": "fast"}, "request.rate_Bps: must be an integer"),
        # a misspelled flag must not go unread
        ({"dejitter": None, "dejiter": True}, "request.dejiter: unknown field"),
    ], ids=["empty-id", "same-ends", "zero-rate", "zero-max-pkt", "burst-below-max-pkt",
            "zero-deadline", "missing", "wrong-type", "unknown"])
    def test_bad_field_raises_at_its_path(self, ring, overrides, message):
        # a malformed request is an input error at its field path, never a reject
        state = NetworkState(ring, default_regulator=RegulatorConfig(5_000, 2_000))
        assert state.handle_flow_request(self.request(flow_id="f0"))["accepted"]
        before = snapshot(state)
        request = {k: v for k, v in self.request(**overrides).items() if v is not None}
        with pytest.raises(ScenarioInvalid, match=rf"^{re.escape(message)}$"):
            state.handle_flow_request(request)
        assert snapshot(state) == before

    @pytest.mark.parametrize("overrides, reason, detail", [
        ({}, "InvalidSpec", "flow id 'f1' already registered"),
        ({"flow_id": "f2", "src": "G", "burst_B": 1_500, "max_pkt_B": 1_500, "dejitter": True},
         "InvalidSpec", "de-jittering applies to 5G-sourced flows only"),
    ], ids=["duplicate-id", "host-dejitter"])
    def test_conflict_with_registry_or_network_is_reject(self, ring, overrides, reason,
                                                         detail):
        # a well-formed request the registry or the network cannot take
        state = NetworkState(ring, default_regulator=RegulatorConfig(5_000, 2_000))
        assert state.handle_flow_request(self.request())["accepted"]
        before = snapshot(state)
        response = state.handle_flow_request(self.request(**overrides))
        assert (response["accepted"], response["reason"], response["detail"]) == (
            False, reason, detail)
        assert snapshot(state) == before

    def test_unknown_destination_is_reject_not_error(self, ring):
        state = NetworkState(ring)
        response = state.handle_flow_request(self.request(dst="Z"))
        assert response["accepted"] is False
        assert response["reason"] == "Unreachable"


class TestNwttConfig:
    """The `nwtt_config` record of an accepted UE-sourced flow: its `nwtt_rule`, on the wire."""

    def test_admitted_ue_flow(self, ring):
        state = NetworkState(ring)
        cfg = state.handle_flow_request(asdict(spec()))["nwtt_config"]
        assert cfg["egress"] == "S1.3"
        assert cfg["vlan_id"] == 100
        assert cfg["pcp"] == 7

    def test_dejittered_flow_config_is_its_nwtt_rule(self, ring):
        reg = RegulatorConfig(hold_us=5_000, release_period_us=2_000)
        state = NetworkState(ring, default_regulator=reg)
        cfg = state.handle_flow_request(asdict(spec(dejitter=True)))["nwtt_config"]
        assert cfg == {
            "flow_id": "f1",
            "match": {"src": "UE1", "dst": "D"},
            "egress": "S1.3",
            "vlan_id": 100,
            "pcp": 7,
            "regulator": {"hold_us": 5_000, "release_period_us": 2_000,
                          "queue_cap_pkts": 64},
        }
        rule = state.nwtt_rule(state.flows()["f1"])
        assert rule.regulator == reg
        assert cfg == {
            "flow_id": rule.flow_id,
            "match": {"src": rule.src, "dst": rule.dst},
            "egress": str(rule.egress),
            "vlan_id": rule.vlan_id,
            "pcp": rule.pcp,
            "regulator": asdict(rule.regulator),
        }

    def test_two_ue_flows_two_rules(self, ring):
        state = NetworkState(ring)
        configs = [state.handle_flow_request(asdict(spec(fid=fid, src=src, dst=dst)))["nwtt_config"]
                   for fid, src, dst in (("f1", "UE1", "D"), ("f2", "UE2", "G"))]
        assert [c["match"] for c in configs] == [{"src": "UE1", "dst": "D"},
                                                 {"src": "UE2", "dst": "G"}]
        assert configs == [state.nwtt_rule(state.flows()[fid]).wire() for fid in ("f1", "f2")]


class TestResponse:
    """`response` renders an accepted flow's record from its `Decision` alone."""

    @staticmethod
    def moved():
        """A's request, decision and record; then B, whose batch pass moves A to VLAN 101."""
        state = NetworkState(reconfig_topology())
        spec_a = spec(fid="A", src="A_src", dst="E", rate=25_000, burst=5_000, pkt=1_500,
                      deadline=500_000)
        decision_a = state.register_flow(spec_a)
        record = state.response(spec_a, decision_a)
        assert record["vlan_id"] == record["host_config"]["vlan_id"] == 100
        b = state.register_flow(spec(fid="B", src="B_src", dst="D", rate=12_500, burst=1_250,
                                     pkt=1_250, deadline=50_000))
        assert b.reconfigured == ("A",)
        assert state.flows()["A"].vlan_id == 101
        return state, spec_a, decision_a, record

    def test_record_outlives_a_move(self):
        state, spec_a, decision_a, record = self.moved()
        assert state.response(spec_a, decision_a) == record

    def test_record_outlives_a_removal(self):
        state, spec_a, decision_a, record = self.moved()
        state.remove_flow("A")
        assert state.response(spec_a, decision_a) == record


def make_ops(seed: int, count: int):
    """Deterministic register/remove op list, independent of any state."""
    rng = random.Random(seed)
    ops = []
    fids = []
    for i in range(count):
        if fids and rng.random() < 0.3:
            ops.append(("remove", rng.choice(fids)))
            continue
        fid = f"f{i}"
        fids.append(fid)
        src, dst = rng.sample(["UE1", "UE2", "D", "G"], 2)
        pkt = rng.choice([100, 500, 1_250, 1_500])
        ops.append(("register", FlowSpec(
            flow_id=fid, src=src, dst=dst,
            rate_Bps=rng.choice([1_000, 5_000, 12_500, 40_000]),
            burst_B=pkt * rng.randrange(1, 4), max_pkt_B=pkt,
            deadline_us=rng.choice([1_000, 60_000, 200_000, 2_000_000]))))
    return ops


def apply_op(state, op):
    if op[0] == "remove":
        try:
            state.remove_flow(op[1])
            return ("removed", op[1])
        except UnknownFlow:
            return ("unknown", op[1])
    decision = state.register_flow(op[1])
    return ("register", op[1].flow_id, decision.accepted, decision.reason,
            decision.assignment)


class TestStateInvariants:
    def test_atomicity_coherence_and_replay(self):
        rng = random.Random(1234)
        for _ in range(40):
            ops = make_ops(rng.randrange(1 << 30), 6)
            state = NetworkState(ring_topology())
            trail = []
            for op in ops:
                snap = snapshot(state)
                outcome = apply_op(state, op)
                trail.append(outcome)
                if outcome[0] == "register" and not outcome[2]:
                    assert snapshot(state) == snap  # reject is atomic
                assert aggregates(state) == cold_aggregates(state)
                for assignment in state.flows().values():
                    spec_d = assignment.spec
                    assert assignment.e2e_bound_us <= spec_d.deadline_us
            # replay from scratch: identical decisions and final state
            state2 = NetworkState(ring_topology())
            trail2 = [apply_op(state2, op) for op in ops]
            assert trail2 == trail
            assert snapshot(state2) == snapshot(state)


# what a failed trial raises, in the order that picks a reject's reason
TRIAL_FAILURES = (DeadlineInfeasible, BufferExceeded, Unschedulable)


def failure(exc):
    """A failed trial's (reason, detail), as a reject names them."""
    return type(exc).__name__, str(exc)


def full_order_search(state, spec):
    """Undeduplicated reference: every (class desc, tree asc) candidate in turn.

    Returns (first feasible placement and its solution, or None; the reasons
    dict, failure class name -> first detail, the search collects before that point).
    """
    reasons = {}
    for priority in range(state.class_count - 1, state.best_effort_class, -1):
        for tree in state.trees:
            hops = tuple(path_in_tree(state.topology, tree, spec.src, spec.dst))
            cand = _Placement(spec, priority, tree, hops, _Terms())
            try:
                solution = reference_trial(state.topology, state._solver, cand)
            except TRIAL_FAILURES as exc:
                reasons.setdefault(*failure(exc))
                continue
            return (cand, solution), reasons
    return None, reasons


class TestDeduplicatedSearch:
    def test_same_decisions_as_full_candidate_order(self, monkeypatch):
        topo = grid_topology()
        hosts = sorted(topo.hosts)
        outcomes = set()
        for seed in range(3):
            rng = random.Random(seed)
            # two classes keep the full-order reference (2 x 64 solves) cheap
            state = NetworkState(topo, class_count=3)
            first_fit_only(state)
            assert len(state.trees) == 64
            live = []
            for i in range(14):
                if live and rng.random() < 0.25:
                    state.remove_flow(live.pop(rng.randrange(len(live))))
                    continue
                dst = rng.choice(["H11", "H22"])  # shared last hops make contention
                src = rng.choice([h for h in hosts if h != dst])
                pkt = rng.choice([300, 1_000, 1_500])
                spec = FlowSpec(flow_id=f"f{i}", src=src, dst=dst,
                                rate_Bps=rng.choice([5_000, 10_000, 20_000]),
                                burst_B=pkt * rng.randrange(1, 3), max_pkt_B=pkt,
                                deadline_us=rng.choice([30_000, 60_000, 1_000_000]))

                terms = _Terms()  # no transit, no regulator
                calls = []
                with monkeypatch.context() as m:
                    m.setattr(admission, "path_in_tree",
                              lambda *args: calls.append(args) or path_in_tree(*args))
                    # a pair's first candidate walks one tree; its walk is kept
                    fresh = NetworkState(topo, trees=state.trees, class_count=3)
                    next(fresh._candidates(spec, terms))
                    assert len(calls) == 1
                    cands = [(c.priority, c.hops) for c in state._candidates(spec, terms)]
                    calls.clear()
                    assert [(c.priority, c.hops) for c in state._candidates(spec, terms)] == cands
                    assert calls == []
                assert len(cands) == len(set(cands)) < 2 * len(state.trees)
                expected, reasons = full_order_search(state, spec)

                decision = state.register_flow(spec)
                if expected is None:
                    outcomes.add("rejected")
                    assert not decision.accepted
                    reason = next(f.__name__ for f in TRIAL_FAILURES if f.__name__ in reasons)
                    assert (decision.reason, decision.detail) == (reason, reasons[reason])
                    continue
                cand, solution = expected
                outcomes.add(("class", cand.priority))
                a = decision.assignment
                assert decision.accepted
                assert (a.vlan_id, a.priority_class, a.e2e_bound_us, a.per_hop_bounds_us) == (
                    cand.tree.vlan_id, cand.priority, e2e_bounds(solution)[spec.flow_id],
                    solution.hop_bounds[spec.flow_id])
                live.append(spec.flow_id)
        # the sequences reach rejects and the lower class, not only first picks
        assert outcomes == {"rejected", ("class", 2), ("class", 1)}


def e2e_bounds(st):
    """Each flow's e2e bound in a solved state: its hop bounds plus its fixed terms."""
    return {fid: sum(bounds) + st.placements[fid].terms.fixed_us
            for fid, bounds in st.hop_bounds.items()}


def reference_round(topo, placements, bursts):
    """Every port's aggregates and `PortClassState`s, rebuilt from `bursts`."""
    raw = {}
    for fid in sorted(placements):
        pl = placements[fid]
        for i, port in enumerate(pl.hops):
            slot = raw.setdefault(port, {}).setdefault(pl.priority, [0, 0, 0])
            slot[0] += bursts[fid][i]
            slot[1] += pl.spec.rate_Bps
            slot[2] = max(slot[2], pl.spec.max_pkt_B)
    aggregates = {}
    states = {}
    for port, per_cls in raw.items():
        aggregates[port] = {cls: ClassAggregate(*slot) for cls, slot in per_cls.items()}
        states[port] = _port_state(topo.switches[port.node], aggregates[port])
    return aggregates, states


def reference_solve(topo, placements, start=None, checks=True):
    """The solve the incremental engine replaced, kept as the reference.

    Every round rebuilds every (port, class) aggregate from every flow's
    current bursts and bounds every flow from scratch.  The bursts start at
    `start` where it has the flow, else at the flow's spec burst.  Returns a
    `_SolverState` with the final bursts, bounds and aggregates.  With
    `checks` off, no deadline or buffer ends the rounds.
    """
    fids = sorted(placements)
    start = start or {}
    bursts = {
        fid: list(start.get(fid, [placements[fid].spec.burst_B] * len(placements[fid].hops)))
        for fid in fids
    }

    for _ in range(admission.SOLVER_ITER_CAP):
        aggregates, states = reference_round(topo, placements, bursts)
        delays = {}

        changed = False
        hop_bounds = {}
        for fid in fids:
            pl = placements[fid]
            bounds = []
            burst = pl.spec.burst_B
            for i, port in enumerate(pl.hops):
                delay = delays.get((port, pl.priority))
                if delay is None:
                    delay = hop_delay_bound(states[port], pl.priority)
                    delays[port, pl.priority] = delay
                bounds.append(delay)
                burst = propagate_burst(burst, pl.spec.rate_Bps, delay)
                if i + 1 < len(pl.hops) and bursts[fid][i + 1] != burst:
                    bursts[fid][i + 1] = burst
                    changed = True
            hop_bounds[fid] = tuple(bounds)
            total = sum(bounds) + pl.terms.fixed_us
            if checks and total > pl.spec.deadline_us:
                raise DeadlineInfeasible(
                    f"flow {fid!r}: bound {total} us > deadline {pl.spec.deadline_us} us")
        for port, classes in aggregates.items():
            buffer_B = topo.switches[port.node].port_buffer_B
            backlog = sum(backlog_bound(states[port], cls) for cls in classes)
            if checks and backlog > buffer_B:
                raise BufferExceeded(f"port {port}: backlog {backlog} B > buffer {buffer_B} B")

        if not changed:
            return _SolverState(placements=dict(placements), bursts=bursts,
                                hop_bounds=hop_bounds, aggregates=aggregates)
    raise Unschedulable("burst propagation found no fixed point")


def reference_trial(topo, base, pl):
    """The trial of adding `pl` to the solved `base`, rebuilt on `reference_solve`.

    First the round-one screen: the new flow's bound, hop by hop, over
    `base`'s aggregates plus the new flow at the burst its earlier hops
    carry it to (its spec burst at hop 0), failing at the first hop where
    it passes the deadline.  Then `reference_solve` started from `base`'s
    bursts and the new flow's carried ones.
    """
    spec = pl.spec
    placements = {**base.placements, spec.flow_id: pl}
    carried = [spec.burst_B] * len(pl.hops)
    start = {**base.bursts, spec.flow_id: carried}
    total = pl.terms.fixed_us
    for i, port in enumerate(pl.hops):
        _, states = reference_round(topo, placements, start)  # with the bursts carried so far
        delay = hop_delay_bound(states[port], pl.priority)
        total += delay
        if total > spec.deadline_us:
            raise DeadlineInfeasible(f"flow {spec.flow_id!r}: bound at least {total} us "
                                     f"> deadline {spec.deadline_us} us")
        if i + 1 < len(pl.hops):
            carried[i + 1] = propagate_burst(carried[i], spec.rate_Bps, delay)
    return reference_solve(topo, placements, start)


def use_reference_solver(m):
    """Route every trial and removal of a registry through the reference."""
    m.setattr(admission, "_add_flow", reference_trial)
    m.setattr(admission, "_drop_flow", lambda topo, base, flow_id: reference_solve(
        topo, {fid: pl for fid, pl in base.placements.items() if fid != flow_id}))


def oracle_spec(rng, fid, endpoints):
    """A request that is usually placeable, sometimes buffer- or rate-bound."""
    src, dst = rng.sample(endpoints, 2)
    kind = rng.random()
    if kind < 0.06:  # beyond every link's rate
        return FlowSpec(fid, src, dst, 200_000, 1_500, 1_500, 10_000_000)
    if kind < 0.12:  # a backlog beyond every port's buffer, any deadline met
        return FlowSpec(fid, src, dst, 2_000, 9_000, 1_500, 10_000_000)
    pkt = rng.choice([300, 1_000, 1_500])
    return FlowSpec(fid, src, dst, rng.choice([2_000, 5_000, 12_500, 25_000]),
                    pkt * rng.randrange(1, 4), pkt,
                    rng.choice([30_000, 60_000, 150_000, 1_000_000]))


def line_placements():
    """Three flows in two classes over the same 3 hops of a line (`line_topology`).

    Switch S<k> forwards class 0 in k us: the flows' bounds are those of
    the default profile, and a `PortClassState` names its hop by that delay.
    """
    topo = line_topology()
    for k in (1, 2, 3):
        topo.switches[f"S{k}"] = SwitchProfile(fwd_delay_us=(k,) + (0,) * 7)
    tree = NetworkState(topo).trees[0]
    hops = tuple(path_in_tree(topo, tree, "A", "B"))
    assert [port.node for port in hops] == ["S1", "S2", "S3"]
    placements = {
        fid: _Placement(FlowSpec(fid, "A", "B", rate, burst, 1_500, 10**9),
                        prio, tree, hops, _Terms())
        for fid, prio, rate, burst in (
            ("f1", 7, 12_500, 3_000),
            ("f2", 7, 25_000, 4_500),
            ("f3", 6, 5_000, 1_500),
        )
    }
    return topo, placements


def counted_port_bounds(monkeypatch):
    """Route `admission.port_bounds` through a recorder; returns the list of the
    hops (1-3 on `line_placements`) it bounds, in call order."""
    passes = []

    def recorded(state):
        passes.append(state.fwd_delay_us[0])
        return port_bounds(state)

    monkeypatch.setattr(admission, "port_bounds", recorded)
    return passes


def recorded_pops(monkeypatch):
    """Route `admission.heapq`'s pops through a recorder; returns the list of the
    ports that climbs pop, in pop order."""
    popped = []

    def recorded(heap):
        popped.append(heap[0][1])
        return heapq.heappop(heap)

    monkeypatch.setattr(admission, "heapq", SimpleNamespace(
        heapify=heapq.heapify, heappush=heapq.heappush, heappop=recorded))
    return popped


def ring5_placements(share):
    """Five flows on a five-switch ring, each over four ring ports in a row.

    Switch R<k> sends to R<k+1> from port 1 and hosts H<k> at port 3; flow
    f<k> goes from H<k> to H<k+4>, class 7, burst = packet = 1,500 B, at
    `share` of the link rate.  Each ring port carries four of the flows, at
    hop indices 0 to 3, so a burst raised at a port comes back to it around
    the ring.  Deadlines and buffers are 10**40: no check can end a climb
    that does not settle, only the cap can.
    """
    topo = Topology()
    profile = SwitchProfile(port_buffer_B=10**40)
    for k in range(5):
        topo.switches[f"R{k}"] = profile
        topo.hosts[f"H{k}"] = PortId(f"R{k}", 3)
        topo.links.add(make_link(PortId(f"R{k}", 1), PortId(f"R{(k + 1) % 5}", 2)))
    trees = NetworkState(topo).trees
    placements = {}
    for k in range(5):
        src, dst = f"H{k}", f"H{(k + 4) % 5}"
        hops = tuple(PortId(f"R{(k + j) % 5}", 1) for j in range(4)) + (topo.hosts[dst],)
        tree = next(t for t in trees if tuple(path_in_tree(topo, t, src, dst)) == hops)
        flow = FlowSpec(f"f{k}", src, dst, round(profile.link_rate_Bps * share), 1_500, 1_500,
                        10**40)
        placements[flow.flow_id] = _Placement(flow, 7, tree, hops, _Terms())
    return topo, placements


def ring_cycle_placements(tail=False):
    """Three flows on three trees of the ring chain their ports into a cycle, and x.

    a crosses S1.1 then S2.2, b S2.2 then S3.1 and c S3.1 then S1.1, so a
    burst raised at one of those ports comes back to it; x crosses S1.1 and
    S2.2 as a does.  With `tail`, switches P1 and P2 hang in a line off
    S1.5, t leaves the cycle at S3.1 for S1.5, P1.2 and P2.2, and u, from
    A, joins it at S1.5.
    """
    topo = ring_topology(with_transit=False)
    topo.hosts["A"] = PortId("S1", 4)
    if tail:
        topo.switches.update(P1=SwitchProfile(), P2=SwitchProfile())
        topo.links |= {make_link(PortId("S1", 5), PortId("P1", 1)),
                       make_link(PortId("P1", 2), PortId("P2", 1))}
        topo.hosts["E"] = PortId("P2", 2)
    trees = NetworkState(topo).trees

    def placed(fid, src, dst, route, rate, burst):
        hops = tuple(PortId.parse(port) for port in route.split())
        tree = next(t for t in trees if tuple(path_in_tree(topo, t, src, dst)) == hops)
        return fid, _Placement(FlowSpec(fid, src, dst, rate, burst, 1_500, 10**9),
                               7, tree, hops, _Terms())

    flows = [
        ("a", "A", "D", "S1.1 S2.2 S3.3", 12_500, 3_000),
        ("b", "G", "A", "S2.2 S3.1 S1.4", 10_000, 3_000),
        ("c", "D", "G", "S3.1 S1.1 S2.3", 15_000, 4_500),
        ("x", "A", "D", "S1.1 S2.2 S3.3", 25_000, 4_500),
    ]
    if tail:
        flows += [("t", "D", "E", "S3.1 S1.5 P1.2 P2.2", 5_000, 1_500),
                  ("u", "A", "E", "S1.5 P1.2 P2.2", 5_000, 1_500)]
    return topo, dict(placed(*flow) for flow in flows)


def assert_late_witness(monkeypatch, topo, decision, expected, trials):
    """`decision` differs from the reference's `expected` in a later-round witness only.

    The climb checks each bound as it grows, so where the reference's first
    breach comes after its round one, the climb may meet another flow's or
    another bound's breach first.  Its reject must still be the same, and
    the flow it names must miss its deadline with a bound no larger than
    that flow's bound at the reference's fixed point with the checks off.
    `trials` are the reference search's failed trials, as (base, placement,
    exception), in order.
    """
    assert replace(decision, detail=None) == replace(expected, detail=None)
    assert decision.reason == "DeadlineInfeasible"
    base, pl = next((base, pl) for base, pl, exc in trials if isinstance(exc, DeadlineInfeasible))
    with monkeypatch.context() as m:  # the reference's round one passes
        m.setattr(admission, "SOLVER_ITER_CAP", 1)
        with pytest.raises(Unschedulable, match="no fixed point"):
            reference_trial(topo, base, pl)
    fid, bound, deadline = re.fullmatch(
        r"flow '(\w+)': bound (\d+) us > deadline (\d+) us", decision.detail).groups()
    bound = int(bound)
    placements = {**base.placements, pl.spec.flow_id: pl}
    assert bound > int(deadline) == placements[fid].spec.deadline_us
    start = {**base.bursts, pl.spec.flow_id: [pl.spec.burst_B] * len(pl.hops)}
    try:
        unchecked = reference_solve(topo, placements, start, checks=False)
    except Unschedulable:  # no fixed point: any bound is below it
        return
    assert bound <= e2e_bounds(unchecked)[fid]


class TestIncrementalSolver:
    def test_cap_hits_match_reference(self, monkeypatch):
        """Three hops in a line, feed-forward: the climb pops each port once.

        The reference's rounds settle in round 3, so caps of 1 and 2 end
        them early.  The climb ends under those caps as it does under none:
        f1 misses its deadline at its final bound, and once f1's deadline
        is lifted the climb reaches the reference's fixed point.
        """
        topo = line_topology()
        tree = NetworkState(topo).trees[0]
        hops = tuple(path_in_tree(topo, tree, "A", "B"))
        assert len(hops) == 3
        placements = {
            fid: _Placement(FlowSpec(fid, "A", "B", rate, burst, 1_500, deadline),
                            prio, tree, hops, _Terms())
            for fid, prio, rate, burst, deadline in (
                ("f1", 7, 12_500, 3_000, 216_000),
                ("f2", 7, 25_000, 4_500, 10**9),
                ("f3", 6, 5_000, 1_500, 10**9),
            )
        }
        lifted = {**placements, "f1": _Placement(
            FlowSpec("f1", "A", "B", 12_500, 3_000, 1_500, 10**9), 7, tree, hops, _Terms())}
        reference = reference_solve(topo, lifted)
        assert e2e_bounds(reference)["f1"] == 287_280
        with pytest.raises(TRIAL_FAILURES) as exc:  # the rounds meet f1's breach in round 2
            reference_solve(topo, placements)
        assert failure(exc.value) == (
            "DeadlineInfeasible", "flow 'f1': bound 280800 us > deadline 216000 us")
        for cap in (1, 2, admission.SOLVER_ITER_CAP):
            monkeypatch.setattr(admission, "SOLVER_ITER_CAP", cap)
            with pytest.raises(TRIAL_FAILURES) as exc:
                cold_solve(topo, placements)
            assert failure(exc.value) == (
                "DeadlineInfeasible", "flow 'f1': bound 287280 us > deadline 216000 us")
            engine = cold_solve(topo, lifted)
            assert (engine.bursts, engine.hop_bounds, e2e_bounds(engine)) == (
                reference.bursts, reference.hop_bounds, e2e_bounds(reference))

    def test_accepted_add_bounds_nothing_twice(self, monkeypatch):
        """The screen's passes are the climb's first round; a port is re-bounded only
        after a burst there moved."""
        topo, placements = line_placements()
        new = placements.pop("f1")
        base = cold_solve(topo, placements)
        passes = counted_port_bounds(monkeypatch)
        st = admission._add_flow(topo, base, new)
        reference = reference_solve(topo, {**placements, "f1": new})
        assert (st.bursts, e2e_bounds(st)) == (reference.bursts, e2e_bounds(reference))
        certify(topo, st)
        # the 3 screen ports in hop order; hop 1 keeps its pass, and hops 2 and 3,
        # where f2's and f3's bursts moved, are re-bounded once each, upstream first
        assert passes == [1, 2, 3, 2, 3]

    def test_add_to_an_empty_registry_bounds_each_hop_once(self, monkeypatch):
        """Round one carries the new flow's burst along its path and the trial keeps
        its round-one bounds, so with no peer whose bound could move, the climb
        pops no port."""
        topo, placements = line_placements()
        new = placements["f1"]
        passes = counted_port_bounds(monkeypatch)
        popped = recorded_pops(monkeypatch)
        st = admission._add_flow(topo, _SolverState(), new)
        reference = reference_solve(topo, {"f1": new})
        assert (st.bursts, st.hop_bounds) == (reference.bursts, reference.hop_bounds)
        certify(topo, st)
        assert passes == [1, 2, 3]
        assert popped == []

    def test_add_below_every_peer_pops_nothing(self, monkeypatch):
        """A new flow in a lower class than every peer, with a largest packet no larger
        than theirs, moves no peer's bound: the climb pops no port, and the trial
        still reaches the reference's fixed point."""
        topo, placements = line_placements()
        new = placements.pop("f3")  # class 6 under f1 and f2, all with 1,500 B packets
        base = cold_solve(topo, placements)
        popped = recorded_pops(monkeypatch)
        st = admission._add_flow(topo, base, new)
        assert popped == []
        assert {fid: st.hop_bounds[fid] for fid in placements} == base.hop_bounds
        reference = reference_solve(topo, {**placements, "f3": new})
        assert (st.bursts, st.hop_bounds) == (reference.bursts, reference.hop_bounds)
        certify(topo, st)

    def test_add_starts_the_climb_where_a_peer_moved(self, monkeypatch):
        """A peer that shares only the new flow's middle hop: the climb starts there
        and goes on to the peer's next hop, and never pops the new flow's first or
        last hop."""
        topo = line_topology()
        topo.hosts.update(C=PortId("S2", 3), D=PortId("S3", 3))
        tree = NetworkState(topo).trees[0]

        def placed(fid, src, dst, rate, burst):
            return _Placement(FlowSpec(fid, src, dst, rate, burst, 1_500, 10**9), 7, tree,
                              tuple(path_in_tree(topo, tree, src, dst)), _Terms())

        peer, new = placed("peer", "C", "D", 25_000, 4_500), placed("new", "A", "B", 12_500, 3_000)
        assert [str(port) for port in new.hops] == ["S1.1", "S2.2", "S3.2"]
        assert [str(port) for port in peer.hops] == ["S2.2", "S3.3"]
        base = cold_solve(topo, {"peer": peer})
        popped = recorded_pops(monkeypatch)
        st = admission._add_flow(topo, base, new)
        assert [str(port) for port in popped] == ["S2.2", "S3.3"]
        reference = reference_solve(topo, {"peer": peer, "new": new})
        assert (st.bursts, st.hop_bounds) == (reference.bursts, reference.hop_bounds)
        certify(topo, st)

    def test_climb_names_a_breach_past_round_one(self, monkeypatch):
        """A reject whose first breach the climb meets at a port off the new flow's path.

        n, from A to C, raises p's bound at S1.1, the one hop they share, so
        p's burst at S2.2 grows there, and v, which crosses S2.2 and S3.2 and
        meets its deadline exactly, misses it.  Round one checks only the
        flows at n's hops, so it passes, as the reference's round one does:
        the witness is a later round's, which `assert_late_witness` checks.
        """
        topo = line_topology()
        topo.hosts["C"] = PortId("S2", 3)
        state = NetworkState(topo, class_count=2)  # class 1 only
        ref = NetworkState(topo, trees=state.trees, class_count=2)
        first_fit_only(state, ref)
        for flow in (spec("p", "A", "B", rate=25_000, burst=4_500, pkt=1_500, deadline=10**9),
                     spec("v", "C", "B", burst=1_500, pkt=1_500, deadline=160_080)):
            assert state.register_flow(flow).accepted
            with monkeypatch.context() as m:
                use_reference_solver(m)
                assert ref.register_flow(flow).accepted
        assert state.flows()["v"].e2e_bound_us == 160_080
        new = spec("n", "A", "C", burst=3_000, pkt=1_500, deadline=10**9)
        before = snapshot(state)
        popped = recorded_pops(monkeypatch)
        decision = state.register_flow(new)
        assert (decision.reason, decision.detail) == (
            "DeadlineInfeasible", "flow 'v': bound 164880 us > deadline 160080 us")
        assert [str(port) for port in popped] == ["S1.1", "S2.2"]
        assert snapshot(state) == before
        certify(topo, state._solver)
        trials = []  # the reference search's failed trials: (base, placement, exception)

        def recording_trial(topo, base, pl):
            try:
                return reference_trial(topo, base, pl)
            except TRIAL_FAILURES as exc:
                trials.append((base, pl, exc))
                raise

        with monkeypatch.context() as m:
            use_reference_solver(m)
            m.setattr(admission, "_add_flow", recording_trial)
            expected = ref.register_flow(new)
        assert_late_witness(monkeypatch, topo, decision, expected, trials)

    def test_round_one_failure_copies_nothing(self, monkeypatch):
        """A new flow that passes its own screen but pushes a peer past its deadline in
        round one fails before the state is copied; an accepted add copies it once."""
        topo = line_topology()
        tree = NetworkState(topo).trees[0]
        hops = tuple(path_in_tree(topo, tree, "A", "B"))
        low = FlowSpec("low", "A", "B", 12_500, 1_500, 1_500, 10**9)
        alone = sum(cold_solve(topo, {"low": _Placement(low, 6, tree, hops, _Terms())})
                    .hop_bounds["low"])
        high = _Placement(FlowSpec("high", "A", "B", 12_500, 1_500, 1_500, 10**9),
                          7, tree, hops, _Terms())
        copies = []
        copy_state = _SolverState.copy

        def counted_copy(st):
            copies.append(None)
            return copy_state(st)

        for deadline, copied in ((alone, 0), (10**9, 1)):  # low meets `alone` exactly
            base = cold_solve(topo, {"low": _Placement(
                replace(low, deadline_us=deadline), 6, tree, hops, _Terms())})
            copies.clear()
            with monkeypatch.context() as m:
                m.setattr(_SolverState, "copy", counted_copy)
                if copied:
                    certify(topo, admission._add_flow(topo, base, high))
                else:
                    with pytest.raises(DeadlineInfeasible, match=r"^flow 'low': bound \d+ us"):
                        admission._add_flow(topo, base, high)
            assert len(copies) == copied

    def test_drop_bounds_each_port_once_a_round(self, monkeypatch):
        topo, placements = line_placements()
        base = cold_solve(topo, placements)
        passes = counted_port_bounds(monkeypatch)
        st = admission._drop_flow(topo, base, "f1")
        certify(topo, st)
        del placements["f1"]
        reference = reference_solve(topo, placements)
        assert (st.bursts, e2e_bounds(st)) == (reference.bursts, e2e_bounds(reference))
        # a feed-forward line: the worklist bounds each hop once, upstream first
        assert passes == [1, 2, 3]

    def test_drop_through_a_dependency_cycle(self, monkeypatch):
        """Removing x from `ring_cycle_placements` must re-bound a port after a
        burst there moved, and still reach the survivors' cold solve."""
        topo, placements = ring_cycle_placements()
        assert len({pl.tree.vlan_id for pl in placements.values()}) == 3
        base = cold_solve(topo, placements)
        passes = counted_port_bounds(monkeypatch)
        st = admission._drop_flow(topo, base, "x")
        bounded = len(passes)
        certify(topo, st)
        del placements["x"]
        assert st == cold_solve(topo, placements)
        reference = reference_solve(topo, placements)
        assert (st.bursts, st.hop_bounds) == (reference.bursts, reference.hop_bounds)
        # the survivors cross six ports, all of them affected: one was bounded twice
        assert len(st.members) == 6
        assert bounded > 6

    def test_drop_restarts_a_cycle_below_its_fixed_point(self):
        """A cycle's bursts restart from below: climbed down from the old bursts
        instead, this ring stops above the survivors' least fixed point, since
        rounding up gives its burst map more than one fixed point."""
        topo, placements = ring_cycle_placements()
        for fid, rate, burst, pkt in (("a", 28_391, 1_500, 500), ("b", 13_851, 1_000, 500),
                                      ("c", 29_746, 1_500, 500), ("x", 21_128, 100, 100)):
            pl = placements[fid]
            placements[fid] = replace(pl, spec=replace(
                pl.spec, rate_Bps=rate, burst_B=burst, max_pkt_B=pkt))
        base = cold_solve(topo, placements)
        st = admission._drop_flow(topo, base, "x")
        certify(topo, st)
        gone = placements.pop("x")
        reference = reference_solve(topo, placements)
        assert (st.bursts, st.hop_bounds) == (reference.bursts, reference.hop_bounds)
        # the same ranked climb over the same ports, every old burst kept
        kept = _SolverState(placements, {f: base.bursts[f] for f in placements},
                            {f: base.hop_bounds[f] for f in placements},
                            {port: {f: i for f, i in members.items() if f != "x"}
                             for port, members in base.members.items()}, dict(base.aggregates))
        rank, _ = admission._dependency_ranks(kept, gone.hops)
        admission._climb(topo, kept, rank, rank=rank)
        certify(topo, kept)
        assert kept.bursts != st.bursts
        assert all(k >= b for f in st.bursts for k, b in zip(kept.bursts[f], st.bursts[f]))

    def test_drop_bounds_a_tail_once_after_its_cycle(self, monkeypatch):
        """The ports downstream of the cycle are bounded once each, after the cycle's
        last pop: their inputs are final by then.

        Popped by least hop index alone, S1.5, where u enters at hop 0, would
        come before S2.2 and S3.1 and be bounded before the cycle settles and
        again after.
        """
        topo, placements = ring_cycle_placements(tail=True)
        base = cold_solve(topo, placements)
        passes = []
        bound_port = admission._bound_port
        monkeypatch.setattr(admission, "_bound_port", lambda profile, st, port: (
            passes.append(str(port)) or bound_port(profile, st, port)))
        st = admission._drop_flow(topo, base, "x")
        dropped = list(passes)
        certify(topo, st)
        del placements["x"]
        assert st == cold_solve(topo, placements)
        reference = reference_solve(topo, placements)
        assert (st.bursts, st.hop_bounds) == (reference.bursts, reference.hop_bounds)
        cycle = {"S1.1", "S2.2", "S3.1"}
        last = max(k for k, port in enumerate(dropped) if port in cycle)
        assert set(dropped[:last + 1]) == cycle and last + 1 > len(cycle)
        tail = dropped[last + 1:]
        assert sorted(tail) == ["P1.2", "P2.2", "S1.4", "S1.5", "S2.3", "S3.3"]
        assert [port for port in tail if port in ("S1.5", "P1.2", "P2.2")] == [
            "S1.5", "P1.2", "P2.2"]

    def test_removals_at_scale_match_a_cold_solve(self, monkeypatch):
        """CI's `admit` recipe of 200 random host pairs on a 6x6 grid, with seeded
        removals mixed in: after each removal the registry passes `certify` and
        equals a cold solve of its placements.  Most closures hold a cycle."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
        workloads = importlib.import_module("workloads")
        topo = load_topology(workloads.grid_topology_doc(
            6, 6, link_rate_Bps=1_250_000, buffer_B=65_536, hosts_per_switch=1, ue_count=1))
        hosts = sorted(topo.hosts)
        rng, picks = random.Random(1), random.Random(2)
        requests = [{"flow_id": f"f{i}", **dict(zip(("src", "dst"), rng.sample(hosts, 2))),
                     "rate_Bps": 10_000, "burst_B": 1_500, "max_pkt_B": 1_500,
                     "deadline_us": rng.randint(5_000, 100_000)} for i in range(200)]
        cycles = []  # the largest cycle of each removal's closure
        ranks = admission._dependency_ranks

        def recorded(st, roots):
            rank, found = ranks(st, roots)
            cycles.append(max(map(len, found), default=0))
            return rank, found

        monkeypatch.setattr(admission, "_dependency_ranks", recorded)
        state = NetworkState(topo)
        live = []
        for request in requests:
            if state.handle_flow_request(request)["accepted"]:
                live.append(request["flow_id"])
            if live and picks.random() < 0.3:
                state.remove_flow(live.pop(picks.randrange(len(live))))
                certify(topo, state._solver)
                assert state._solver == cold_solve(topo, state._solver.placements)
        assert len(cycles) > 50 and sum(map(bool, cycles)) > len(cycles) / 2
        assert max(cycles) > 40

    def test_removal_has_no_iteration_cap(self, monkeypatch):
        """A removal cannot fail, so `SOLVER_ITER_CAP` does not apply to it.

        Removing f1 from `line_placements` takes three Jacobi rounds; it
        completes under a cap of one.
        """
        topo, placements = line_placements()
        state = NetworkState(topo)
        state._solver = cold_solve(topo, placements)
        del placements["f1"]
        reference = reference_solve(topo, placements)
        monkeypatch.setattr(admission, "SOLVER_ITER_CAP", 1)
        state.remove_flow("f1")
        st = state._solver
        certify(topo, st)
        assert (st.bursts, st.hop_bounds) == (reference.bursts, reference.hop_bounds)

    def test_climb_diverges_at_the_real_cap(self):
        """A ring whose bursts have no fixed point: only `SOLVER_ITER_CAP` ends the climb.

        At a fixed point of `ring5_placements`, each ring port would hold one
        class burst S, with the flow at hop h bringing 1,500 B + h·r·D and
        D = (1,500 B + S)/C; so S = 6,000 B + 6·(r/C)·(1,500 B + S).  At
        r/C = 0.8/4 the factor is 1.2, and no finite S solves it.  Four of
        the flows settle under the climb, though the reference's rounds need
        more than the cap to settle them; the fifth makes the climb diverge.
        """
        topo, placements = ring5_placements(0.8 / 4)
        with pytest.raises(Unschedulable, match="^burst propagation found no fixed point$"):
            cold_solve(topo, placements)
        fifth = placements.pop("f4")
        base = cold_solve(topo, placements)
        certify(topo, base)
        with pytest.raises(Unschedulable, match="^burst propagation found no fixed point$"):
            reference_solve(topo, placements)
        with pytest.raises(TRIAL_FAILURES) as exc:
            admission._add_flow(topo, base, fifth)
        assert failure(exc.value) == ("Unschedulable", "burst propagation found no fixed point")

    def test_climb_settles_on_a_ring_below_gain_one(self):
        """The same ring at 0.6/4 of the link rate, a factor of 0.9: the climb
        reaches the reference's fixed point."""
        topo, placements = ring5_placements(0.6 / 4)
        st, reference = cold_solve(topo, placements), reference_solve(topo, placements)
        assert (st.bursts, st.hop_bounds) == (reference.bursts, reference.hop_bounds)
        certify(topo, st)

    def test_removal_pops_past_the_cap(self, monkeypatch):
        """A removal on the settling ring pops some port twice, and completes under a
        cap of one at the survivors' cold solve."""
        topo, placements = ring5_placements(0.6 / 4)
        state = NetworkState(topo)
        state._solver = cold_solve(topo, placements)
        del placements["f0"]
        expected = cold_solve(topo, placements)
        popped = recorded_pops(monkeypatch)
        monkeypatch.setattr(admission, "SOLVER_ITER_CAP", 1)
        state.remove_flow("f0")
        assert len(popped) > len(set(popped))
        assert state._solver == expected
        certify(topo, state._solver)

    def test_certify_fails_broken_climbs(self, monkeypatch):
        """`certify` passes the climb's states and fails a climb that stops one pop
        early or one that skips a burst update."""
        topo, placements = line_placements()
        new = placements.pop("f1")
        base = cold_solve(topo, placements)
        certify(topo, base)
        pops = []

        def counted_pop(heap):
            pops.append(None)
            return heapq.heappop(heap)

        monkeypatch.setattr(admission, "heapq", SimpleNamespace(
            heapify=heapq.heapify, heappush=heapq.heappush, heappop=counted_pop))
        certify(topo, admission._add_flow(topo, base, new))
        assert len(pops) == 3

        def stopping_pop(heap):  # empties the heap at the second pop, so no third pop comes
            item = counted_pop(heap)
            if len(pops) == 2:
                heap.clear()
            return item

        pops.clear()
        monkeypatch.setattr(admission.heapq, "heappop", stopping_pop)
        stopped = admission._add_flow(topo, base, new)
        assert len(pops) == 2
        with pytest.raises(AssertionError, match=r"'f1: bound \d+ us at S3.2 < class delay"):
            certify(topo, stopped)
        monkeypatch.setattr(admission.heapq, "heappop", heapq.heappop)
        # f1's bursts are never propagated: they stay at its spec burst
        monkeypatch.setattr(admission, "propagate_burst", lambda burst, rate, delay: (
            burst if rate == new.spec.rate_Bps else propagate_burst(burst, rate, delay)))
        with pytest.raises(AssertionError, match=r"'f1: burst 3000 B at hop 1 < \d+ B"):
            certify(topo, admission._add_flow(topo, base, new))

    def test_rate_overload_in_a_round_is_unschedulable(self):
        """The new flow passes the screen, then starves a lower class in round one."""
        topo = line_topology()
        tree = NetworkState(topo).trees[0]
        hops = tuple(path_in_tree(topo, tree, "A", "B"))
        low = FlowSpec("low", "A", "B", 100_000, 1_500, 1_500, 10**9)
        base = cold_solve(topo, {"low": _Placement(low, 6, tree, hops, _Terms())})
        before = copy.deepcopy(base)
        new = _Placement(FlowSpec("high", "A", "B", 50_000, 1_500, 1_500, 10**9),
                         7, tree, hops, _Terms())
        for trial in (admission._add_flow, reference_trial):
            with pytest.raises(TRIAL_FAILURES) as exc:
                trial(topo, base, new)
            assert failure(exc.value) == (
                "Unschedulable", "class 6 rate 100000 B/s exceeds residual 75000 B/s")
        assert base == before

    def test_cold_solve_names_an_overloaded_class(self):
        """A cold solve meets an overloaded class at a popped port, and names it
        as the trial's round one does."""
        topo = line_topology()
        tree = NetworkState(topo).trees[0]
        hops = tuple(path_in_tree(topo, tree, "A", "B"))
        placements = {fid: _Placement(FlowSpec(fid, "A", "B", rate, 1_500, 1_500, 10**9),
                                      prio, tree, hops, _Terms())
                      for fid, prio, rate in (("low", 6, 100_000), ("high", 7, 50_000))}
        for solve in (cold_solve, reference_solve):
            with pytest.raises(TRIAL_FAILURES) as exc:
                solve(topo, placements)
            assert failure(exc.value) == (
                "Unschedulable", "class 6 rate 100000 B/s exceeds residual 75000 B/s")

    @pytest.mark.parametrize("fabric", ["ring", "grid"])
    def test_screened_rejects_fail_reference_solve(self, fabric, monkeypatch):
        """Every trial `_add_flow` rejects before any fixpoint round is infeasible."""
        if fabric == "ring":
            topo = ring_topology()
            topo.hosts.update(A=PortId("S1", 4), E=PortId("S3", 4))
            endpoints, kwargs = ["UE1", "UE2", "A", "D", "E", "G"], {}
        else:
            topo = grid_topology()
            endpoints, kwargs = sorted(topo.hosts), {"class_count": 3}
        climbs, screened = [], []
        climb, add_flow = admission._climb, admission._add_flow

        def counted_climb(*args, **kwargs):
            climbs.append(None)
            return climb(*args, **kwargs)

        def recording_add_flow(topo, base, pl):
            before = len(climbs)
            try:
                return add_flow(topo, base, pl)
            except TRIAL_FAILURES:
                if len(climbs) == before:
                    screened.append({**base.placements, pl.spec.flow_id: pl})
                raise

        monkeypatch.setattr(admission, "_climb", counted_climb)
        monkeypatch.setattr(admission, "_add_flow", recording_add_flow)
        for seed in range(6):
            rng = random.Random(seed)
            state = NetworkState(topo, **kwargs)
            if seed % 2:
                first_fit_only(state)
            live = []
            for i in range(16):
                if live and rng.random() < 0.3:
                    state.remove_flow(live.pop(rng.randrange(len(live))))
                    continue
                spec = oracle_spec(rng, f"f{i}", endpoints)
                if state.register_flow(spec).accepted:
                    live.append(spec.flow_id)
        assert screened  # the screen fired, so the check below is not vacuous
        for placements in screened:
            with pytest.raises(TRIAL_FAILURES):
                reference_solve(topo, placements)

    @pytest.mark.parametrize("fabric", ["ring", "grid"])
    def test_registry_matches_reference_solver(self, fabric, monkeypatch):
        small_buffers = SwitchProfile(port_buffer_B=8_000)
        if fabric == "ring":
            topo = ring_topology(profile=small_buffers)
            topo.hosts.update(A=PortId("S1", 4), E=PortId("S3", 4))  # sharing S1 and S3
            endpoints, kwargs, count = ["UE1", "UE2", "A", "D", "E", "G"], {}, 16
        else:
            topo = grid_topology()
            topo.switches = {sid: small_buffers for sid in topo.switches}
            endpoints, kwargs, count = sorted(topo.hosts), {"class_count": 3}, 16
        outcomes, late = set(), []
        trials = []  # the reference search's failed trials: (base, placement, exception)

        def recording_trial(topo, base, pl):
            try:
                return reference_trial(topo, base, pl)
            except TRIAL_FAILURES as exc:
                trials.append((base, pl, exc))
                raise

        for seed in range(10):
            rng = random.Random(seed)
            reconfig = seed % 2 == 0
            state = NetworkState(topo, **kwargs)
            ref = NetworkState(topo, trees=state.trees, **kwargs)
            if not reconfig:
                first_fit_only(state, ref)
            live = []
            for i in range(count):
                if live and rng.random() < 0.3:
                    fid = live.pop(rng.randrange(len(live)))
                    state.remove_flow(fid)
                    with monkeypatch.context() as m:
                        use_reference_solver(m)
                        ref.remove_flow(fid)
                else:
                    spec = oracle_spec(rng, f"f{i}", endpoints)
                    decision = state.register_flow(spec)
                    trials.clear()
                    with monkeypatch.context() as m:
                        use_reference_solver(m)
                        m.setattr(admission, "_add_flow", recording_trial)
                        expected = ref.register_flow(spec)
                    if decision != expected:
                        assert_late_witness(monkeypatch, topo, decision, expected, trials)
                        late.append((seed, i))
                    if decision.accepted:
                        live.append(spec.flow_id)
                        outcomes.add(("class", decision.assignment.priority_class))
                        outcomes.add("moved" if decision.reconfigured else "placed")
                        outcomes.add(("endpoint", spec.src[:2]))
                    else:
                        outcomes.add(decision.reason)
                assert snapshot(state) == snapshot(ref)
                assert state._solver.bursts == ref._solver.bursts
                assert state._solver.hop_bounds == ref._solver.hop_bounds
                certify(topo, state._solver)
        assert late == []  # round one and the reference start from the same point
        assert {"DeadlineInfeasible", "BufferExceeded", "Unschedulable",
                "placed", "moved"} <= outcomes
        assert len({o for o in outcomes if o[0] == "class"}) >= 2
        if fabric == "ring":
            assert ("endpoint", "UE") in outcomes


class TestRejectsFromTrials:
    @pytest.mark.parametrize("reconfig", [True, False])
    def test_reject_solves_nothing_cold(self, reconfig, monkeypatch):
        """A reject's reason and detail come from the trials the search ran.

        The program has no cold solve to fall back on (the tests' `cold_solve`
        lives in conftest), yet register/remove sequences reach every reason,
        and each reason is the name of an `errors` class.  After trials, it is
        the first of `TRIAL_FAILURES` that the search's trials raised (the
        batch pass's leave no trace), with the first detail raised with it.
        """
        topo = ring_topology(profile=SwitchProfile(port_buffer_B=8_000))
        topo.hosts.update(A=PortId("S1", 4), E=PortId("S3", 4))
        endpoints = ["UE1", "UE2", "A", "D", "E", "G"]
        raised, in_batch = [], [False]  # the search's failed trials, as (reason, detail)
        add_flow, batch = admission._add_flow, NetworkState._batch_reassign

        def recording_add_flow(topo, base, pl):
            try:
                return add_flow(topo, base, pl)
            except TRIAL_FAILURES as exc:
                if not in_batch[0]:
                    raised.append(failure(exc))
                raise

        def flagged_batch(self, spec, terms):
            in_batch[0] = True
            try:
                return batch(self, spec, terms)
            finally:
                in_batch[0] = False

        monkeypatch.setattr(admission, "_add_flow", recording_add_flow)
        monkeypatch.setattr(NetworkState, "_batch_reassign", flagged_batch)
        reasons, mixed = set(), set()
        for seed in range(4):
            rng = random.Random(seed)
            state = NetworkState(topo)
            if not reconfig:
                first_fit_only(state)
            live = []
            for i in range(24):
                if live and rng.random() < 0.2:
                    state.remove_flow(live.pop(rng.randrange(len(live))))
                    continue
                spec = oracle_spec(rng, f"f{i}", endpoints)
                raised.clear()
                decision = state.register_flow(spec)
                if decision.accepted:
                    live.append(spec.flow_id)
                    continue
                reasons.add(decision.reason)
                if raised:
                    first = {}
                    for reason, detail in raised:
                        first.setdefault(reason, detail)
                    reason = next(f.__name__ for f in TRIAL_FAILURES if f.__name__ in first)
                    assert (decision.reason, decision.detail) == (reason, first[reason])
                    mixed.add(tuple(sorted(first)))
        assert {"DeadlineInfeasible", "BufferExceeded", "Unschedulable"} <= reasons
        assert all(issubclass(getattr(errors, r), errors.DetnetError) for r in reasons)
        assert ("BufferExceeded", "DeadlineInfeasible") in mixed  # the order is put to use


def grid_4x4_fast():
    """The admit-grid fabric's shape and rate: a 4x4 grid at 1.25 MB/s, one host per switch."""
    topo = grid_topology(4, 4)
    topo.switches = {sid: SwitchProfile(link_rate_Bps=1_250_000) for sid in topo.switches}
    return topo


def prune_spec(rng, fid, endpoints):
    """An admit-grid-like request: deadlines of 2-50 ms, some of them missed even alone."""
    src, dst = rng.sample(endpoints, 2)
    pkt = rng.choice([300, 1_000, 1_500])
    return FlowSpec(fid, src, dst, rng.choice([2_000, 10_000, 25_000]),
                    pkt * rng.randrange(1, 3), pkt, rng.randrange(2_000, 50_001))


def counting_search(monkeypatch):
    """Count `_add_flow` trials by (label, phase), phase "batch" inside `_batch_reassign`,
    and batch passes under (label, "batch passes").

    Returns the counter and a one-item list holding the label to count under.
    """
    trials, label, phase = Counter(), ["built"], ["search"]
    add_flow, batch = admission._add_flow, NetworkState._batch_reassign

    def counted_add_flow(topo, base, pl):
        trials[label[0], phase[0]] += 1
        return add_flow(topo, base, pl)

    def flagged_batch(self, spec, terms):
        trials[label[0], "batch passes"] += 1
        phase[0] = "batch"
        try:
            return batch(self, spec, terms)
        finally:
            phase[0] = "search"

    monkeypatch.setattr(admission, "_add_flow", counted_add_flow)
    monkeypatch.setattr(NetworkState, "_batch_reassign", flagged_batch)
    return trials, label


class TestLowerBoundPrune:
    @pytest.mark.parametrize("reconfig", [True, False], ids=["reconfig", "no-reconfig"])
    @pytest.mark.parametrize("fabric", ["grid", "ring"])
    def test_same_decisions_as_search_without_prune(self, fabric, reconfig, monkeypatch):
        """The prune skips only trials whose outcome cannot reach the decision.

        The reference registry's floor is minus infinity, so it prunes no
        candidate.  The grid's tight deadlines bring rejects that the flow
        misses even alone; the ring's UE ends give candidates fixed terms.
        """
        if fabric == "grid":
            topo = grid_4x4_fast()
            endpoints = sorted(topo.hosts)
        else:
            topo = ring_topology()
            topo.hosts.update(A=PortId("S1", 4), E=PortId("S3", 4))
            endpoints = ["UE1", "UE2", "A", "D", "E", "G"]
        trials, label = counting_search(monkeypatch)
        outcomes = set()
        for seed in range(3):
            rng = random.Random(seed)
            state = NetworkState(topo)
            ref = NetworkState(topo, trees=state.trees)
            if not reconfig:
                first_fit_only(state, ref)
            live = []
            for i in range(24):
                if live and rng.random() < 0.25:
                    fid = live.pop(rng.randrange(len(live)))
                    state.remove_flow(fid)
                    ref.remove_flow(fid)
                else:
                    spec = prune_spec(rng, f"f{i}", endpoints)
                    label[0] = "built"
                    decision = state.register_flow(spec)
                    label[0] = "reference"
                    with monkeypatch.context() as m:
                        m.setattr(admission, "_hop_floor_us", lambda *_: -math.inf)
                        expected = ref.register_flow(spec)
                    assert decision == expected, (seed, i)
                    if decision.accepted:
                        live.append(spec.flow_id)
                        outcomes.add("moved" if decision.reconfigured else "placed")
                    else:
                        outcomes.add(decision.reason)
                assert snapshot(state) == snapshot(ref)
                certify(topo, state._solver)
        assert {"placed", "DeadlineInfeasible"} <= outcomes
        # not vacuous: the built registry skipped trials in the search and the batch pass
        assert trials["built", "search"] < trials["reference", "search"]
        if reconfig:
            assert trials["built", "batch"] < trials["reference", "batch"]
            if fabric == "grid":
                assert "moved" in outcomes

    def test_floor_is_a_lower_bound_at_every_port(self):
        """For each port and class, over random base aggregates: floor <= the real bound.

        The fabric mixes two profiles: S2's links are ten times faster, but
        its classes 4 and 5 forward slowly, so which profile bounds a flow
        alone lower depends on the class and the burst.  A floor that takes
        the largest instead of the least profile bound fails the same check.
        """
        topo = ring_topology(with_transit=False)
        topo.switches["S2"] = SwitchProfile(
            link_rate_Bps=1_250_000, fwd_delay_us=(0, 400, 400, 400, 30_000, 30_000, 0, 0))
        topo.switches["S1"] = topo.switches["S3"] = SwitchProfile(
            fwd_delay_us=(0, 0, 0, 0, 0, 0, 30, 3_000))
        topo.hosts.update(A=PortId("S1", 4))
        state = NetworkState(topo)
        profiles = state._profiles
        assert len(profiles) == 2
        ports = sorted({port for link in topo.links for port in link} | set(topo.hosts.values()))

        def violations(floor_fn):
            rng = random.Random(7)
            found = []
            for _ in range(40):
                pkt = rng.choice([100, 1_000, 1_500])
                # some rates overload only the slow links, some every link
                new = FlowSpec("new", "A", "D", rng.choice([5_000, 60_000, 200_000, 2_000_000]),
                               pkt * rng.randrange(1, 4), pkt, 10**9)
                base = {cls: ClassAggregate(rng.randrange(0, 9_000), rng.randrange(0, 40_000),
                                            rng.choice([100, 1_500, 9_000]))
                        for cls in rng.sample(range(1, 8), rng.randrange(0, 4))}
                for port in ports:
                    for cls in range(1, state.class_count):
                        floor = floor_fn(profiles, new, cls)
                        classes = dict(base)
                        b, r, m = classes.get(cls, (0, 0, 0))
                        classes[cls] = ClassAggregate(b + new.burst_B, r + new.rate_Bps,
                                                      max(m, new.max_pkt_B))
                        try:
                            real = hop_delay_bound(
                                _port_state(topo.switches[port.node], classes), cls)
                        except Unschedulable:
                            continue
                        if floor > real:
                            found.append((port, cls, floor, real))
            return found

        assert violations(admission._hop_floor_us) == []
        assert violations(lambda profiles, new, cls: max(
            admission._hop_floor_us((p,), new, cls) for p in profiles))
        # rates above both links give an infinite floor, above the slow one only a finite one
        fast_only = FlowSpec("x", "A", "D", 200_000, 1_500, 1_500, 10**9)
        assert admission._hop_floor_us(profiles, fast_only, 7) < math.inf
        every = FlowSpec("x", "A", "D", 2_000_000, 1_500, 1_500, 10**9)
        assert admission._hop_floor_us(profiles, every, 7) == math.inf

    def test_reject_missed_alone_costs_one_trial(self, monkeypatch):
        """A flow that misses its deadline alone on every route: one trial, no batch trial."""
        topo = grid_4x4_fast()
        state = NetworkState(topo)
        for i, (src, dst) in enumerate([("H00", "H33"), ("H03", "H30"), ("H11", "H22"),
                                        ("H21", "H12"), ("H00", "H22"), ("H31", "H02")]):
            assert state.register_flow(FlowSpec(f"f{i}", src, dst, 10_000, 300, 300,
                                                40_000 + 1_000 * i)).accepted
        before = snapshot(state)
        trials, _ = counting_search(monkeypatch)
        # seven hops of at least 1,440 us each, against 5 ms
        decision = state.register_flow(FlowSpec("x", "H00", "H33", 10_000, 300, 300, 5_000))
        assert (decision.accepted, decision.reason, decision.detail) == (
            False, "DeadlineInfeasible", "flow 'x': bound at least 6444 us > deadline 5000 us")
        # every candidate of x is pruned, so the batch pass, which would fail at x, is not run
        assert trials == {("built", "search"): 1}
        assert snapshot(state) == before

    def test_first_try_accept_computes_no_floor(self, monkeypatch):
        state = NetworkState(grid_4x4_fast())
        assert state.register_flow(FlowSpec("f0", "H00", "H33", 10_000, 300, 300,
                                            40_000)).accepted
        floors, trials = [], []
        floor, add_flow = admission._hop_floor_us, admission._add_flow
        monkeypatch.setattr(admission, "_hop_floor_us",
                            lambda *args: floors.append(args) or floor(*args))
        monkeypatch.setattr(admission, "_add_flow",
                            lambda *args: trials.append(args) or add_flow(*args))
        assert state.register_flow(FlowSpec("f1", "H03", "H30", 10_000, 300, 300,
                                            40_000)).accepted
        assert (len(trials), floors, "_profiles" in vars(state)) == (1, [], False)

    def test_floor_computed_once_per_envelope(self, monkeypatch):
        """A second request with the same envelope and class finds its floors kept."""
        state = NetworkState(grid_4x4_fast())
        for i, (src, dst) in enumerate([("H00", "H33"), ("H03", "H30"), ("H11", "H22")]):
            assert state.register_flow(FlowSpec(f"f{i}", src, dst, 10_000, 300, 300,
                                                40_000)).accepted
        floors = []
        floor = admission._hop_floor_us
        monkeypatch.setattr(admission, "_hop_floor_us",
                            lambda *args: floors.append(args) or floor(*args))
        # missed alone on every route, so the search prunes from its first reject on
        tight = [FlowSpec(fid, "H00", "H33", 10_000, 300, 300, 5_000) for fid in ("x", "y")]
        assert not state.register_flow(tight[0]).accepted
        computed = len(floors)
        assert computed == 7  # one per class the search judged, 7 to 1
        assert not state.register_flow(tight[1]).accepted
        assert len(floors) == computed
        # another envelope is another key
        assert not state.register_flow(FlowSpec("z", "H00", "H33", 10_000, 600, 300,
                                                5_000)).accepted
        assert len(floors) > computed
