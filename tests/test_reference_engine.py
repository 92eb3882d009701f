"""`sim.run` against the reference engine in `reference_engine.py`.

Each case runs a scenario through both and compares every packet's send
time and outcome (receive time, dropped or in flight), the drops by stage
and the bound violations of each flow, and the largest occupancy of each
(port, class).  The families: the canonical scenario with the regulator
off and on, the goldens' UE-to-UE variant, the same-time
tie and cross-hop families of `test_sim_order.py`, its dense UE grid,
`random_scenario_doc` draws, draws of that fabric with a 5G segment
added (UE ends both ways, de-jittered flows, greedy sources and
unregistered UE sources), events at the run's end or just past it, and
runs whose state recurs a hyperperiod later, which the engine skips but
the reference simulates event by event.  `sim.run` runs each component of
flows that share no queue in an engine of its own: the last tests check
the split and that it gives the outputs of one engine over every flow.
"""

import dataclasses
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from detnet5g import sim
from detnet5g.scenario import load_scenario

import reference_engine
from conftest import canonical_scenario
from test_acceptance import random_scenario_doc
from test_golden import ue_transit_doc
from test_sim_order import (
    HOP_CASES, TIE_CASES, case_id, dense_ue_doc, engine_run, hop_case_id, hops_doc, tie_doc,
)


def assert_agrees(doc, **run_args):
    diffs = reference_engine.compare(load_scenario(doc), **run_args)
    assert not diffs, "engine and reference differ:\n" + "\n".join(diffs)


@pytest.mark.parametrize("doc, dejitter", [
    (canonical_scenario, "off"),
    (canonical_scenario, "on"),
    (ue_transit_doc, "scenario"),
    (dense_ue_doc, "scenario"),
], ids=["canonical-off", "canonical-on", "ue-transit", "dense-ue"])
def test_named_scenarios(doc, dejitter):
    assert_agrees(doc(), seed=1, dejitter=dejitter)


@pytest.mark.parametrize("case", TIE_CASES, ids=case_id)
def test_same_time_ties(case):
    assert_agrees(tie_doc(*case))


@pytest.mark.parametrize("case", HOP_CASES, ids=hop_case_id)
def test_order_across_hops(case):
    assert_agrees(hops_doc(*case))


@pytest.mark.parametrize("seed", range(20))
def test_random_fabric(seed):
    assert_agrees(random_scenario_doc(random.Random(seed)))


def random_5g_doc(rng) -> dict:
    """A `random_scenario_doc` fabric with a 5G segment of one to three UEs
    on a random switch: UE-sourced flows, each de-jittered or not, flows to
    the UEs, greedy and periodic sources with small packets, and an
    unregistered source at a UE."""
    doc = random_scenario_doc(rng)
    switches = [s["id"] for s in doc["topology"]["switches"]]
    hosts = [h["id"] for h in doc["topology"]["hosts"]]
    ues = [f"UE{i}" for i in range(rng.randrange(1, 4))]
    doc["topology"]["transit5g"] = {
        "tdd_pattern": rng.choice(["DDDSU", "DSUUD", "DDSUU", "DU"]),
        "numerology": rng.choice([0, 1, 2]),
        "grant_delay_slots": rng.randrange(0, 2),
        "s_slot_usable_ul": rng.random() < 0.5,
        "attach": f"{rng.choice(switches)}.50",
        "ues": [{"id": ue, "tbs_ul_B": rng.choice([300, 800, 1_500]),
                 "tbs_dl_B": rng.choice([500, 1_500, 3_000])} for ue in ues],
    }
    doc["nwtt"] = {"dejitter": {"hold_us": rng.choice([0, 1_000, 3_000]),
                                "release_period_us": rng.choice([500, 1_000, 2_000]),
                                "queue_cap_pkts": rng.choice([4, 64])}}
    rng.random()  # drew the retired shared-queue mode: kept, so later draws stay the same
    pairs = set()
    for i in range(rng.randrange(2, 6)):
        ue, host = rng.choice(ues), rng.choice(hosts)
        src, dst = (ue, host) if rng.random() < 0.6 else (host, ue)
        if (src, dst) in pairs:  # the NW-TT matches on (src, dst)
            continue
        pairs.add((src, dst))
        pkt = rng.choice([50, 100, 200])
        count = rng.randrange(1, 3)
        rate = pkt * rng.randrange(20, 100)
        if rng.random() < 0.5:
            source = {"mode": "greedy_token_bucket", "pkt_B": pkt,
                      "burst_B": pkt * count, "rate_Bps": rate}
        else:
            source = {"mode": "periodic", "period_us": pkt * count * 1_000_000 // rate,
                      "pkt_B": pkt, "count": count}
        doc["flows"].append({
            "flow_id": f"u{i}", "src": src, "dst": dst, "rate_Bps": rate,
            "burst_B": pkt * count, "max_pkt_B": pkt, "deadline_us": 1_000_000,
            "critical": False, "dejitter": src in ues and rng.random() < 0.5,
            "source": source,
        })
    # the loader refuses a source that repeats a flow's match
    free = [(ue, host) for ue in ues for host in hosts if (ue, host) not in pairs]
    if free:
        src, dst = rng.choice(free)
        doc["sim"]["sources"].append({
            "flow_id": "ue-extra", "src": src, "dst": dst,
            "mode": "periodic", "period_us": rng.choice([2_000, 5_000]), "pkt_B": 100,
        })
    return doc


@pytest.mark.parametrize("seed", range(20))
def test_random_fabric_with_5g(seed):
    assert_agrees(random_5g_doc(random.Random(seed)))


def end_doc(duration_ms, sources, flows=(), hold_us=0) -> dict:
    """One switch with 1 B/us links and no forwarding delay, hosts A, B and
    C, and UE1 on a `DU` TDD pattern of 1 ms slots: a 100 B packet takes
    100 us on the wire, a slot carries it whole, and one that reaches a UE
    queue in slot k goes in slot k + 1 at the earliest.  `sources` are
    unregistered 100 B periodic sources `(flow_id, src, dst, offset_us)`
    that emit once before the end."""
    return {
        "schema_version": 1,
        "topology": {
            "switches": [{"id": "S1", "link_rate_Bps": 1_000_000, "port_buffer_B": 4_000}],
            "links": [],
            "hosts": [{"id": h, "attach": f"S1.{i}"} for i, h in enumerate("ABC", 1)],
            "transit5g": {"tdd_pattern": "DU", "numerology": 0, "attach": "S1.4",
                          "ues": [{"id": "UE1", "tbs_ul_B": 1_500, "tbs_dl_B": 1_500}]},
        },
        "flows": list(flows),
        "nwtt": {"dejitter": {"hold_us": hold_us, "release_period_us": 1_000}},
        "sim": {"duration_ms": duration_ms, "seed": 1, "sources": [
            {"flow_id": fid, "src": src, "dst": dst, "mode": "periodic",
             "period_us": 10_000, "pkt_B": 100, "offset_us": offset_us}
            for fid, src, dst, offset_us in sources]},
    }


def lag_doc(duration_ms) -> dict:
    """`end_doc` with UE1 on a `DDDDDDDDDU` pattern whose U slot carries one
    100 B packet, and a greedy UE1 -> B source that sends a 300 B burst at 0
    and a 100 B packet every 10 ms after: UE1's queue keeps three packets,
    each in flight about three hyperperiods (10 ms)."""
    doc = end_doc(duration_ms, [])
    doc["topology"]["transit5g"]["tdd_pattern"] = "DDDDDDDDDU"
    doc["topology"]["transit5g"]["ues"][0]["tbs_ul_B"] = 100
    doc["sim"]["sources"].append({"flow_id": "up", "src": "UE1", "dst": "B",
                                  "mode": "greedy_token_bucket", "pkt_B": 100,
                                  "burst_B": 300, "rate_Bps": 10_000})
    return doc


def two_part_doc(duration_ms, up_count=1) -> dict:
    """`end_doc` with two components that share no queue: `ab` (A -> B,
    every 10 ms from 1 ms) and `up` (UE1 -> C, `up_count` packets every
    4 ms from 3.5 ms).  Their hyperperiods are 10 ms and 4 ms (UE1's `DU`
    pattern repeats every 2 ms), and they jump at 10 and 8 ms."""
    doc = end_doc(duration_ms, [("ab", "A", "B", 1_000), ("up", "UE1", "C", 3_500)])
    doc["sim"]["sources"][1].update(period_us=4_000, count=up_count)
    return doc


def stalled_two_part_doc(duration_ms) -> dict:
    """`two_part_doc` with UE1's uplink carrying 100 B a U slot, 200 B every
    4 ms, against the 300 B `up` sends: UE1's queue grows, so `up`'s
    component never jumps, while `ab`'s does."""
    doc = two_part_doc(duration_ms, up_count=3)
    doc["topology"]["transit5g"]["ues"][0]["tbs_ul_B"] = 100
    return doc


def lagged_two_part_doc(duration_ms) -> dict:
    """`lag_doc`, whose packets stay in flight three of its 10 ms
    hyperperiods, with `ab` (A -> C, every 4 ms from 1 ms) added: its
    component's hyperperiod is 20 ms (with the 10 ms pattern), and it
    settles more of its copied periods than `up`'s."""
    doc = lag_doc(duration_ms)
    doc["sim"]["sources"].append({"flow_id": "ab", "src": "A", "dst": "C", "mode": "periodic",
                                  "period_us": 4_000, "pkt_B": 100, "offset_us": 1_000})
    return doc


class JumpProbe(sim._Engine):
    """The engine, counting its snapshots and state comparisons, the
    hyperperiods its jump skipped and the time it landed at in trace time
    (the engine goes on from the checkpoint, its trace times `shift`
    later), and keeping what the state held at the checkpoint that jumped
    (`at_jump`, see `jump_features`)."""

    def __init__(self, *args):
        super().__init__(*args)
        self.snapshots = self.comparisons = 0
        self.skipped = 0
        self.landed = None
        self.at_jump = None

    def _snapshot(self):
        self.snapshots += 1
        self.comparisons += self.snapshot is not None
        return super()._snapshot()

    def _jump(self, earlier, now):
        self.at_jump = jump_features(self, earlier, now)
        super()._jump(earlier, now)
        self.landed = self.t + self.shift
        self.skipped = self.shift // self.period_ns


def jump_features(engine, earlier, now) -> set:
    """What the state holds at a checkpoint that matched the one a period
    earlier: a regulator between two releases of a busy period, a UE queue
    whose head a transport block cut, a port with two classes queued, and
    `drops:<flow>` for each flow that dropped in the period."""
    features = set()
    for ctx in engine.flows.values():
        reg = ctx.regulator
        if reg is None or None in (reg.next_release_ns, reg.last_release_ns):
            continue
        if reg.next_release_ns - reg.last_release_ns == reg.cfg.release_period_us * 1_000:
            features.add("regulator mid-release")
    for ul_queue, _, dl_queue, _ in engine.rotations[0] if engine.rotations else ():
        for queue in (ul_queue, dl_queue):
            if queue and queue[0].remaining_B < queue[0].ctx.pkt_B:
                features.add("packet split")
    if any(sum(map(bool, port.queues)) > 1 for port in engine.all_ports.values()):
        features.add("two classes queued")
    for ctx, (_, drops_before, _), (_, drops, _) in zip(engine.flows.values(), earlier[1], now[1]):
        if sum(drops.values()) > sum(drops_before.values()):
            features.add(f"drops:{ctx.source.flow_id}")
    return features


def probe_run(doc, end_ns=None, probe=JumpProbe):
    """`doc` run by `probe`, a `JumpProbe` class, and by the reference, both
    ending at `end_ns` if given; asserts that they agree packet by packet
    and returns `(result, probe)`."""
    scn = load_scenario(doc)
    result, engine = engine_run(scn, probe, end_ns)
    state, _ = sim._admit_flows(scn, "scenario")
    reference = reference_engine.ReferenceEngine(
        state.topology, sim._build_flow_ctxs(scn, state), scn.duration_ms, scn.seed)
    if end_ns is not None:
        reference.end_ns = end_ns
    diffs = reference_engine.differences(reference_engine.engine_outcome(result), reference.run())
    assert not diffs, "engine and reference differ:\n" + "\n".join(diffs)
    return result, engine


def hyperperiod_doc(rng) -> dict:
    """Two switches with 1 B/us links and 3,000 B buffers, hosts A (S0), B
    and C (S1), and UE1 and UE2 at S0, every period dividing a base period
    of 5, 10 or 20 ms, which is the hyperperiod; the run lasts 6 to 24 of
    them.  Admitted: `up` (UE1 -> B, de-jittered, three or four 100 B
    packets a period, which the regulator releases a millisecond apart and
    UE1's transport blocks of 250 or 350 B cut), `down` (A -> UE2) and
    `greedy` (A -> B, a greedy source at twice its policed rate, sending
    just before each base period's end).  Unregistered: `bg`, an on/off
    source at four times S0.1's rate in a window around each base period's
    end, and `ue-extra` (UE2 -> C)."""
    mu, pattern, base_ms = rng.choice([(1, "DDDSU", 5), (1, "DDDSU", 10), (0, "DDDSU", 10),
                                       (0, "DU", 10), (1, "DSUUD", 20), (0, "DSUUD", 20)])
    base_us = base_ms * 1_000
    periods = [p for p in (1_000, 2_000, 2_500, 5_000, 10_000, 20_000) if base_us % p == 0]
    # the regulator releases a packet a millisecond: periods of 5 ms and more
    # keep its queue short
    slow = [p for p in periods if p >= 5_000]
    up_period, down_period = rng.choice(slow), rng.choice(slow)
    up_count = rng.choice([3, 4]) if up_period > 5_000 else 3
    # the policer passes every other packet, so two intervals divide the base period
    interval_us = rng.choice([p for p in periods if base_us % (2 * p) == 0])
    on_ms = base_ms // 5
    spec = {"max_pkt_B": 100, "deadline_us": 500_000}

    def periodic(period_us, count=1):
        return {"mode": "periodic", "period_us": period_us, "pkt_B": 100, "count": count}

    return {
        "schema_version": 1,
        "topology": {
            "switches": [{"id": s, "link_rate_Bps": 1_000_000, "port_buffer_B": 3_000,
                          "fwd_delay_us": [rng.choice([0, 40])] * 8} for s in ("S0", "S1")],
            "links": [["S0.1", "S1.1"]],
            "hosts": [{"id": "A", "attach": "S0.2"}, {"id": "B", "attach": "S1.2"},
                      {"id": "C", "attach": "S1.3"}],
            "transit5g": {
                "tdd_pattern": pattern, "numerology": mu, "s_slot_usable_ul": True,
                "grant_delay_slots": rng.randrange(2), "attach": "S0.3",
                "ues": [{"id": "UE1", "tbs_ul_B": rng.choice([250, 350]), "tbs_dl_B": 150},
                        {"id": "UE2", "tbs_ul_B": 150, "tbs_dl_B": rng.choice([60, 150])}],
            },
        },
        "flows": [
            {"flow_id": "up", "src": "UE1", "dst": "B", "dejitter": True,
             "rate_Bps": 100 * up_count * 1_000_000 // up_period, "burst_B": 100 * up_count,
             **spec, "source": periodic(up_period, up_count)},
            {"flow_id": "down", "src": "A", "dst": "UE2",
             "rate_Bps": 100 * 1_000_000 // down_period, "burst_B": 100, **spec,
             "source": periodic(down_period)},
            {"flow_id": "greedy", "src": "A", "dst": "B",
             "rate_Bps": 50 * 1_000_000 // interval_us, "burst_B": 200, **spec,
             "source": {"mode": "greedy_token_bucket", "pkt_B": 100, "burst_B": 200,
                        "rate_Bps": 100 * 1_000_000 // interval_us,
                        "offset_us": base_us - rng.choice([60, 200])}},
        ],
        "nwtt": {"dejitter": {"hold_us": rng.choice([0, 500, 3_000]),
                              "release_period_us": 1_000}},
        "sim": {"duration_ms": base_ms * rng.choice([6, 7, 16, 24]) + rng.choice([0, 1, 3]),
                "seed": rng.randrange(100), "sources": [
                    {"flow_id": "bg", "src": "A", "dst": "C", "mode": "onoff_background",
                     "pkt_B": 500, "rate_Bps": 4_000_000, "on_ms": on_ms,
                     "off_ms": base_ms - on_ms, "offset_us": base_us - on_ms * 500},
                    {"flow_id": "ue-extra", "src": "UE2", "dst": "C", **periodic(rng.choice(slow))},
                ]},
    }


HYPERPERIOD_SEEDS = range(16)


@pytest.mark.parametrize("seed", HYPERPERIOD_SEEDS)
def test_jump_over_repeated_hyperperiods(seed):
    doc = hyperperiod_doc(random.Random(seed))
    result, engine = probe_run(doc)
    assert [d["flow_id"] for d in result.decisions if d["accepted"]] == ["up", "down", "greedy"]
    assert 5_000_000 <= engine.period_ns <= 20_000_000
    # the state recurs by the fourth hyperperiod, and the jump skips the rest
    # of the run's whole periods
    periods = (engine.end_ns + 1) // engine.period_ns
    assert periods >= 6 and engine.skipped >= periods - 4
    # the background and the policer drop in every period, and at the
    # checkpoint greedy's packet waits at S0.1 behind the background's
    assert {"drops:bg", "drops:greedy", "two classes queued"} <= engine.at_jump


@pytest.mark.parametrize("duration_ms", [200, 250, 800, 3_200])
def test_growing_ue_queue_never_repeats(duration_ms):
    # UE2's unregistered source offers 100 B a slot against 150 B every five
    # slots, so its uplink queue grows without bound and no checkpoint's
    # state equals the one a hyperperiod (15 ms) before: no jump, and one
    # comparison per power of two.  Each comparison but the first compares
    # with a snapshot of its own, and no snapshot goes uncompared: 250 ms
    # has room for the snapshot at 15 periods, but not for the comparison
    # at 16 that would use it
    doc = tie_doc(1, 0, False, "DDDSU", 0, 0)
    doc["sim"]["duration_ms"] = duration_ms
    _, engine = probe_run(doc)
    assert engine.period_ns == 15_000_000
    assert engine.landed is None
    assert 1 <= engine.comparisons <= 1 + math.log2(duration_ms * 1_000_000 / engine.period_ns)
    assert engine.snapshots == 2 * engine.comparisons - 1


class StateProbe(JumpProbe):
    """A `JumpProbe` keeping the state of each snapshot by its checkpoint's
    index, in hyperperiods."""

    def __init__(self, *args):
        super().__init__(*args)
        self.states = {}

    def _snapshot(self):
        snapshot = super()._snapshot()
        self.states[self.t // self.period_ns] = snapshot[0]
        return snapshot


def test_state_repeating_every_third_hyperperiod_never_jumps():
    # with a 6 ms hold, the regulator's busy periods repeat every third 5 ms
    # hyperperiod, from 3H on: a checkpoint compares only with the one a
    # hyperperiod before, so none of the five comparisons matches and the
    # run simulates every event.  Comparing k hyperperiods back would jump
    doc = hyperperiod_doc(random.Random(2))
    doc["nwtt"]["dejitter"]["hold_us"] = 6_000
    _, engine = probe_run(doc, probe=StateProbe)
    assert (engine.period_ns, engine.end_ns) == (5_000_000, 123_000_000)
    assert engine.landed is None
    assert (engine.comparisons, engine.snapshots) == (5, 9)
    states = engine.states
    assert sorted(states) == [0, 1, 2, 3, 4, 7, 8, 15, 16]
    assert {(i, j) for i in states for j in states if i < j and states[i] == states[j]} == {
        (i, j) for i in states for j in states if 3 <= i < j and (j - i) % 3 == 0}


def test_run_shorter_than_two_hyperperiods_takes_no_snapshot():
    # one engine over all of the canonical scenario's flows has a hyperperiod
    # of lcm(2 ms, 9.9 ms, 2 s, 5 ms) = 198 s, and the run lasts 4 s
    _, engine = engine_run(load_scenario(canonical_scenario()), JumpProbe)
    assert engine.snapshots == 0


def component_engines(doc, monkeypatch) -> tuple:
    """`sim.run` of `doc` with each component's engine a `JumpProbe`:
    returns (result, engines)."""
    engines = []

    class Probe(JumpProbe):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(sim, "_Engine", Probe)
    return sim.run(load_scenario(doc)), engines


def test_canonical_orange_jumps_on_its_own_hyperperiod(monkeypatch):
    # orange (UE1 -> D, every 2 ms) shares no queue with green and bg: its
    # engine's hyperperiod is lcm(2 ms, 5 ms of UE slots) = 10 ms, and it
    # jumps at 20 ms over the 398 periods left of 4 s, while green and bg's
    # engine (H = 198 s) takes no snapshot
    _, (orange, rest) = component_engines(canonical_scenario(), monkeypatch)
    assert (list(orange.flows), orange.period_ns) == (["orange"], 10_000_000)
    assert (orange.landed, orange.skipped) == (4_000_000_000, 398)
    assert (list(rest.flows), rest.period_ns) == (["green", "bg"], 198_000_000_000)
    assert rest.snapshots == 0


@pytest.mark.parametrize("doc, parts", [
    (two_part_doc(95), [(["ab"], 10_000_000, 8), (["up"], 4_000_000, 21)]),
    (stalled_two_part_doc(95), [(["ab"], 10_000_000, 8), (["up"], 4_000_000, 0)]),
    (lagged_two_part_doc(200), [(["up"], 10_000_000, 16), (["ab"], 20_000_000, 9)]),
], ids=["two-periods", "one-part-stalled", "two-settled"])
def test_each_component_jumps_on_its_own_hyperperiod(doc, parts, monkeypatch):
    # `parts`: each component's flows, hyperperiod and skipped periods
    _, engines = component_engines(doc, monkeypatch)
    assert [(list(e.flows), e.period_ns, e.skipped) for e in engines] == parts


STATE, CONFIG, RECORD = "state", "configuration", "record"
FIXED, KEPT = (CONFIG, None, None), (RECORD, None, None)  # the rows of the other two kinds


def state(change=None, why=None) -> tuple:
    """A state row: `change` names the `state_changes` change that moves the
    field, or `why` says how a snapshot holds it without one."""
    return STATE, change, why


# Every field of the engine, by kind.  State decides what follows, so a
# snapshot must hold it; configuration is fixed for the run; a record is
# what the run writes out or keeps between checkpoints, and no event reads
# it to decide what to do.  A field with no row here, or a row for a field
# no class holds, fails `test_every_engine_field_has_a_kind`.
ENGINE_FIELDS = {
    "_Packet.ctx": state("packet flow"),
    "_Packet.seq": state("packet seq"),
    "_Packet.hop": state("packet hop"),
    "_Packet.hop_in": state("packet hop_in"),
    "_Packet.hop_overruns": state("packet hop_overruns"),
    "_Packet.remaining_B": state("packet remaining_B"),
    "_Packet.eligible_slot": state("packet eligible_slot"),
    "_Packet.transit_out": state("packet transit_out"),
    "_Packet.reg_out": state("packet reg_out"),
    "_Packet.dl_in": state("packet dl_in"),
    "_Port.profile": FIXED,
    "_Port.buffer_B": FIXED,
    "_Port.drop_stage": FIXED,
    "_Port.queues": state("port queue"),
    "_Port.by_priority": state(why="the deques of `queues`, highest class first"),
    "_Port.queued": state("port queued"),
    "_Port.occupancy": state("port occupancy"),
    # a maximum: a repeated hyperperiod cannot raise it
    "_Port.max_occupancy": KEPT,
    "_Port.busy": state("port busy"),
    # a repeated hyperperiod reaches the ports the one it repeats reached
    "_Port.reached": KEPT,
    "_Hop.port": FIXED,
    "_Hop.cls": FIXED,
    "_Hop.fwd_ns": FIXED,
    "_Hop.fwd_rank": FIXED,
    "_Hop.tx_ns": FIXED,
    "_Hop.tx_rank": FIXED,
    "_Hop.bound_ns": FIXED,
    "_Hop.next": FIXED,
    "_FlowCtx.source": FIXED,
    "_FlowCtx.pkt_B": FIXED,
    "_FlowCtx.assignment": FIXED,
    "_FlowCtx.critical": FIXED,
    "_FlowCtx.pcp": FIXED,
    "_FlowCtx.vlan_id": FIXED,
    "_FlowCtx.route": FIXED,
    "_FlowCtx.policer": FIXED,  # its fields are `_Policer`'s
    "_FlowCtx.regulator": FIXED,  # its fields are `RegulatorState`'s
    # the trace, but `_deliver` reads back the send time of a packet in the state
    "_FlowCtx.t_send": state("packet send time"),
    "_FlowCtx.t_recv": KEPT,
    "_FlowCtx.drops": KEPT,
    "_FlowCtx.violations": KEPT,
    "_FlowCtx.first_hop": FIXED,
    "_FlowCtx.ul_queue": FIXED,  # a deque of `_Engine.rotations`
    "_FlowCtx.dl_queue": FIXED,  # a deque of `_Engine.rotations`
    "_FlowCtx.limits_ns": FIXED,
    "_FlowCtx.schedule": state(why="H and `count` fix it: its next emission is on the heap, "
                               "and H is a multiple of its timing record's cycle"),
    "_FlowCtx.count": state("emission count"),
    "_Policer.cap": FIXED,
    "_Policer.rate_Bps": FIXED,
    "_Policer.tokens": state("policer tokens"),
    "_Policer.last_ns": state("policer last_ns"),
    "RegulatorState.cfg": FIXED,
    "RegulatorState.queue": state("regulator queue"),
    "RegulatorState.next_release_ns": state("regulator next release"),
    "RegulatorState.last_release_ns": state("regulator last release"),
    "_Engine.flows": FIXED,
    "_Engine.end_ns": FIXED,
    "_Engine.t": state(why="a snapshot takes every time and slot index relative to it"),
    "_Engine.rank": state(why="-1 at every checkpoint, whose heap entry ranks -1"),
    "_Engine.heap": state("heap entry time"),
    "_Engine.fifo": state(why="empty at every checkpoint past t = 0; at 0 it holds the "
                          "emissions due then, and each such flow's next emission is on "
                          "the heap at H, so the snapshots at 0 and H differ"),
    "_Engine.counter": state(why="only the order of its draws breaks a tie, and a snapshot "
                             "lists the heap in that order, sorted"),
    "_Engine.transit": FIXED,
    "_Engine.slot_ns": FIXED,
    "_Engine.grant_slots": FIXED,
    "_Engine.armed": state("armed slot"),
    "_Engine.rotations": state("UE queue"),  # the UE queues, whose packets are state
    "_Engine.ul_wait": FIXED,
    "_Engine.dl_wait": FIXED,
    "_Engine.all_ports": FIXED,  # its fields are `_Port`'s
    "_Engine.period_ns": FIXED,
    "_Engine.snapshot": KEPT,  # the last checkpoint's, for the next
    "_Engine.repeat": KEPT,  # the periods the jump copied
    "_Engine.shift": state(why="0 at every checkpoint: no checkpoint follows a jump"),
    "_Engine.on_checkpoint": FIXED,
    "_Engine.on_emit": FIXED,
    "_Engine.on_slot": FIXED,
    "_Engine.on_regrel": FIXED,
    "_Engine.on_portin": FIXED,
    "_Engine.on_txdone": FIXED,
}


def engine_field_names() -> set:
    """`class.field` for every `__slots__` entry of the engine's classes,
    every `RegulatorState` field and every attribute an `_Engine` holds
    after `__init__`."""
    names = {f"{cls.__name__}.{slot}"
             for cls in (sim._Packet, sim._Port, sim._Hop, sim._FlowCtx, sim._Policer)
             for slot in cls.__slots__}
    names |= {f"RegulatorState.{f.name}" for f in dataclasses.fields(sim.RegulatorState)}
    scn = load_scenario(hyperperiod_doc(random.Random(0)))
    state, _ = sim._admit_flows(scn, "scenario")
    engine = sim._Engine(state.topology, sim._build_flow_ctxs(scn, state), scn.duration_ms,
                         scn.seed)
    return names | {f"_Engine.{name}" for name in vars(engine)}


def test_every_engine_field_has_a_kind():
    names = engine_field_names()
    assert sorted(names - ENGINE_FIELDS.keys()) == [], "fields without a kind"
    assert sorted(ENGINE_FIELDS.keys() - names) == [], "rows for fields no class holds"
    for name, (kind, change, why) in ENGINE_FIELDS.items():
        assert kind in (STATE, CONFIG, RECORD), name
        # a state row names its change or says why a snapshot holds it without one
        assert (change is None) != (why is None) if kind == STATE else change is why is None, name


def state_changes(engine) -> list:
    """`(name, change, undo)` for each field of the engine's state that a
    snapshot must hold, wherever the state has one: each change moves one
    field by one (or arms one more slot, takes a packet off a queue, or
    puts a packet in another flow or off its hop), and its undo restores it."""
    changes = []

    def swap(name, obj, attr, value):
        was = getattr(obj, attr, None)
        if was is not None:
            changes.append((name, lambda: setattr(obj, attr, value),
                            lambda: setattr(obj, attr, was)))

    def bump(name, obj, attr, step=1):
        value = getattr(obj, attr, None)
        if value is not None:
            swap(name, obj, attr, value + step)

    def put(name, items, i, value):
        was = items[i]
        changes.append((name, lambda: items.__setitem__(i, value),
                        lambda: items.__setitem__(i, was)))

    def shorten(name, queue):
        if queue:
            changes.append((name, queue.pop, lambda pkt=queue[-1]: queue.append(pkt)))

    packets = []
    for ctx in engine.flows.values():
        bump("emission count", ctx, "count")
        for attr in ("tokens", "last_ns"):
            bump(f"policer {attr}", ctx.policer, attr)
        reg = ctx.regulator
        if reg is not None:
            bump("regulator next release", reg, "next_release_ns")
            bump("regulator last release", reg, "last_release_ns")
            shorten("regulator queue", reg.queue)
            packets += reg.queue
    for port in engine.all_ports.values():
        bump("port queued", port, "queued")
        put("port occupancy", port.occupancy, 0, port.occupancy[0] + 1)
        swap("port busy", port, "busy", None)
        for queue in port.queues:
            shorten("port queue", queue)
        packets += [pkt for pkt in (port.busy, *itertools.chain(*port.queues)) if pkt]
    for ul_queue, _, dl_queue, _ in engine.rotations[0] if engine.rotations else ():
        shorten("UE queue", ul_queue)
        shorten("UE queue", dl_queue)
        packets += ul_queue + dl_queue
    for pkt in packets:
        # the stand-in flow has the packet's trace, so only the flow's identity changes
        stand_in = sim._FlowCtx(pkt.ctx.source)
        stand_in.t_send = pkt.ctx.t_send
        swap("packet flow", pkt, "ctx", stand_in)
        bump("packet seq", pkt, "seq", -1)  # seq + 1 may not be sent yet
        swap("packet hop", pkt, "hop", None)
        for attr in ("hop_in", "hop_overruns", "remaining_B", "eligible_slot", "transit_out",
                     "reg_out", "dl_in"):
            bump(f"packet {attr}", pkt, attr)
        put("packet send time", pkt.ctx.t_send, pkt.seq, pkt.ctx.t_send[pkt.seq] + 1)
    changes.append(("armed slot", lambda: engine.armed.add(-1), lambda: engine.armed.discard(-1)))
    heap = engine.heap
    i = max(range(len(heap)), key=lambda k: heap[k][0] if heap[k][3] else -1)
    put("heap entry time", heap, i, (heap[i][0] + 1, *heap[i][1:]))
    return changes


def test_snapshot_holds_every_field_that_decides_the_future():
    # at the checkpoint that jumps, each change of one field of the state
    # makes the snapshot differ from the one that matched
    seen, missed = set(), set()

    class ChangeProbe(JumpProbe):
        def _jump(self, earlier, now):
            for name, change, undo in state_changes(self):
                change()
                (seen if self._snapshot()[0] != now[0] else missed).add(name)
                undo()
            assert self._snapshot()[0] == now[0]  # every undo restored its field
            super()._jump(earlier, now)

    # draw 23 jumps with a packet the regulator released in the fabric (`reg_out`)
    for seed in [*HYPERPERIOD_SEEDS, 23]:
        engine_run(load_scenario(hyperperiod_doc(random.Random(seed))), ChangeProbe)
    assert not missed
    assert seen >= {
        "emission count", "policer tokens", "policer last_ns",
        "regulator next release", "regulator last release", "port queued", "port occupancy",
        "packet hop_in", "packet hop_overruns", "packet remaining_B", "packet eligible_slot",
        "packet transit_out", "armed slot", "heap entry time"}
    # every state field that no row says a snapshot holds implicitly
    assert seen >= {change for _, change, _ in ENGINE_FIELDS.values() if change}


def test_jump_leaves_the_state_that_matched():
    # the jump moves only the trace: right after it, the state's snapshot,
    # taken with send times read back less `shift`, is the one that matched,
    # packets in flight across the jump included
    jumps = []

    class StateProbe(JumpProbe):
        def _jump(self, earlier, now):
            super()._jump(earlier, now)
            jumps.append((sim._Engine._snapshot(self)[0], now[0], earlier[0], len(now[2])))

    carried = 0
    for seed in HYPERPERIOD_SEEDS:
        _, engine = engine_run(load_scenario(hyperperiod_doc(random.Random(seed))), StateProbe)
        (state, now, earlier, packets), = jumps
        jumps.clear()
        assert engine.shift == engine.skipped * engine.period_ns > 0
        assert state == now == earlier
        carried += packets > 0
    assert carried == len(HYPERPERIOD_SEEDS)  # every draw jumps with packets in flight


def test_hyperperiod_draws_cover_the_checkpoint_states():
    # at the checkpoint that jumps, some draw has a regulator between two
    # releases and some a UE queue's head cut by a transport block
    seen = set()
    for seed in HYPERPERIOD_SEEDS:
        _, engine = engine_run(load_scenario(hyperperiod_doc(random.Random(seed))), JumpProbe)
        seen |= engine.at_jump
    assert {"regulator mid-release", "packet split"} <= seen


def run_to_the_end(doc):
    """The run of `doc`, which the reference agrees with packet by packet,
    as `{flow_id: (t_send, t_recv)}` in ns and its report's ports."""
    assert_agrees(doc)
    result = sim.run(load_scenario(doc))
    times = {ctx.source.flow_id: (list(ctx.t_send), list(ctx.t_recv))
             for ctx in result.trace_rows.ctxs}
    return times, result.report["ports"]


def test_emission_at_the_end_is_sent():
    times, _ = run_to_the_end(end_doc(4, [("at", "A", "B", 4_000), ("past", "A", "C", 4_001)]))
    assert times == {"at": ([4_000_000], [sim.IN_FLIGHT]), "past": ([], [])}


def test_transmission_ending_at_the_end_delivers():
    times, _ = run_to_the_end(end_doc(4, [("at", "A", "B", 3_900), ("past", "A", "C", 3_901)]))
    assert times == {"at": ([3_900_000], [4_000_000]), "past": ([3_901_000], [sim.IN_FLIGHT])}


def test_ue_slot_ending_at_the_end_drains():
    # down reaches UE1's queue in slot 1 and goes in slot 2, which ends at 3 ms
    times, _ = run_to_the_end(end_doc(3, [("down", "A", "UE1", 1_500)]))
    assert times == {"down": ([1_500_000], [3_000_000])}
    # up goes in slot 3, which ends at 4 ms: it reaches S1.2 then, on no
    # forwarding delay, and is on the wire at the end
    times, ports = run_to_the_end(end_doc(4, [("up", "UE1", "B", 2_500)]))
    assert times == {"up": ([2_500_000], [sim.IN_FLIGHT])}
    assert ports["S1.2"]["0"]["max_occupancy_B"] == 100


def test_ue_slot_ending_past_the_end_keeps_its_packet():
    times, ports = run_to_the_end(end_doc(3, [("up", "UE1", "B", 2_500),
                                              ("down", "A", "UE1", 2_500)]))
    assert times == {"up": ([2_500_000], [sim.IN_FLIGHT]),
                     "down": ([2_500_000], [sim.IN_FLIGHT])}
    assert "S1.2" not in ports


# a de-jittered UE1 -> B flow of one 100 B packet every 10 ms, from t = 0
END_REGULATED = {"flow_id": "reg", "src": "UE1", "dst": "B", "rate_Bps": 1_000, "burst_B": 100,
                 "max_pkt_B": 100, "deadline_us": 1_000_000, "dejitter": True,
                 "source": {"mode": "periodic", "period_us": 10_000, "pkt_B": 100,
                            "offset_us": 0}}


@pytest.mark.parametrize("hold_us, released", [(2_000, True), (2_001, False)])
def test_regulator_release_past_the_end_keeps_its_packet(hold_us, released):
    # the packet leaves UE1 at the end of slot 1 (2 ms) and is held `hold_us`
    times, ports = run_to_the_end(end_doc(4, [], [END_REGULATED], hold_us))
    assert times == {"reg": ([0], [sim.IN_FLIGHT])}
    assert ("S1.2" in ports) == released


def test_packet_in_flight_at_the_jump_settles_in_the_last_skipped_period():
    # up leaves UE1 9.5 ms into each 10 ms hyperperiod and goes in the U slot
    # that ends 2.5 ms later, so one packet is in flight at each checkpoint;
    # the state recurs at 20 ms, and a 35 ms run skips one period, in which
    # the packet in flight at the jump arrives
    result, engine = probe_run(end_doc(35, [("up", "UE1", "B", 9_500)]))
    assert (engine.landed, engine.skipped) == (30_000_000, 1)
    times = {ctx.source.flow_id: (list(ctx.t_send), list(ctx.t_recv))
             for ctx in result.trace_rows.ctxs}
    assert times == {"up": ([9_500_000, 19_500_000, 29_500_000],
                            [12_100_000, 22_100_000, 32_100_000])}


@pytest.mark.parametrize("duration_ms", [55, 65, 75, 85])
def test_packets_in_flight_for_periods_settle_with_their_lag(duration_ms):
    # UE1 sends a burst of three packets at 0 and one every 10 ms after, and
    # its uplink carries one packet in the U slot that ends each 10 ms: its
    # queue keeps three packets, each in flight about three hyperperiods.
    # From 30 ms on the state recurs, so the jump at 40 ms skips one to four
    # periods, and each packet in flight there settles in the period its lag
    # puts it in, or stays in flight
    result, engine = probe_run(lag_doc(duration_ms))
    skipped = (duration_ms - 40) // 10
    assert (engine.landed, engine.skipped) == ((40 + 10 * skipped) * 1_000_000, skipped)
    ctx, = result.trace_rows.ctxs
    sends = [0, 0, 0] + [10_000_000 * k for k in range(1, duration_ms // 10 + 1)]
    assert list(ctx.t_send) == sends
    assert list(ctx.t_recv) == [10_000_000 * (k + 1) + 100_000 if 10 * (k + 1) <= duration_ms
                                else sim.IN_FLIGHT for k in range(len(sends))]


def test_regulator_spacing_carries_across_the_jump():
    # reg's two packets leave UE1 in the U slots that end at 8 and 10 ms of
    # each 10 ms (one 100 B block a slot) and the regulator holds nothing
    # but keeps releases 3 ms apart: at each checkpoint it is idle, and the
    # second packet, arriving with the checkpoint's time, leaves at 11 ms,
    # three after the first
    flow = dict(END_REGULATED, rate_Bps=20_000, burst_B=200,
                source={"mode": "periodic", "period_us": 10_000, "pkt_B": 100,
                        "count": 2, "offset_us": 6_000})
    doc = end_doc(65, [], [flow])
    doc["topology"]["transit5g"]["ues"][0]["tbs_ul_B"] = 100
    doc["nwtt"]["dejitter"]["release_period_us"] = 3_000
    result, engine = probe_run(doc)
    assert engine.skipped == 4
    ctx, = result.trace_rows.ctxs
    assert list(ctx.t_recv)[-2:] == [58_100_000, 61_100_000]


def test_slot_armed_before_the_jump_is_armed_once_after_it():
    # a DDDDU pattern of 1 ms slots and a grant delay of one slot: UE1's
    # packet, sent 8.5 ms into each 10 ms, waits for the U slot that ends
    # 5 ms into the next, whose tick is then pending at the checkpoint, and
    # UE2's two, sent 0.5 ms into it, wait for the same slot.  A block carries
    # one of UE2's packets, so its second goes a pattern later; ticking the
    # slot twice would send it at once
    doc = end_doc(75, [("up1", "UE1", "B", 8_500), ("up2", "UE2", "C", 500)])
    transit = doc["topology"]["transit5g"]
    transit.update(tdd_pattern="DDDDU", grant_delay_slots=1)
    transit["ues"] = [{"id": "UE1", "tbs_ul_B": 1_500, "tbs_dl_B": 1_500},
                      {"id": "UE2", "tbs_ul_B": 100, "tbs_dl_B": 1_500}]
    doc["sim"]["sources"][1]["count"] = 2
    result, engine = probe_run(doc)
    assert engine.period_ns == 10_000_000 and engine.skipped
    up2 = result.trace_rows.ctxs[1]
    assert list(up2.t_recv)[-4:] == [65_100_000, 70_100_000, sim.IN_FLIGHT, sim.IN_FLIGHT]


def test_violations_repeat_with_the_skipped_periods():
    # an admitted UE1 flow declared at one 100 B packet per 10 ms sends three
    # at once; UE1's uplink carries one a U slot, every 2 ms, so two of the
    # three overrun the uplink contract in every period, skipped ones too
    flow = dict(END_REGULATED, dejitter=False,
                source={"mode": "periodic", "period_us": 10_000, "pkt_B": 100,
                        "count": 3, "offset_us": 0})
    doc = end_doc(99, [], [flow])
    doc["topology"]["transit5g"]["ues"][0]["tbs_ul_B"] = 100
    result, engine = probe_run(doc)
    assert engine.skipped >= 5
    assert result.report["flows"]["reg"]["violations"]["transit"] == 2 * 10


def test_source_starting_after_two_hyperperiods_delays_the_jump():
    # before 25 ms the state differs from one period to the next only in
    # the late source's first emission, still pending on the heap
    result, engine = probe_run(end_doc(95, [("early", "A", "B", 1_000),
                                            ("late", "A", "C", 25_000)]))
    assert engine.landed == 40_000_000 + 50_000_000
    assert result.report["flows"]["late"]["sent"] == 8


# the cases above as `end_doc` arguments: (duration_ms, sources, flows, hold_us)
END_CASES = {
    "emission": (4, [("at", "A", "B", 4_000), ("past", "A", "C", 4_001)], [], 0),
    "transmission": (4, [("at", "A", "B", 3_900), ("past", "A", "C", 3_901)], [], 0),
    "ue-slot-down": (3, [("down", "A", "UE1", 1_500)], [], 0),
    "ue-slot-up": (4, [("up", "UE1", "B", 2_500)], [], 0),
    "ue-slot-past": (3, [("up", "UE1", "B", 2_500), ("down", "A", "UE1", 2_500)], [], 0),
    "regulator-at": (4, [], [END_REGULATED], 2_000),
    "regulator-past": (4, [], [END_REGULATED], 2_001),
}


@pytest.mark.parametrize("delta_us", [-1, 0, 1])
@pytest.mark.parametrize("plus_case", [False, True], ids=["kH", "kH-plus-case"])
@pytest.mark.parametrize("case", END_CASES)
def test_jump_lands_next_to_the_end(case, plus_case, delta_us):
    # `end_doc`'s hyperperiod is its sources' 10 ms period (the DU pattern of
    # one UE repeats every 2 ms).  The run ends 1 us before, at or 1 us past
    # six hyperperiods, or that plus the case's own duration, so that the
    # case's events fall at the end or next to it; the jump lands within a
    # hyperperiod of the end
    duration_ms, sources, flows, hold_us = END_CASES[case]
    period_ns = 10_000_000
    end_ns = 6 * period_ns + plus_case * duration_ms * 1_000_000 + delta_us * 1_000
    _, engine = probe_run(end_doc(duration_ms, sources, flows, hold_us), end_ns)
    assert engine.period_ns == period_ns
    assert engine.skipped and end_ns - engine.landed < period_ns


def canonical_for(duration_ms) -> dict:
    doc = canonical_scenario()
    doc["sim"]["duration_ms"] = duration_ms
    return doc


# `sim.run` splits the flows into components, each in an engine of its own;
# one engine over every flow must give the same outputs to the byte
SPLIT_CASES = {
    "canonical-4s": lambda: canonical_for(4_000),
    "canonical-20s": lambda: canonical_for(20_000),
    **{f"hyperperiod-{seed}": lambda seed=seed: hyperperiod_doc(random.Random(seed))
       for seed in HYPERPERIOD_SEEDS},
    **{f"random-5g-{seed}": lambda seed=seed: random_5g_doc(random.Random(seed))
       for seed in range(20)},
    "dense-ue": dense_ue_doc,
    "two-periods": lambda: two_part_doc(95),
    "two-settled": lambda: lagged_two_part_doc(200),
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_components_equal_one_engine_over_every_flow(case):
    scn = load_scenario(SPLIT_CASES[case]())
    one, _ = engine_run(scn, sim._Engine)
    split = sim.run(scn)
    assert "".join(split.trace_rows.text()) == "".join(one.trace_rows.text())
    assert json.dumps(split.report, sort_keys=True) == json.dumps(one.report, sort_keys=True)
    assert split.decisions == one.decisions


def components(sources, clear_routes=False) -> list:
    """The flow ids of each component of `end_doc`'s unregistered `sources`
    `(flow_id, src, dst)`, with UE2 added beside UE1; `clear_routes` empties
    every route first, so that only the UE queues join flows."""
    doc = end_doc(10, [(*source, 0) for source in sources])
    doc["topology"]["transit5g"]["ues"].append({"id": "UE2", "tbs_ul_B": 1_500, "tbs_dl_B": 1_500})
    scn = load_scenario(doc)
    state, _ = sim._admit_flows(scn, "scenario")
    flows = sim._build_flow_ctxs(scn, state)
    if clear_routes:
        for ctx in flows.values():
            ctx.route = ()
    return [list(part) for part in sim._components(flows, state.topology.transit)]


# `end_doc`'s one switch S1 has A, B and C at ports 1 to 3 and the 5G
# segment at port 4: every flow to a UE leaves S1 there
@pytest.mark.parametrize("sources, clear_routes, parts", [
    ([("x", "A", "B"), ("y", "C", "B")], False, [["x", "y"]]),  # egress port S1.2
    ([("x", "UE1", "B"), ("y", "UE1", "C")], False, [["x", "y"]]),  # UE1's uplink queue
    ([("x", "A", "UE1"), ("y", "B", "UE1")], False, [["x", "y"]]),  # S1.4, UE1's downlink queue
    ([("x", "A", "UE1"), ("y", "B", "UE1")], True, [["x", "y"]]),  # UE1's downlink queue alone
    ([("x", "A", "UE1"), ("y", "B", "UE2")], True, [["x"], ["y"]]),  # two downlink queues
    ([("x", "A", "B"), ("y", "B", "A")], False, [["x"], ["y"]]),  # only switch S1
    ([("x", "UE1", "B"), ("y", "UE2", "C")], False, [["x"], ["y"]]),  # only the 5G segment
    ([("x", "UE1", "B"), ("y", "A", "UE1")], False, [["x"], ["y"]]),  # UL and DL queues apart
], ids=["egress-port", "uplink", "downlink", "downlink-queue", "two-ues-down", "switch",
        "5g-segment", "ul-and-dl"])
def test_components_share_a_queue(sources, clear_routes, parts):
    assert components(sources, clear_routes) == parts


# b and d join through e, which shares UE1's uplink queue with b and S1.1 with d
ORDER_SOURCES = [("a", "A", "B"), ("b", "UE1", "C"), ("c", "C", "B"), ("d", "UE2", "A"),
                 ("e", "UE1", "A")]


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_components_come_in_flow_order(hash_seed):
    code = ("import json, test_reference_engine as t; "
            f"print(json.dumps(t.components({ORDER_SOURCES!r})))")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        [str(Path(sim.__file__).parents[1]), str(Path(__file__).parent)]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert json.loads(out) == [["a", "c"], ["b", "d", "e"]]
