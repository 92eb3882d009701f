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
the reference simulates event by event.
"""

import itertools
import math
import random

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


def probe_run(doc, end_ns=None):
    """`doc` run by a `JumpProbe` and by the reference, both ending at
    `end_ns` if given; asserts that they agree packet by packet and
    returns `(result, probe)`."""
    scn = load_scenario(doc)
    result, engine = engine_run(scn, JumpProbe, end_ns)
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


def test_run_shorter_than_two_hyperperiods_takes_no_snapshot():
    # the canonical scenario's hyperperiod is 198 s, its run 4 s
    _, engine = engine_run(load_scenario(canonical_scenario()), JumpProbe)
    assert engine.snapshots == 0


def state_changes(engine) -> list:
    """`(name, change, undo)` for each field of the engine's state that a
    snapshot must hold, wherever the state has one: each change moves one
    field by one (or arms one more slot), and its undo restores it."""
    changes = []

    def bump(name, obj, attr):
        value = getattr(obj, attr, None)
        if value is not None:
            changes.append((name, lambda: setattr(obj, attr, value + 1),
                            lambda: setattr(obj, attr, value)))

    packets = []
    for ctx in engine.flows.values():
        bump("emission count", ctx, "count")
        for attr in ("tokens", "carry", "last_ns"):
            bump(f"policer {attr}", ctx.policer, attr)
        reg = ctx.regulator
        if reg is not None:
            bump("regulator next release", reg, "next_release_ns")
            bump("regulator last release", reg, "last_release_ns")
            packets += reg.queue
    for port in engine.all_ports.values():
        bump("port queued", port, "queued")
        occupancy = port.occupancy
        changes.append(("port occupancy", lambda occ=occupancy: occ.__setitem__(0, occ[0] + 1),
                        lambda occ=occupancy, was=occupancy[0]: occ.__setitem__(0, was)))
        packets += [pkt for pkt in (port.busy, *itertools.chain(*port.queues)) if pkt]
    for ul_queue, _, dl_queue, _ in engine.rotations[0] if engine.rotations else ():
        packets += ul_queue + dl_queue
    for pkt in packets:
        for attr in ("hop_in", "hop_overruns", "remaining_B", "eligible_slot", "transit_out",
                     "reg_out", "dl_in"):
            bump(f"packet {attr}", pkt, attr)
    changes.append(("armed slot", lambda: engine.armed.add(-1), lambda: engine.armed.discard(-1)))
    heap = engine.heap
    i = max(range(len(heap)), key=lambda k: heap[k][0] if heap[k][3] else -1)
    entry = heap[i]
    changes.append(("heap entry time", lambda: heap.__setitem__(i, (entry[0] + 1, *entry[1:])),
                    lambda: heap.__setitem__(i, entry)))
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
            super()._jump(earlier, now)

    for seed in HYPERPERIOD_SEEDS:
        engine_run(load_scenario(hyperperiod_doc(random.Random(seed))), ChangeProbe)
    assert not missed
    assert seen >= {
        "emission count", "policer tokens", "policer carry", "policer last_ns",
        "regulator next release", "regulator last release", "port queued", "port occupancy",
        "packet hop_in", "packet hop_overruns", "packet remaining_B", "packet eligible_slot",
        "packet transit_out", "armed slot", "heap entry time"}


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
    doc = end_doc(duration_ms, [])
    doc["topology"]["transit5g"]["tdd_pattern"] = "DDDDDDDDDU"
    doc["topology"]["transit5g"]["ues"][0]["tbs_ul_B"] = 100
    doc["sim"]["sources"].append({"flow_id": "up", "src": "UE1", "dst": "B",
                                  "mode": "greedy_token_bucket", "pkt_B": 100,
                                  "burst_B": 300, "rate_Bps": 10_000})
    result, engine = probe_run(doc)
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
