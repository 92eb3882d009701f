"""Same-time event order and the lazy slot clock.

The tie family is a grid of small scenarios built so that many events fall
on the same nanosecond, most of them on slot boundaries: a 100 B packet
takes exactly one slot on the wire (two at numerology 4), and every source
starts at offset 0 with a period of about half, one, two or three such
units.  Their trace and report digests were recorded before the simulator
scheduled slot ticks lazily; any change to the order of simultaneous
events shows up as a changed digest.

The hop family crosses two or three switches with three contending
classes: a busy inter-switch egress whose best-effort buffer overflows, a
policed host flow and UE traffic both ways.  Its digests were recorded
before the engine sent packets on idle ports without queueing them, so they
pin the order of next-hop arrivals and strict-priority picks across hops.

When the report lost its `reorders` key, both families' digests were
derived again from the earlier code's own outputs, each report with that
key deleted, so they still pin the order recorded first.

The one-event hop tests pin the engine's one shortcut rule: an event that
a handler schedules as its last act runs in place when the FIFO is empty
and its time is below every heap entry's.  The transmission end that an
arrival at an idle port starts, and a next-hop arrival without forwarding
delay, which is due now, are such events, so a lone packet crosses its
route within one event.  The tests count the items that join the FIFO
(`CountingEngine`) and the heap pushes, each of which draws one number
from the engine's `counter`, and each of their runs must equal the
reference engine's packet by packet.
"""

import gc
import hashlib
import itertools
import json
import sys
from collections import deque
from pathlib import Path

import pytest

from detnet5g import sim
from detnet5g.scenario import load_scenario
from detnet5g.sim import (
    _admit_flows,
    _build_flow_ctxs,
    _build_result,
    _Engine,
    _Hop,
    _Packet,
    _Port,
    run,
    write_report,
    write_trace,
)
from detnet5g.units import NS_PER_S
import reference_engine
from conftest import canonical_scenario

DATA = Path(__file__).parent / "data"
DIGESTS = json.loads((DATA / "same_time_order.json").read_text())
HOP_DIGESTS = json.loads((DATA / "engine_hops_order.json").read_text())

# a 100 B packet's transmission time: one slot, two at mu=4 (62.5 us is not whole)
UNIT_US = {0: 1_000, 1: 500, 4: 125}
DURATION_MS = {0: 40, 1: 20, 4: 5}

TIE_CASES = [
    (mu, grant, s_ul, pattern, fwd, hold)
    for mu, grant, s_ul, pattern, fwd, hold in itertools.product(
        (0, 1, 4), (0, 1), (False, True), ("DDDSU", "DSUUD", "UUUUU"), (0, 1), (0, 1))
]


def case_id(case) -> str:
    mu, grant, s_ul, pattern, fwd, hold = case
    return f"mu{mu}-g{grant}-s{int(s_ul)}-{pattern}-fwd{fwd}-hold{hold}"


def tie_doc(mu, grant, s_ul, pattern, fwd, hold) -> dict:
    """One switch, hosts A and B, three UEs; `fwd` and `hold` are in units."""
    unit = UNIT_US[mu]

    def periodic(period_us, pkt_B=100):
        return {"mode": "periodic", "period_us": period_us, "pkt_B": pkt_B, "offset_us": 0}

    def source(fid, src, dst, period_us, pkt_B=100):
        return {"flow_id": fid, "src": src, "dst": dst, **periodic(period_us, pkt_B)}

    return {
        "schema_version": 1,
        "topology": {
            "switches": [{"id": "S1", "link_rate_Bps": 100 * 1_000_000 // unit,
                          "fwd_delay_us": [fwd * unit] * 8, "port_buffer_B": 2_000}],
            "links": [],
            "hosts": [{"id": "A", "attach": "S1.1"}, {"id": "B", "attach": "S1.2"}],
            "transit5g": {
                "tdd_pattern": pattern, "numerology": mu, "grant_delay_slots": grant,
                "s_slot_usable_ul": s_ul, "attach": "S1.3",
                "ues": [{"id": f"UE{i}", "tbs_ul_B": tbs_ul_B, "tbs_dl_B": 150}
                        for i, tbs_ul_B in ((1, 200), (2, 150), (3, 150))],
            },
        },
        "flows": [{
            "flow_id": "reg", "src": "UE1", "dst": "B", "rate_Bps": 100 * 1_000_000 // (3 * unit),
            "burst_B": 100, "max_pkt_B": 100, "deadline_us": 1_000_000, "dejitter": True,
            "source": periodic(3 * unit),
        }],
        "nwtt": {"dejitter": {"hold_us": hold * unit, "release_period_us": unit}},
        "sim": {"duration_ms": DURATION_MS[mu], "seed": 1, "sources": [
            source("half", "A", "B", unit // 2, 25),
            source("one", "UE2", "B", unit),
            source("two", "UE3", "B", 2 * unit),
            source("three", "A", "B", 3 * unit),
            source("down", "A", "UE3", 2 * unit),
        ]},
    }


def result_digest(result, out_dir: Path) -> str:
    """sha256 of a run's trace file followed by its report file."""
    write_trace(out_dir / "trace.csv", result.trace_rows)
    write_report(out_dir / "report.json", result.report)
    data = (out_dir / "trace.csv").read_bytes() + (out_dir / "report.json").read_bytes()
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", TIE_CASES, ids=case_id)
def test_same_time_order_is_unchanged(case, tmp_path):
    assert result_digest(run(load_scenario(tie_doc(*case))), tmp_path) == DIGESTS[case_id(case)]


HOP_CASES = list(itertools.product((2, 3), (0, 1), ("DDDSU", "DSUUD"), (False, True)))


def hop_case_id(case) -> str:
    switches, fwd, pattern, dejitter = case
    return f"sw{switches}-fwd{fwd}-{pattern}-dejitter{int(dejitter)}"


def hops_doc(switches, fwd, pattern, dejitter) -> dict:
    """A line of switches S0..S{n-1}, hosts A and B on S0, C and D on the last
    switch and two UEs attached at S0; `fwd` is in slots (0.5 ms).

    Admission puts `hi` in class 2, `lo` in class 1 (class 2 would break
    `hi`'s deadline) and `ue` in class 2 on two switches and class 1 on
    three; the extras are class 0.  Every source starts at offset 0, and a
    100 B packet takes one slot on the wire.  `bulk` sends twice the line
    rate through S0.1, whose class-0 buffer overflows, and `lo` sends bursts
    its policer cuts.
    """
    unit = 500
    rate = 100 * 1_000_000 // unit
    sws = [f"S{i}" for i in range(switches)]

    def periodic(period_us, count=1):
        return {"mode": "periodic", "period_us": period_us, "pkt_B": 100, "offset_us": 0,
                "count": count}

    def flow(fid, src, dst, burst_B, deadline_us, source, **extra):
        return {"flow_id": fid, "src": src, "dst": dst, "rate_Bps": rate // 8,
                "burst_B": burst_B, "max_pkt_B": 100, "deadline_us": deadline_us,
                "source": source, **extra}

    return {
        "schema_version": 1,
        "topology": {
            "switches": [{"id": s, "link_rate_Bps": rate, "fwd_delay_us": [fwd * unit] * 8,
                          "port_buffer_B": 4_000} for s in sws],
            "links": [[f"{a}.1", f"{b}.2"] for a, b in zip(sws, sws[1:])],
            "hosts": [{"id": "A", "attach": "S0.3"}, {"id": "B", "attach": "S0.4"},
                      {"id": "C", "attach": f"{sws[-1]}.3"},
                      {"id": "D", "attach": f"{sws[-1]}.4"}],
            "transit5g": {"tdd_pattern": pattern, "numerology": 1, "attach": "S0.5",
                          "ues": [{"id": "UE1", "tbs_ul_B": 200, "tbs_dl_B": 200},
                                  {"id": "UE2", "tbs_ul_B": 100, "tbs_dl_B": 200}]},
        },
        "classes": {"count": 3},
        "flows": [
            flow("hi", "A", "C", 100, 20 * switches * unit, periodic(8 * unit)),
            flow("lo", "B", "C", 300, 400 * unit, periodic(8 * unit, count=3)),
            flow("ue", "UE1", "D", 200, 400 * unit, periodic(8 * unit, count=2),
                 dejitter=dejitter),
        ],
        "nwtt": {"dejitter": {"hold_us": unit, "release_period_us": unit}},
        "sim": {"duration_ms": 100, "seed": 1, "sources": [
            {"flow_id": "bulk", "src": "A", "dst": "D", **periodic(unit, count=2)},
            {"flow_id": "ue-bg", "src": "UE2", "dst": "C", **periodic(2 * unit)},
            {"flow_id": "down", "src": "B", "dst": "UE2", **periodic(2 * unit)},
        ]},
    }


@pytest.mark.parametrize("case", HOP_CASES, ids=hop_case_id)
def test_order_across_hops_is_unchanged(case, tmp_path):
    result = run(load_scenario(hops_doc(*case)))
    assert [d["pcp"] for d in result.decisions] == [2, 1, 2 if case[0] == 2 else 1]
    drops = result.report["flows"]["bulk"]["drops"]
    assert drops["queue:S0.1"] > 0 and result.report["flows"]["lo"]["drops"]["policer"] > 0
    assert result_digest(result, tmp_path) == HOP_DIGESTS[hop_case_id(case)]


class CountingFifo(deque):
    """The same-time FIFO, counting the items that join it."""

    def __init__(self):
        super().__init__()
        self.joined = 0

    def append(self, item):
        self.joined += 1
        super().append(item)


class CountingEngine(_Engine):
    """Counts slot ticks and FIFO items; with `eager`, ticks every slot as a
    non-lazy clock would."""

    eager = False

    def __init__(self, *args):
        super().__init__(*args)
        self.ticks = 0
        self.fifo = CountingFifo()

    def run(self):
        if self.eager and self.transit is not None and self.transit.ues:
            self._arm([0], 0)
        super().run()

    def _handle_slot(self, slot_index):
        self.ticks += 1
        super()._handle_slot(slot_index)
        if self.eager:
            self._arm([0], slot_index + 1)


class EagerEngine(CountingEngine):
    eager = True

    def _checkpoint_at(self, index):
        """Take no checkpoint: a jump over repeated hyperperiods skips their ticks."""


def engine_run(scn, engine_cls, end_ns=None):
    """`sim.run` with its engine swapped for `engine_cls`, ending at `end_ns`
    if given; returns (result, engine)."""
    state, decisions = _admit_flows(scn, "scenario")
    engine = engine_cls(state.topology, _build_flow_ctxs(scn, state), scn.duration_ms, scn.seed)
    if end_ns is not None:
        engine.end_ns = end_ns
    engine.run()
    return _build_result(scn, state, engine, decisions, scn.seed, "scenario"), engine


def dense_ue_doc() -> dict:
    """A line of three switches with six UEs on S1: UE uplinks, half of them
    through the NW-TT regulator, host downlinks to the UEs, greedy host flows
    and an on/off background source."""
    ues = [f"UE{i}" for i in range(6)]
    hosts = [f"H{s}{k}" for s in range(3) for k in range(2)]
    ue_spec = {"rate_Bps": 100_000, "burst_B": 200, "max_pkt_B": 200, "deadline_us": 40_000}
    flows = []
    for i, ue in enumerate(ues):
        flows.append({"flow_id": f"{ue}-ul", "src": ue, "dst": hosts[-1 - i], **ue_spec,
                      "dejitter": i % 2 == 0, "source": {"mode": "periodic",
                                                         "period_us": 2_000, "pkt_B": 200}})
        flows.append({"flow_id": f"{ue}-dl", "src": hosts[i], "dst": ue, **ue_spec,
                      "source": {"mode": "periodic", "period_us": 2_000, "pkt_B": 200}})
    for i, (src, dst) in enumerate((("H00", "H20"), ("H21", "H01"), ("H10", "H11"))):
        flows.append({"flow_id": f"h{i}", "src": src, "dst": dst, "rate_Bps": 50_000,
                      "burst_B": 1_500, "max_pkt_B": 500, "deadline_us": 20_000,
                      "source": {"mode": "greedy_token_bucket", "pkt_B": 500,
                                 "burst_B": 1_500, "rate_Bps": 50_000}})
    return {
        "schema_version": 1,
        "topology": {
            "switches": [{"id": f"S{s}", "link_rate_Bps": 12_500_000, "fwd_delay_us": [0] * 8,
                          "port_buffer_B": 65_536} for s in range(3)],
            "links": [["S0.1", "S1.2"], ["S1.1", "S2.2"]],
            "hosts": [{"id": h, "attach": f"S{h[1]}.{3 + int(h[2])}"} for h in hosts],
            "transit5g": {"tdd_pattern": "DDDSU", "numerology": 1, "attach": "S1.5",
                          "ues": [{"id": ue, "tbs_ul_B": 1_500, "tbs_dl_B": 3_000}
                                  for ue in ues]},
        },
        "flows": flows,
        "nwtt": {"dejitter": {"hold_us": 3_000, "release_period_us": 1_000}},
        "sim": {"duration_ms": 2_000, "seed": 1, "sources": [
            {"flow_id": "bg", "src": "H01", "dst": "H21", "mode": "onoff_background",
             "pkt_B": 1_500, "rate_Bps": 2_000_000, "on_ms": 20, "off_ms": 80},
        ]},
    }


class TestLazySlotClock:
    def test_canonical_ticks_only_its_uplink_slots(self):
        # 4 s of DDDSU at 0.5 ms slots: 8,000 slots, 1,600 of them U slots,
        # and the UE queues are rarely empty at one
        result, engine = engine_run(load_scenario(canonical_scenario()), CountingEngine)
        assert engine.ticks == 1_600
        # its hyperperiod, lcm(2 ms, 9.9 ms, 2 s, 5 ms) = 198 s, leaves no
        # room for a comparison in 4 s: the run takes no checkpoint
        assert engine.period_ns == 198 * NS_PER_S
        assert heap_pushes(engine) == 7_345
        assert result.report == run(load_scenario(canonical_scenario())).report

    @pytest.mark.parametrize("doc", [canonical_scenario, dense_ue_doc], ids=["canonical", "dense-ue"])
    def test_ticking_every_slot_changes_nothing(self, doc, tmp_path):
        scn = load_scenario(doc())
        # the lazy run of dense-ue jumps over repeated hyperperiods (300 ms),
        # the eager one simulates them all
        lazy, lazy_engine = engine_run(scn, CountingEngine)
        eager, eager_engine = engine_run(scn, EagerEngine)
        # numerology 1: 2 slots per ms
        assert eager_engine.ticks == scn.duration_ms * 2 > lazy_engine.ticks
        assert result_digest(lazy, tmp_path) == result_digest(eager, tmp_path)

    @pytest.mark.parametrize("dejitter", ["scenario", "on"])
    def test_run_frees_its_hops_ports_and_packets_by_refcount(self, dejitter, monkeypatch):
        # the result keeps the flows; they must not lead back into the run,
        # also not through a regulator queue that still holds packets
        regulated = []

        class RegulatorProbe(_Engine):
            def run(self):
                regs = [ctx.regulator for ctx in self.flows.values() if ctx.regulator]
                super().run()
                regulated.append(sum(len(reg.queue) for reg in regs))

        monkeypatch.setattr(sim, "_Engine", RegulatorProbe)
        scn = load_scenario(canonical_scenario())
        gc.collect()
        gc.disable()
        try:
            result = run(scn, dejitter=dejitter)
            left = [obj for obj in gc.get_objects() if isinstance(obj, (_Hop, _Port, _Packet))]
        finally:
            gc.enable()
        assert any(flow["in_flight"] for flow in result.report["flows"].values())
        assert (regulated[0] > 0) == (dejitter == "on")
        assert left == []

    def test_run_keeping_a_snapshot_frees_its_engine_by_refcount(self):
        # a 25 ms run of a 10 ms hyperperiod whose source starts at 15 ms:
        # the snapshots at 0 and 10 ms differ, and the second is kept, though
        # 25 ms leave no room for the checkpoint at 20 ms that would use it;
        # the snapshot's heap records hold bound methods of the engine
        doc = fabric_doc(["S0"], [], {"A": "S0.1", "B": "S0.2"}, [("A", "B", 1)])
        doc["sim"]["sources"][0].update(period_us=10_000, offset_us=15_000)
        doc["sim"]["duration_ms"] = 25
        gc.collect()
        gc.disable()
        try:
            run(load_scenario(doc))
            left = [obj for obj in gc.get_objects() if isinstance(obj, (_Engine, _Hop, _Port))]
        finally:
            gc.enable()
        assert left == []


def fabric_doc(switches, links, hosts, sources, fwd_us=None) -> dict:
    """Switches with 1 B/us links and 4,000 B buffers, hosts attached as
    given and unregistered periodic 100 B sources, from offset 10 us;
    `fwd_us` maps a switch to its forwarding delay (0 for the others)."""
    fwd_us = fwd_us or {}
    return {
        "schema_version": 1,
        "topology": {
            "switches": [{"id": s, "link_rate_Bps": 1_000_000,
                          "fwd_delay_us": [fwd_us.get(s, 0)] * 8, "port_buffer_B": 4_000}
                         for s in switches],
            "links": links,
            "hosts": [{"id": h, "attach": port} for h, port in hosts.items()],
        },
        "sim": {"duration_ms": 10, "seed": 1, "sources": [
            {"flow_id": f"{src}{dst}", "src": src, "dst": dst, "mode": "periodic",
             "period_us": 1_000_000, "pkt_B": 100, "offset_us": 10, "count": count}
            for src, dst, count in sources]},
    }


def counted_run(doc, engine_cls=CountingEngine):
    """`sim.run` of `doc` with `engine_cls`, checked packet by packet against
    the reference engine; returns (result, engine)."""
    scn = load_scenario(doc)
    result, engine = engine_run(scn, engine_cls)
    diffs = reference_engine.differences(reference_engine.engine_outcome(result),
                                         reference_engine.simulate(scn))
    assert not diffs, "engine and reference differ:\n" + "\n".join(diffs)
    return result, engine


def heap_pushes(engine) -> int:
    """The entries a finished run pushed onto its heap, the sentinel aside."""
    return next(engine.counter)


class TestOneEventHop:
    """An event that a handler schedules as its last act runs in place when
    `not fifo and when < heap[0][0]`: a next-hop arrival without forwarding
    delay, and the end of a transmission started on an idle port."""

    def test_lone_packet_crosses_idle_hops_with_one_fifo_item(self):
        # A -> B over S0.1, S1.1 and S2.3: only the emission's arrival at
        # S0.1 passes the FIFO, the two hop arrivals run in their txdones,
        # and the three txdones in the arrivals: the heap holds only the
        # emission and the next one, due past the end
        result, engine = counted_run(fabric_doc(
            ["S0", "S1", "S2"], [["S0.1", "S1.2"], ["S1.1", "S2.2"]],
            {"A": "S0.3", "B": "S2.3"}, [("A", "B", 1)]))
        assert engine.fifo.joined == 1
        assert heap_pushes(engine) == 2
        assert result.report["flows"]["AB"]["received"] == 1

    def test_long_route_runs_in_a_loop(self):
        # a line of more switches than the interpreter's recursion limit
        # (1,000 by default): the packet crosses every idle hop in one FIFO
        # item, which must not nest a call per hop
        n = sys.getrecursionlimit() + 1
        doc = fabric_doc([f"S{i}" for i in range(n)],
                         [[f"S{i}.1", f"S{i + 1}.2"] for i in range(n - 1)],
                         {"A": "S0.3", "B": f"S{n - 1}.3"}, [("A", "B", 1)])
        doc["sim"]["duration_ms"] = n // 10 + 1  # 100 us a hop
        result, _ = counted_run(doc)
        assert result.report["flows"]["AB"]["latency_us"]["max"] == n * 100.0

    def test_transmission_ending_at_a_heap_entrys_time_is_pushed(self):
        # AB's transmission at S0.2 ends at 110 us, when CB's emission is
        # due: the inequality is strict, so it is pushed and runs after the
        # emission; CB's transmission then ends in place at 210 us
        doc = fabric_doc(["S0"], [], {"A": "S0.1", "B": "S0.2", "C": "S0.3"},
                         [("A", "B", 1), ("C", "B", 1)])
        doc["sim"]["sources"][1]["offset_us"] = 110
        result, engine = counted_run(doc)
        assert heap_pushes(engine) == 5  # four emissions and AB's transmission
        flows = result.report["flows"]
        assert flows["AB"]["latency_us"]["max"] == flows["CB"]["latency_us"]["max"] == 100.0

    def test_transmission_started_with_a_fifo_item_waiting_is_pushed(self):
        # both emissions' arrivals join the FIFO at 10 us: AB's transmission
        # starts while AC's arrival waits, so it is pushed, and AC's 50 B
        # transmission, ending before it, runs in place
        doc = fabric_doc(["S0"], [], {"A": "S0.1", "B": "S0.2", "C": "S0.3"},
                         [("A", "B", 1), ("A", "C", 1)])
        doc["sim"]["sources"][1]["pkt_B"] = 50
        result, engine = counted_run(doc)
        assert engine.fifo.joined == 2
        assert heap_pushes(engine) == 5  # four emissions and AB's transmission
        flows = result.report["flows"]
        assert (flows["AB"]["latency_us"]["max"], flows["AC"]["latency_us"]["max"]) == (100.0, 50.0)

    def test_one_slot_transmission_keeps_the_pushers_rank(self):
        # 500 B take one 500 us slot on the wire (tx_rank None), so a
        # transmission end run in place takes the rank of the event that
        # started it, seen at delivery: 2 for AB's FIFO item at S0.4, and 0
        # for AD's arrival at S1.3, which S1's 600 us forwarding delay pushed
        # more than a slot ahead
        delivered = []

        class DeliveryProbe(CountingEngine):
            def _deliver(self, pkt):
                delivered.append((pkt.ctx.source.flow_id, self.t, self.rank))
                super()._deliver(pkt)

        doc = fabric_doc(["S0", "S1"], [["S0.1", "S1.1"]],
                         {"A": "S0.3", "B": "S0.4", "D": "S1.3"},
                         [("A", "B", 1), ("A", "D", 1)], fwd_us={"S1": 600})
        doc["topology"]["transit5g"] = {
            "tdd_pattern": "DDDSU", "numerology": 1, "attach": "S0.5",
            "ues": [{"id": "UE1", "tbs_ul_B": 1_500, "tbs_dl_B": 1_500}]}
        for source in doc["sim"]["sources"]:
            source["pkt_B"] = 500
        doc["sim"]["sources"][1]["offset_us"] = 2_000
        result, engine = counted_run(doc, DeliveryProbe)
        assert engine.slot_ns == 500_000
        assert delivered == [("AB", 510_000, 2), ("AD", 3_600_000, 0)]
        # four emissions and AD's arrival at S1.3; every transmission ends in place
        assert heap_pushes(engine) == 5

    def test_transmissions_ending_together_keep_the_fifo(self):
        # A -> C and B -> C end their first hops in one nanosecond and meet at
        # S2.3: at the first txdone the second is on the heap at that time,
        # at the second the first arrival waits in the FIFO, so both hop
        # arrivals take the FIFO, as the emissions' arrivals do
        result, engine = counted_run(fabric_doc(
            ["S0", "S1", "S2"], [["S0.1", "S2.1"], ["S1.1", "S2.2"]],
            {"A": "S0.3", "B": "S1.3", "C": "S2.3"}, [("A", "C", 1), ("B", "C", 1)]))
        assert engine.fifo.joined == 4
        flows = result.report["flows"]
        assert flows["AC"]["latency_us"]["max"] == 200.0  # first through S2.3
        assert flows["BC"]["latency_us"]["max"] == 300.0

    def test_delayed_arrival_is_pushed_before_the_next_transmission(self):
        # two packets queue at S0.1; when the first leaves, its arrival at
        # S1.3 after S1's 100 us forwarding delay and the second's txdone
        # 100 us on share a (time, rank), so push order decides: the first
        # packet goes on the wire at S1.3 before the second is forwarded,
        # and S1.3 never holds both
        result, engine = counted_run(fabric_doc(
            ["S0", "S1"], [["S0.1", "S1.1"]], {"A": "S0.3", "B": "S1.3"},
            [("A", "B", 2)], fwd_us={"S1": 100}))
        assert result.report["ports"]["S1.3"]["0"]["max_occupancy_B"] == 100
        assert result.report["flows"]["AB"]["received"] == 2
