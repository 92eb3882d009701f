"""A reference engine: the simulator's data plane and event order, written plainly.

`sim._Engine` is built for speed: it ranks events against a lazy slot
clock, runs same-time pushes from a FIFO, fixes each hop's ranks once per
run and sends a packet on an idle port without queueing it.  This module
runs the machine that the `sim` docstring and the README define its order
by, with none of that:

- one heap of `(t, seq)` entries: events run in time order, and events of
  the same time in the order they were pushed;
- a TDD clock that ticks at every slot boundary, at t = 0 too, each tick
  pushing the next one when its own work is done (the tick at t = 0 is
  pushed before run initialisation pushes the first emissions);
- a packet's forwarding to a hop and its transmission there as events of
  their own: it joins its class queue at the egress port, and an idle
  port then starts its highest non-empty class.

The data plane follows the `sim` and `nwtt` docstrings and the README:
per-flow exact-integer token-bucket policers at the source hosts, per-UE
FIFO queues drained one transport block per usable slot in a rotation of
the UEs (uplink first, then downlink), the NW-TT's hold-and-forward
regulator queues, per-class forwarding delays and non-preemptive
strict-priority egress ports with a per-class buffer.

It reads the input as `sim` does (`sim._timing`, each source's timing
record, and `sim._schedule` for the emissions; `sim._admit_flows` and
`sim._build_flow_ctxs` for each flow's treatment)
and shares no engine, port, hop, packet, policer or regulator code.
`simulate` returns, per flow, each packet's send time and outcome, the
drops by stage and the bound violations, and the largest occupancy of
each (port, class): what `compare` checks against `sim.run`.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from dataclasses import dataclass, field

from detnet5g import sim
from detnet5g.transit5g import DOWNLINK, UPLINK
from detnet5g.units import NS_PER_S, NS_PER_US, ceil_div

DROPPED = "dropped"  # a packet's outcome when it was dropped; None while in flight


def slot_usable(tdd, index: int, direction: str) -> bool:
    """Whether slot `index` of `tdd`'s repeating pattern carries `direction`'s
    traffic: a U or D slot its own direction's, an S slot the directions its
    flags allow."""
    kind = tdd.pattern[index % len(tdd.pattern)]
    if kind == "S":
        return tdd.s_slot_usable_ul if direction == UPLINK else tdd.s_slot_usable_dl
    return kind == ("U" if direction == UPLINK else "D")


@dataclass
class FlowOutcome:
    sends: list = field(default_factory=list)  # per seq: send time (ns)
    outcomes: list = field(default_factory=list)  # per seq: receive time (ns), DROPPED or None
    drops: dict = field(default_factory=dict)  # by stage
    violations: dict = field(default_factory=dict)  # by kind, admitted flows only


@dataclass
class Outcome:
    flows: dict  # flow id -> FlowOutcome
    max_occupancy: dict  # (port name, class) -> bytes, for every pair a packet entered


class _Packet:
    def __init__(self, flow, seq, size_B, t_send):
        self.flow = flow
        self.seq = seq
        self.size_B = size_B
        self.t_send = t_send
        self.remaining_B = size_B  # still to cross the air interface
        self.grant_slot = None  # first slot that may carry it
        self.hop = 0  # index into the route
        self.hop_in = None  # when it reached the current hop
        self.overruns = 0  # hops over their bound
        self.transit_out = None  # when it left the uplink
        self.reg_out = None  # when the regulator released it
        self.dl_in = None  # when it reached the downlink queue


class _Flow:
    def __init__(self, ctx, topo):
        source = ctx.source
        self.id = source.flow_id
        self.source = source
        self.size_B = source.params["pkt_B"]
        self.cls = ctx.pcp
        self.route = ctx.route
        self.assignment = ctx.assignment
        self.from_ue = topo.transit is not None and source.src in topo.transit.ues
        self.to_ue = topo.transit is not None and source.dst in topo.transit.ues
        # the policer's TSpec: a bucket of burst_B bytes filled at rate_Bps,
        # full at t = 0, kept in byte-nanoseconds so no fraction is lost
        self.policed = ctx.policer is not None
        if self.policed:
            spec = ctx.assignment.spec
            self.bucket_cap = spec.burst_B * NS_PER_S
            self.bucket = self.bucket_cap
            self.bucket_rate = spec.rate_Bps
            self.bucket_at = 0
        self.out = FlowOutcome()
        if ctx.assignment is not None:
            self.out.violations = dict.fromkeys(sim._VIOLATION_KINDS, 0)


class _Regulator:
    """Hold and forward: the first packet of a busy period leaves `hold` after it
    arrived, but never less than a period after the previous busy period's
    last departure; the packets queued behind it leave one period apart."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.queue = deque()
        self.next_release = None  # None: idle
        self.last_release = None


class _Port:
    def __init__(self, name, profile):
        self.name = name
        self.profile = profile
        self.queues = [deque() for _ in range(profile.class_count)]
        self.occupancy = [0] * profile.class_count  # bytes per class, the packet on the wire included
        self.busy = None


class ReferenceEngine:
    """One run: the flows as `sim._build_flow_ctxs` treats them, their
    ports, UE queues and regulator queues, and the event heap."""

    def __init__(self, topo, ctxs: dict, duration_ms: int, seed: int):
        self.topo = topo
        self.end_ns = duration_ms * 1_000_000
        self.seed = seed
        self.heap = []
        self.pushes = itertools.count()
        self.now = 0
        self.flows = {fid: _Flow(ctx, topo) for fid, ctx in ctxs.items()}
        self.regulator_of = {  # flow id -> its regulator queue
            fid: _Regulator(ctx.regulator.cfg) for fid, ctx in ctxs.items()
            if ctx.regulator is not None}
        self.ports = {}
        self.max_occupancy = {}
        transit = topo.transit
        self.ues = [] if transit is None else sorted(transit.ues)
        self.ul_queue = {ue: deque() for ue in self.ues}
        self.dl_queue = {ue: deque() for ue in self.ues}

    def push(self, t, action, *args):
        heapq.heappush(self.heap, (t, next(self.pushes), action, args))

    def run(self) -> Outcome:
        if self.topo.transit is not None:
            self.push(0, self.tick, 0)
        for flow in self.flows.values():
            model = flow.source
            schedule = sim._schedule(
                sim._timing(model, random.Random(f"{self.seed}:{model.flow_id}")))
            t, count = next(schedule)
            if t <= self.end_ns:
                self.push(t, self.emit, flow, schedule, count)
        while self.heap and self.heap[0][0] <= self.end_ns:
            t, _, action, args = heapq.heappop(self.heap)
            self.now = t
            action(*args)
        return Outcome({fid: flow.out for fid, flow in self.flows.items()}, self.max_occupancy)

    # ------------------------------------------------------------ sources

    def emit(self, flow, schedule, count):
        for _ in range(count):
            pkt = _Packet(flow, len(flow.out.sends), flow.size_B, self.now)
            flow.out.sends.append(self.now)
            flow.out.outcomes.append(None)
            if flow.from_ue:
                self.enter_ue_queue(pkt, self.ul_queue[flow.source.src])
            elif flow.policed and not self.conforms(flow, pkt.size_B):
                self.drop(pkt, "policer")
            else:
                self.forward(pkt)
        t, count = next(schedule)
        if t <= self.end_ns:
            self.push(t, self.emit, flow, schedule, count)

    def conforms(self, flow, size_B) -> bool:
        flow.bucket = min(flow.bucket_cap,
                          flow.bucket + flow.bucket_rate * (self.now - flow.bucket_at))
        flow.bucket_at = self.now
        if size_B * NS_PER_S <= flow.bucket:
            flow.bucket -= size_B * NS_PER_S
            return True
        return False

    # ------------------------------------------------------------ 5G segment

    def enter_ue_queue(self, pkt, queue):
        tdd = self.topo.transit.tdd
        pkt.grant_slot = tdd.first_grant_slot(self.now // tdd.slot_ns)
        pkt.remaining_B = pkt.size_B
        queue.append(pkt)

    def tick(self, boundary):
        """The slot boundary `boundary`: the end of slot `boundary - 1`."""
        tdd = self.topo.transit.tdd
        slot = boundary - 1
        if slot >= 0 and self.ues:
            k = slot % len(self.ues)
            rotation = self.ues[k:] + self.ues[:k]
            ues = self.topo.transit.ues
            if slot_usable(tdd, slot, UPLINK):
                for ue in rotation:
                    for pkt in self.drain(self.ul_queue[ue], ues[ue].tbs_ul_B, slot):
                        pkt.transit_out = self.now
                        self.nwtt_ingress(pkt)
            if slot_usable(tdd, slot, DOWNLINK):
                for ue in rotation:
                    for pkt in self.drain(self.dl_queue[ue], ues[ue].tbs_dl_B, slot):
                        self.deliver(pkt)
        self.push((boundary + 1) * tdd.slot_ns, self.tick, boundary + 1)

    def drain(self, queue, tbs_B, slot) -> list:
        """One transport block of `tbs_B` bytes from a UE queue in `slot`: the
        packets it completes, in queue order.  The block serves the queue
        from its head, only packets whose grant slot has come, and a packet
        it cuts keeps its remaining bytes for a later block."""
        done = []
        budget = tbs_B
        while queue and budget > 0 and queue[0].grant_slot <= slot:
            pkt = queue[0]
            sent = min(budget, pkt.remaining_B)
            pkt.remaining_B -= sent
            budget -= sent
            if pkt.remaining_B:
                break
            done.append(queue.popleft())
        return done

    def nwtt_ingress(self, pkt):
        reg = self.regulator_of.get(pkt.flow.id)
        if reg is None:
            self.forward(pkt)
            return
        if len(reg.queue) >= reg.cfg.queue_cap_pkts:
            self.drop(pkt, "regulator")
            return
        reg.queue.append(pkt)
        if reg.next_release is None:  # the first packet of a busy period
            release = self.now + reg.cfg.hold_us * NS_PER_US
            if reg.last_release is not None:
                release = max(release, reg.last_release + reg.cfg.release_period_us * NS_PER_US)
            reg.next_release = release
            self.push(release, self.release, reg)

    def release(self, reg):
        pkt = reg.queue.popleft()
        pkt.reg_out = reg.last_release = self.now
        reg.next_release = self.now + reg.cfg.release_period_us * NS_PER_US if reg.queue else None
        self.forward(pkt)
        if reg.queue:
            self.push(reg.next_release, self.release, reg)

    # ------------------------------------------------------------ fabric

    def forward(self, pkt):
        """The packet reaches hop `pkt.hop`: the switch's forwarding delay
        for the flow's class passes before it enters the egress queue."""
        port_id = pkt.flow.route[pkt.hop]
        pkt.hop_in = self.now
        delay_ns = self.topo.switches[port_id.node].fwd_delay_us[pkt.flow.cls] * NS_PER_US
        self.push(self.now + delay_ns, self.enter_port, pkt)

    def port(self, port_id) -> _Port:
        if port_id not in self.ports:
            self.ports[port_id] = _Port(str(port_id), self.topo.switches[port_id.node])
        return self.ports[port_id]

    def enter_port(self, pkt):
        port = self.port(pkt.flow.route[pkt.hop])
        cls = pkt.flow.cls
        if port.occupancy[cls] + pkt.size_B > port.profile.port_buffer_B:
            self.drop(pkt, f"queue:{port.name}")
            return
        port.occupancy[cls] += pkt.size_B
        key = (port.name, cls)
        self.max_occupancy[key] = max(self.max_occupancy.get(key, 0), port.occupancy[cls])
        port.queues[cls].append(pkt)
        if port.busy is None:
            self.start_next(port)

    def start_next(self, port):
        """Non-preemptive strict priority: the head of the highest non-empty
        class goes on the wire."""
        for cls in reversed(range(len(port.queues))):
            if port.queues[cls]:
                pkt = port.queues[cls].popleft()
                port.busy = pkt
                tx_ns = ceil_div(pkt.size_B * NS_PER_S, port.profile.link_rate_Bps)
                self.push(self.now + tx_ns, self.end_transmission, port)
                return

    def end_transmission(self, port):
        pkt, port.busy = port.busy, None
        flow = pkt.flow
        port.occupancy[flow.cls] -= pkt.size_B
        if flow.assignment is not None:
            bound_ns = flow.assignment.per_hop_bounds_us[pkt.hop] * NS_PER_US
            if self.now - pkt.hop_in > bound_ns:
                pkt.overruns += 1
        pkt.hop += 1
        if pkt.hop < len(flow.route):
            self.forward(pkt)
        elif flow.to_ue:
            pkt.dl_in = self.now
            self.enter_ue_queue(pkt, self.dl_queue[flow.source.dst])
        else:
            self.deliver(pkt)
        self.start_next(port)

    # ------------------------------------------------------------ outcomes

    def drop(self, pkt, stage):
        out = pkt.flow.out
        out.outcomes[pkt.seq] = DROPPED
        out.drops[stage] = out.drops.get(stage, 0) + 1

    def deliver(self, pkt):
        flow = pkt.flow
        flow.out.outcomes[pkt.seq] = self.now
        a = flow.assignment
        if a is None:
            return
        v = flow.out.violations
        if self.now - pkt.t_send > a.e2e_bound_us * NS_PER_US:
            v["e2e"] += 1
        v["per_hop"] += pkt.overruns
        if pkt.transit_out is not None:
            uplink = pkt.transit_out - pkt.t_send
            if uplink > a.ul.delay_bound_us * NS_PER_US:
                v["transit"] += 1
            if uplink < a.ul.best_case_us * NS_PER_US:
                v["transit_best"] += 1
            if (pkt.reg_out is not None and pkt.reg_out - pkt.t_send
                    > (a.ul.delay_bound_us + a.regulator_bound_us) * NS_PER_US):
                v["transit_regulator"] += 1
        if pkt.dl_in is not None:
            downlink = self.now - pkt.dl_in
            if downlink > a.dl.delay_bound_us * NS_PER_US:
                v["transit"] += 1
            if downlink < a.dl.best_case_us * NS_PER_US:
                v["transit_best"] += 1


def simulate(scenario, *, seed: int | None = None, dejitter: str = "scenario") -> Outcome:
    """The reference run of `scenario`, admitted and treated as `sim.run` does."""
    run_seed = scenario.seed if seed is None else seed
    state, _ = sim._admit_flows(scenario, dejitter)
    ctxs = sim._build_flow_ctxs(scenario, state)
    return ReferenceEngine(state.topology, ctxs, scenario.duration_ms, run_seed).run()


def engine_outcome(result) -> Outcome:
    """The same view of a `sim.run` result, read from its report and from the
    send and receive times (ns) its trace is written from."""
    flows = {fid: FlowOutcome(drops=entry["drops"],
                              violations=entry["violations"] if entry["admitted"] else {})
             for fid, entry in result.report["flows"].items()}
    for ctx in result.trace_rows.ctxs:
        out = flows[ctx.source.flow_id]
        out.sends = list(ctx.t_send)
        out.outcomes = [DROPPED if t == sim.DROPPED else None if t == sim.IN_FLIGHT else t
                        for t in ctx.t_recv]
    max_occupancy = {
        (port, int(cls)): entry["max_occupancy_B"]
        for port, per_class in result.report["ports"].items()
        for cls, entry in per_class.items() if entry["max_occupancy_B"]
    }
    return Outcome(flows, max_occupancy)


def differences(engine: Outcome, reference: Outcome, limit: int = 5) -> list[str]:
    """Where two outcomes differ, at most `limit` lines per kind; empty if they agree."""
    diffs = []
    if engine.flows.keys() != reference.flows.keys():
        return [f"flows: engine {sorted(engine.flows)} reference {sorted(reference.flows)}"]
    for fid, ours in engine.flows.items():
        ref = reference.flows[fid]
        if len(ours.sends) != len(ref.sends):
            diffs.append(f"{fid}: engine sent {len(ours.sends)}, reference {len(ref.sends)}")
        packets = [f"{fid}[{seq}]: engine {a}, reference {b}"
                   for seq, a, b in zip(itertools.count(), zip(ours.sends, ours.outcomes),
                                        zip(ref.sends, ref.outcomes)) if a != b]
        diffs += packets[:limit]
        for what in ("drops", "violations"):
            if getattr(ours, what) != getattr(ref, what):
                diffs.append(f"{fid} {what}: engine {getattr(ours, what)}, "
                             f"reference {getattr(ref, what)}")
    if engine.max_occupancy != reference.max_occupancy:
        keys = sorted(engine.max_occupancy.keys() | reference.max_occupancy.keys())
        diffs += [f"max occupancy {k}: engine {engine.max_occupancy.get(k)}, "
                  f"reference {reference.max_occupancy.get(k)}"
                  for k in keys if engine.max_occupancy.get(k) != reference.max_occupancy.get(k)
                  ][:limit]
    return diffs


def compare(scenario, *, seed: int | None = None, dejitter: str = "scenario") -> list[str]:
    """`differences` between `sim.run` and the reference on one scenario."""
    engine = engine_outcome(sim.run(scenario, seed=seed, dejitter=dejitter))
    return differences(engine, simulate(scenario, seed=seed, dejitter=dejitter))
