"""Deterministic discrete-event simulator of the data plane.

Models the pieces the admission math makes promises about: hosts with
per-flow policers, switches with non-preemptive strict-priority egress
ports, the TDD-gated 5G segment draining per-UE queues one transport
block per usable slot, and the NW-TT with its hold-and-forward regulator
queues.  `_build_flow_ctxs` fixes each flow's treatment once per run, as
the edge devices are configured (class, VLAN, route, policer, regulator),
and the event loop `_Engine` applies it.  Every packet of an admitted flow
is checked against the `FlowAssignment` admission handed out for it: its
end-to-end and per-hop bounds, its UL and DL contracts and its regulator
bound.  Per-class queue occupancy is checked against the backlog bounds;
the run report carries the violation counts (all zero for a sound
pipeline).

Internal time is integer nanoseconds, and a (scenario, seed) pair always
produces byte-identical traces: every file read or written is UTF-8,
whatever the locale.  Events run in time order; simultaneous ones run in
the order of a slot clock that ticks at every slot boundary and schedules
each next tick at the end of the current one: an event scheduled before
that moment runs before the tick, one scheduled after it runs after the
tick, and events on the same side run in scheduling order.  An event
scheduled for the time it is scheduled at joins a FIFO that runs after
every other event of that time.  A sentinel event one nanosecond past the
duration ends the run: no event past the end runs.  The clock itself is
lazy: a slot is ticked only when a UE queue can drain in it, which leaves
the order unchanged because a tick that drains nothing does nothing.  A
packet that reaches an idle egress port goes on the wire at once, without
passing through its class queue: an idle port's queues are empty, because
the end of a transmission starts the port's next packet before its handler
returns.

A run simulates each state once.  The hyperperiod H is the least common
multiple of every source's cycle (a periodic source's period, a greedy
source's packet interval, an on/off source's on plus off time) and, with a
5G segment, of the slot length times the least common multiple of the TDD
pattern's length and the UE count: every emission, every usable slot and
the UE rotation repeat with it.  At checkpoints on multiples of H, each
ahead of every other event of its time, the engine takes a snapshot of all
that decides what follows, every time and slot index taken relative to the
checkpoint: the pending events in pop order, each port's packets, queues
and occupancy, the UE queues and the slots whose tick is pending, each
regulator's queue and release times, each policer's bucket and each flow's
next emission count; a packet is recorded by its flow, its seq less the
flow's sends so far and every field it holds.  A checkpoint at 2^j H
compares its snapshot with the one taken at (2^j - 1) H.  When they are
equal, the run from there is the last hyperperiod's shifted by H, and one
forward rule settles it: each packet in flight takes the fate of the packet
a hyperperiod's worth of its flow's packets before it, a hyperperiod later.
The engine settles the packets in flight so, copies the now settled
hyperperiod's sends and fates into each flow's trace for every whole
hyperperiod left before the end, n of them, adds its drops and violations
as often, moves each packet in the state on by n hyperperiods' worth of its
flow's packets, back in flight, and simulates the rest from where it is,
with the end n H nearer and every time it writes to the trace n H later.
The outputs are those of simulating every event, to the byte, because the
engine's future depends only on what the snapshot holds, and a repeated
hyperperiod leaves the largest occupancies and the set of ports reached as
they were.  A checkpoint is pushed only if the comparison it leads to
leaves a whole hyperperiod to skip: a run shorter than 2H, such as the
canonical scenario's (H = 198 s), takes none, and a run whose state never
repeats takes O(log(duration / H)) snapshots.

The trace keeps two integer columns per flow, send and receive times, the
one record of each packet's outcome: `packet_summary` computes a flow's
counts and latency statistics from them, for the run report and for
`detnet5g report` alike.  This module alone knows the trace's file format:
`write_trace` writes it, its rows ordered and formatted in windows of
about `WINDOW_ROWS` rows sent in a range of time, except the periods a
jump copied with every fate settled, which it writes in blocks of whole
microseconds from one %-format (see `_TraceRows`).  So writing holds one
window or one block of the repeated period, never the whole trace, and
`read_trace` checks each row and reads the two columns back.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import math
import random
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from operator import add, attrgetter, floordiv, mod, sub

from .admission import NetworkState
from .errors import AdmissionMissing, ScenarioInvalid
from .nwtt import RegulatorState, classify_and_tag, regulator_offer, regulator_release
from .scenario import Scenario, SourceModel, open_input
from .topology import PortId, Topology, path_in_tree
from .transit5g import (
    DOWNLINK,
    UPLINK,
    transit_contract,  # not called here; benchmarks/tracing.py looks this name up
)
from .units import NS_PER_S, NS_PER_US, ceil_div

log = logging.getLogger(__name__)

TRACE_COLUMNS = ("flow_id", "seq", "size_B", "t_send_us", "t_recv_us", "latency_us", "dropped")

# the `t_recv` trace entry of a packet not delivered (yet): no time is negative
IN_FLIGHT = -1
DROPPED = -2

# the trace's rows per window, about: `write_trace` holds one window at a time
WINDOW_ROWS = 512

# the longest trace field `read_trace` reads: the most a C long holds on every platform
TRACE_FIELD_LIMIT = 2**31 - 1

# the bound checks a delivered packet of an admitted flow can fail
_VIOLATION_KINDS = ("e2e", "per_hop", "transit", "transit_best", "transit_regulator")


class _Packet:
    __slots__ = (
        "ctx", "seq", "hop", "hop_in", "hop_overruns",
        "remaining_B", "eligible_slot", "transit_out", "reg_out", "dl_in",
    )

    def __init__(self, ctx, seq):
        self.ctx = ctx
        self.seq = seq  # the packet's index into its flow's trace columns
        self.hop_overruns = 0  # hops over their bound, counted at delivery


# the times a `_Packet` may hold, set as it crosses the stages that set them
_PACKET_TIMES = ("hop_in", "transit_out", "reg_out", "dl_in")


class _Port:
    __slots__ = (
        "profile", "buffer_B", "drop_stage", "queues", "by_priority", "queued",
        "occupancy", "max_occupancy", "busy", "reached",
    )

    def __init__(self, port_id: PortId, profile):
        self.profile = profile
        self.buffer_B = profile.port_buffer_B
        self.drop_stage = f"queue:{port_id}"
        self.queues = [deque() for _ in range(profile.class_count)]
        self.by_priority = self.queues[::-1]  # highest class first
        self.queued = 0  # packets in the queues, not counting the one on the wire
        self.occupancy = [0] * profile.class_count
        self.max_occupancy = [0] * profile.class_count
        self.busy = None
        self.reached = False  # has a packet arrived here


def _fixed_rank(ahead_ns: int, slot_ns: int):
    """The rank of an event pushed `ahead_ns` > 0 before its time (see
    `_Engine`), or None when it is that of the event pushing it."""
    return 0 if ahead_ns > slot_ns else 2 if ahead_ns < slot_ns else None


class _Hop:
    """One hop of a flow's route, resolved once per run: the egress port, the
    flow's class, its forwarding delay before the port (that of its class),
    the transmission time of its packets there, the flow's bound for the hop
    (infinite for an unregistered flow) and the next hop (None at the last).
    Both delays are fixed, so are the ranks of the pushes that wait them out
    (`_fixed_rank`)."""

    __slots__ = ("port", "cls", "fwd_ns", "fwd_rank", "tx_ns", "tx_rank", "bound_ns", "next")

    def __init__(self, port: _Port, cls: int, pkt_B: int, bound_us, slot_ns: int, next_hop):
        self.port = port
        self.cls = cls
        self.fwd_ns = port.profile.fwd_delay_us[cls] * NS_PER_US
        self.fwd_rank = _fixed_rank(self.fwd_ns, slot_ns)  # unused when fwd_ns is 0
        self.tx_ns = ceil_div(pkt_B * NS_PER_S, port.profile.link_rate_Bps)
        self.tx_rank = _fixed_rank(self.tx_ns, slot_ns)
        self.bound_ns = bound_us * NS_PER_US
        self.next = next_hop


class _FlowCtx:
    __slots__ = (
        "source", "pkt_B", "assignment", "critical", "pcp", "vlan_id", "route", "policer",
        "regulator", "t_send", "t_recv", "drops", "violations", "first_hop",
        "ul_queue", "dl_queue", "limits_ns", "schedule", "count",
    )

    def __init__(self, source: SourceModel, assignment=None, critical=False):
        self.source = source
        self.pkt_B = source.params["pkt_B"]
        self.assignment = assignment  # the admitted flow's FlowAssignment; None if unregistered
        self.critical = critical
        # the flow's treatment, fixed by `_build_flow_ctxs` (None: no policer,
        # no regulator queue; a `RegulatorState` is the flow's own)
        self.pcp = 0
        self.vlan_id = None
        self.route = ()
        self.policer = None
        self.regulator = None
        # set by the engine for the length of a run: the first of the route's
        # chained `_Hop`s and the UE queues the flow's packets enter (None if
        # not a UE)
        self.first_hop = None
        self.ul_queue = None
        self.dl_queue = None
        # the assignment's bounds in ns, set by the engine (None: unregistered)
        self.limits_ns = None
        # the flow's `_schedule` and the packet count of its next emission,
        # set by the engine: an emission event's payload is the flow itself
        self.schedule = None
        self.count = 0
        # the flow's trace, indexed by seq: send time, and delivery time,
        # IN_FLIGHT or DROPPED (ns)
        self.t_send = array("q")
        self.t_recv = array("q")
        self.drops = {}
        self.violations = dict.fromkeys(_VIOLATION_KINDS, 0)


class _Policer:
    """Exact-integer token bucket; drops non-conforming packets."""

    __slots__ = ("burst_B", "rate_Bps", "tokens", "carry", "last_ns")

    def __init__(self, burst_B, rate_Bps):
        self.burst_B = burst_B
        self.rate_Bps = rate_Bps
        self.tokens = burst_B
        self.carry = 0
        self.last_ns = 0

    def allow(self, size_B: int, t_ns: int) -> bool:
        grown = self.rate_Bps * (t_ns - self.last_ns) + self.carry
        add, self.carry = divmod(grown, NS_PER_S)
        self.tokens += add
        if self.tokens >= self.burst_B:
            self.tokens = self.burst_B
            self.carry = 0
        self.last_ns = t_ns
        if size_B <= self.tokens:
            self.tokens -= size_B
            return True
        return False


@dataclass
class RunResult:
    decisions: list  # the wire's response to each scenario flow, in scenario order
    report: dict
    trace_rows: _TraceRows


@dataclass(frozen=True)
class _Repeat:
    """The periods a run's jump copied into the trace: from `start_ns` on,
    `settled` periods of `period_ns` in which every packet has a fate, each
    the one before shifted by a period.  `flows` maps each flow id to its
    first copied seq and its packets per period."""

    start_ns: int
    period_ns: int
    settled: int
    flows: dict


def _schedule(model: SourceModel, rng: random.Random):
    """Yield `(t_ns, packet_count)` for each emission of a source, in time order."""
    params = model.params
    offset = params.get("offset_us")
    if model.mode == "periodic":
        start = rng.randrange(params["period_us"]) if offset is None else offset
        count = params.get("count", 1)
        for t in itertools.count(start * NS_PER_US, params["period_us"] * NS_PER_US):
            yield t, count
    start = (offset or 0) * NS_PER_US
    interval = _interval_ns(params)
    if model.mode == "greedy_token_bucket":
        yield start, max(1, params["burst_B"] // params["pkt_B"])
        for t in itertools.count(start + interval, interval):
            yield t, 1
    # onoff_background: paced emissions inside each on-window, all windows
    # shifted by the offset; one that would fall at or past a window's end
    # moves to the next window's start
    on_ns = params["on_ms"] * 1_000_000
    off_ns = params["off_ms"] * 1_000_000
    while True:
        for t in range(start, start + on_ns, interval):
            yield t, 1
        start += on_ns + off_ns


def _interval_ns(params: dict) -> int:
    """A greedy or on/off source's spacing of single-packet emissions."""
    return ceil_div(params["pkt_B"] * NS_PER_S, params["rate_Bps"])


def _cycle_ns(model: SourceModel) -> int:
    """The span after which `_schedule`'s emissions of a source repeat: a
    periodic source's period, a greedy source's packet interval (once its
    burst is out) and an on/off source's on plus off time."""
    params = model.params
    if model.mode == "periodic":
        return params["period_us"] * NS_PER_US
    if model.mode == "greedy_token_bucket":
        return _interval_ns(params)
    return (params["on_ms"] + params["off_ms"]) * 1_000_000


def _limits_ns(a) -> tuple:
    """An assignment's bounds in ns: (e2e, UL delay, UL best case, UL delay plus
    regulator, DL delay, DL best case); a missing contract's entries are None."""
    ul = (None, None, None) if a.ul is None else (
        a.ul.delay_bound_us * NS_PER_US, a.ul.best_case_us * NS_PER_US,
        (a.ul.delay_bound_us + a.regulator_bound_us) * NS_PER_US)
    dl = (None, None) if a.dl is None else (
        a.dl.delay_bound_us * NS_PER_US, a.dl.best_case_us * NS_PER_US)
    return (a.e2e_bound_us * NS_PER_US, *ul, *dl)


class _Engine:
    """The event loop.  Heap entries are `(t, rank, seq, handler, payload)`,
    `seq` being drawn from `counter` so that push order breaks a tie.

    `rank` places an event against the slot tick at its time (rank 1) as
    if the clock ticked every slot and pushed each next tick at the end of
    its handler: 0 for an event pushed before that moment, 2 for one pushed
    after it.  An event pushed more than one slot ahead of its time is 0,
    one pushed less than a slot ahead is 2, and one pushed exactly one slot
    ahead takes the rank of the event pushing it; a tick and run
    initialisation push as 0, a same-time FIFO item as 2.  Without a 5G
    segment there are no ticks and every rank is 0.  Pushes for the current
    time go to `fifo`, which runs after every heap entry of that time.

    A packet's forwarding and transmission at a hop wait out delays fixed
    per hop, so each `_Hop` carries the rank of those two pushes (or None
    for the pusher's) and they skip `_push`; a zero forwarding delay goes
    straight to the FIFO.  Emissions and regulator releases, whose delays
    vary, go through `_push`, and slot ticks through `_arm`.  Each handler
    is bound once per engine (`on_*`), and a heap or FIFO entry holds that
    bound method; an emission's payload is its `_FlowCtx`, an arrival's at
    a hop (`on_portin`) its packet and a transmission end's (`on_txdone`)
    its port.  A transmission end forwards its packet before it starts the
    port's next one: a delayed arrival and the next transmission's end can
    share a (time, rank), and push order breaks the tie.
    `tests/reference_engine.py` runs the every-slot clock itself, with
    none of these shortcuts, and the tests compare the two packet by
    packet.

    `run` pushes one sentinel, `(end_ns + 1, -1, -1, None, None)`, ahead of
    every other entry of its time, and the loop stops at its None handler:
    no push checks the end, and the heap is never empty inside the loop.  A
    `_Packet` holds its own state, its size being its flow's `pkt_B`, and
    each stage sets the fields it uses: `hop` and `hop_in` by `_forward`,
    `eligible_slot` and `remaining_B` by `_enqueue_ue`, and `transit_out`,
    `reg_out` and `dl_in` at the uplink drain, the regulator release and the
    downlink enqueue; `_deliver` checks the times its flow's UE queues and
    regulator, fixed for the run, have set.

    A checkpoint is a heap entry `(k * period_ns, -1, -1, on_checkpoint, k)`:
    like the sentinel it runs ahead of every other entry of its time and
    draws nothing from `counter`.  Past t = 0 the FIFO is empty when it
    runs, since FIFO items run before the heap moves on to a later time; at
    t = 0 the FIFO holds run initialisation's emissions due at 0, which
    `_snapshot` does not read.  That costs no false match: each such flow's
    emission due at H is on the heap at H, so the snapshots at 0 and H
    differ, and such a run jumps at 2H at the earliest.  Checkpoints fall at
    0, H, 2H, 3H, 4H, 7H, 8H, ...: the one at (2^j - 1) H keeps its snapshot
    in `snapshot` for the one at 2^j H to compare, so no more than two
    snapshots are held.  On a match `_jump` settles the packets in flight by
    one forward rule: such a packet has the fate of the packet one
    hyperperiod's worth of its flow's packets before it, one hyperperiod
    later, and in ascending seq that fate is settled before it is read.  It
    then copies the settled hyperperiod, and puts the packets in the state,
    moved on by the skipped hyperperiods, back in flight.  The engine then
    goes on from the checkpoint's time with the sentinel `shift` = n H
    earlier: `_handle_emit` and `_deliver` add `shift` to each time they
    write to the trace, and subtract it from each send time they read back,
    and no other time, slot index or schedule moves.  No checkpoint follows a
    jump, so `_snapshot` sees a nonzero `shift` only when called after
    one.  `repeat` records the copied periods for the trace writer
    (`_Repeat`).
    """

    def __init__(self, topo: Topology, flows: dict, duration_ms: int, seed: int):
        self.flows = flows
        self.seed = seed
        self.end_ns = duration_ms * 1_000_000
        self.t = 0
        self.rank = 0  # of the event running now
        self.heap = []
        self.fifo = deque()
        self.counter = itertools.count()
        self.transit = topo.transit
        self.slot_ns = 0
        self.grant_slots = 0  # a packet that reaches a UE queue in slot k may go in slot k + this
        self.armed: set[int] = set()  # slots whose tick is on the heap
        # what a slot tick does depends only on its index: the UE rotation
        # repeats every len(UEs) slots and the waits for a usable slot every pattern
        self.rotations: list[list[tuple]] = []
        self.ul_wait: tuple = ()
        self.dl_wait: tuple = ()
        ue_ul, ue_dl = {}, {}
        if self.transit is not None:
            ues = self.transit.ues
            queues = []
            for ue in sorted(ues):
                ue_ul[ue], ue_dl[ue] = deque(), deque()
                queues.append((ue_ul[ue], ues[ue].tbs_ul_B, ue_dl[ue], ues[ue].tbs_dl_B))
            self.rotations = [queues[k:] + queues[:k] for k in range(len(queues))]
            tdd = self.transit.tdd
            self.slot_ns = tdd.slot_ns
            self.grant_slots = tdd.first_grant_slot(0)
            self.ul_wait = tdd.staircase(UPLINK).wait
            self.dl_wait = tdd.staircase(DOWNLINK).wait
        self.all_ports: dict[PortId, _Port] = {}  # every port on a flow's route, reached or not
        for ctx in flows.values():
            ctx.ul_queue = ue_ul.get(ctx.source.src)
            ctx.dl_queue = ue_dl.get(ctx.source.dst)
            bounds = ([math.inf] * len(ctx.route) if ctx.assignment is None
                      else ctx.assignment.per_hop_bounds_us)
            hop = None
            for i in reversed(range(len(ctx.route))):
                port_id = ctx.route[i]
                port = self.all_ports.get(port_id)
                if port is None:
                    port = self.all_ports[port_id] = _Port(port_id, topo.switches[port_id.node])
                hop = _Hop(port, ctx.pcp, ctx.pkt_B, bounds[i], self.slot_ns, hop)
            ctx.first_hop = hop
            if ctx.assignment is not None:
                ctx.limits_ns = _limits_ns(ctx.assignment)
        # the hyperperiod: every source's emissions, the UE rotation and the
        # usable slots repeat with it
        slot_cycle = 1 if self.transit is None else self.slot_ns * math.lcm(
            len(self.transit.tdd.pattern), len(self.transit.ues) or 1)
        self.period_ns = math.lcm(slot_cycle, *(_cycle_ns(ctx.source) for ctx in flows.values()))
        self.snapshot = None  # the last checkpoint's, kept for the next one to compare
        self.repeat = None  # the periods `_jump` copied, if it ran and copied a packet
        self.shift = 0  # what `_jump` skipped: a trace time less this is an engine time
        # the handlers, bound once: `run` unbinds them, which breaks the cycle
        # through self
        self.on_checkpoint = self._handle_checkpoint
        self.on_emit = self._handle_emit
        self.on_slot = self._handle_slot
        self.on_regrel = self._handle_regrel
        self.on_portin = self._handle_portin
        self.on_txdone = self._handle_txdone

    # ------------------------------------------------------------- scheduling

    def _push(self, t_ns: int, handler, payload):
        ahead = t_ns - self.t
        if not ahead:
            self.fifo.append((handler, payload))
            return
        rank = _fixed_rank(ahead, self.slot_ns)
        heappush(self.heap, (t_ns, self.rank if rank is None else rank, next(self.counter),
                             handler, payload))

    def _arm(self, wait: tuple, slot_index: int):
        """Tick the first slot at or after `slot_index` usable in `wait`'s direction."""
        slots_ahead = wait[slot_index % len(wait)]
        if slots_ahead is None:
            return
        slot_index += slots_ahead
        t_ns = (slot_index + 1) * self.slot_ns  # a slot's tick is at its end
        if slot_index not in self.armed:
            self.armed.add(slot_index)
            heappush(self.heap, (t_ns, 1, next(self.counter), self.on_slot, slot_index))

    # ------------------------------------------------------------- sources

    def _handle_emit(self, ctx: _FlowCtx):
        """Send the emission's `ctx.count` packets, then schedule the next one."""
        t = self.t
        for _ in range(ctx.count):
            pkt = _Packet(ctx, len(ctx.t_send))
            ctx.t_send.append(t + self.shift)
            ctx.t_recv.append(IN_FLIGHT)
            if ctx.ul_queue is not None:
                self._enqueue_ue(pkt, ctx.ul_queue, self.ul_wait)
            elif ctx.policer is not None and not ctx.policer.allow(ctx.pkt_B, t):
                self._drop(pkt, "policer")
            else:
                self._forward(pkt, ctx.first_hop)
        t_ns, ctx.count = next(ctx.schedule)
        self._push(t_ns, self.on_emit, ctx)

    # ------------------------------------------------------------- 5G segment

    def _enqueue_ue(self, pkt: _Packet, queue: deque, wait: tuple):
        """Queue a packet at a UE for its first grant slot in `wait`'s direction."""
        pkt.eligible_slot = self.t // self.slot_ns + self.grant_slots
        pkt.remaining_B = pkt.ctx.pkt_B
        queue.append(pkt)
        if len(queue) == 1:
            self._arm(wait, pkt.eligible_slot)

    def _handle_slot(self, slot_index: int):
        self.rank = 0
        self.armed.discard(slot_index)
        order = self.rotations[slot_index % len(self.rotations)]
        phase = slot_index % len(self.ul_wait)
        if self.ul_wait[phase] == 0:
            for ul_queue, tbs_ul_B, _, _ in order:
                if ul_queue:
                    self._drain_ue(ul_queue, tbs_ul_B, slot_index, uplink=True)
        if self.dl_wait[phase] == 0:
            for _, _, dl_queue, tbs_dl_B in order:
                if dl_queue:
                    self._drain_ue(dl_queue, tbs_dl_B, slot_index, uplink=False)

    def _drain_ue(self, queue: deque, tbs_B: int, slot_index: int, *, uplink: bool):
        budget = tbs_B
        while queue:
            pkt = queue[0]
            if pkt.eligible_slot > slot_index:
                break
            if pkt.remaining_B > budget:  # the block ends inside the packet
                pkt.remaining_B -= budget
                budget = 0
                break
            budget -= pkt.remaining_B
            queue.popleft()
            if uplink:
                pkt.transit_out = self.t
                self._nwtt_ingress(pkt)
            else:
                self._deliver(pkt)
            if not budget:
                break
        if queue and budget < tbs_B:  # a drain left a head behind
            self._arm(self.ul_wait if uplink else self.dl_wait,
                      max(slot_index + 1, queue[0].eligible_slot))

    def _nwtt_ingress(self, pkt: _Packet):
        reg = pkt.ctx.regulator
        if reg is None:
            self._forward(pkt, pkt.ctx.first_hop)
            return
        was_idle = reg.next_release_ns is None
        if regulator_offer(reg, pkt, self.t):
            if was_idle:
                self._push(reg.next_release_ns, self.on_regrel, reg)
        else:
            self._drop(pkt, "regulator")

    def _handle_regrel(self, reg):
        """Release the head, due now: a busy queue has one release event pending."""
        pkt = regulator_release(reg)
        pkt.reg_out = self.t
        self._forward(pkt, pkt.ctx.first_hop)
        if reg.next_release_ns is not None:
            self._push(reg.next_release_ns, self.on_regrel, reg)

    # ------------------------------------------------------------- fabric

    def _forward(self, pkt: _Packet, hop: _Hop):
        """Move a packet to `hop`, whose forwarding delay for the packet's
        class passes before its egress queue."""
        pkt.hop = hop
        pkt.hop_in = self.t
        if not hop.fwd_ns:
            self.fifo.append((self.on_portin, pkt))
            return
        rank = hop.fwd_rank
        heappush(self.heap, (self.t + hop.fwd_ns, self.rank if rank is None else rank,
                             next(self.counter), self.on_portin, pkt))

    def _handle_portin(self, pkt: _Packet):
        hop = pkt.hop
        port = hop.port
        port.reached = True
        cls = hop.cls
        occupancy = port.occupancy[cls] + pkt.ctx.pkt_B
        if occupancy > port.buffer_B:
            self._drop(pkt, port.drop_stage)
            return
        port.occupancy[cls] = occupancy
        if occupancy > port.max_occupancy[cls]:
            port.max_occupancy[cls] = occupancy
        if port.busy is None:
            # an idle port's queues are empty (`_handle_txdone` starts the
            # next packet before it returns): send at once
            port.busy = pkt
            rank = hop.tx_rank
            heappush(self.heap, (self.t + hop.tx_ns, self.rank if rank is None else rank,
                                 next(self.counter), self.on_txdone, port))
        else:
            port.queues[cls].append(pkt)
            port.queued += 1

    def _handle_txdone(self, port: _Port):
        """End a transmission: move the packet on, then start the port's next one."""
        t = self.t
        pkt = port.busy
        hop = pkt.hop
        port.occupancy[hop.cls] -= pkt.ctx.pkt_B
        if t - pkt.hop_in > hop.bound_ns:
            pkt.hop_overruns += 1
        if hop.next is not None:
            self._forward(pkt, hop.next)
        elif pkt.ctx.dl_queue is not None:
            pkt.dl_in = t
            self._enqueue_ue(pkt, pkt.ctx.dl_queue, self.dl_wait)
        else:
            self._deliver(pkt)
        if not port.queued:
            port.busy = None
            return
        # non-preemptive strict priority: highest non-empty class next
        for queue in port.by_priority:
            if queue:
                port.queued -= 1
                port.busy = head = queue.popleft()
                rank = head.hop.tx_rank
                heappush(self.heap, (t + head.hop.tx_ns, self.rank if rank is None else rank,
                                     next(self.counter), self.on_txdone, port))
                return

    # ------------------------------------------------------------- bookkeeping

    def _drop(self, pkt: _Packet, stage: str):
        ctx = pkt.ctx
        ctx.t_recv[pkt.seq] = DROPPED
        ctx.drops[stage] = ctx.drops.get(stage, 0) + 1

    def _deliver(self, pkt: _Packet):
        ctx = pkt.ctx
        t = self.t
        ctx.t_recv[pkt.seq] = t + self.shift
        if ctx.limits_ns is None:
            return
        e2e, ul_delay, ul_best, ul_regulated, dl_delay, dl_best = ctx.limits_ns
        v = ctx.violations
        t_send = ctx.t_send[pkt.seq] - self.shift
        if t - t_send > e2e:
            v["e2e"] += 1
        if pkt.hop_overruns:
            v["per_hop"] += pkt.hop_overruns
        if ctx.ul_queue is not None:
            transit = pkt.transit_out - t_send
            if transit > ul_delay:
                v["transit"] += 1
            if transit < ul_best:
                v["transit_best"] += 1
            if ctx.regulator is not None and pkt.reg_out - t_send > ul_regulated:
                v["transit_regulator"] += 1
        if ctx.dl_queue is not None:
            transit = t - pkt.dl_in
            if transit > dl_delay:
                v["transit"] += 1
            if transit < dl_best:
                v["transit_best"] += 1

    # ------------------------------------------------------------- hyperperiods

    def _checkpoint_at(self, index: int):
        """Push the checkpoint at `index` hyperperiods if the comparison it
        leads to, at the first power of two at or past `index`, leaves a whole
        hyperperiod to skip."""
        compare = 1 << (max(index, 1) - 1).bit_length()
        if (compare + 1) * self.period_ns <= self.end_ns + 1:
            heappush(self.heap, (index * self.period_ns, -1, -1, self.on_checkpoint, index))

    def _handle_checkpoint(self, index: int):
        """Compare the state with the one a hyperperiod earlier, if kept, and
        jump when they are equal; else keep it if the next checkpoint
        compares, and push that one."""
        earlier = self.snapshot
        now = self._snapshot()
        self.snapshot = None
        if earlier is not None and earlier[0] == now[0]:
            self._jump(earlier, now)
        elif not (index + 1) & index:  # index + 1 is a power of two: it compares
            self.snapshot = now
            self._checkpoint_at(index + 1)
        else:
            self._checkpoint_at(2 * index - 1)

    def _snapshot(self):
        """The engine's state at a checkpoint, every time and slot index
        relative to it, as `(state, counts, packets)`: `state` holds all that
        decides what follows, `counts` each flow's sends, drops and
        violations so far, and `packets` every packet in `state`.

        A packet is identified by its flow and its seq less the flow's sends
        so far; a flow, port or regulator that an event is for by identity."""
        t = self.t
        slot = t // self.slot_ns if self.slot_ns else 0
        packets = []

        def rel(value, origin):
            return None if value is None else value - origin

        def packet(pkt):
            packets.append(pkt)
            ctx = pkt.ctx
            return (ctx, pkt.seq - len(ctx.t_send), ctx.t_send[pkt.seq] - self.shift - t,
                    getattr(pkt, "hop", None), pkt.hop_overruns, getattr(pkt, "remaining_B", None),
                    rel(getattr(pkt, "eligible_slot", None), slot),
                    *[rel(getattr(pkt, name, None), t) for name in _PACKET_TIMES])

        heap = []
        for when, rank, _, handler, payload in sorted(self.heap):
            if handler is None:  # the end sentinel
                continue
            if handler is self.on_portin:
                payload = packet(payload)
            elif handler is self.on_slot:
                payload -= slot
            else:
                payload = id(payload)
            heap.append((when - t, rank, handler, payload))
        ports = [(port.busy and packet(port.busy), [list(map(packet, q)) for q in port.queues],
                  port.queued, port.occupancy[:]) for port in self.all_ports.values()]
        ues = [(list(map(packet, ul)), list(map(packet, dl)))
               for ul, _, dl, _ in (self.rotations[0] if self.rotations else ())]
        flows = []
        for ctx in self.flows.values():
            pol, reg = ctx.policer, ctx.regulator
            flows.append((ctx.count, pol and (pol.tokens, pol.carry, pol.last_ns - t),
                          reg and (list(map(packet, reg.queue)), rel(reg.next_release_ns, t),
                                   rel(reg.last_release_ns, t))))
        state = (heap, ports, ues, sorted(s - slot for s in self.armed), flows)
        counts = [(len(ctx.t_send), dict(ctx.drops), dict(ctx.violations))
                  for ctx in self.flows.values()]
        return state, counts, packets

    def _jump(self, earlier, now):
        """The state recurs one hyperperiod H after `earlier`'s, so from here
        the run repeats the last H, the window, each time H later.  Skip the
        n whole periods that end by the run's end: each flow's trace takes
        the window's sends and fates n more times, its drops and violations
        grow by n times the window's, and each packet in the state moves on
        by n periods' worth of its flow's packets.  The engine goes on from
        here with `shift` = n H: its end moves n H earlier, and its trace
        times stay n H later than its own.  Nothing else in the state moves.

        One forward rule settles the jump: a packet in flight here has the
        fate of the packet a period's worth of its flow's packets before it,
        H later.  In ascending seq each packet reads a fate already settled,
        so the window then has every fate and each copy is a plain shift.
        The packets in flight n periods on are the ones in flight here,
        moved on: they go back in flight, for the simulated rest to settle,
        and the copies before the first of them have every fate."""
        _, before, _ = earlier
        _, counts, packets = now
        period = self.period_ns
        n = (self.end_ns + 1 - self.t) // period
        window = {}  # each flow's first copied seq and packets per period
        for ctx, (first, drops_before, violations_before), (sent, drops, violations) in zip(
                self.flows.values(), before, counts):
            window[ctx] = sent, sent - first
            for stage, count in drops.items():
                ctx.drops[stage] = count + n * (count - drops_before.get(stage, 0))
            for kind, count in violations.items():
                ctx.violations[kind] = count + n * (count - violations_before[kind])
        packets.sort(key=attrgetter("seq"))
        for pkt in packets:
            t_recv = pkt.ctx.t_recv
            fate = t_recv[pkt.seq - window[pkt.ctx][1]]
            t_recv[pkt.seq] = fate if fate == DROPPED else fate + period
        for ctx, (sent, per_period) in window.items():
            sends = ctx.t_send[sent - per_period:sent]
            fates = ctx.t_recv[sent - per_period:sent]
            for shift in range(period, (n + 1) * period, period):
                ctx.t_send.extend([s + shift for s in sends])
                ctx.t_recv.extend([fate if fate == DROPPED else fate + shift for fate in fates])
        settled = n
        for pkt in packets:
            sent, per_period = window[pkt.ctx]
            pkt.seq += n * per_period
            pkt.ctx.t_recv[pkt.seq] = IN_FLIGHT
            settled = min(settled, (pkt.seq - sent) // per_period)
        if any(per_period for _, per_period in window.values()):
            # `settled` < 0: a packet moved on to before the copies, so none has every fate
            self.repeat = _Repeat(self.t, period, max(settled, 0),
                                  {ctx.source.flow_id: w for ctx, w in window.items()})
        self.shift = n * period
        heap = self.heap
        end = next(i for i, entry in enumerate(heap) if entry[3] is None)
        heap[end] = (self.end_ns + 1 - self.shift, -1, -1, None, None)
        heapify(heap)

    # ------------------------------------------------------------- main loop

    def run(self):
        for ctx in self.flows.values():
            model = ctx.source
            ctx.schedule = _schedule(model, random.Random(f"{self.seed}:{model.flow_id}"))
            t_ns, ctx.count = next(ctx.schedule)
            self._push(t_ns, self.on_emit, ctx)
        heap, fifo = self.heap, self.fifo
        heappush(heap, (self.end_ns + 1, -1, -1, None, None))
        self._checkpoint_at(0)
        t = self.t
        while True:
            if fifo and heap[0][0] != t:
                self.rank = 2
                while fifo:
                    handler, payload = fifo.popleft()
                    handler(payload)
            t, self.rank, _, handler, payload = heappop(heap)
            if handler is None:
                break
            self.t = t
            handler(payload)
        # heap entries, a kept snapshot's and the `on_*` attributes hold
        # bound methods of self: clear them so that the engine is freed by
        # refcount, not later by the cycle collector (the FIFO is empty here).  A packet at a port
        # leads back to the port through its hop: empty the ports.  The
        # flows outlive the run in its result: drop their hops, UE queues
        # and regulator queues, which lead to the ports and to the packets
        # still queued and from them back to the flows.
        heap.clear()
        self.snapshot = None
        del self.on_checkpoint, self.on_emit, self.on_slot, self.on_regrel, self.on_portin
        del self.on_txdone
        for port in self.all_ports.values():
            port.busy = None
            for queue in port.queues:
                queue.clear()
        for ctx in self.flows.values():
            ctx.first_hop = ctx.ul_queue = ctx.dl_queue = ctx.regulator = ctx.schedule = None


def packet_summary(t_send, t_recv) -> dict:
    """The `sent`, `received`, `dropped`, `latency_us` and `jitter_us` fields
    of a flow's report entry, from its two trace columns: each packet's send
    time, and its receive time, `IN_FLIGHT` or `DROPPED`.

    Works on exact integer nanoseconds, so a summary of a run and one
    re-parsed from its trace agree to the byte.  The p99 is nearest-rank.
    """
    # a packet not delivered has a receive time below 0, so a negative difference
    lats = sorted(map(sub, t_recv, t_send))
    del lats[:bisect_left(lats, 0)]
    counts = {"sent": len(t_send), "received": len(lats), "dropped": t_recv.count(DROPPED)}
    if not lats:
        return {**counts, "latency_us": None, "jitter_us": None}
    return {
        **counts,
        "latency_us": {
            "min": lats[0] / NS_PER_US,
            "mean": round(sum(lats) / len(lats) / NS_PER_US, 3),
            "max": lats[-1] / NS_PER_US,
            "p99": lats[ceil_div(99 * len(lats), 100) - 1] / NS_PER_US,
        },
        "jitter_us": (lats[-1] - lats[0]) / NS_PER_US,
    }


def _flow_report(ctx: _FlowCtx) -> dict:
    summary = packet_summary(ctx.t_send, ctx.t_recv)
    a = ctx.assignment
    return {
        "admitted": a is not None,
        "critical": ctx.critical,
        "pcp": ctx.pcp,
        "vlan_id": ctx.vlan_id,
        "e2e_bound_us": None if a is None else a.e2e_bound_us,
        **summary,
        "in_flight": summary["sent"] - summary["received"] - summary["dropped"],
        "drops": dict(sorted(ctx.drops.items())),
        "bound_violations": sum(ctx.violations.values()),
        "violations": dict(ctx.violations),
    }


def _format_us(ns: int) -> str:
    return "%d.%03d" % divmod(ns, NS_PER_US)


def parse_us(text: str) -> int:
    """Inverse of the trace's microsecond format: '12.345' -> 12345 ns."""
    whole, dot, frac = text.partition(".")
    if not (text.isascii() and dot and whole.isdigit() and len(frac) == 3 and frac.isdigit()):
        raise ValueError(f"expected microseconds with three decimals, got {text!r}")
    return int(whole) * NS_PER_US + int(frac)


def _row_lines(source: SourceModel, fid_csv: str, lo: int, t_send, t_recv):
    """The CSV lines of a flow's packets from seq `lo` on, sent at `t_send`
    and received at `t_recv` (ns), `fid_csv` being the flow id as a CSV
    field with `%` escaped.  While every packet of the slice is delivered,
    they are formatted a column at a time with one %-format per line, each
    time (send, receive and latency) as its `divmod` by `NS_PER_US`."""
    head = f"{fid_csv},%d,{source.params['pkt_B']},"
    if min(t_recv) < 0:  # dropped or in flight: no receive time, no latency
        fmt = head + "%s,%s,%s,%d\r\n"
        return [fmt % (seq, _format_us(s),
                       *((_format_us(r), _format_us(r - s)) if r >= 0 else ("", "")),
                       r == DROPPED)
                for seq, s, r in zip(itertools.count(lo), t_send, t_recv)]
    latencies = list(map(sub, t_recv, t_send))
    fmt = head + "%d.%03d,%d.%03d,%d.%03d,0\r\n"
    us = itertools.repeat(NS_PER_US)
    return map(fmt.__mod__, zip(
        itertools.count(lo),
        map(floordiv, t_send, us), map(mod, t_send, us),
        map(floordiv, t_recv, us), map(mod, t_recv, us),
        map(floordiv, latencies, us), map(mod, latencies, us),
    ))


def _csv_field(text: str) -> str:
    """`text` as the csv module writes it in a row: quoted only if it must be.

    The writer keeps its default terminator, so that a `\\r` or `\\n` in
    `text` is quoted too; the terminator and the empty field are cut off.
    """
    buf = io.StringIO()
    csv.writer(buf).writerow((text, ""))
    return buf.getvalue()[:-3]


class _TraceRows:
    """The trace's CSV rows in (t_send, flow_id, seq) order, formatted as they are read.

    Rows are ordered and formatted one window at a time.  A window holds
    the packets sent in a range of time: each flow's slice of it is a
    `bisect` on the flow's send times, which never decrease with seq, and
    the range adapts so that a window holds about `WINDOW_ROWS` rows.
    Each slice is formatted column by column, then the window's rows are
    put in order by a stable sort on `t_send` alone: the rows are appended
    flow by flow in flow_id order, each flow's in seq order, so rows sent
    in the same nanosecond keep (flow_id, seq) order.

    The settled periods a run's jump copied (`repeat`) are written a block
    at a time instead, a block being the fewest periods whose span is a
    whole microsecond.  Each block's rows are the first block's, in the
    same order, shifted by whole microseconds and by whole periods' worth
    of seqs, so the first block's rows make one %-format in which each
    row's seq and whole microseconds sent and received are the only
    fields, and every block is that format applied to the first block's
    values plus as many shifts.  `text` yields the rows as CSV, so it
    never holds more than a window or a block of rows, and can be repeated
    any number of times.
    """

    def __init__(self, ctxs: list, repeat: _Repeat | None = None):
        self.ctxs = ctxs  # in flow_id order
        self.repeat = repeat

    def _windows(self, t: int, end: int):
        """Yield each window of the packets sent in [t, end) as `(k, ctx, lo,
        hi)` slices: packets lo..hi-1 of the k-th flow are the ones it sent
        in the window."""
        ctxs = self.ctxs
        starts = [bisect_left(ctx.t_send, t) for ctx in ctxs]
        total = sum(bisect_left(ctx.t_send, end) for ctx in ctxs) - sum(starts)
        if not total:
            return
        width = max(1, (end - t) * WINDOW_ROWS // total)  # ns
        while t < end:
            while True:
                stop = min(t + width, end)
                stops = [bisect_left(ctx.t_send, stop, lo) for ctx, lo in zip(ctxs, starts)]
                rows = sum(stops) - sum(starts)
                if rows <= 2 * WINDOW_ROWS or width == 1:
                    break
                width //= 2
            if rows:
                yield [(k, ctx, lo, hi) for k, (ctx, lo, hi)
                       in enumerate(zip(ctxs, starts, stops)) if hi > lo]
            if 2 * rows < WINDOW_ROWS:
                width *= 2
            starts, t = stops, stop

    def _in_order(self, window: list, heads: list) -> list:
        """A window's CSV lines in trace order, `heads[k]` being the k-th
        flow's `_row_lines` source and CSV flow id; the sort keys are freed
        on return, before the lines are used."""
        keys, rows = [], []
        for k, ctx, lo, hi in window:
            t_send = ctx.t_send[lo:hi]
            keys += t_send
            rows += _row_lines(*heads[k], lo, t_send, ctx.t_recv[lo:hi])
        return list(map(rows.__getitem__, sorted(range(len(rows)), key=keys.__getitem__)))

    def blocks(self) -> tuple:
        """`(start_ns, periods, count)`: `text` writes the `count` blocks of
        `periods` repeated periods each from `start_ns` on from one template,
        `periods` being the fewest whose span is a whole microsecond."""
        rep = self.repeat
        if rep is None:
            return 0, 0, 0
        periods = NS_PER_US // math.gcd(rep.period_ns, NS_PER_US)
        return rep.start_ns, periods, rep.settled // periods

    def _template(self, heads: list, periods: int) -> tuple:
        """`(fmt, values, shift)` of the first block of `periods` repeated
        periods: `fmt % values` is its rows' CSV text, and the next block's
        values are `values` plus `shift`."""
        rep = self.repeat
        span_us = periods * rep.period_ns // NS_PER_US
        keys, rows = [], []
        for (source, fid_csv), ctx in zip(heads, self.ctxs):
            lo, per_period = rep.flows[ctx.source.flow_id]
            hi = lo + periods * per_period
            head = f"{fid_csv},%d,{source.params['pkt_B']},%d."
            dropped_shift = (periods * per_period, span_us)
            delivered_shift = (*dropped_shift, span_us)
            t_send = ctx.t_send[lo:hi]
            keys += t_send
            for seq, s, r in zip(range(lo, hi), t_send, ctx.t_recv[lo:hi]):
                sent_us, sent_ns = divmod(s, NS_PER_US)
                if r < 0:  # dropped: a settled period holds no packet in flight
                    rows.append((f"{head}{sent_ns:03d},,,1\r\n", (seq, sent_us), dropped_shift))
                    continue
                recv_us, recv_ns = divmod(r, NS_PER_US)
                rows.append((f"{head}{sent_ns:03d},%d.{recv_ns:03d},{_format_us(r - s)},0\r\n",
                             (seq, sent_us, recv_us), delivered_shift))
        rows = list(map(rows.__getitem__, sorted(range(len(rows)), key=keys.__getitem__)))
        fmt = "".join(row[0] for row in rows)
        values = tuple(itertools.chain.from_iterable(row[1] for row in rows))
        shift = tuple(itertools.chain.from_iterable(row[2] for row in rows))
        return fmt, values, shift

    def text(self):
        """Yield the CSV text of the rows, without the header, a window or a
        block at a time: the windows before the blocks, the blocks, and the
        windows after them."""
        heads = [(ctx.source, _csv_field(ctx.source.flow_id).replace("%", "%%"))
                 for ctx in self.ctxs]
        start, periods, count = self.blocks()
        for window in self._windows(0, start):
            yield "".join(self._in_order(window, heads))
        if count:
            fmt, values, shift = self._template(heads, periods)
            for _ in range(count):
                yield fmt % values
                values = tuple(map(add, values, shift))
            start += count * periods * self.repeat.period_ns
        end = max((ctx.t_send[-1] + 1 for ctx in self.ctxs if ctx.t_send), default=0)
        for window in self._windows(start, end):
            yield "".join(self._in_order(window, heads))


def _build_result(scenario, state, engine, decisions, seed, dejitter_mode) -> RunResult:
    flow_reports = {}
    total = dict.fromkeys(_VIOLATION_KINDS + ("backlog",), 0)
    for fid, ctx in sorted(engine.flows.items()):
        flow_reports[fid] = _flow_report(ctx)
        for key, count in ctx.violations.items():
            total[key] += count

    bounds = state.backlog_bounds()
    port_reports = {}
    for port, sim_port in sorted(engine.all_ports.items()):
        if not sim_port.reached:
            continue
        classes = {}
        for cls in range(sim_port.profile.class_count):
            occ = sim_port.max_occupancy[cls]
            bound = bounds.get(port, {}).get(cls)
            if occ == 0 and bound is None:
                continue
            ok = bound is None or occ <= bound
            if not ok:
                total["backlog"] += 1
            classes[str(cls)] = {"max_occupancy_B": occ, "bound_B": bound, "ok": ok}
        if classes:
            port_reports[str(port)] = classes

    report = {
        "schema_version": 1,
        "scenario": scenario.name,
        "seed": seed,
        "dejitter": dejitter_mode,
        "duration_ms": scenario.duration_ms,
        "flows": flow_reports,
        "ports": port_reports,
        "violations": {**total, "total": sum(total.values())},
    }

    return RunResult(
        decisions=decisions,
        report=report,
        trace_rows=_TraceRows([ctx for _, ctx in sorted(engine.flows.items())], engine.repeat),
    )


def _admit_flows(scenario: Scenario, dejitter_mode: str) -> tuple[NetworkState, list]:
    state = NetworkState(
        scenario.topology,
        class_count=scenario.class_count,
        best_effort_class=scenario.best_effort_class,
        default_regulator=scenario.dejitter,
    )
    decisions = []
    for entry in scenario.flows:
        spec = entry.spec
        if dejitter_mode == "on" and state.topology.is_ue(spec.src):
            spec = replace(spec, dejitter=True)
        elif dejitter_mode == "off":
            spec = replace(spec, dejitter=False)
        decision = state.register_flow(spec)
        decisions.append(state.response(spec, decision))
        if not decision.accepted and entry.critical:
            raise AdmissionMissing(
                f"critical flow {spec.flow_id!r} rejected: {decision.reason} ({decision.detail})"
            )
    return state, decisions


def _build_flow_ctxs(scenario: Scenario, state: NetworkState) -> dict:
    """The simulated flows by id, each treated as its edge devices are configured.

    Admitted flows come first, in scenario order, then the `sim.sources`
    extras.  An admitted flow keeps its assignment's VLAN and route, an
    extra takes the first tree's; the rest depends on the kind of flow:

        kind               class                     policer  regulator
        admitted, from UE  its NW-TT rule's          -        its own, if the rule has one
        admitted, host     its priority_class        TSpec    -
        extra, from UE     0 (no NW-TT rule matches) -        -
        extra, host        0                         -        -
    """
    topo = state.topology
    admitted = state.flows()
    nwtt = {  # the NW-TT's table: one rule per admitted UE-sourced flow
        (a.spec.src, a.spec.dst): state.nwtt_rule(a)
        for a in admitted.values() if topo.is_ue(a.spec.src)
    }
    entries = [(entry.source, admitted[entry.spec.flow_id], entry.critical)
               for entry in scenario.flows if entry.spec.flow_id in admitted]
    entries += [(model, None, False) for model in scenario.extra_sources]
    flows: dict[str, _FlowCtx] = {}
    for source, assignment, critical in entries:
        src, dst = source.src, source.dst
        ctx = flows[source.flow_id] = _FlowCtx(source, assignment, critical)
        if assignment is not None:
            ctx.vlan_id, ctx.route = assignment.vlan_id, assignment.hop_ports
        else:
            tree = state.trees[0]
            ctx.vlan_id, ctx.route = tree.vlan_id, tuple(path_in_tree(topo, tree, src, dst))
        if topo.is_ue(src):  # the NW-TT tags the flow's packets
            rule = classify_and_tag(nwtt, src, dst)
            if rule is not None:  # a miss is best effort: class 0, no regulator
                ctx.pcp = rule.pcp
                if rule.regulator is not None:
                    ctx.regulator = RegulatorState(rule.regulator)
        elif assignment is not None:  # the source host tags and polices the flow
            ctx.pcp = assignment.priority_class
            ctx.policer = _Policer(assignment.spec.burst_B, assignment.spec.rate_Bps)
    return flows


def run(scenario: Scenario, *, seed: int | None = None, dejitter: str = "scenario") -> RunResult:
    """Admit the scenario's flows, simulate, and report.

    `dejitter` forces the regulator for all 5G-sourced registered flows
    ("on"), disables it ("off"), or honors per-flow flags ("scenario").
    Raises AdmissionMissing when a critical flow is rejected.
    """
    if dejitter not in ("scenario", "on", "off"):
        raise ScenarioInvalid(f"dejitter mode must be scenario/on/off, got {dejitter!r}")
    if dejitter == "on" and scenario.dejitter is None:
        raise ScenarioInvalid("dejitter forced on but scenario has no nwtt.dejitter block")
    run_seed = scenario.seed if seed is None else seed
    state, decisions = _admit_flows(scenario, dejitter)
    flows = _build_flow_ctxs(scenario, state)
    engine = _Engine(state.topology, flows, scenario.duration_ms, run_seed)
    engine.run()
    result = _build_result(scenario, state, engine, decisions, run_seed, dejitter)
    for fid, ctx in sorted(flows.items()):
        lost = ctx.drops.get("regulator", 0)
        if lost:
            log.warning("flow %s: regulator queue dropped %d packet(s); "
                        "hold/queue capacity is undersized", fid, lost)
    log.info(
        "run %s seed %d dejitter=%s: %d violations",
        scenario.name, run_seed, dejitter, result.report["violations"]["total"],
    )
    return result


def dejitter_summary(off: RunResult, on: RunResult) -> dict:
    """Per-regulated-flow jitter/latency comparison of a paired run.

    The regulated flows are those whose `on` decision carries an NW-TT
    rule: the admitted UE-sourced flows.  Only those the `off` run admitted
    too are compared: a flow admitted under one mode only is left out, as
    is one that received no packet in one run or both.
    """
    summary = {"schema_version": 1, "seed": off.report["seed"], "flows": {}}
    flows_off = off.report["flows"]
    regulated = {d["flow_id"] for d in on.decisions if "nwtt_config" in d} & flows_off.keys()
    for fid, report_on in on.report["flows"].items():
        report_off = flows_off.get(fid)
        if fid not in regulated or None in (report_on["latency_us"], report_off["latency_us"]):
            continue
        summary["flows"][fid] = {
            "jitter_off_us": report_off["jitter_us"],
            "jitter_on_us": report_on["jitter_us"],
            "min_latency_off_us": report_off["latency_us"]["min"],
            "min_latency_on_us": report_on["latency_us"]["min"],
            "max_latency_off_us": report_off["latency_us"]["max"],
            "max_latency_on_us": report_on["latency_us"]["max"],
            "regulator_drops": report_on["drops"].get("regulator", 0),
        }
    return summary


def write_trace(path, rows: _TraceRows) -> None:
    """Write a run's trace rows as CSV, one window of rows at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\r\n")
        for text in rows.text():
            fh.write(text)


def _row_times(row: dict, where: str) -> tuple[int, int]:
    """A trace row's send time and its receive time in ns, or `DROPPED` or
    `IN_FLIGHT` when it has none.

    A row's receive time and latency are both empty (dropped or in flight)
    or both set, and then the packet was not dropped and its latency is
    its receive time minus its send time, to the nanosecond.
    """
    def column(name: str) -> int:
        try:
            return parse_us(row[name])
        except ValueError as exc:
            raise ScenarioInvalid(f"{where} column {name}: {exc}") from None

    t_send = column("t_send_us")
    if not row["t_recv_us"] and not row["latency_us"]:
        return t_send, DROPPED if row["dropped"] == "1" else IN_FLIGHT
    for name, other in (("t_recv_us", "latency_us"), ("latency_us", "t_recv_us")):
        if not row[name]:
            raise ScenarioInvalid(f"{where} column {name}: empty, but {other} is set")
    if row["dropped"] != "0":
        raise ScenarioInvalid(f"{where} column dropped: 1, but the packet has a receive time")
    t_recv = column("t_recv_us")
    if column("latency_us") != t_recv - t_send:
        raise ScenarioInvalid(
            f"{where} column latency_us: {row['latency_us']} is not t_recv_us - t_send_us "
            f"({row['t_recv_us']} - {row['t_send_us']})")
    return t_send, t_recv


def _row_int(row: dict, name: str, least: int, where: str) -> int:
    """A row's integer column, written in decimal digits, of at least `least`."""
    text = row[name]
    try:
        if text.isascii() and text.isdigit() and int(text) >= least:
            return int(text)
    except ValueError:  # more digits than `int` converts
        pass
    raise ScenarioInvalid(f"{where} column {name}: expected an integer >= {least}, got {text!r}")


def _trace_packets(reader: csv.DictReader, path) -> dict[str, dict[int, tuple[int, int]]]:
    """Flow id -> seq -> (t_send, t_recv) of a trace's checked rows, each
    flow's seqs exactly 0 to its row count less one."""
    if reader.fieldnames != list(TRACE_COLUMNS):
        raise ScenarioInvalid(f"{path}: unexpected columns {reader.fieldnames}")
    flows: dict[str, dict[int, tuple[int, int]]] = {}
    for row in reader:
        where = f"{path}: line {reader.line_num}"
        # a short row fills the missing columns with None, a long one
        # puts the surplus under the key None
        if None in row or None in row.values():
            raise ScenarioInvalid(f"{where}: expected {len(TRACE_COLUMNS)} fields")
        if not row["flow_id"]:
            raise ScenarioInvalid(f"{where} column flow_id: empty")
        packets = flows.setdefault(row["flow_id"], {})
        seq = _row_int(row, "seq", 0, where)
        if seq in packets:
            raise ScenarioInvalid(
                f"{where} column seq: {seq} repeats a packet of flow {row['flow_id']!r}")
        _row_int(row, "size_B", 1, where)
        if row["dropped"] not in ("0", "1"):
            raise ScenarioInvalid(
                f"{where} column dropped: expected 0 or 1, got {row['dropped']!r}"
            )
        packets[seq] = _row_times(row, where)
    for fid, packets in flows.items():
        if max(packets) != len(packets) - 1:  # distinct seqs, so one below the max is missing
            missing = next(seq for seq in range(len(packets)) if seq not in packets)
            raise ScenarioInvalid(f"{path}: flow {fid!r} has no row for seq {missing}")
    return flows


def read_trace(path) -> dict[str, tuple[tuple, tuple]]:
    """Flow id -> `(t_send, t_recv)` of a trace file written by `write_trace`:
    the two columns a run holds per flow, in seq order, each row checked.

    A file that cannot be read, holds a malformed row or lacks a row below
    a flow's last seq raises ScenarioInvalid.  Lost rows past a flow's
    last seq cannot be told from the trace alone: the flow reads back as
    if it had sent fewer packets.
    """
    # a flow id is as long as the scenario made it: lift the csv module's
    # field limit (131,072 characters) while the trace is read
    limit = csv.field_size_limit(TRACE_FIELD_LIMIT)
    try:
        with open_input(path, newline="") as fh:  # a quoted flow id may hold \r or \n
            reader = csv.DictReader(fh)
            flows = _trace_packets(reader, path)
    except csv.Error as exc:  # the DictReader's own count lags the failed line's
        raise ScenarioInvalid(f"{path}: line {reader.reader.line_num}: {exc}") from None
    finally:
        csv.field_size_limit(limit)
    return {fid: tuple(zip(*map(packets.__getitem__, sorted(packets))))
            for fid, packets in flows.items()}


def write_report(path, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
