"""Central network manager: flow registry and joint routing + scheduling.

A flow request carries a traffic spec (rate, burst, max packet, deadline).
Admission tries candidate placements in one loop, `NetworkState._first_fit`
— priority class descending, then VLAN tree ascending, skipping a tree
whose path repeats an earlier tree's, since the solve depends on (class,
path) only — and accepts the first one under which the new flow AND every
already-admitted flow still meet their deadline and every port's backlog
fits its buffer.  Each (src, dst) pair's trees are walked once per
registry, lazily, and its distinct paths kept.
Per-hop bounds use the strict-priority calculus with each flow's burst
propagated hop by hop; because flows sharing a port inflate each other's
bursts, bounds are solved to a fixed point.  If no candidate fits, one
batch pass re-places all flows in ascending-deadline order; failing that,
the request is rejected and the registry is left untouched.

The solver state is the registry: the least fixed point of the admitted
flows (placements, hop bounds, e2e bounds), from which the assignments
handed out are built on read.  Bounds are monotone in the bursts (Le
Boudec & Thiran, *Network Calculus*), and any fair order of monotone
updates started below a least fixed point reaches it (Cousot & Cousot
1979).  So every solve is one climb (`_climb`) from a point below: a
worklist of dirty ports, upstream first, that re-bounds a popped port with
one `calculus.port_bounds` pass (each class's delay bound, which its flows
read, and backlog bound, which the buffer check sums) and carries each of
its flows' bursts one hop on, queueing the next port if it moved.  Bounds
only grow, so a breach met on the way is final: a deadline is checked when
a bound of its flow grows, a buffer when its port is re-bounded.  A trial
adds a flow.  Its round one bounds each new hop once, in path order, with
the new flow at the burst the hops before carry it to, and is checked in
full before the state is copied: the new flow's own bound screens it, then
every flow at those hops, then those hops' buffers.  All of round one lies
below the new least fixed point, so a trial that fails there copies
nothing and names round one's witness; a later breach may name another.
The new flow keeps its carried bursts and round-one bounds, and the climb
starts from those checked passes at the new hops where a peer's bound
moved: at any other, no burst moves.  A removal cannot fail: it lowers the
least fixed point, so it climbs the ports that can depend on the removed
flow in dependency order, one strongly connected component after another
(Tarjan 1972).  A port outside any cycle is bounded once, from final
inputs, and keeps its old bursts until then; a cycle's bursts from within
restart from their spec bursts and climb, with final inputs, to its least
fixed point.  Solving component by component in that order gives the least
fixed point of the whole (Cousot & Cousot).  A cold solve climbs with
every port dirty from the spec bursts and zero bounds.  A trial or cold
solve that pops one port more than `SOLVER_ITER_CAP` times is
Unschedulable, since its bursts may have no fixed point; a removal stays
below the old one and has no cap.  Trials work on a copy, so a reject
leaves the committed state alone.  A failed trial raises
DeadlineInfeasible, BufferExceeded or Unschedulable (see `errors`), and a
reject's reason is the first of those classes that any trial raised, by
name, with the detail of its first trial: as sound a witness as a cold
solve's, though a cold solve may name another flow or a larger bound.

The bounds hold although flows chain ports into cycles, as on most
fabrics, by the time-stopping argument (Cruz, "A Calculus for Network
Delay, Part II", IEEE Trans. Inf. Theory 1991; Le Boudec & Thiran, ch. 6;
Thomas, Le Boudec & Mifdaoui, "On Cyclic Dependencies and Regulators in
Time-Sensitive Networks", RTSS 2019).  With the rates fixed, a class's
delay bound is affine in the bursts, D = (sum of higher-class bursts +
l)/R + b/R + d, and so is propagation, b + r*D; rounding up only adds.
So the computed burst map is F(x) >= c + A*x, with A >= 0 and c > 0.
The committed bursts are a post-fixed point, x >= F(x) (the tests'
`certify` checks it), so A*x <= x - c < x: A's spectral radius is below 1
(Collatz-Wielandt) and x >= (I - A)^-1 c.  Stop the sources at any time:
the real bursts y until then are finite and y <= c + A*y, so y <= (I -
A)^-1 c <= x.  So any finite post-fixed point's bounds hold.

Some candidates need no trial at all: one whose fixed terms plus the
flow's least bound alone at an empty port, once per hop, miss the deadline
is skipped unbuilt, and a reject whose candidates are all ruled out so
starts no batch pass.  `NetworkState._first_fit` states when, and why that
keeps every decision, detail and registry.
"""

from __future__ import annotations

import heapq
import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property

from .calculus import (
    ClassAggregate,
    PortClassState,
    hop_delay_bound,
    port_bounds,
    propagate_burst,
    sp_residual_service,  # not called here; benchmarks/tracing.py looks this name up
)
from .errors import (
    BufferExceeded,
    DeadlineInfeasible,
    InvalidSpec,
    Unreachable,
    UnknownFlow,
    Unschedulable,
    _expect,
    _fail,
    _known_keys,
    _positive_int,
)
from .nwtt import NwttRule, RegulatorConfig, regulator_delay_bound
from .topology import (
    PortId,
    SwitchProfile,
    Topology,
    VlanTree,
    enumerate_spanning_trees,
    path_in_tree,
)
from .transit5g import DOWNLINK, UPLINK, TransitContract, dl_capacity, transit_contract, ul_capacity

log = logging.getLogger(__name__)

DEFAULT_MAX_PKT_B = 1500  # largest unannounced frame that can block a higher class
SOLVER_ITER_CAP = 100
# what a failed trial raises, in the order that picks a reject's reason
_TRIAL_FAILURES = (DeadlineInfeasible, BufferExceeded, Unschedulable)
# the keys a flow request may carry; all but `dejitter` are required
WIRE_KEYS = frozenset(("flow_id", "src", "dst", "rate_Bps", "burst_B", "max_pkt_B",
                       "deadline_us", "dejitter"))


@dataclass(frozen=True)
class FlowSpec:
    """Traffic specification of an admission request.

    As read by `read_flow_spec`: a non-empty id, two distinct ends, positive
    sizes, rate and deadline, and a burst of at least one packet.
    """

    flow_id: str
    src: str
    dst: str
    rate_Bps: int
    burst_B: int
    max_pkt_B: int
    deadline_us: int
    dejitter: bool = False


def read_endpoints(obj: dict, path: str) -> tuple[str, str, str]:
    """(flow_id, src, dst) of a flow request or source entry: a non-empty id
    that UTF-8 can encode, two distinct ends.  The id seeds the flow's source
    and names it in the trace, and neither takes a lone surrogate, which a
    JSON string may hold (`"\\ud800"`)."""
    fid = _expect(obj.get("flow_id"), f"{path}.flow_id", str)
    if not fid:
        _fail(f"{path}.flow_id", "must be non-empty")
    try:
        fid.encode()
    except UnicodeEncodeError:
        _fail(f"{path}.flow_id", "must not hold a lone surrogate: UTF-8 cannot encode it")
    src = _expect(obj.get("src"), f"{path}.src", str)
    dst = _expect(obj.get("dst"), f"{path}.dst", str)
    if dst == src:
        _fail(f"{path}.dst", "must differ from src")
    return fid, src, dst


def read_flow_spec(obj: dict, path: str) -> FlowSpec:
    """The FlowSpec of a flow request, each field checked at its own path under `path`.

    The one reader of a request's fields: the scenario loader's flow entries
    and `NetworkState.handle_flow_request` both call it.  Whether the ends
    exist and the id is new is the caller's to check.
    """
    fid, src, dst = read_endpoints(obj, path)
    spec = FlowSpec(
        flow_id=fid,
        src=src,
        dst=dst,
        rate_Bps=_positive_int(obj.get("rate_Bps"), f"{path}.rate_Bps"),
        burst_B=_positive_int(obj.get("burst_B"), f"{path}.burst_B"),
        max_pkt_B=_positive_int(obj.get("max_pkt_B"), f"{path}.max_pkt_B"),
        deadline_us=_positive_int(obj.get("deadline_us"), f"{path}.deadline_us"),
        dejitter=_expect(obj.get("dejitter", False), f"{path}.dejitter", bool),
    )
    if spec.burst_B < spec.max_pkt_B:
        _fail(f"{path}.burst_B", f"must be at least max_pkt_B ({spec.max_pkt_B})")
    return spec


@dataclass(frozen=True)
class FlowAssignment:
    """Resolved placement of an admitted flow: its spec and bound components.

    `ul` and `dl` are the 5G contracts of a UE source and a UE destination
    (None for a host end); `regulator` is the NW-TT regulator of a
    de-jittered flow (None otherwise).  The e2e bound is the hop bounds plus
    the contracts' delay bounds plus the regulator bound.  The flow's edges
    are configured from this record alone: `NetworkState.response` and
    `NetworkState.nwtt_rule` render it and read nothing else of the flow.
    """

    spec: FlowSpec
    vlan_id: int
    priority_class: int
    hop_ports: tuple[PortId, ...]
    per_hop_bounds_us: tuple[int, ...]
    ul: TransitContract | None
    dl: TransitContract | None
    regulator: RegulatorConfig | None
    regulator_bound_us: int
    e2e_bound_us: int


@dataclass(frozen=True)
class Decision:
    accepted: bool
    reason: str | None = None
    detail: str | None = None
    assignment: FlowAssignment | None = None
    reconfigured: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Terms:
    """A flow's bound terms that no peer changes, computed once per request."""

    ul: TransitContract | None = None
    dl: TransitContract | None = None
    regulator: RegulatorConfig | None = None
    regulator_us: int = 0
    fixed_us: int = 0  # UL + DL delay bounds + regulator bound


@dataclass(frozen=True)
class _Placement:
    spec: FlowSpec
    priority: int
    tree: VlanTree
    hops: tuple[PortId, ...]
    terms: _Terms


@dataclass
class _SolverState:
    """Least fixed point of bursts and bounds for one set of placements.

    Per flow: its placement, its input burst at each hop and its hop bounds,
    whose sum plus `terms.fixed_us` is its e2e bound; a flow's hop bounds
    are the only record of a port's bounds.  Per port: the flows that cross
    it (with their hop index) and the aggregate of each class.  Trials copy
    the outer dicts and replace, never mutate, the values they change, so
    the state a trial starts from is left as it was whether the trial
    succeeds or not.
    """

    placements: dict[str, _Placement] = field(default_factory=dict)
    bursts: dict[str, list[int]] = field(default_factory=dict)
    hop_bounds: dict[str, tuple[int, ...]] = field(default_factory=dict)
    members: dict[PortId, dict[str, int]] = field(default_factory=dict)
    aggregates: dict[PortId, dict[int, ClassAggregate]] = field(default_factory=dict)

    def copy(self) -> _SolverState:
        return _SolverState(
            dict(self.placements), dict(self.bursts), dict(self.hop_bounds),
            dict(self.members), dict(self.aggregates),
        )


def _port_state(profile: SwitchProfile, classes: dict[int, ClassAggregate]) -> PortClassState:
    return PortClassState(profile.link_rate_Bps, classes, profile.fwd_delay_us, DEFAULT_MAX_PKT_B)


def _hop_floor_us(profiles: tuple[SwitchProfile, ...], spec: FlowSpec, priority: int) -> float:
    """Least bound of one class-`priority` hop of `spec` at any switch.

    The flow's `hop_delay_bound` alone at an empty port, the least over the
    fabric's distinct `profiles`; infinite if it is Unschedulable alone at
    every one.  Sound for any port of any trial: there the blocking packet
    is at least the floor's, the class burst at least the flow's own and the
    residual rate at most the link's, and bounds only grow with each.  A
    flow that overloads an empty link overloads it in any trial too.
    """
    floor = math.inf
    alone = {priority: ClassAggregate(spec.burst_B, spec.rate_Bps, spec.max_pkt_B)}
    for profile in profiles:
        try:
            floor = min(floor, hop_delay_bound(_port_state(profile, alone), priority))
        except Unschedulable:
            continue
    return floor


def _bound_port(
    profile: SwitchProfile, st: _SolverState, port: PortId
) -> tuple[dict[int, int], dict[int, int]]:
    """Rebuild `port`'s class aggregates in `st` from its flows' current bursts, and
    return one `port_bounds` pass over them under `profile`: each class's delay and backlog."""
    placements, bursts = st.placements, st.bursts
    raw: dict[int, list[int]] = {}
    for fid, i in st.members[port].items():
        pl = placements[fid]
        spec = pl.spec
        slot = raw.get(pl.priority)
        if slot is None:
            raw[pl.priority] = [bursts[fid][i], spec.rate_Bps, spec.max_pkt_B]
            continue
        slot[0] += bursts[fid][i]
        slot[1] += spec.rate_Bps
        if spec.max_pkt_B > slot[2]:
            slot[2] = spec.max_pkt_B
    classes = {cls: ClassAggregate(*slot) for cls, slot in raw.items()}
    st.aggregates[port] = classes
    return port_bounds(_port_state(profile, classes))


def _missed(fid: str, pl: _Placement, total: int) -> DeadlineInfeasible:
    """The failure of flow `fid`, whose e2e bound `total` passes its deadline."""
    return DeadlineInfeasible(f"flow {fid!r}: bound {total} us > deadline {pl.spec.deadline_us} us")


def _check_buffer(port: PortId, profile: SwitchProfile, backlogs: dict[int, int]) -> None:
    """Raise BufferExceeded if the class `backlogs` of `port` sum past its buffer."""
    backlog = sum(backlogs.values())
    if backlog > profile.port_buffer_B:
        raise BufferExceeded(
            f"port {port}: backlog {backlog} B > buffer {profile.port_buffer_B} B"
        )


def _climb(
    topo: Topology,
    st: _SolverState,
    dirty: Iterable[PortId],
    reuse: dict[PortId, dict[int, int]] | None = None,
    *,
    rank: dict[PortId, int] | None = None,
) -> None:
    """Climb `st` in place from the `dirty` ports to its least fixed point.

    `st` must lie below that point, every flow with a bound at each hop.
    Outside `dirty`, a port must hold the aggregates of its flows' bursts,
    and each of those flows its class's delay there as its bound and the
    burst that delay carries at its next hop.  A trial's new flow holds its
    round-one delays and the bursts they carry, a cold solve's flows zero
    bounds and their spec bursts, and a removal's survivors their old ones.
    Ports are popped by the least hop index at which a flow crosses them,
    then by port; with `rank`, by rank first.  `rank`, a removal's (see
    `_drop_flow`), ranks every port the climb may pop so that each port of a
    cycle shares one rank and every other edge leads to a higher one.  It
    relaxes the precondition: a burst may lie above the point where it
    enters a port from a port of lower rank, never on an edge within a
    cycle.  Popped in rank order, a port outside a cycle is bounded once its
    inputs have settled, so its bounds are final, and a cycle climbs from
    below with final inputs.  `reuse` holds the delays by port of a
    `port_bounds` pass over `st.aggregates`, whose classes and buffers the
    caller has checked: a popped port reuses its map unless a burst there
    has moved.  A climb without `rank` raises Unschedulable once a port is
    popped more than `SOLVER_ITER_CAP` times; a removal's cannot fail, so it
    has no cap.  Only burst lists the climb copied are mutated.
    """
    placements, bursts, hop_bounds, members = st.placements, st.bursts, st.hop_bounds, st.members
    queued = set(dirty)
    heap = [(min(members[port].values()), port) for port in queued]  # least hop index first
    if rank is not None:
        heap = [((rank[port], key), port) for key, port in heap]
    heapq.heapify(heap)
    pops: dict[PortId, int] = {}  # by port, counted without `rank`
    bounds: dict[str, list[int]] = {}  # hop bounds of the flows the climb has touched
    slack: dict[str, int] = {}  # and their deadlines less their e2e bounds
    while heap:
        port = heapq.heappop(heap)[1]
        queued.remove(port)
        if rank is None:
            pops[port] = popped = pops.get(port, 0) + 1
            if popped > SOLVER_ITER_CAP:
                raise Unschedulable("burst propagation found no fixed point")
        delays = reuse.pop(port, None) if reuse else None
        if delays is None:
            profile = topo.switches[port.node]
            delays, backlogs = _bound_port(profile, st, port)
            _check_buffer(port, profile, backlogs)
        for fid, i in members[port].items():
            pl = placements[fid]
            delay = delays.get(pl.priority)
            if delay is None:  # port_bounds found the class Unschedulable: raise why
                hop_delay_bound(
                    _port_state(topo.switches[port.node], st.aggregates[port]), pl.priority
                )
            hops = pl.hops
            flow_bursts = bursts[fid]
            burst = None  # the burst at the next hop, if it moved
            if i + 1 < len(hops):
                burst = propagate_burst(flow_bursts[i], pl.spec.rate_Bps, delay)
                if burst == flow_bursts[i + 1]:
                    burst = None
            flow_bounds = bounds.get(fid)
            if flow_bounds is None:
                if burst is None and hop_bounds[fid][i] == delay:
                    continue
                flow_bounds = bounds[fid] = list(hop_bounds[fid])
                slack[fid] = pl.spec.deadline_us - pl.terms.fixed_us - sum(flow_bounds)
                bursts[fid] = flow_bursts = list(flow_bursts)
            old = flow_bounds[i]
            if delay != old:
                flow_bounds[i] = delay
                slack[fid] = left = slack[fid] + old - delay
                if left < 0:
                    raise _missed(fid, pl, pl.spec.deadline_us - left)
            if burst is not None:
                flow_bursts[i + 1] = burst
                nxt = hops[i + 1]
                if reuse:
                    reuse.pop(nxt, None)
                if nxt not in queued:
                    queued.add(nxt)
                    key = min(members[nxt].values())
                    heapq.heappush(heap, (key if rank is None else (rank[nxt], key), nxt))
    for fid, flow_bounds in bounds.items():
        hop_bounds[fid] = tuple(flow_bounds)


def _add_flow(topo: Topology, base: _SolverState, pl: _Placement) -> _SolverState:
    """`base` plus one flow, climbed warm from `base`'s fixed point.

    Round one walks the new hops in path order, giving each one
    `port_bounds` pass over its `base` aggregates plus the new flow at its
    carried burst (its spec burst at hop 0, then `propagate_burst` over the
    previous hop's delay), and is checked before `base` is copied.  First
    the new flow's own bounds are screened: once their partial sum misses
    its deadline (or a hop leaves no service) the trial fails.  Then every
    flow at those hops, in sorted order, is checked with those passes: a
    class a pass left out raises why, and a flow whose bounds moved must
    meet its deadline with them and its `base` bounds elsewhere.  Last the
    new hops' backlogs meet their buffers, in the order the flows first
    reach them.  All of round one lies at or below the new least fixed
    point, so a breach found there is final, and the carried bursts x
    satisfy x <= F(x).  A passing trial keeps the new flow's carried bursts
    and round-one bounds, and climbs to that point from those passes at the
    new hops where a peer's bound moved: no other new hop moves a burst.
    """
    spec, cls = pl.spec, pl.priority
    fid = spec.flow_id
    aggregates: dict[PortId, dict[int, ClassAggregate]] = {}
    delays: dict[PortId, dict[int, int]] = {}
    backlogs: dict[PortId, dict[int, int]] = {}
    carried: list[int] = []  # the new flow's burst at each hop
    burst = spec.burst_B
    total = pl.terms.fixed_us
    for port in pl.hops:
        carried.append(burst)
        classes = dict(base.aggregates.get(port, ()))
        b, r, m = classes.get(cls, (0, 0, 0))
        classes[cls] = ClassAggregate(b + burst, r + spec.rate_Bps, max(m, spec.max_pkt_B))
        aggregates[port] = classes
        state = _port_state(topo.switches[port.node], classes)
        delays[port], backlogs[port] = port_bounds(state)
        delay = delays[port].get(cls)
        if delay is None:  # port_bounds found the class Unschedulable: raise why
            hop_delay_bound(state, cls)
        total += delay
        if total > spec.deadline_us:
            raise DeadlineInfeasible(
                f"flow {fid!r}: bound at least {total} us > deadline {spec.deadline_us} us"
            )
        burst = propagate_burst(burst, spec.rate_Bps, delay)
    placements, hop_bounds = base.placements, base.hop_bounds
    order: dict[PortId, None] = {}  # the new hops in first-appearance order
    dirty: set[PortId] = set()  # the new hops where a peer's bound moved
    for f in sorted({fid}.union(*(base.members.get(port, ()) for port in pl.hops))):
        peer = pl if f == fid else placements[f]
        last = hop_bounds.get(f)  # None only for the new flow, which passed its screen
        moved = last is None
        total = peer.terms.fixed_us
        for i, port in enumerate(peer.hops):
            at_port = delays.get(port)
            if at_port is None:
                total += last[i]
                continue
            order[port] = None
            delay = at_port.get(peer.priority)
            if delay is None:  # port_bounds found the class Unschedulable: raise why
                hop_delay_bound(
                    _port_state(topo.switches[port.node], aggregates[port]), peer.priority
                )
            total += delay
            if last is not None and delay != last[i]:
                moved = True
                dirty.add(port)
        if moved and total > peer.spec.deadline_us:
            raise _missed(f, peer, total)
    for port in order:
        _check_buffer(port, topo.switches[port.node], backlogs[port])

    st = base.copy()
    st.placements[fid] = pl
    st.bursts[fid] = carried
    st.hop_bounds[fid] = tuple(delays[port][cls] for port in pl.hops)
    for i, port in enumerate(pl.hops):
        st.members[port] = {**st.members.get(port, {}), fid: i}
    st.aggregates.update(aggregates)
    _climb(topo, st, dirty, delays)
    return st


def _dependency_ranks(
    st: _SolverState, roots: Iterable[PortId]
) -> tuple[dict[PortId, int], list[list[PortId]]]:
    """Rank the ports that `roots` reach by their strongly connected component.

    An edge leads from a port to the next hop of each flow that crosses it.
    One iterative Tarjan DFS (SIAM J. Comput. 1972) ranks every reached
    port by its component, upstream first: an edge never leads to a lower
    rank, and leads to the same rank only inside a cycle.  Also returns the
    components of more than one port, the cycles.  The walk iterates only
    `members` dicts and hop tuples, so neither result depends on hash order.
    """
    placements, members = st.placements, st.members
    order: dict[PortId, int] = {}  # port -> DFS visit index
    low: dict[PortId, int] = {}  # least visit index the port reaches on the stack
    rank: dict[PortId, int] = {}  # set once the port's component is complete
    stack: list[PortId] = []
    cycles: list[list[PortId]] = []
    components = 0  # complete so far; they complete downstream first
    for root in roots:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        stack.append(root)
        walk = [(root, iter(members[root].items()))]
        while walk:
            port, edges = walk[-1]
            for fid, i in edges:
                hops = placements[fid].hops
                if i + 1 == len(hops):
                    continue
                nxt = hops[i + 1]
                if nxt not in order:
                    order[nxt] = low[nxt] = len(order)
                    stack.append(nxt)
                    walk.append((nxt, iter(members[nxt].items())))
                    break
                if nxt not in rank and order[nxt] < low[port]:  # on the stack
                    low[port] = order[nxt]
            else:
                walk.pop()
                if walk and low[port] < low[walk[-1][0]]:
                    low[walk[-1][0]] = low[port]
                if low[port] == order[port]:  # the first port of a component: pop it
                    component = [stack.pop()]
                    while component[-1] != port:
                        component.append(stack.pop())
                    components += 1
                    for member in component:
                        rank[member] = -components
                    if len(component) > 1:
                        cycles.append(component)
    return rank, cycles


def _drop_flow(topo: Topology, base: _SolverState, flow_id: str) -> _SolverState:
    """`base` minus one flow, climbed component by component in dependency order.

    The affected ports are the removed flow's hops, then, transitively, every
    next hop of a flow that crosses an affected port.  `_dependency_ranks`
    ranks them upstream first.  Every burst stays as it is, at or above the
    new fixed point, except one that enters a port of a cycle from a port of
    the same cycle: that restarts from its flow's spec burst, below it.  The
    climb starts from the removed flow's surviving hops and every port of a
    cycle and pops by rank: a port outside any cycle is bounded once its
    inputs are final, so its bound is final too and can only fall, and a
    cycle climbs from below to its least fixed point with its inputs
    final.  So the result is the least fixed point of the survivors.  No
    burst or bound passes its old value on the way, so the climb needs no
    cap, and none of its checks can fail.
    """
    st = base.copy()
    gone = st.placements.pop(flow_id)
    del st.bursts[flow_id], st.hop_bounds[flow_id]
    placements, bursts, members = st.placements, st.bursts, st.members
    for port in gone.hops:
        members[port] = {f: i for f, i in members[port].items() if f != flow_id}
    rank, cycles = _dependency_ranks(st, gone.hops)
    dirty = []
    reset: dict[str, list[int]] = {}  # the burst lists copied from `base` to restart
    for cycle in cycles:
        dirty += cycle
        for port in cycle:
            for fid, i in members[port].items():
                pl = placements[fid]
                if i + 1 < len(pl.hops) and rank[pl.hops[i + 1]] == rank[port]:
                    flow_bursts = reset.get(fid)
                    if flow_bursts is None:
                        flow_bursts = bursts[fid] = reset[fid] = list(bursts[fid])
                    flow_bursts[i + 1] = pl.spec.burst_B
    for port in gone.hops:
        if members[port]:
            dirty.append(port)
        else:  # only the removed flow crossed it
            del members[port], st.aggregates[port]
    _climb(topo, st, dirty, rank=rank)
    return st


class _Routes:
    """The distinct routes of one (src, dst) pair, in tree order.

    Iterating replays the routes found so far, then resumes the tree walk
    where it stopped, so each tree is walked at most once for the pair.
    """

    def __init__(self, topo: Topology, trees: list[VlanTree], src: str, dst: str):
        self._topo, self._trees, self._src, self._dst = topo, trees, src, dst
        self._walked = 0  # trees walked so far
        self._seen: set[tuple[PortId, ...]] = set()
        self._found: list[tuple[VlanTree, tuple[PortId, ...]]] = []

    def __iter__(self):
        i = 0
        while i < len(self._found) or self._walk_to_next():
            yield self._found[i]
            i += 1

    def _walk_to_next(self) -> bool:
        """Walk trees until a new route turns up; False once every tree is walked."""
        while self._walked < len(self._trees):
            tree = self._trees[self._walked]
            hops = tuple(path_in_tree(self._topo, tree, self._src, self._dst))
            self._walked += 1
            if hops not in self._seen:
                self._seen.add(hops)
                self._found.append((tree, hops))
                return True
        return False


class NetworkState:
    """Flow registry (the committed `_SolverState`) plus the admission pipeline.

    `trees`, when given, is a non-empty list of VLAN trees of `topology`;
    by default they are enumerated, and a connected fabric has at least one.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        trees: list[VlanTree] | None = None,
        class_count: int | None = None,
        best_effort_class: int = 0,
        default_regulator: RegulatorConfig | None = None,
    ):
        self.topology = topology
        self.trees_truncated = False
        if trees is None:
            trees, self.trees_truncated = enumerate_spanning_trees(topology)
        self.trees = list(trees)
        profile_classes = min(p.class_count for p in topology.switches.values())
        self.class_count = profile_classes if class_count is None else min(
            class_count, profile_classes
        )
        self.best_effort_class = best_effort_class
        self.default_regulator = default_regulator
        self._solver = _SolverState()
        self._routes: dict[tuple[str, str], _Routes] = {}  # filled as pairs are requested
        self._floors: dict[tuple[int, int, int, int], float] = {}  # see _hop_floor

    # ------------------------------------------------------------------ helpers

    def flows(self) -> dict[str, FlowAssignment]:
        return {fid: self._assignment(fid) for fid in sorted(self._solver.placements)}

    def _assignment(self, flow_id: str) -> FlowAssignment:
        st = self._solver
        pl = st.placements[flow_id]
        terms = pl.terms
        hop_bounds = st.hop_bounds[flow_id]
        return FlowAssignment(
            spec=pl.spec,
            vlan_id=pl.tree.vlan_id,
            priority_class=pl.priority,
            hop_ports=pl.hops,
            per_hop_bounds_us=hop_bounds,
            ul=terms.ul,
            dl=terms.dl,
            regulator=terms.regulator,
            regulator_bound_us=terms.regulator_us,
            e2e_bound_us=sum(hop_bounds) + terms.fixed_us,
        )

    def _terms(self, spec: FlowSpec) -> _Terms:
        """The UL and DL contracts of the flow's UE ends, and its regulator and bound.

        A UE direction must have a usable TDD slot and room for the flow next
        to the UE's admitted flows in that direction; this is the only check
        of a UE's capacity, and `transit_contract` relies on it.
        """
        transit = self.topology.transit
        contracts = []
        for end, direction, name, capacity in (
            ("src", UPLINK, "uplink", ul_capacity),
            ("dst", DOWNLINK, "downlink", dl_capacity),
        ):
            ue_id = getattr(spec, end)
            if not self.topology.is_ue(ue_id):
                contracts.append(None)
                continue
            cap = capacity(transit.tdd, transit.ues[ue_id])
            if cap == 0:
                raise Unschedulable(
                    f"TDD pattern {transit.tdd.pattern!r} has no usable {name} slot for {ue_id}"
                )
            peers = sum(
                pl.spec.rate_Bps
                for pl in self._solver.placements.values()
                if getattr(pl.spec, end) == ue_id
            )
            if peers + spec.rate_Bps > cap:
                raise Unschedulable(
                    f"aggregate {name} rate of {ue_id} exceeds TDD capacity"
                )
            contracts.append(transit_contract(
                transit, ue_id, direction, spec.burst_B, spec.rate_Bps
            ))
        ul, dl = contracts
        regulator, regulator_us = None, 0
        if spec.dejitter:
            if not self.topology.is_ue(spec.src):
                raise InvalidSpec("de-jittering applies to 5G-sourced flows only")
            regulator = self.default_regulator
            if regulator is None:
                raise InvalidSpec("dejitter requested but no regulator configured")
            regulator_us = regulator_delay_bound(regulator, spec.burst_B, spec.max_pkt_B)
        fixed_us = regulator_us + sum(c.delay_bound_us for c in contracts if c is not None)
        return _Terms(ul, dl, regulator, regulator_us, fixed_us)

    def _candidates(self, spec: FlowSpec, terms: _Terms):
        """Placements of a flow in fixed search order: class descending, tree ascending.

        The solve depends on (class, hops) only, so a tree whose path repeats
        an earlier tree's is skipped: it would fail exactly as that one did.
        Each (src, dst) pair's trees are walked once per `NetworkState` and
        lazily (see `_Routes`), so an accept on an early tree costs only the
        paths walked so far, and later requests and batch steps for the pair
        walk no tree again.
        """
        pair = (spec.src, spec.dst)
        routes = self._routes.get(pair)
        if routes is None:
            routes = self._routes[pair] = _Routes(self.topology, self.trees, *pair)
        for priority in range(self.class_count - 1, self.best_effort_class, -1):
            for tree, hops in routes:
                yield _Placement(spec, priority, tree, hops, terms)

    def _first_fit(
        self,
        base: _SolverState,
        spec: FlowSpec,
        terms: _Terms,
        details: dict[type, str] | None = None,
    ) -> _SolverState | None:
        """`base` plus the flow at its first candidate whose trial succeeds, or None.

        The one loop that tries candidates: `_add_flow` on each of
        `_candidates` in search order.  If `details` is given, it keeps the
        detail of each failure class's first failed trial.

        The prune rule (`_pruned`) skips a candidate unbuilt whose trial would
        fail at the round-one screen.  A skipped trial could only have
        mattered by succeeding once DeadlineInfeasible is in `details`, which
        fixes a reject's reason and detail, or when no `details` is kept (the
        batch pass); only then does the loop skip.  So decisions, details and
        registries are those of a loop that skips nothing.  The floor is
        computed on the first candidate of a class that is judged; later
        ones find it kept.
        """
        for cand in self._candidates(spec, terms):
            if (details is None or DeadlineInfeasible in details) and self._pruned(cand):
                continue
            try:
                return _add_flow(self.topology, base, cand)
            except _TRIAL_FAILURES as exc:
                if details is not None:
                    details.setdefault(type(exc), str(exc))
        return None

    def _pruned(self, cand: _Placement) -> bool:
        """Whether `cand` misses its deadline with each hop at its class's `_hop_floor`:
        no round-one bound is below the floor, so its trial would fail the screen."""
        spec = cand.spec
        floor = self._hop_floor(spec, cand.priority)
        return len(cand.hops) * floor > spec.deadline_us - cand.terms.fixed_us

    def _hop_floor(self, spec: FlowSpec, priority: int) -> float:
        """`_hop_floor_us` of `spec` in class `priority`, computed once per envelope.

        The floor reads only the flow's burst, rate and largest packet, the
        class and the fabric's profiles, which are fixed for this registry's
        lifetime; so it is kept by (burst, rate, packet, class).
        """
        key = (spec.burst_B, spec.rate_Bps, spec.max_pkt_B, priority)
        floor = self._floors.get(key)
        if floor is None:
            floor = self._floors[key] = _hop_floor_us(self._profiles, spec, priority)
        return floor

    @cached_property
    def _profiles(self) -> tuple[SwitchProfile, ...]:
        """The fabric's distinct switch profiles, found on first use."""
        return tuple(set(self.topology.switches.values()))

    # ------------------------------------------------------------------ operations

    def register_flow(self, spec: FlowSpec) -> Decision:
        """Admit a flow or reject it, leaving the registry untouched on reject.

        A reject's reason is the name of the `errors` class that refused the
        flow: up front InvalidSpec, Unreachable or Unschedulable, else the
        first class of `_TRIAL_FAILURES` that a search trial raised.  Only the
        first detail of each class is kept, as a string: an exception would
        keep its trial's solver state alive through its traceback.  Which
        candidates the search skips is `_first_fit`'s to say; the batch pass
        is not started when `_pruned` rules out every candidate of the flow.
        """
        try:
            if spec.flow_id in self._solver.placements:
                raise InvalidSpec(f"flow id {spec.flow_id!r} already registered")
            self.topology.attachment(spec.src)
            self.topology.attachment(spec.dst)
            terms = self._terms(spec)
        except (InvalidSpec, Unreachable, Unschedulable) as exc:
            return Decision(False, reason=type(exc).__name__, detail=str(exc))

        details: dict[type, str] = {}  # failure class -> detail of its first failed trial
        solver = self._first_fit(self._solver, spec, terms, details)
        moved: tuple[str, ...] = ()
        if (solver is None and self._solver.placements
                and not all(map(self._pruned, self._candidates(spec, terms)))):
            solver = self._batch_reassign(spec, terms)
            if solver is not None:
                placements = solver.placements
                moved = tuple(sorted(
                    fid for fid, pl in self._solver.placements.items()
                    if (placements[fid].priority, placements[fid].tree.vlan_id)
                    != (pl.priority, pl.tree.vlan_id)
                ))
        if solver is None:
            details.setdefault(Unschedulable, "no feasible candidate")  # if none was tried
            failure = next(f for f in _TRIAL_FAILURES if f in details)
            log.info("flow %s rejected: %s", spec.flow_id, failure.__name__)
            return Decision(False, reason=failure.__name__, detail=details[failure])
        self._solver = solver
        assignment = self._assignment(spec.flow_id)
        log.info(
            "flow %s accepted: vlan %d class %d e2e %d us, reconfigured %s",
            spec.flow_id,
            assignment.vlan_id,
            assignment.priority_class,
            assignment.e2e_bound_us,
            moved,
        )
        return Decision(True, assignment=assignment, reconfigured=moved)

    def _batch_reassign(self, spec: FlowSpec, terms: _Terms) -> _SolverState | None:
        """Re-place every flow, the new one included, in ascending deadline order.

        None if that fails.  The flows enter one at a time into a state of
        their own, each by `_first_fit` from the flows placed before it.
        """
        pending = [(pl.spec, pl.terms) for pl in self._solver.placements.values()]
        pending.append((spec, terms))
        pending.sort(key=lambda entry: (entry[0].deadline_us, entry[0].flow_id))
        solver = _SolverState()
        for entry in pending:
            solver = self._first_fit(solver, *entry)
            if solver is None:
                return None
        return solver

    def remove_flow(self, flow_id: str) -> None:
        """Drop a flow; the survivors' bounds can only improve.

        Only what the flow's removal can affect is re-solved (see
        `_drop_flow`); removing the last flow just empties the state.
        """
        if flow_id not in self._solver.placements:
            raise UnknownFlow(flow_id)
        # one canonical flow: 0.5 us emptied here, 4 us through _drop_flow (2-vCPU Xeon VM)
        if len(self._solver.placements) == 1:
            self._solver = _SolverState()
        else:
            self._solver = _drop_flow(self.topology, self._solver, flow_id)
        log.info("flow %s removed", flow_id)

    # ------------------------------------------------------------------ wire surface

    def handle_flow_request(self, request: dict, path: str = "request") -> dict:
        """Check a wire-format request, run admission, return its `response`.

        A malformed field raises ScenarioInvalid at its path under `path`;
        a request that conflicts with the registry or the network is a reject.
        """
        _known_keys(_expect(request, path, dict), path, WIRE_KEYS)
        spec = read_flow_spec(request, path)
        return self.response(spec, self.register_flow(spec))

    def response(self, spec: FlowSpec, decision: Decision) -> dict:
        """The record of `register_flow(spec)`'s `decision`, as the wire hands it out.

        An accepted flow's record carries the configuration its edge applies:
        the NW-TT rule of a UE source, or the source host's tagging and
        policing entry; a rejected one carries the reason and its detail.
        That configuration is rendered from `decision.assignment` alone, so
        the record is the one handed out at acceptance, whatever the registry
        has done since.
        """
        response: dict = {
            "schema_version": 1,
            "flow_id": spec.flow_id,
            "accepted": decision.accepted,
            "reconfigured": list(decision.reconfigured),
        }
        if decision.accepted:
            a = decision.assignment
            response.update(
                vlan_id=a.vlan_id, pcp=a.priority_class, e2e_bound_us=a.e2e_bound_us
            )
            if self.topology.is_ue(a.spec.src):
                response["nwtt_config"] = self.nwtt_rule(a).wire()
            else:  # tagging and policing entry for the source host's middleware
                response["host_config"] = {
                    "flow_id": a.spec.flow_id,
                    "match": {"src": a.spec.src, "dst": a.spec.dst},
                    "vlan_id": a.vlan_id,
                    "pcp": a.priority_class,
                    "policer": {"burst_B": a.spec.burst_B, "rate_Bps": a.spec.rate_Bps},
                }
        else:
            response["reason"] = decision.reason
            if decision.detail:
                response["detail"] = decision.detail
        return response

    def nwtt_rule(self, assignment: FlowAssignment) -> NwttRule:
        """The NW-TT rule of an admitted UE-sourced flow, from its assignment alone."""
        spec = assignment.spec
        return NwttRule(
            flow_id=spec.flow_id,
            src=spec.src,
            dst=spec.dst,
            egress=self.topology.transit.attach,
            vlan_id=assignment.vlan_id,
            pcp=assignment.priority_class,
            regulator=assignment.regulator,
        )

    # ------------------------------------------------------------------ introspection

    def backlog_bounds(self) -> dict[PortId, dict[int, int]]:
        """Per-port, per-class backlog bounds implied by the current registry."""
        return {
            port: port_bounds(_port_state(self.topology.switches[port.node], classes))[1]
            for port, classes in self._solver.aggregates.items()
        }
