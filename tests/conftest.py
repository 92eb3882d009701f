import json
from pathlib import Path

import pytest

from detnet5g import admission
from detnet5g.admission import _SolverState
from detnet5g.calculus import ClassAggregate, PortClassState, port_bounds, propagate_burst
from detnet5g.errors import Unreachable
from detnet5g.topology import PortId, SwitchProfile, Topology, make_link
from detnet5g.transit5g import TddConfig, TransitNode5G, UeRecord, transit_contract

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def canonical_scenario() -> dict:
    """The bundled demo scenario, a fresh copy that the caller may change."""
    return json.loads((SCENARIOS / "canonical.json").read_text())


def reordered_flows(result) -> list:
    """The flows of a run whose delivered packets' receive times, read from
    its trace columns, decrease somewhere along seq: none while each flow
    keeps one route and one class through FIFO queues."""
    flows = []
    for ctx in result.trace_rows.ctxs:
        times = [t for t in ctx.t_recv if t >= 0]
        if times != sorted(times):
            flows.append(ctx.source.flow_id)
    return flows


def canonical_topology() -> dict:
    """The bundled demo topology, a fresh copy that the caller may change."""
    return json.loads((SCENARIOS / "canonical_topology.json").read_text())


def worst_case_us(tdd, ue, direction, burst_B, rate_Bps=1) -> int:
    """`transit_contract`'s delay bound for one flow of `ue` alone under `tdd`."""
    node = TransitNode5G(tdd, {ue.ue_id: ue}, attach=PortId("S1", 3))
    return transit_contract(node, ue.ue_id, direction, burst_B, rate_Bps).delay_bound_us


def cold_solve(topo, placements) -> _SolverState:
    """Cold solve: `admission._climb` with every flow at its spec burst, every hop
    bound 0 and every port dirty.

    No admission path solves from scratch.  This shares the climb with the
    warm trials and removals, so it checks their warm starts, not the climb
    itself; `test_admission.reference_solve` is the independent oracle, and
    `certify` checks any registry in one pass.
    """
    st = _SolverState()
    for fid, pl in placements.items():
        st.placements[fid] = pl
        st.bursts[fid] = [pl.spec.burst_B] * len(pl.hops)
        st.hop_bounds[fid] = (0,) * len(pl.hops)  # the delays that leave the spec bursts be
        for i, port in enumerate(pl.hops):
            st.members.setdefault(port, {})[fid] = i
    admission._climb(topo, st, set(st.members))
    return st


def certify(topo, st: _SolverState) -> None:
    """Assert, in one pass over a solved state, that every bound it states holds.

    Shares no solver code (no dirty sets, no worklist, no screen): only the
    calculus's formulas.  Checks that
    - each flow's entry burst is its spec burst;
    - each next burst is at least `propagate_burst` of the stated burst over
      the stated hop bound;
    - each hop bound is at least its class's `port_bounds` delay over the
      aggregates rebuilt from the stated bursts;
    - every deadline and every buffer holds.
    The first three make the stated bursts a post-fixed point of the burst
    map, which is all the bounds need to hold (see the `admission` module
    docstring); whether it is the least one is `reference_solve`'s to check.
    """
    problems = []
    raw: dict = {}  # port -> class -> [burst, rate, largest packet], from the stated bursts
    for fid in sorted(st.placements):
        pl = st.placements[fid]
        spec = pl.spec
        bursts, bounds = st.bursts[fid], st.hop_bounds[fid]
        assert len(bursts) == len(bounds) == len(pl.hops), fid
        if bursts[0] != spec.burst_B:
            problems.append(f"{fid}: entry burst {bursts[0]} B != spec {spec.burst_B} B")
        for i in range(len(pl.hops) - 1):
            least = propagate_burst(bursts[i], spec.rate_Bps, bounds[i])
            if bursts[i + 1] < least:
                problems.append(f"{fid}: burst {bursts[i + 1]} B at hop {i + 1} < {least} B")
        total = sum(bounds) + pl.terms.fixed_us
        if total > spec.deadline_us:
            problems.append(f"{fid}: bound {total} us > deadline {spec.deadline_us} us")
        for port, burst in zip(pl.hops, bursts):
            slot = raw.setdefault(port, {}).setdefault(pl.priority, [0, 0, 0])
            slot[0] += burst
            slot[1] += spec.rate_Bps
            slot[2] = max(slot[2], spec.max_pkt_B)
    delays = {}
    for port, per_cls in raw.items():
        profile = topo.switches[port.node]
        delays[port], backlogs = port_bounds(PortClassState(
            profile.link_rate_Bps, {cls: ClassAggregate(*slot) for cls, slot in per_cls.items()},
            profile.fwd_delay_us, admission.DEFAULT_MAX_PKT_B))
        backlog = sum(backlogs.values())
        if backlog > profile.port_buffer_B:
            problems.append(f"{port}: backlog {backlog} B > buffer {profile.port_buffer_B} B")
    for fid, pl in st.placements.items():
        for port, bound in zip(pl.hops, st.hop_bounds[fid]):
            delay = delays[port].get(pl.priority)
            if delay is None or bound < delay:
                problems.append(f"{fid}: bound {bound} us at {port} < class delay {delay} us")
    assert not problems, problems


def canonical_aggregates(st: _SolverState) -> dict:
    """Each port's class aggregates with the class's member flows, sorted."""
    members: dict[tuple[PortId, int], list[str]] = {}
    for fid, pl in st.placements.items():
        for port in pl.hops:
            members.setdefault((port, pl.priority), []).append(fid)
    return {
        str(port): {
            cls: (agg.burst_B, agg.rate_Bps, agg.max_pkt_B, tuple(sorted(members[port, cls])))
            for cls, agg in sorted(per_cls.items())
        }
        for port, per_cls in sorted(st.aggregates.items())
    }


def aggregates(state) -> dict:
    """Port/class aggregates of a registry's committed fixed point, in canonical form."""
    return canonical_aggregates(state._solver)


def cold_aggregates(state) -> dict:
    """A registry's aggregates rebuilt by a cold solve of its placements (coherence oracle)."""
    return canonical_aggregates(cold_solve(state.topology, state._solver.placements))


def snapshot(state) -> dict:
    """Deep, comparable image of a registry's flows and aggregates, for atomicity checks."""
    return {"flows": state.flows(), "aggregates": aggregates(state)}


def first_fit_only(*states):
    """Turn each state's batch re-place pass off: a `_batch_reassign` of its
    own that places nothing shadows the class's, so a request that first fit
    rejects is rejected."""
    for state in states:
        state._batch_reassign = lambda spec, terms: None


def reference_path_in_tree(topo, tree, src, dst) -> list[PortId]:
    """The earlier `path_in_tree`, kept as the oracle: a BFS from the source
    switch over the tree's adjacency, rebuilt on every call."""
    src_switch = topo.attachment(src).node
    dst_port = topo.attachment(dst)
    dst_switch = dst_port.node

    hops: list[PortId] = []
    if src_switch != dst_switch:
        adj: dict[str, list[tuple[str, PortId]]] = {}
        for a, b in tree.edges:
            adj.setdefault(a.node, []).append((b.node, a))
            adj.setdefault(b.node, []).append((a.node, b))
        # BFS parent pointers; the path is unique in a tree
        parent: dict[str, tuple[str, PortId | None]] = {src_switch: (src_switch, None)}
        frontier = [src_switch]
        while frontier and dst_switch not in parent:
            nxt_frontier = []
            for node in frontier:
                for peer, egress in sorted(adj.get(node, [])):
                    if peer not in parent:
                        parent[peer] = (node, egress)
                        nxt_frontier.append(peer)
            frontier = nxt_frontier
        if dst_switch not in parent:
            raise Unreachable(f"{dst!r} not reachable from {src!r} in tree {tree.vlan_id}")
        rev: list[PortId] = []
        node = dst_switch
        while node != src_switch:
            prev, egress = parent[node]
            rev.append(egress)
            node = prev
        hops.extend(reversed(rev))
    hops.append(dst_port)
    return hops


def ring_topology(*, with_transit=True, profile=None) -> Topology:
    """Demo fabric: S1-S2-S3 ring, hosts D (S3.3) and G (S2.3), NW-TT at S1.3."""
    profile = profile or SwitchProfile()
    topo = Topology()
    for sid in ("S1", "S2", "S3"):
        topo.switches[sid] = profile
    topo.links = {
        make_link(PortId("S1", 1), PortId("S2", 1)),
        make_link(PortId("S1", 2), PortId("S3", 1)),
        make_link(PortId("S2", 2), PortId("S3", 2)),
    }
    topo.hosts = {"D": PortId("S3", 3), "G": PortId("S2", 3)}
    if with_transit:
        topo.transit = TransitNode5G(
            tdd=TddConfig("DDDSU", numerology_mu=1),
            ues={
                "UE1": UeRecord("UE1", tbs_ul_B=1500, tbs_dl_B=3000),
                "UE2": UeRecord("UE2", tbs_ul_B=1500, tbs_dl_B=3000),
            },
            attach=PortId("S1", 3),
        )
    return topo


def line_topology() -> Topology:
    topo = Topology()
    profile = SwitchProfile()
    for sid in ("S1", "S2", "S3"):
        topo.switches[sid] = profile
    topo.links = {
        make_link(PortId("S1", 1), PortId("S2", 1)),
        make_link(PortId("S2", 2), PortId("S3", 1)),
    }
    topo.hosts = {"A": PortId("S1", 2), "B": PortId("S3", 2)}
    return topo


def grid_topology(rows: int = 3, cols: int = 3) -> Topology:
    """Switch grid, one host H<r><c> per switch; ports 1 east, 2 south, 3 host, 4 west, 5 north."""
    topo = Topology()
    for r in range(rows):
        for c in range(cols):
            topo.switches[f"S{r}{c}"] = SwitchProfile()
            topo.hosts[f"H{r}{c}"] = PortId(f"S{r}{c}", 3)
            if c + 1 < cols:
                topo.links.add(make_link(PortId(f"S{r}{c}", 1), PortId(f"S{r}{c + 1}", 4)))
            if r + 1 < rows:
                topo.links.add(make_link(PortId(f"S{r}{c}", 2), PortId(f"S{r + 1}{c}", 5)))
    return topo


@pytest.fixture
def ring():
    return ring_topology()


@pytest.fixture
def line():
    return line_topology()
