"""Device/link graph of the fixed network plus the attached 5G segment.

Switches form the fabric; hosts and the 5G transit node hang off switch
ports as leaves.  VLAN trees partition the switch fabric for source
routing: every spanning tree of the switch graph gets a VLAN id, and a
flow's path is the unique tree path between its endpoints' attachment
switches, expressed as the ordered egress ports it queues at.

Each tree answers path queries from its route table: every switch's parent,
the egress port on each side of the link to that parent, and its depth.  A
path is the climb from both attachment switches to their lowest common
ancestor.  The table is a `cached_property` of the tree: built by its first
path query, not when the tree is enumerated, and shared by every caller
that holds the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .errors import Disconnected, Unreachable
from .transit5g import TransitNode5G

BASE_VLAN = 100  # the VLAN id of the first tree
MAX_VLAN = 4094  # the last usable 802.1Q VLAN id


class PortId(NamedTuple):
    node: str
    port: int

    def __str__(self) -> str:
        return f"{self.node}.{self.port}"

    @classmethod
    def parse(cls, text: str) -> "PortId":
        node, _, port = text.rpartition(".")
        if not node or not (port.isascii() and port.isdigit()):
            raise ValueError(f"port id must look like 'S1.1', got {text!r}")
        return cls(node, int(port))


Link = tuple[PortId, PortId]


def make_link(a: PortId, b: PortId) -> Link:
    """Canonical undirected link: endpoints in sorted order."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class SwitchProfile:
    """Known per-device properties the controller relies on.

    As loaded: a positive rate and buffer, two to eight classes, and a
    non-negative forwarding delay for each class.
    """

    link_rate_Bps: int = 125_000
    fwd_delay_us: tuple[int, ...] = (0,) * 8
    port_buffer_B: int = 32_768
    class_count: int = 8


# A switch's route table entry: (parent, up, down, depth), where `up` is the
# switch's egress port toward its parent and `down` the parent's egress port
# toward it.  A root has (None, None, None, 0).
_TreeHop = tuple[str | None, PortId | None, PortId | None, int]


def _build_routes(edges: tuple[Link, ...]) -> dict[str, _TreeHop]:
    """Route table of an acyclic edge set: one rooted tree per component.

    Each sweep over the pending edges attaches every edge with one end
    already in the table, so edges in `switch_links()` order (as
    `enumerate_spanning_trees` emits them) mostly land in the first sweep;
    an order that lists a chain from its far end takes one sweep per hop.
    It runs on a tree's first path query, so it keeps to one tuple per
    switch and builds no adjacency lists.
    """
    table: dict[str, _TreeHop] = {}
    pending = list(edges)
    while pending:
        # no pending edge touches the table: root a new component
        table[pending[0][0].node] = (None, None, None, 0)
        attached = True
        while attached:
            rest = []
            for edge in pending:
                a, b = edge
                if a.node in table:
                    table[b.node] = (a.node, b, a, table[a.node][3] + 1)
                elif b.node in table:
                    table[a.node] = (b.node, a, b, table[b.node][3] + 1)
                else:
                    rest.append(edge)
            attached = len(rest) < len(pending)
            pending = rest
    return table


@dataclass(frozen=True)
class VlanTree:
    """One spanning tree of the switch fabric, bound to a VLAN id up to MAX_VLAN."""

    vlan_id: int
    edges: tuple[Link, ...]

    @cached_property
    def routes(self) -> dict[str, _TreeHop]:
        """Route table by switch, built on first use; outside eq, hash and repr."""
        return _build_routes(self.edges)


@dataclass
class Topology:
    switches: dict[str, SwitchProfile] = field(default_factory=dict)
    links: set[Link] = field(default_factory=set)  # switch to switch, as the loader checks
    hosts: dict[str, PortId] = field(default_factory=dict)
    transit: TransitNode5G | None = None

    def copy(self) -> "Topology":
        clone = Topology(
            switches=dict(self.switches),
            links=set(self.links),
            hosts=dict(self.hosts),
            transit=None,
        )
        if self.transit is not None:
            clone.transit = TransitNode5G(
                tdd=self.transit.tdd,
                ues=dict(self.transit.ues),
                attach=self.transit.attach,
            )
        return clone

    def switch_links(self) -> list[Link]:
        """Fabric links, sorted canonically; every link joins two switches."""
        return sorted(self.links)

    def attachment(self, node_id: str) -> PortId:
        """The switch port a host or UE hangs off; a packet for it leaves there."""
        if node_id in self.hosts:
            return self.hosts[node_id]
        if self.is_ue(node_id):
            return self.transit.attach
        raise Unreachable(f"endpoint {node_id!r} is not a host or UE")

    def is_ue(self, node_id: str) -> bool:
        return self.transit is not None and node_id in self.transit.ues


def enumerate_spanning_trees(topo: Topology, *, cap: int = 64) -> tuple[list[VlanTree], bool]:
    """All spanning trees of the switch fabric, in deterministic order.

    A depth-first search over edge indices in `switch_links()` order emits
    trees lexicographically by edge index, the i-th (from 0) with vlan_id =
    BASE_VLAN + i.  An edge that would close a cycle cuts off every extension
    of its prefix, so the cost grows with the trees emitted, not with
    C(links, switches - 1).  At most `cap` trees are returned, and never
    more than the VLAN ids from BASE_VLAN to MAX_VLAN; the second element
    reports whether a further tree exists (truncation).  The fabric has at
    least one switch, as the loader requires.
    """
    cap = min(cap, MAX_VLAN - BASE_VLAN + 1)
    nodes = sorted(topo.switches)
    edges = topo.switch_links()
    want = len(nodes) - 1
    # union-find without path compression, so backtracking undoes a union in one step
    parent = {n: n for n in nodes}

    def find(x: str) -> str:
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:  # join every link once to check connectivity, then start over
        parent[find(a.node)] = find(b.node)
    reach = [n for n in nodes if find(n) == find(nodes[0])]
    if len(reach) < len(nodes):
        raise Disconnected(f"switch graph not connected: reached {reach}")
    parent.update(zip(nodes, nodes))

    trees: list[VlanTree] = []
    chosen: list[int] = []  # edge indices of the acyclic prefix, ascending
    joined: list[str] = []  # root each chosen edge attached, detached on backtrack
    i = 0
    while True:
        if len(chosen) == want:
            if len(trees) >= cap:
                return trees, True
            trees.append(VlanTree(BASE_VLAN + len(trees), tuple(edges[k] for k in chosen)))
        elif i <= len(edges) - (want - len(chosen)):
            ra, rb = find(edges[i][0].node), find(edges[i][1].node)
            if ra != rb:
                parent[ra] = rb
                chosen.append(i)
                joined.append(ra)
            i += 1
            continue
        # backtrack: drop the last chosen edge and go on after its index
        if not chosen:
            return trees, False
        root = joined.pop()
        parent[root] = root
        i = chosen.pop() + 1


def path_in_tree(topo: Topology, tree: VlanTree, src: str, dst: str) -> list[PortId]:
    """Ordered egress ports a packet queues at along the unique tree path.

    `src` and `dst` are two different hosts or UEs.  One entry per
    switch-to-switch hop (the upstream switch's port), plus the
    destination's attachment port as the final hop.  The hops come from the
    tree's route table (built by its first query): the source side climbs to
    the lowest common ancestor through each switch's port toward its parent,
    and the destination side's climb gives the parents' ports toward it,
    taken in reverse.
    """
    src_switch = topo.attachment(src).node
    dst_port = topo.attachment(dst)
    dst_switch = dst_port.node

    hops: list[PortId] = []
    if src_switch != dst_switch:
        routes = tree.routes
        if src_switch not in routes or dst_switch not in routes:
            raise Unreachable(f"{dst!r} not reachable from {src!r} in tree {tree.vlan_id}")
        a, b = src_switch, dst_switch
        a_parent, a_up, _, a_depth = routes[a]
        b_parent, _, b_down, b_depth = routes[b]
        down: list[PortId] = []
        while a_depth > b_depth:
            hops.append(a_up)
            a = a_parent
            a_parent, a_up, _, a_depth = routes[a]
        while b_depth > a_depth:
            down.append(b_down)
            b = b_parent
            b_parent, _, b_down, b_depth = routes[b]
        while a != b:
            if a_parent is None:  # two roots: the edges leave the pair apart
                raise Unreachable(f"{dst!r} not reachable from {src!r} in tree {tree.vlan_id}")
            hops.append(a_up)
            down.append(b_down)
            a, b = a_parent, b_parent
            a_parent, a_up, _, _ = routes[a]
            b_parent, _, b_down, _ = routes[b]
        hops.extend(reversed(down))
    hops.append(dst_port)
    return hops
