import random
import time
from itertools import combinations

import pytest

from detnet5g import topology
from detnet5g.errors import Disconnected, Unreachable
from detnet5g.scenario import load_topology
from detnet5g.topology import (
    PortId,
    SwitchProfile,
    Topology,
    VlanTree,
    enumerate_spanning_trees,
    make_link,
    path_in_tree,
)
from conftest import canonical_topology, grid_topology, reference_path_in_tree, ring_topology


def count_spanning_trees_oracle(nodes, edges) -> int:
    """Kirchhoff matrix-tree count via exact integer Bareiss determinant."""
    n = len(nodes)
    if n == 1:
        return 1
    idx = {v: i for i, v in enumerate(sorted(nodes))}
    lap = [[0] * n for _ in range(n)]
    for a, b in edges:
        i, j = idx[a], idx[b]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    m = [row[1:] for row in lap[1:]]
    size = n - 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[size - 1][size - 1]


def reference_spanning_trees(topo, *, base_vlan=100, cap=64):
    """The earlier enumerator, kept as the reference: every
    (switches - 1)-subset of the links in `combinations` order, kept when a
    union-find finds it acyclic and spanning."""
    nodes = sorted(topo.switches)

    def spans(subset):
        parent = {n: n for n in nodes}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in subset:
            ra, rb = find(a.node), find(b.node)
            if ra == rb:
                return False
            parent[ra] = rb
        root = find(nodes[0])
        return all(find(n) == root for n in nodes)

    trees = []
    for subset in combinations(topo.switch_links(), len(nodes) - 1):
        if not spans(subset):
            continue
        if len(trees) >= cap:
            return trees, True
        trees.append(VlanTree(vlan_id=base_vlan + len(trees), edges=subset))
    return trees, False


def random_multigraph(rng) -> Topology:
    """2-7 switches: a random spanning tree plus extra links, some parallel, rare self-links.

    Host H<i> hangs off switch S<i>, so host pairs walk every switch pair.
    """
    n = rng.randrange(2, 8)
    topo = Topology(switches={f"S{i}": SwitchProfile() for i in range(n)})
    next_port = dict.fromkeys(topo.switches, 0)

    def link(a, b):
        pa = next_port[a] = next_port[a] + 1
        pb = next_port[b] = next_port[b] + 1
        topo.links.add(make_link(PortId(a, pa), PortId(b, pb)))

    for i in range(1, n):
        link(f"S{i}", f"S{rng.randrange(i)}")
    for _ in range(rng.randrange(0, n + 3)):
        a, b = rng.sample(sorted(topo.switches), 2) if rng.random() < 0.9 else ["S0", "S0"]
        link(a, b)
    for sid, port in next_port.items():
        topo.hosts["H" + sid[1:]] = PortId(sid, port + 1)
    return topo


def switch_graph(topo):
    nodes = sorted(topo.switches)
    edges = [(a.node, b.node) for a, b in topo.switch_links()]
    return nodes, edges


class TestSpanningTrees:
    def test_ring_has_three(self, ring):
        trees, truncated = enumerate_spanning_trees(ring)
        assert len(trees) == 3 and not truncated
        assert [t.vlan_id for t in trees] == [100, 101, 102]

    def test_line_has_one(self, line):
        trees, truncated = enumerate_spanning_trees(line)
        assert len(trees) == 1 and not truncated

    def test_k4_has_sixteen(self):
        topo = Topology(switches={f"S{i}": SwitchProfile() for i in range(1, 5)})
        port = {}
        for i in range(1, 5):
            port[i] = 0
        for i in range(1, 5):
            for j in range(i + 1, 5):
                port[i] += 1
                port[j] += 1
                topo.links.add(make_link(PortId(f"S{i}", port[i]), PortId(f"S{j}", port[j])))
        trees, truncated = enumerate_spanning_trees(topo, cap=100)
        assert len(trees) == 16 and not truncated
        nodes, edges = switch_graph(topo)
        assert count_spanning_trees_oracle(nodes, edges) == 16

    def test_matrix_tree_oracle_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(30):
            n = rng.randrange(2, 7)
            topo = Topology(switches={f"S{i}": SwitchProfile() for i in range(n)})
            next_port = {f"S{i}": 0 for i in range(n)}
            # random spanning tree first, then extra edges
            for i in range(1, n):
                j = rng.randrange(i)
                next_port[f"S{i}"] += 1
                next_port[f"S{j}"] += 1
                topo.links.add(
                    make_link(PortId(f"S{i}", next_port[f"S{i}"]), PortId(f"S{j}", next_port[f"S{j}"]))
                )
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for i, j in rng.sample(pairs, min(len(pairs), rng.randrange(0, n + 2))):
                a, b = f"S{i}", f"S{j}"
                if any({a, b} == {x.node, y.node} for x, y in topo.links):
                    continue
                next_port[a] += 1
                next_port[b] += 1
                topo.links.add(make_link(PortId(a, next_port[a]), PortId(b, next_port[b])))
            trees, truncated = enumerate_spanning_trees(topo, cap=5000)
            assert not truncated
            nodes, edges = switch_graph(topo)
            assert len(trees) == count_spanning_trees_oracle(nodes, edges)

    def test_vlan_ids_distinct_and_in_range(self, ring):
        trees, _ = enumerate_spanning_trees(ring)
        ids = [t.vlan_id for t in trees]
        assert len(set(ids)) == len(ids)
        assert all(1 <= v <= 4094 for v in ids)

    def test_cap_truncates_and_flags(self):
        topo = Topology(switches={f"S{i}": SwitchProfile() for i in range(1, 5)})
        port = {i: 0 for i in range(1, 5)}
        for i in range(1, 5):
            for j in range(i + 1, 5):
                port[i] += 1
                port[j] += 1
                topo.links.add(make_link(PortId(f"S{i}", port[i]), PortId(f"S{j}", port[j])))
        trees, truncated = enumerate_spanning_trees(topo, cap=5)
        assert len(trees) == 5 and truncated

    def test_disconnected_raises(self):
        topo = Topology(switches={"S1": SwitchProfile(), "S2": SwitchProfile()})
        with pytest.raises(Disconnected):
            enumerate_spanning_trees(topo)

    def test_matches_reference_enumerator_on_random_multigraphs(self):
        rng = random.Random(7)
        parallel = 0
        for _ in range(40):
            topo = random_multigraph(rng)
            pairs = [tuple(sorted((a.node, b.node))) for a, b in topo.switch_links()]
            parallel += len(pairs) - len(set(pairs))
            for cap in (0, 1, 5, 10_000):
                assert enumerate_spanning_trees(topo, cap=cap) == \
                    reference_spanning_trees(topo, cap=cap)
        assert parallel > 0

    @pytest.mark.parametrize("rows", [3, 4])
    def test_matches_reference_enumerator_on_grids(self, rows):
        topo = grid_topology(rows, rows)
        for cap in (1, 63, 64, 65, 256):
            assert enumerate_spanning_trees(topo, cap=cap) == \
                reference_spanning_trees(topo, cap=cap)

    @pytest.mark.parametrize("rows", [5, 6])
    def test_large_grid_stops_at_cap(self, rows):
        topo = grid_topology(rows, rows)
        start = time.perf_counter()
        trees, truncated = enumerate_spanning_trees(topo)
        assert time.perf_counter() - start < 2.0
        assert len(trees) == 64 and truncated
        # the first tree keeps each link, in order, that closes no cycle
        parent = {n: n for n in topo.switches}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        greedy = []
        for a, b in topo.switch_links():
            ra, rb = find(a.node), find(b.node)
            if ra != rb:
                parent[ra] = rb
                greedy.append((a, b))
        assert trees[0].edges == tuple(greedy)
        edge_lists = [t.edges for t in trees]
        assert edge_lists == sorted(set(edge_lists))

    def test_deterministic_order(self, ring):
        a, _ = enumerate_spanning_trees(ring)
        b, _ = enumerate_spanning_trees(ring)
        assert [t.edges for t in a] == [t.edges for t in b]
        edge_lists = [t.edges for t in a]
        assert edge_lists == sorted(edge_lists)


class TestPathInTree:
    def test_same_switch_single_hop(self, ring):
        trees, _ = enumerate_spanning_trees(ring)
        topo = ring
        topo.hosts["D2"] = PortId("S3", 4)
        hops = path_in_tree(topo, trees[0], "D2", "D")
        assert hops == [PortId("S3", 3)]

    def test_two_hop_detour_when_edge_missing(self, ring):
        trees, _ = enumerate_spanning_trees(ring)
        # tree 1 lacks S1-S3: UE1 (at S1) to D (at S3) must pass S2
        tree = trees[1]
        hops = path_in_tree(ring, tree, "UE1", "D")
        assert hops == [PortId("S1", 1), PortId("S2", 2), PortId("S3", 3)]

    def test_direct_path_on_tree_zero(self, ring):
        trees, _ = enumerate_spanning_trees(ring)
        hops = path_in_tree(ring, trees[0], "UE1", "D")
        assert hops == [PortId("S1", 2), PortId("S3", 3)]

    def test_unknown_endpoint(self, ring):
        trees, _ = enumerate_spanning_trees(ring)
        with pytest.raises(Unreachable):
            path_in_tree(ring, trees[0], "nope", "D")
        with pytest.raises(Unreachable):
            path_in_tree(ring, trees[0], "D", "nope")

    @pytest.mark.parametrize("edges", [
        (),
        ((PortId("S1", 1), PortId("S2", 1)),),
    ], ids=["no-edges", "misses-S3"])
    def test_tree_missing_a_switch_is_unreachable(self, ring, edges):
        tree = VlanTree(vlan_id=100, edges=edges)
        for src, dst in (("D", "G"), ("G", "D"), ("UE1", "D"), ("D", "UE2")):
            with pytest.raises(Unreachable):
                path_in_tree(ring, tree, src, dst)

    def test_unique_simple_path_property(self):
        rng = random.Random(11)
        for _ in range(20):
            topo = ring_topology()
            trees, _ = enumerate_spanning_trees(topo)
            tree = trees[rng.randrange(len(trees))]
            endpoints = ["D", "G", "UE1", "UE2"]
            src, dst = rng.sample(endpoints, 2)
            hops = path_in_tree(topo, tree, src, dst)
            nodes = [h.node for h in hops]
            assert len(set(nodes)) == len(nodes)  # no switch repeats


def endpoints(topo):
    """The hosts and UEs: the only endpoints a flow may have."""
    ues = sorted(topo.transit.ues) if topo.transit is not None else []
    return sorted(topo.hosts) + ues


def switch_pairs(topo, pairs) -> set[tuple[str, str]]:
    """The ordered pairs of different switches that endpoint `pairs` walk between."""
    walked = {(topo.attachment(src).node, topo.attachment(dst).node) for src, dst in pairs}
    return {(a, b) for a, b in walked if a != b}


def all_switch_pairs(topo) -> set[tuple[str, str]]:
    return {(a, b) for a in topo.switches for b in topo.switches if a != b}


class TestPathOracle:
    """`path_in_tree` against the BFS it replaced, on every tree."""

    @pytest.mark.parametrize("make", [
        ring_topology,
        lambda: load_topology(canonical_topology()),
        lambda: grid_topology(4, 4),
    ], ids=["ring", "canonical", "grid4x4"])
    def test_every_ordered_endpoint_pair(self, make):
        topo = make()
        trees, _ = enumerate_spanning_trees(topo)
        nodes = endpoints(topo)
        pairs = [(src, dst) for src in nodes for dst in nodes if src != dst]
        assert switch_pairs(topo, pairs) == all_switch_pairs(topo)
        for tree in trees:
            for src, dst in pairs:
                assert path_in_tree(topo, tree, src, dst) == \
                    reference_path_in_tree(topo, tree, src, dst), (tree.vlan_id, src, dst)

    def test_large_grid_at_tree_cap(self):
        topo = grid_topology(8, 8)
        trees, truncated = enumerate_spanning_trees(topo)
        assert len(trees) == 64 and truncated
        nodes = endpoints(topo)
        rng = random.Random(8)
        for tree in trees:
            for _ in range(300):  # 19,200 checks in all
                src, dst = rng.sample(nodes, 2)
                assert path_in_tree(topo, tree, src, dst) == \
                    reference_path_in_tree(topo, tree, src, dst), (tree.vlan_id, src, dst)

    def test_any_edge_order_and_forests(self):
        # the table must not depend on the edge order enumeration happens to
        # emit; a forest (edges dropped) answers or raises like the BFS did
        rng = random.Random(5)
        apart = 0
        for _ in range(60):
            topo = random_multigraph(rng)
            trees, _ = enumerate_spanning_trees(topo, cap=8)
            pairs = [(src, dst) for src in topo.hosts for dst in topo.hosts if src != dst]
            assert switch_pairs(topo, pairs) == all_switch_pairs(topo)
            for tree in trees:
                edges = list(tree.edges)
                rng.shuffle(edges)
                if rng.random() < 0.5:
                    k = rng.randrange(len(edges))
                    del edges[k:k + rng.randrange(1, 3)]
                shuffled = VlanTree(tree.vlan_id, tuple(edges))
                for src, dst in pairs:
                    try:
                        want = reference_path_in_tree(topo, shuffled, src, dst)
                    except Unreachable:
                        apart += 1
                        with pytest.raises(Unreachable):
                            path_in_tree(topo, shuffled, src, dst)
                    else:
                        assert path_in_tree(topo, shuffled, src, dst) == want
        assert apart > 0

    def test_fresh_list_each_call(self, ring):
        trees, _ = enumerate_spanning_trees(ring)
        first = path_in_tree(ring, trees[1], "UE1", "D")
        first.append(PortId("S9", 9))
        assert path_in_tree(ring, trees[1], "UE1", "D") == \
            [PortId("S1", 1), PortId("S2", 2), PortId("S3", 3)]


class TestRouteTableLaziness:
    @pytest.fixture
    def builds(self, monkeypatch):
        built = []
        real = topology._build_routes
        monkeypatch.setattr(topology, "_build_routes",
                            lambda edges: built.append(edges) or real(edges))
        return built

    def test_enumeration_builds_no_table(self, builds):
        trees, _ = enumerate_spanning_trees(grid_topology(4, 4))
        assert len(trees) == 64 and builds == []

    def test_repeated_queries_build_once_per_tree(self, builds):
        topo = grid_topology(4, 4)
        trees, _ = enumerate_spanning_trees(topo)
        for _ in range(3):
            for src, dst in (("H00", "H33"), ("H33", "H00"), ("H12", "H21")):
                path_in_tree(topo, trees[5], src, dst)
        assert builds == [trees[5].edges]
        path_in_tree(topo, trees[6], "H00", "H33")
        assert builds == [trees[5].edges, trees[6].edges]

    def test_table_is_outside_eq_and_hash(self):
        topo = grid_topology(3, 3)
        trees, _ = enumerate_spanning_trees(topo)
        path_in_tree(topo, trees[2], "H00", "H22")
        twin = VlanTree(trees[2].vlan_id, trees[2].edges)
        assert twin == trees[2] and hash(twin) == hash(trees[2])
        assert "routes" in vars(trees[2]) and "routes" not in vars(twin)
        assert repr(twin) == repr(trees[2])
