import pytest

from detnet5g.admission import _canonical_aggregates, _solve
from detnet5g.topology import PortId, SwitchProfile, Topology, make_link
from detnet5g.transit5g import TddConfig, TransitNode5G, UeRecord, transit_contract


def worst_case_us(tdd, ue, direction, burst_B, rate_Bps=1) -> int:
    """`transit_contract`'s delay bound for one flow of `ue` alone under `tdd`."""
    node = TransitNode5G(tdd, {ue.ue_id: ue})
    return transit_contract(node, ue.ue_id, direction, burst_B, rate_Bps).delay_bound_us


def cold_aggregates(state) -> dict:
    """A registry's aggregates rebuilt by a cold solve of its placements (coherence oracle)."""
    return _canonical_aggregates(_solve(state.topology, state._solver.placements).aggregates)


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
