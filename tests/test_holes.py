"""The open soundness holes of ROADMAP item 1, one small scenario each.

Admission accepts every flow below, and the simulator shows the bound it
handed out does not hold.  Each case asserts what a sound system would give
and is marked strict xfail with its hole's letter, so a run that still shows
the hole passes tier-1 and a fix turns the case into a strict XPASS, which
fails it: the PR that closes a hole deletes that hole's marks.  Never widen
a mark.
"""

import pytest

from detnet5g.admission import FlowSpec, NetworkState
from detnet5g.scenario import load_scenario, load_topology
from detnet5g.sim import run
from conftest import canonical_scenario, canonical_topology


def hole(letter):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"hole 1({letter})")


def switch(sid, rate_Bps):
    return {"id": sid, "link_rate_Bps": rate_Bps, "port_buffer_B": 1 << 20}


def ue_flow(fid, rate_Bps, burst_B, pkt_B, source):
    return {"flow_id": fid, "src": "UE1", "dst": "D", "rate_Bps": rate_Bps,
            "burst_B": burst_B, "max_pkt_B": pkt_B, "deadline_us": 1_000_000,
            "critical": True, "source": source}


def canonical_without_bg(duration_ms):
    doc = canonical_scenario()
    doc["sim"]["sources"] = [s for s in doc["sim"]["sources"] if s["flow_id"] != "bg"]
    doc["sim"]["duration_ms"] = duration_ms
    return doc


def violations(doc, seed=1):
    return run(load_scenario(doc), seed=seed).report["violations"]["total"]


@hole("a")
def test_ue_entry_burst_ignores_tdd_clumping():
    """UE1 -> D at 200 kB/s, one 200 B packet a ms, one UL slot in 20 ms."""
    doc = {
        "topology": {
            "switches": [switch("S1", 1_000_000), switch("S2", 1_000_000)],
            "links": [["S1.1", "S2.1"]],
            "hosts": [{"id": "D", "attach": "S2.2"}],
            "transit5g": {"tdd_pattern": "D" * 19 + "U", "numerology": 0, "attach": "S1.2",
                          "ues": [{"id": "UE1", "tbs_ul_B": 8_000, "tbs_dl_B": 8_000}]},
        },
        "flows": [ue_flow("a", 200_000, 200, 200,
                          {"mode": "periodic", "period_us": 1_000, "pkt_B": 200})],
        "sim": {"duration_ms": 2_000},
    }
    assert violations(doc) == 0


def ue1_downlinks(*flows):
    """Hosts A (S1.1) and B (S1.2) sending to UE1 over one 1 MB/s switch, the
    5G block at S1.3 on a `DU` pattern of 1 ms slots carrying 200 B a slot
    each way; each flow of `flows`, `(src, rate_Bps)`, is critical, sends
    one 200 B packet at a time from a greedy source at its rate and has a
    10 s deadline."""
    return {
        "topology": {
            "switches": [switch("S1", 1_000_000)], "links": [],
            "hosts": [{"id": "A", "attach": "S1.1"}, {"id": "B", "attach": "S1.2"}],
            "transit5g": {"tdd_pattern": "DU", "numerology": 0, "attach": "S1.3",
                          "ues": [{"id": "UE1", "tbs_ul_B": 200, "tbs_dl_B": 200}]},
        },
        "flows": [{"flow_id": src, "src": src, "dst": "UE1", "rate_Bps": rate_Bps,
                   "burst_B": 200, "max_pkt_B": 200, "deadline_us": 10_000_000,
                   "critical": True,
                   "source": {"mode": "greedy_token_bucket", "pkt_B": 200, "burst_B": 200,
                              "rate_Bps": rate_Bps}}
                  for src, rate_Bps in flows],
        "sim": {"duration_ms": 2_000},
    }


@pytest.mark.parametrize("seed", [1, 2])
def test_each_ue1_downlink_alone_holds_its_bounds(seed):
    for flow in (("A", 20_000), ("B", 50_000)):
        assert violations(ue1_downlinks(flow), seed) == 0


@hole("b")
@pytest.mark.parametrize("seed", [1, 2])
def test_shared_ue_queue_ignores_peer_bursts(seed):
    """A -> UE1 at 20 kB/s and B -> UE1 at 50 kB/s share UE1's downlink queue."""
    assert violations(ue1_downlinks(("A", 20_000), ("B", 50_000)), seed) == 0


@hole("c")
def test_regulator_release_rate_unchecked():
    """Orange de-jittered at one 25 B packet a ms against a 2 ms release period."""
    doc = canonical_without_bg(1_000)
    orange = doc["flows"][0]
    orange.update(rate_Bps=25_000, dejitter=True)
    orange["source"]["period_us"] = 1_000
    assert violations(doc) == 0


@hole("e")
def test_duplicate_nwtt_match_rejected():
    state = NetworkState(load_topology(canonical_topology()))
    first, second = (FlowSpec(fid, "UE1", "D", 1_000, 100, 100, 1_000_000)
                     for fid in ("e1", "e2"))
    assert state.register_flow(first).accepted
    assert not state.register_flow(second).accepted


@hole("f")
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_unregistered_ue_traffic_shares_the_ul_queue(seed):
    """A 1,500 B unregistered UE1 packet every 15 ms ahead of orange's."""
    doc = canonical_without_bg(1_000)
    doc["sim"]["sources"].append({"flow_id": "ue1be", "src": "UE1", "dst": "G",
                                  "mode": "periodic", "period_us": 15_000, "pkt_B": 1_500})
    assert violations(doc, seed) == 0


@hole("h")
@pytest.mark.parametrize("seed", [1, 2])
def test_ul_contract_misses_the_rate_term(seed):
    """A greedy source at half the UL capacity: its burst fills one transport block."""
    transit5g = canonical_scenario()["topology"]["transit5g"]
    transit5g["attach"] = "S1.2"
    doc = {
        "topology": {"switches": [switch("S1", 10_000_000)], "links": [],
                     "hosts": [{"id": "D", "attach": "S1.1"}], "transit5g": transit5g},
        "flows": [ue_flow("h", 300_000, 1_500, 100,
                          {"mode": "greedy_token_bucket", "pkt_B": 100, "burst_B": 1_500,
                           "rate_Bps": 300_000})],
        "sim": {"duration_ms": 200},
    }
    assert violations(doc, seed) == 0
