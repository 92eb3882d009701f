"""`sim.run` against the reference engine in `reference_engine.py`.

Each case runs a scenario through both and compares every packet's send
time and outcome (receive time, dropped or in flight), the drops by stage
and the bound violations of each flow, and the largest occupancy of each
(port, class).  The families: the canonical scenario with the regulator
off and on, the goldens' UE-to-UE variant, the same-time
tie and cross-hop families of `test_sim_order.py`, its dense UE grid,
`random_scenario_doc` draws, draws of that fabric with a 5G segment
added (UE ends both ways, de-jittered flows, greedy sources and
unregistered UE sources), and events at the run's end or just past it.
"""

import random

import pytest

from detnet5g import sim
from detnet5g.scenario import load_scenario

import reference_engine
from conftest import canonical_scenario
from test_acceptance import random_scenario_doc
from test_golden import ue_transit_doc
from test_sim_order import HOP_CASES, TIE_CASES, case_id, dense_ue_doc, hop_case_id, hops_doc, tie_doc


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


@pytest.mark.parametrize("hold_us, released", [(2_000, True), (2_001, False)])
def test_regulator_release_past_the_end_keeps_its_packet(hold_us, released):
    # the packet leaves UE1 at the end of slot 1 (2 ms) and is held `hold_us`
    reg = {"flow_id": "reg", "src": "UE1", "dst": "B", "rate_Bps": 1_000, "burst_B": 100,
           "max_pkt_B": 100, "deadline_us": 1_000_000, "dejitter": True,
           "source": {"mode": "periodic", "period_us": 10_000, "pkt_B": 100, "offset_us": 0}}
    times, ports = run_to_the_end(end_doc(4, [], [reg], hold_us))
    assert times == {"reg": ([0], [sim.IN_FLIGHT])}
    assert ("S1.2" in ports) == released
