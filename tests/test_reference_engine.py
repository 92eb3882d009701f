"""`sim.run` against the reference engine in `reference_engine.py`.

Each case runs a scenario through both and compares every packet's send
time and outcome (receive time, dropped or in flight), the drops by stage
and the bound violations of each flow, and the largest occupancy of each
(port, class).  The families: the canonical scenario with the regulator
off and on, the goldens' UE-to-UE variant, the same-time
tie and cross-hop families of `test_sim_order.py`, its dense UE grid,
`random_scenario_doc` draws, and draws of that fabric with a 5G segment
added (UE ends both ways, de-jittered flows, greedy sources and
unregistered UE sources).
"""

import random

import pytest

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
