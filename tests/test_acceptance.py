"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured evidence (run with -s or -v to see them)."""

import json
import random
import time
from itertools import product
from pathlib import Path

from detnet5g.admission import NetworkState
from detnet5g.cli import main
from detnet5g.scenario import load_scenario
from detnet5g.sim import dejitter_summary, run
from detnet5g.topology import PortId, SwitchProfile, Topology, enumerate_spanning_trees, make_link
from detnet5g.transit5g import (
    DOWNLINK,
    UPLINK,
    TddConfig,
    TransitNode5G,
    UeRecord,
    dl_capacity,
    transit_contract,
    ul_capacity,
)
from detnet5g.units import ceil_div

from conftest import (
    aggregates, canonical_scenario, cold_aggregates, reordered_flows, ring_topology, snapshot,
)
from test_admission import apply_op, make_ops
from test_topology import count_spanning_trees_oracle, switch_graph
from test_transit5g import sweep_oracle

REPO = Path(__file__).resolve().parents[1]


def random_fabric(rng) -> Topology:
    """Connected random switch graph (<= 5 switches, <= 3 usable classes)."""
    n = rng.randrange(2, 6)
    topo = Topology()
    profile = SwitchProfile(
        link_rate_Bps=rng.choice([500_000, 1_000_000, 2_000_000]),
        fwd_delay_us=tuple(rng.randrange(0, 400) for _ in range(4)),
        port_buffer_B=rng.choice([32_768, 65_536]),
        class_count=4,
    )
    names = [f"S{i}" for i in range(n)]
    next_port = {s: 0 for s in names}

    def fresh_port(s):
        next_port[s] += 1
        return PortId(s, next_port[s])

    for s in names:
        topo.switches[s] = profile
    for i in range(1, n):
        j = rng.randrange(i)
        topo.links.add(make_link(fresh_port(names[i]), fresh_port(names[j])))
    for _ in range(rng.randrange(0, n)):
        a, b = rng.sample(names, 2)
        if any({a, b} == {x.node, y.node} for x, y in topo.links):
            continue
        topo.links.add(make_link(fresh_port(a), fresh_port(b)))
    n_hosts = rng.randrange(2, 5)
    for h in range(n_hosts):
        s = rng.choice(names)
        next_port[s] += 10 if next_port[s] < 10 else 1
        topo.hosts[f"H{h}"] = PortId(s, next_port[s])
    return topo


def random_scenario_doc(rng) -> dict:
    """Random fixed-network scenario with conforming sources; <= 8 flows."""
    topo = random_fabric(rng)
    doc = {
        "schema_version": 1,
        "topology": {
            "switches": [
                {"id": s, "link_rate_Bps": p.link_rate_Bps,
                 "fwd_delay_us": list(p.fwd_delay_us),
                 "port_buffer_B": p.port_buffer_B, "class_count": p.class_count}
                for s, p in sorted(topo.switches.items())
            ],
            "links": [[str(a), str(b)] for a, b in sorted(topo.links)],
            "hosts": [{"id": h, "attach": str(p)} for h, p in sorted(topo.hosts.items())],
        },
        "classes": {"count": 4, "best_effort_class": 0},
        "flows": [],
        "sim": {"duration_ms": 300, "seed": 1, "sources": []},
    }
    hosts = sorted(topo.hosts)
    link_rate = min(p.link_rate_Bps for p in topo.switches.values())
    for i in range(rng.randrange(3, 9)):
        src, dst = rng.sample(hosts, 2)
        pkt = rng.choice([200, 500, 1_000, 1_500])
        count = rng.randrange(1, 4)
        burst = pkt * count
        pps = rng.randrange(100, 400)
        rate = min(pkt * pps, link_rate // 10)
        period_us = ceil_div(burst * 1_000_000, rate)
        if rng.random() < 0.5:
            source = {"mode": "greedy_token_bucket", "pkt_B": pkt,
                      "burst_B": burst, "rate_Bps": rate}
        else:
            source = {"mode": "periodic", "period_us": period_us,
                      "pkt_B": pkt, "count": count}
        doc["flows"].append({
            "flow_id": f"f{i}", "src": src, "dst": dst, "rate_Bps": rate,
            "burst_B": burst, "max_pkt_B": pkt,
            "deadline_us": rng.choice([20_000, 100_000, 1_000_000, 10_000_000]),
            "critical": False,
            "source": source,
        })
    if rng.random() < 0.6:
        src, dst = rng.sample(hosts, 2)
        doc["sim"]["sources"].append({
            "flow_id": "bg", "src": src, "dst": dst, "mode": "onoff_background",
            "pkt_B": 1_500, "rate_Bps": link_rate, "on_ms": 40, "off_ms": 20,
        })
    return doc


def test_criterion_1_spanning_tree_counts():
    started = time.monotonic()
    trees, truncated = enumerate_spanning_trees(ring_topology())
    assert len(trees) == 3 and not truncated
    rng = random.Random(101)
    checked = 0
    for _ in range(40):
        topo = random_fabric(rng)
        if len(topo.switches) > 6:
            continue
        found, trunc = enumerate_spanning_trees(topo, cap=10_000)
        assert not trunc
        nodes, edges = switch_graph(topo)
        assert len(found) == count_spanning_trees_oracle(nodes, edges)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: ring yields 3 VLAN trees; matrix-tree oracle agreed "
          f"on {checked} random graphs in {elapsed:.2f}s")


def test_criterion_2_bound_soundness_randomized():
    started = time.monotonic()
    rng = random.Random(77)
    scenarios = 0
    runs = 0
    admitted_total = 0
    while scenarios < 10:
        doc = random_scenario_doc(rng)
        scn = load_scenario(doc)
        first = run(scn, seed=0)
        admitted = [fid for fid, f in first.report["flows"].items() if f["admitted"]]
        if not admitted:
            continue
        scenarios += 1
        admitted_total += len(admitted)
        for seed in range(10):
            result = run(scn, seed=seed)
            violations = result.report["violations"]
            assert violations["total"] == 0, (doc, seed, violations)
            for fid in admitted:
                stats = result.report["flows"][fid]
                assert stats["dropped"] == 0, (doc, seed, fid)
            assert reordered_flows(result) == [], (doc, seed)
            runs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    print(f"\nPASS criterion 2: {scenarios} scenarios x 10 seeds ({runs} runs, "
          f"{admitted_total} admitted flows) with zero e2e/per-hop/backlog "
          f"violations in {elapsed:.1f}s")


def test_criterion_3_tdd_oracle_equivalence():
    started = time.monotonic()
    tbs = 1_000
    cases = 0

    def check(pattern, gd, n):
        nonlocal cases
        burst = (n - 1) * tbs + 1
        tdd = TddConfig(pattern, numerology_mu=1, grant_delay_slots=gd)
        ue = UeRecord("u", tbs_ul_B=tbs, tbs_dl_B=tbs)
        node = TransitNode5G(tdd, {"u": ue}, attach=PortId("S1", 3))
        for direction, capacity in ((UPLINK, ul_capacity), (DOWNLINK, dl_capacity)):
            expected = sweep_oracle(tdd, direction, tbs, burst)
            if expected is None:
                # admission rejects the direction before it asks for a contract
                assert capacity(tdd, ue) == 0, (pattern, direction)
            else:
                assert capacity(tdd, ue) > 0, (pattern, direction)
                case = (pattern, gd, n, direction)
                contract = transit_contract(node, "u", direction, burst, 1)
                assert contract.delay_bound_us == ceil_div(expected[0], 1_000), case
                # a lone packet drains in one block, whatever the burst
                best = sweep_oracle(tdd, direction, tbs, 1)[1]
                assert contract.best_case_us == best // 1_000, case
            cases += 1

    for length in range(1, 6):
        for pattern in product("DUS", repeat=length):
            for gd in (0, 2):
                for n in (1, 2, 8):
                    check("".join(pattern), gd, n)
    rng = random.Random(303)
    for length in range(6, 21):
        for _ in range(10):
            pattern = "".join(rng.choice("DUS") for _ in range(length))
            for gd in (0, 2):
                for n in (1, rng.randrange(2, 9)):
                    check(pattern, gd, n)
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    print(f"\nPASS criterion 3: worst-case UL/DL latency and the transit contract's "
          f"worst and best case matched the brute-force sweep oracle exactly in "
          f"{cases} cases ({elapsed:.1f}s)")


def _canonical(mutate=None):
    doc = canonical_scenario()
    if mutate:
        mutate(doc)
    return load_scenario(doc)


def test_criterion_4_background_preserves_critical_flow():
    def no_bg(doc):
        doc["sim"]["sources"] = [s for s in doc["sim"]["sources"] if s["flow_id"] != "bg"]

    def bg_always_on(doc):
        for s in doc["sim"]["sources"]:
            if s["flow_id"] == "bg":
                s["on_ms"], s["off_ms"] = 10_000, 1
                del s["offset_us"]

    quiet = run(_canonical(no_bg))
    noisy = run(_canonical(bg_always_on))
    green_quiet = quiet.report["flows"]["green"]["latency_us"]["max"]
    green_noisy = noisy.report["flows"]["green"]["latency_us"]["max"]
    orange = noisy.report["flows"]["orange"]
    assert green_noisy >= 2 * green_quiet
    assert orange["latency_us"]["max"] <= orange["e2e_bound_us"]
    assert orange["dropped"] == 0
    assert noisy.report["violations"]["total"] == 0
    print(f"\nPASS criterion 4: saturating background raised best-effort max latency "
          f"{green_quiet:.0f} -> {green_noisy:.0f} us (x{green_noisy / green_quiet:.1f}) "
          f"while the critical flow stayed at {orange['latency_us']['max']:.0f} us "
          f"<= bound {orange['e2e_bound_us']} us with 0 loss")


def test_criterion_5_regulator_trades_latency_for_jitter():
    def no_bg(doc):
        doc["sim"]["sources"] = [s for s in doc["sim"]["sources"] if s["flow_id"] != "bg"]

    scn = _canonical(no_bg)
    off, on = run(scn, dejitter="off"), run(scn, dejitter="on")
    summary = dejitter_summary(off, on)["flows"]["orange"]
    assert summary["jitter_on_us"] * 5 <= summary["jitter_off_us"]
    assert summary["min_latency_on_us"] > summary["min_latency_off_us"]
    assert off.report["violations"]["total"] == 0
    assert on.report["violations"]["total"] == 0
    print(f"\nPASS criterion 5: regulator cut jitter "
          f"{summary['jitter_off_us']:.0f} -> {summary['jitter_on_us']:.0f} us "
          f"and raised min latency {summary['min_latency_off_us']:.0f} -> "
          f"{summary['min_latency_on_us']:.0f} us")


def test_criterion_6_admission_atomicity_and_determinism():
    started = time.monotonic()
    rng = random.Random(606)
    rejects = 0
    for _ in range(1_000):
        ops = make_ops(rng.randrange(1 << 30), 4)
        state = NetworkState(ring_topology())
        trail = []
        for op in ops:
            before = snapshot(state)
            outcome = apply_op(state, op)
            trail.append(outcome)
            if outcome[0] == "register" and not outcome[2]:
                rejects += 1
                assert snapshot(state) == before
            assert aggregates(state) == cold_aggregates(state)
        replay_state = NetworkState(ring_topology())
        replay = [apply_op(replay_state, op) for op in ops]
        assert replay == trail
        assert snapshot(replay_state) == snapshot(state)
    elapsed = time.monotonic() - started
    print(f"\nPASS criterion 6: 1000 random op sequences; {rejects} rejects all "
          f"atomic, replays bit-identical, cache equals recomputation "
          f"({elapsed:.1f}s)")


def test_criterion_7_regulator_algebra():
    from test_nwtt import drive_regulator
    from detnet5g.nwtt import RegulatorConfig, regulator_delay_bound

    rng = random.Random(707)
    us = 1_000
    for _ in range(1_000):
        max_pkt = rng.randrange(100, 1_500)
        n_pkts = rng.randrange(1, 5)
        burst = max_pkt * n_pkts
        period = rng.randrange(200, 5_000)
        rate = max_pkt * 1_000_000 // period
        if rate == 0:
            continue
        hold = rng.randrange(0, 20_000)
        cfg = RegulatorConfig(hold_us=hold, release_period_us=period,
                              queue_cap_pkts=100_000)
        tokens = burst
        t = 0
        arrivals = []
        for i in range(rng.randrange(2, 30)):
            gap = rng.randrange(0, 3 * period) * us
            tokens = min(burst, tokens + rate * gap // 1_000_000_000)
            t += gap
            if tokens >= max_pkt:
                tokens -= max_pkt
                arrivals.append((t, i))
        if not arrivals:
            continue
        departures, dropped = drive_regulator(cfg, arrivals)
        assert dropped == 0
        ids = [pkt for pkt, _ in departures]
        assert ids == sorted(ids)
        # spacing >= P always; == P exactly while the queue stays backlogged.
        # At equal timestamps the regulator releases before it accepts, so
        # departures order first.
        occupancy = 0
        events = sorted(
            [(t, 1, "arr") for t, _ in arrivals]
            + [(t, 0, "dep") for _, t in departures]
        )
        last_dep = None
        backlogged_since_last_dep = False
        for t_ev, _, kind in events:
            if kind == "arr":
                occupancy += 1
            else:
                occupancy -= 1
                if last_dep is not None:
                    assert t_ev - last_dep >= period * us
                    if backlogged_since_last_dep:
                        assert t_ev - last_dep == period * us
                last_dep = t_ev
                backlogged_since_last_dep = occupancy > 0
        bound = (hold + (ceil_div(burst, max_pkt) - 1) * period) * us
        assert regulator_delay_bound(cfg, burst, max_pkt) * us == bound
        arrival_of = dict((pkt, t) for t, pkt in arrivals)
        for pkt, t_out in departures:
            assert t_out - arrival_of[pkt] <= bound
    print("\nPASS criterion 7: 1000 conforming arrival sequences: FIFO, spacing "
          ">= P (= P while backlogged), delay <= hold + (ceil(b/L)-1)*P")


def test_criterion_8_cmd_run_determinism(tmp_path):
    scenario_path = REPO / "scenarios" / "canonical.json"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(scenario_path), "--out", str(out_a), "--seed", "11"]) == 0
    assert main(["run", str(scenario_path), "--out", str(out_b), "--seed", "11"]) == 0
    name = "canonical_scenario_seed11_trace.csv"
    bytes_a = (out_a / name).read_bytes()
    assert bytes_a == (out_b / name).read_bytes()
    report = "canonical_scenario_seed11_report.json"
    assert (out_a / report).read_bytes() == (out_b / report).read_bytes()
    print(f"\nPASS criterion 8: repeated cmd_run produced byte-identical trace "
          f"({len(bytes_a)} bytes) and report")
