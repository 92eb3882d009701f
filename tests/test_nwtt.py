import random

from detnet5g.nwtt import (
    NwttRule,
    RegulatorConfig,
    RegulatorState,
    classify_and_tag,
    regulator_offer,
    regulator_release,
)
from detnet5g.topology import PortId
from detnet5g.units import NS_PER_US, ceil_div

US = NS_PER_US


def rule(flow_id, src, dst, vlan=100, pcp=7):
    return NwttRule(flow_id=flow_id, src=src, dst=dst,
                    egress=PortId("S1", 3), vlan_id=vlan, pcp=pcp)


def table(*rules):
    """The translator's rule table: each rule keyed by its (src, dst) match."""
    return {(r.src, r.dst): r for r in rules}


class TestClassify:
    def test_admitted_flow_matches(self):
        f1 = rule("f1", "UE1", "D")
        hit = classify_and_tag(table(f1), "UE1", "D")
        assert hit is f1
        assert (hit.vlan_id, hit.pcp, hit.egress) == (100, 7, PortId("S1", 3))

    def test_unknown_flow_is_best_effort(self):
        assert classify_and_tag(table(rule("f1", "UE1", "D")), "UE2", "D") is None

    def test_same_dst_distinct_src_rules(self):
        rules = table(rule("f1", "UE1", "D", vlan=100, pcp=7),
                      rule("f2", "UE2", "D", vlan=101, pcp=6))
        assert classify_and_tag(rules, "UE1", "D").flow_id == "f1"
        assert classify_and_tag(rules, "UE2", "D").flow_id == "f2"


class TestRegulatorOffer:
    def test_first_packet_anchors(self):
        st = RegulatorState(RegulatorConfig(hold_us=10_000, release_period_us=1_000))
        assert regulator_offer(st, "p0", 0)
        assert st.next_release_ns == 10_000 * US

    def test_full_queue_drops(self):
        st = RegulatorState(RegulatorConfig(hold_us=0, release_period_us=1_000,
                                            queue_cap_pkts=2))
        assert regulator_offer(st, "p0", 0)
        assert regulator_offer(st, "p1", 1)
        assert not regulator_offer(st, "p2", 2)
        assert list(st.queue) == ["p0", "p1"]

    def test_busy_period_arrival_keeps_schedule(self):
        st = RegulatorState(RegulatorConfig(hold_us=10_000, release_period_us=1_000))
        regulator_offer(st, "p0", 0)
        regulator_offer(st, "p1", 100 * US)
        assert st.next_release_ns == 10_000 * US


def release_until(st, t_now):
    """Release, one call at each `next_release_ns`, every packet due by
    `t_now`; returns the (packet, departure time) pairs."""
    out = []
    while st.next_release_ns is not None and st.next_release_ns <= t_now:
        t_depart = st.next_release_ns
        out.append((regulator_release(st), t_depart))
    return out


class TestRegulatorRelease:
    def test_periodic_releases(self):
        st = RegulatorState(RegulatorConfig(hold_us=10_000, release_period_us=1_000))
        for i, t in enumerate((0, 100 * US, 200 * US)):
            regulator_offer(st, f"p{i}", t)
        out = release_until(st, 20_000 * US)
        assert [(p, t // US) for p, t in out] == [
            ("p0", 10_000), ("p1", 11_000), ("p2", 12_000)]

    def test_single_packet_departs_after_hold(self):
        st = RegulatorState(RegulatorConfig(hold_us=7_000, release_period_us=1_000))
        regulator_offer(st, "p0", 5 * US)
        out = release_until(st, 1_000_000 * US)
        assert out == [("p0", (7_005) * US)]

    def test_slow_arrivals_re_anchor(self):
        st = RegulatorState(RegulatorConfig(hold_us=3_000, release_period_us=1_000))
        departures = []
        for i, t in enumerate((0, 10_000 * US, 25_000 * US)):
            release_until(st, t)
            regulator_offer(st, f"p{i}", t)
        departures = release_until(st, 100_000 * US)
        # queue drained between arrivals, so each restarts its own hold
        assert [t // US for _, t in departures] == [28_000]

    def test_released_only_when_due(self):
        st = RegulatorState(RegulatorConfig(hold_us=5_000, release_period_us=2_000))
        regulator_offer(st, "p0", 0)
        regulator_offer(st, "p1", 0)
        assert release_until(st, 4_999 * US) == []
        assert [t // US for _, t in release_until(st, 5_000 * US)] == [5_000]
        assert [t // US for _, t in release_until(st, 8_000 * US)] == [7_000]

    def test_each_release_pops_the_head_and_sets_the_next(self):
        st = RegulatorState(RegulatorConfig(hold_us=5_000, release_period_us=2_000))
        regulator_offer(st, "p0", 0)
        regulator_offer(st, "p1", 0)
        assert regulator_release(st) == "p0"
        assert (st.last_release_ns, st.next_release_ns) == (5_000 * US, 7_000 * US)
        assert regulator_release(st) == "p1"
        assert (st.last_release_ns, st.next_release_ns) == (7_000 * US, None)


def drive_regulator(cfg, arrivals):
    """Replay arrivals through the regulator, collecting all departures."""
    st = RegulatorState(cfg)
    departures = []
    dropped = 0
    for t, pkt in arrivals:
        departures += release_until(st, t)
        if not regulator_offer(st, pkt, t):
            dropped += 1
    departures += release_until(st, 1 << 62)
    return departures, dropped


class TestRegulatorAlgebra:
    def test_fifo_spacing_and_delay_bound(self):
        rng = random.Random(99)
        for _ in range(200):
            max_pkt = rng.randrange(100, 1500)
            burst = max_pkt * rng.randrange(1, 5)
            period = rng.randrange(500, 5_000)
            rate = max_pkt * 1_000_000 // period  # r <= max_pkt / P
            if rate == 0:
                continue
            hold = rng.randrange(0, 20_000)
            cfg = RegulatorConfig(hold_us=hold, release_period_us=period,
                                  queue_cap_pkts=10_000)
            # conforming arrivals: token bucket replay
            tokens = burst
            t = 0
            arrivals = []
            for i in range(rng.randrange(2, 40)):
                gap = rng.randrange(0, 3 * period) * US
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
            assert ids == sorted(ids)  # FIFO
            times = [t for _, t in departures]
            for a, b in zip(times, times[1:]):
                assert b - a >= period * US
            bound = (hold + (ceil_div(burst, max_pkt) - 1) * period) * US
            arrival_of = dict((pkt, t) for t, pkt in arrivals)
            for pkt, t_out in departures:
                assert t_out - arrival_of[pkt] <= bound

    def test_exact_spacing_while_backlogged(self):
        cfg = RegulatorConfig(hold_us=4_000, release_period_us=1_000,
                              queue_cap_pkts=100)
        arrivals = [(i * 200 * US, i) for i in range(20)]  # much faster than P
        departures, dropped = drive_regulator(cfg, arrivals)
        assert dropped == 0
        times = [t for _, t in departures]
        assert all(b - a == 1_000 * US for a, b in zip(times, times[1:]))

    def test_conservation(self):
        cfg = RegulatorConfig(hold_us=1_000, release_period_us=1_000, queue_cap_pkts=3)
        arrivals = [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]
        departures, dropped = drive_regulator(cfg, arrivals)
        assert len(departures) + dropped == len(arrivals)
        assert dropped == 2
