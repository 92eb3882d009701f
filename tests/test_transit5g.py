import random
from itertools import product

from detnet5g.topology import PortId
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

from conftest import worst_case_us


def sweep_oracle(tdd: TddConfig, direction: str, tbs_B: int, burst_B: int):
    """Brute-force arrival sweep: drain the burst slot by slot, byte by byte.

    Returns (worst_ns, best_ns) or None when the direction has no usable
    slot.  Deliberately avoids the closed-form n-th-usable-slot lookup the
    implementation uses.
    """
    period = len(tdd.pattern)
    usable = [tdd.usable(kind, direction) for kind in tdd.pattern]
    if not any(usable):
        return None
    worst = 0
    best = None
    for k in range(period):
        remaining = burst_B
        j = k + 1 + tdd.grant_delay_slots
        while True:
            if usable[j % period]:
                remaining -= tbs_B
                if remaining <= 0:
                    break
            j += 1
        worst = max(worst, (j + 1 - k) * tdd.slot_ns)
        span = (j - k) * tdd.slot_ns
        best = span if best is None else min(best, span)
    return worst, best


def ue(tbs_ul=1500, tbs_dl=3000):
    return UeRecord("UE1", tbs_ul_B=tbs_ul, tbs_dl_B=tbs_dl)


class TestUplink:
    def test_all_uplink_pattern_two_slots(self):
        tdd = TddConfig("UUUUU", numerology_mu=1)
        assert worst_case_us(tdd, ue(), UPLINK, 1250, 12_500) == 1_000

    def test_demo_pattern_worst_arrival_after_u_slot(self):
        tdd = TddConfig("DDDSU", numerology_mu=1)
        assert worst_case_us(tdd, ue(), UPLINK, 1250, 12_500) == 3_000

    def test_no_uplink_slots(self):
        # admission rejects the direction on this before it asks for a contract
        assert ul_capacity(TddConfig("DDDD", numerology_mu=1), ue()) == 0


class TestCapacity:
    def test_demo_pattern(self):
        tdd = TddConfig("DDDSU", numerology_mu=1)
        assert ul_capacity(tdd, ue()) == 600_000

    def test_all_downlink_is_zero(self):
        tdd = TddConfig("DDDD", numerology_mu=1)
        assert ul_capacity(tdd, ue()) == 0

    def test_linear_in_tbs(self):
        tdd = TddConfig("DUSDU", numerology_mu=2)
        assert ul_capacity(tdd, ue(tbs_ul=3000)) == 2 * ul_capacity(tdd, ue(tbs_ul=1500))
        assert dl_capacity(tdd, ue(tbs_dl=6000)) == 2 * dl_capacity(tdd, ue(tbs_dl=3000))


class TestDownlink:
    def test_all_downlink_two_slots(self):
        tdd = TddConfig("DDDDD", numerology_mu=1)
        assert worst_case_us(tdd, ue(), DOWNLINK, 2500) == 1_000

    def test_demo_pattern_s_unusable_two_blocks(self):
        tdd = TddConfig("DDDSU", numerology_mu=1, s_slot_usable_dl=False)
        oracle = sweep_oracle(tdd, DOWNLINK, 3000, 6000)
        assert oracle is not None
        assert worst_case_us(tdd, ue(), DOWNLINK, 6000) == ceil_div(oracle[0], 1000)
        assert worst_case_us(tdd, ue(), DOWNLINK, 6000) == 2_500

    def test_no_downlink_slots(self):
        tdd = TddConfig("UUUU", numerology_mu=1, s_slot_usable_dl=False)
        assert dl_capacity(tdd, ue()) == 0


class TestContract:
    def test_demo_pattern_min_max_of_sweep(self):
        node = TransitNode5G(TddConfig("DDDSU", numerology_mu=1), {"UE1": ue()}, attach=PortId("S1", 3))
        contract = transit_contract(node, "UE1", UPLINK, 1250, 12_500)
        assert contract.delay_bound_us == 3_000
        assert contract.best_case_us == 500
        assert contract.delay_bound_us - contract.best_case_us == 2_500

    def test_uniform_pattern_slot_granular_spread(self):
        # every arrival slot behaves identically; the remaining spread is the
        # in-slot arrival position, exactly one slot
        node = TransitNode5G(TddConfig("UUUUU", numerology_mu=1), {"UE1": ue()}, attach=PortId("S1", 3))
        contract = transit_contract(node, "UE1", UPLINK, 1250, 12_500)
        assert contract.delay_bound_us == 1_000
        assert contract.best_case_us == 500
        assert contract.delay_bound_us - contract.best_case_us == 500


class TestOracleEquivalence:
    def test_exhaustive_short_patterns(self):
        tbs = 1000
        for length in range(1, 6):
            for pattern in product("DUS", repeat=length):
                tdd = TddConfig("".join(pattern), numerology_mu=1)
                for n in (1, 2, 5):
                    burst = (n - 1) * tbs + 1
                    expected = sweep_oracle(tdd, UPLINK, tbs, burst)
                    if expected is None:
                        # the precondition admission checks before the sweep
                        assert ul_capacity(tdd, ue(tbs_ul=tbs)) == 0, pattern
                    else:
                        assert ul_capacity(tdd, ue(tbs_ul=tbs)) > 0, pattern
                        got = worst_case_us(tdd, ue(tbs_ul=tbs), UPLINK, burst)
                        assert got == ceil_div(expected[0], 1000)

    def test_sampled_long_patterns_both_directions_and_delays(self):
        rng = random.Random(2024)
        tbs = 1000
        for length in range(6, 21):
            for _ in range(8):
                pattern = "".join(rng.choice("DUS") for _ in range(length))
                for gd in (0, 2):
                    tdd = TddConfig(pattern, numerology_mu=1, grant_delay_slots=gd)
                    n = rng.randrange(1, 9)
                    burst = (n - 1) * tbs + rng.randrange(1, tbs + 1)
                    for direction in (UPLINK, DOWNLINK):
                        expected = sweep_oracle(tdd, direction, tbs, burst)
                        capacity = ul_capacity if direction == UPLINK else dl_capacity
                        if expected is None:
                            assert capacity(tdd, ue(tbs_ul=tbs, tbs_dl=tbs)) == 0, pattern
                            continue
                        got = worst_case_us(tdd, ue(tbs_ul=tbs, tbs_dl=tbs), direction, burst)
                        assert got == ceil_div(expected[0], 1000), (pattern, gd, n, direction)


class TestProperties:
    def test_monotone_in_burst_and_grant_delay(self):
        rng = random.Random(5)
        for _ in range(100):
            length = rng.randrange(2, 12)
            pattern = "".join(rng.choice("DUS") for _ in range(length))
            if "U" not in pattern:
                pattern += "U"
            tdd0 = TddConfig(pattern, numerology_mu=1)
            tdd2 = TddConfig(pattern, numerology_mu=1, grant_delay_slots=2)
            burst = rng.randrange(1, 5000)
            a = worst_case_us(tdd0, ue(), UPLINK, burst)
            b = worst_case_us(tdd0, ue(), UPLINK, burst + rng.randrange(1, 3000))
            c = worst_case_us(tdd2, ue(), UPLINK, burst)
            assert b >= a
            assert c >= a

    def test_cyclic_shift_invariance(self):
        rng = random.Random(17)
        for _ in range(60):
            length = rng.randrange(2, 15)
            pattern = "".join(rng.choice("DUS") for _ in range(length))
            if "U" not in pattern:
                continue
            shift = rng.randrange(length)
            rotated = pattern[shift:] + pattern[:shift]
            burst = rng.randrange(1, 4000)
            a = worst_case_us(TddConfig(pattern, numerology_mu=1), ue(), UPLINK, burst)
            b = worst_case_us(TddConfig(rotated, numerology_mu=1), ue(), UPLINK, burst)
            assert a == b

    def test_mu4_slot_is_exact_in_ns(self):
        tdd = TddConfig("U", numerology_mu=4)
        assert tdd.slot_ns == 62_500
        # two 62.5 us slots -> 125 us exactly
        assert worst_case_us(tdd, ue(), UPLINK, 100) == 125

    def test_f_slots_carry_no_traffic(self):
        tdd = TddConfig("FFU", numerology_mu=1)
        assert ul_capacity(tdd, ue()) == ul_capacity(TddConfig("DDU", numerology_mu=1), ue())
        assert sweep_oracle(TddConfig("FFF", numerology_mu=1), DOWNLINK, 3000, 100) is None
        assert dl_capacity(TddConfig("FFF", numerology_mu=1), ue()) == 0
