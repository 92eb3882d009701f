import random
from itertools import cycle, product

from detnet5g import transit5g
from detnet5g.admission import NetworkState
from detnet5g.scenario import load_scenario
from detnet5g.sim import run
from detnet5g.topology import PortId
from detnet5g.transit5g import (
    DOWNLINK,
    SLOT_KINDS,
    UPLINK,
    Staircase,
    TddConfig,
    TransitNode5G,
    UeRecord,
    dl_capacity,
    transit_contract,
    ul_capacity,
)
from detnet5g.units import ceil_div

from conftest import canonical_scenario, worst_case_us
from reference_engine import slot_usable


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


def next_usable_oracle(tdd: TddConfig, direction: str) -> list:
    """Slots from each pattern slot to the first usable one at or after it, found
    by testing `slot_usable` slot by slot (None: no slot is usable)."""
    period = len(tdd.pattern)
    return [next((d for d in range(period) if slot_usable(tdd, k + d, direction)), None)
            for k in range(period)]


def ue(tbs_ul=1500, tbs_dl=3000):
    return UeRecord("UE1", tbs_ul_B=tbs_ul, tbs_dl_B=tbs_dl)


def contract_us(tdd: TddConfig, direction: str, tbs_B: int, burst_B: int):
    """(delay bound, best case) of the contract of one UE with `tbs_B` both ways."""
    node = TransitNode5G(tdd, {"u": ue(tbs_B, tbs_B)}, attach=PortId("S1", 3))
    contract = transit_contract(node, "u", direction, burst_B, 1)
    return contract.delay_bound_us, contract.best_case_us


def oracle_us(tdd: TddConfig, direction: str, tbs_B: int, burst_B: int):
    """`contract_us` as the oracle has it: the worst case of the whole burst and
    the best case of a lone packet in one block."""
    worst_ns = sweep_oracle(tdd, direction, tbs_B, burst_B)[0]
    best_ns = sweep_oracle(tdd, direction, tbs_B, 1)[1]
    return ceil_div(worst_ns, 1000), best_ns // 1000


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
                        got = contract_us(tdd, UPLINK, tbs, burst)
                        assert got == oracle_us(tdd, UPLINK, tbs, burst), (pattern, n)

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
                        got = contract_us(tdd, direction, tbs, burst)
                        assert got == oracle_us(tdd, direction, tbs, burst), (pattern, gd, n,
                                                                              direction)

    def test_every_pattern_up_to_five_slots_every_knob(self):
        """Worst and best case against the oracle: every pattern over DUSF of up to
        five slots, grant delays 0-2, both S-slot flags, numerologies 0-4 (one per
        config, in turn), and bursts of 1 to 2.5 periods' blocks, none a multiple
        of the TBS; the wait of each slot against a slot-by-slot scan."""
        tbs = 700
        mus = cycle(range(5))
        for length in range(1, 6):
            for pattern in product(SLOT_KINDS, repeat=length):
                pattern = "".join(pattern)
                flags = product((False, True), repeat=2) if "S" in pattern else [(False, True)]
                for (s_ul, s_dl), gd in product(flags, range(3)):
                    tdd = TddConfig(pattern, numerology_mu=next(mus), grant_delay_slots=gd,
                                    s_slot_usable_ul=s_ul, s_slot_usable_dl=s_dl)
                    for direction in (UPLINK, DOWNLINK):
                        case = (tdd, direction)
                        stair = tdd.staircase(direction)
                        assert list(stair.wait) == next_usable_oracle(tdd, direction), case
                        if not stair.usable:
                            assert sweep_oracle(tdd, direction, tbs, 1) is None, case
                            continue
                        per_period = len(stair.usable)
                        for n in {1, 2, per_period, per_period + 1, 2 * per_period + 2}:
                            burst = (n - 1) * tbs + 333
                            assert contract_us(tdd, direction, tbs, burst) == oracle_us(
                                tdd, direction, tbs, burst), (case, n)


class TestStaircase:
    def test_demo_pattern(self):
        tdd = TddConfig("DDDSU", numerology_mu=1)
        assert tdd.staircase(UPLINK) == Staircase(usable=(4,), wait=(4, 3, 2, 1, 0), best=1,
                                                  worst=(6,))
        assert tdd.staircase(DOWNLINK) == Staircase(usable=(0, 1, 2, 3),
                                                    wait=(0, 0, 0, 0, 1), best=1,
                                                    worst=(3, 4, 5, 6))
        assert TddConfig("DDDD").staircase(UPLINK) == Staircase((), (None,) * 4, None, ())

    def test_kept_off_the_config_value(self):
        tdd = TddConfig("DDDSU", numerology_mu=1)
        fresh = TddConfig("DDDSU", numerology_mu=1)
        tdd.staircase(UPLINK)
        assert tdd == fresh and hash(tdd) == hash(fresh) and repr(tdd) == repr(fresh)
        assert tdd.staircase(UPLINK) is tdd.staircase(UPLINK)

    def test_one_config_two_ues_each_its_own_contract(self):
        """A shared config's staircase holds no TBS: each UE's contract is the one
        it gets on a config of its own, whichever UE asks first."""
        ues = {"small": UeRecord("small", tbs_ul_B=500, tbs_dl_B=400),
               "large": UeRecord("large", tbs_ul_B=1500, tbs_dl_B=4000)}
        for order in (("small", "large"), ("large", "small")):
            node = TransitNode5G(TddConfig("DSUUD", numerology_mu=2, grant_delay_slots=1),
                                 ues, attach=PortId("S1", 3))
            for ue_id in order:
                for direction in (UPLINK, DOWNLINK):
                    alone = TransitNode5G(TddConfig("DSUUD", numerology_mu=2,
                                                    grant_delay_slots=1),
                                          {ue_id: ues[ue_id]}, attach=PortId("S1", 3))
                    assert transit_contract(node, ue_id, direction, 3000, 1) == \
                        transit_contract(alone, ue_id, direction, 3000, 1), (order, ue_id)
        small = transit_contract(node, "small", UPLINK, 3000, 1)
        large = transit_contract(node, "large", UPLINK, 3000, 1)
        assert small.delay_bound_us > large.delay_bound_us  # 6 blocks against 2

    def test_swept_once_per_direction_per_topology(self, monkeypatch):
        """Two admission states on one topology and a run on it sweep the pattern
        once in each direction."""
        sweeps = []

        def counted(tdd, direction):
            sweeps.append(direction)
            return sweep(tdd, direction)

        sweep = transit5g._sweep
        monkeypatch.setattr(transit5g, "_sweep", counted)
        doc = canonical_scenario()
        doc["sim"]["duration_ms"] = 100
        scn = load_scenario(doc)
        down = {"flow_id": "down", "src": "G", "dst": "UE2", "rate_Bps": 12_500,
                "burst_B": 1_500, "max_pkt_B": 1_500, "deadline_us": 100_000}
        for _ in range(2):
            state = NetworkState(scn.topology)
            for request in (dict(doc["flows"][0], flow_id="up"), down):
                request.pop("source", None)
                request.pop("critical", None)
                assert state.handle_flow_request(request)["accepted"], request
        assert sorted(sweeps) == [DOWNLINK, UPLINK]
        run(scn)
        assert sorted(sweeps) == [DOWNLINK, UPLINK]


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
