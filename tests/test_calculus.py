import random
from collections import Counter

import pytest

from detnet5g.calculus import (
    ClassAggregate,
    PortClassState,
    backlog_bound,
    hop_delay_bound,
    port_bounds,
    propagate_burst,
    sp_residual_service,
)
from detnet5g.errors import Unschedulable


def state(classes=None, *, rate=125_000, lmax=0, fwd=(0,) * 8):
    return PortClassState(
        link_rate_Bps=rate,
        classes=classes or {},
        fwd_delay_us=fwd,
        lmax_floor_B=lmax,
    )


class TestResidualService:
    def test_no_higher_classes_full_link(self):
        rl = sp_residual_service(state(), 7)
        assert (rl.rate_Bps, rl.latency_us) == (125_000, 0)

    def test_higher_class_burst_and_blocking(self):
        s = state({2: ClassAggregate(1250, 62_500, 1500)}, lmax=1500)
        rl = sp_residual_service(s, 1)
        assert (rl.rate_Bps, rl.latency_us) == (62_500, 44_000)

    def test_saturated_higher_classes_unschedulable(self):
        s = state({2: ClassAggregate(1250, 125_000, 1500)})
        with pytest.raises(Unschedulable):
            sp_residual_service(s, 1)

    def test_blocking_pkt_from_lower_classes_only(self):
        s = state({1: ClassAggregate(100, 1000, 3000)}, lmax=1500)
        assert s.blocking_pkt_B(2) == 3000  # lower class's big frame blocks
        assert s.blocking_pkt_B(1) == 1500  # own packets are not blocking
        s2 = state({5: ClassAggregate(100, 1000, 3000)}, lmax=1500)
        assert s2.blocking_pkt_B(1) == 1500  # higher class preempts, no block


class TestHopDelay:
    def test_contended_hop(self):
        s = state(
            {
                2: ClassAggregate(1250, 62_500, 1500),
                1: ClassAggregate(1250, 12_500, 1250),
            },
            lmax=1500,
        )
        assert hop_delay_bound(s, 1) == 64_000

    def test_single_burst_reduces_to_serialization(self):
        s = state({1: ClassAggregate(1250, 12_500, 1250)})
        assert hop_delay_bound(s, 1) == 10_000  # = burst / link rate

    def test_forwarding_delay_is_additive(self):
        fwd = (0, 500) + (0,) * 6
        s = state(
            {
                2: ClassAggregate(1250, 62_500, 1500),
                1: ClassAggregate(1250, 12_500, 1250),
            },
            lmax=1500,
            fwd=fwd,
        )
        assert hop_delay_bound(s, 1) == 64_500

    def test_rate_overload(self):
        s = state({2: ClassAggregate(10, 100_000, 100), 1: ClassAggregate(10, 30_000, 10)})
        with pytest.raises(Unschedulable):
            hop_delay_bound(s, 1)

    def test_monotone_in_competitor_burst_and_rate(self):
        rng = random.Random(7)
        for _ in range(200):
            b_hi = rng.randrange(1, 5000)
            r_hi = rng.randrange(1, 60_000)
            b_p = rng.randrange(100, 5000)
            r_p = rng.randrange(1, 30_000)
            lmax = rng.randrange(0, 1500)
            base = state(
                {3: ClassAggregate(b_hi, r_hi, 1500), 1: ClassAggregate(b_p, r_p, 100)},
                lmax=lmax,
            )
            more_burst = state(
                {3: ClassAggregate(b_hi + 100, r_hi, 1500), 1: ClassAggregate(b_p, r_p, 100)},
                lmax=lmax,
            )
            more_rate = state(
                {3: ClassAggregate(b_hi, r_hi + 100, 1500), 1: ClassAggregate(b_p, r_p, 100)},
                lmax=lmax,
            )
            slower = state(
                {3: ClassAggregate(b_hi, r_hi, 1500), 1: ClassAggregate(b_p, r_p, 100)},
                lmax=lmax,
                rate=100_000,
            )
            d = hop_delay_bound(base, 1)
            assert hop_delay_bound(more_burst, 1) >= d
            assert hop_delay_bound(more_rate, 1) >= d
            assert hop_delay_bound(slower, 1) >= d


class TestBacklog:
    def test_zero_latency_service_keeps_burst(self):
        s = state({7: ClassAggregate(1250, 12_500, 1250)})
        assert backlog_bound(s, 7) == 1250

    def test_latency_adds_rate_product(self):
        s = state(
            {
                2: ClassAggregate(1250, 62_500, 1500),
                1: ClassAggregate(1250, 12_500, 1250),
            },
            lmax=1500,
        )
        assert backlog_bound(s, 1) == 1800  # 1250 + 12500 * 44ms


class TestPortBounds:
    def test_matches_per_class_bounds(self):
        """One pass over a port equals the per-class functions, class by class.

        Random states of 1-5 classes, some where the higher classes or the
        class itself overload the link; the classes' packets straddle the
        blocking floor, so the blocking packet of each class matters.
        """
        rng = random.Random(29)
        kinds = Counter()
        for _ in range(2_000):
            classes = {
                cls: ClassAggregate(rng.randrange(0, 20_000), rng.randrange(0, 50_000),
                                    rng.choice([64, 300, 1_500, 9_000]))
                for cls in rng.sample(range(1, 8), rng.randrange(1, 6))
            }
            s = state(classes, rate=rng.choice([60_000, 125_000, 250_000]),
                      lmax=rng.choice([0, 1_500]),
                      fwd=tuple(rng.randrange(0, 500) for _ in range(8)))
            delays, backlogs = port_bounds(s)
            assert set(backlogs) == set(delays) <= set(classes)
            for cls in classes:
                if cls in delays:
                    assert delays[cls] == hop_delay_bound(s, cls)
                    assert backlogs[cls] == backlog_bound(s, cls)
                    kinds["bounded"] += 1
                    continue
                with pytest.raises(Unschedulable) as exc:
                    hop_delay_bound(s, cls)
                kinds[str(exc.value).split()[0]] += 1
            if len(delays) == len(classes):
                assert sum(backlogs.values()) == sum(backlog_bound(s, cls) for cls in classes)
        # every outcome occurs often: bounded, higher classes over the link, class over residual
        assert min(kinds[k] for k in ("bounded", "higher-priority", "class")) > 200, kinds


class TestBurstPropagation:
    def test_zero_delay_is_identity(self):
        assert propagate_burst(1250, 12_500, 0) == 1250

    def test_growth(self):
        assert propagate_burst(1250, 12_500, 64_000) == 2050

    def test_never_decreases(self):
        rng = random.Random(3)
        for _ in range(200):
            burst = rng.randrange(1, 10_000)
            rate = rng.randrange(1, 1_000_000)
            d1 = rng.randrange(0, 100_000)
            d2 = d1 + rng.randrange(0, 100_000)
            g1 = propagate_burst(burst, rate, d1)
            g2 = propagate_burst(burst, rate, d2)
            assert g1 >= burst
            assert g2 >= g1
