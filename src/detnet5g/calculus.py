"""Worst-case delay and backlog bounds for non-preemptive strict-priority ports.

The model is the classic token-bucket / rate-latency pair: each priority
class at an egress port aggregates its member flows into one (burst, rate)
envelope and receives a residual rate-latency service curve

    R = C - sum(rates of higher classes)
    T = (sum(bursts of higher classes) + l_max) / R

where ``l_max`` is the largest packet of equal-or-lower priority that can
block the link non-preemptively.  From (R, T) follow the per-hop delay
bound T + b/R + d_proc, the backlog bound b + r*T, and the output burst
b + r*D used to propagate a flow's envelope to the next hop.  A class
enters the bounds only through its aggregate (burst, rate, largest
packet), never through the list of flows that make it up.

All quantities are integers (bytes, bytes/second, microseconds) and every
division rounds up, so computed bounds never undercut the true worst case.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import Unschedulable
from .units import US_PER_S, ceil_div


class RateLatency(NamedTuple):
    """Service guarantee of at least rate_Bps * (t - latency_us)+ bytes.

    A named tuple, not a frozen dataclass: one is built per residual-service
    query, and a tuple builds in about half the time.
    """

    rate_Bps: int
    latency_us: int


class ClassAggregate(NamedTuple):
    """Sum of the member flows' envelopes for one class at one port."""

    burst_B: int
    rate_Bps: int
    max_pkt_B: int


# shared by every class without members
_NO_FLOWS = ClassAggregate(0, 0, 0)


class PortClassState(NamedTuple):
    """Aggregate arrival state of one egress port, per priority class.

    Higher class index means higher priority; class 0 is best effort and
    never carries registered flows.  ``lmax_floor_B`` accounts for
    unannounced lower-priority traffic (e.g. background frames) that can
    occupy the link when a higher-class packet arrives.  The rate and the
    forwarding delay table come from a `SwitchProfile`, whose fields the
    topology loader checked.  A named tuple, like `RateLatency`: one is
    built per dirty port of every solver round.
    """

    link_rate_Bps: int
    classes: dict[int, ClassAggregate]
    fwd_delay_us: tuple[int, ...]
    lmax_floor_B: int

    def aggregate(self, priority: int) -> ClassAggregate:
        return self.classes.get(priority, _NO_FLOWS)

    def blocking_pkt_B(self, priority: int) -> int:
        """Largest packet that can block `priority` non-preemptively.

        Only strictly lower classes block; same-class packets are already
        inside the class's own burst term.  The floor models unregistered
        (best-effort) traffic.
        """
        lmax = self.lmax_floor_B
        for cls, agg in self.classes.items():
            if cls < priority and agg.max_pkt_B > lmax:
                lmax = agg.max_pkt_B
        return lmax


def sp_residual_service(state: PortClassState, priority: int) -> RateLatency:
    """Residual rate-latency service left for `priority` after higher classes.

    Raises Unschedulable when the higher classes claim the whole link.
    """
    rate_hi = 0
    burst_hi = 0
    for cls, agg in state.classes.items():
        if cls > priority:
            rate_hi += agg.rate_Bps
            burst_hi += agg.burst_B
    if rate_hi >= state.link_rate_Bps:
        raise Unschedulable(
            f"higher-priority rate {rate_hi} B/s >= link rate {state.link_rate_Bps} B/s"
        )
    residual = state.link_rate_Bps - rate_hi
    lmax = state.blocking_pkt_B(priority)
    latency_us = ceil_div((burst_hi + lmax) * US_PER_S, residual)
    return RateLatency(residual, latency_us)


def _class_service(state: PortClassState, priority: int) -> tuple[ClassAggregate, RateLatency]:
    """Class aggregate and its residual service; Unschedulable if it cannot keep up."""
    service = sp_residual_service(state, priority)
    agg = state.aggregate(priority)
    if agg.rate_Bps > service.rate_Bps:
        raise Unschedulable(
            f"class {priority} rate {agg.rate_Bps} B/s exceeds residual "
            f"{service.rate_Bps} B/s"
        )
    return agg, service


def hop_delay_bound(state: PortClassState, priority: int) -> int:
    """Delay bound (us) for any class-`priority` packet at this port.

    D = T + b_p/R + d_proc with (R, T) the residual service and b_p the
    class aggregate burst.  FIFO within the class, so every member flow
    inherits the aggregate bound.
    """
    agg, service = _class_service(state, priority)
    queueing_us = ceil_div(agg.burst_B * US_PER_S, service.rate_Bps)
    return service.latency_us + queueing_us + state.fwd_delay_us[priority]


def backlog_bound(state: PortClassState, priority: int) -> int:
    """Backlog bound (bytes) for class `priority`: q = b_p + r_p * T."""
    agg, service = _class_service(state, priority)
    return agg.burst_B + ceil_div(agg.rate_Bps * service.latency_us, US_PER_S)


def propagate_burst(burst_B: int, rate_Bps: int, hop_delay_us: int) -> int:
    """Output burst after a hop with delay bound D: b' = b + r*D."""
    return burst_B + ceil_div(rate_Bps * hop_delay_us, US_PER_S)
