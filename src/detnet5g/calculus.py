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

`hop_delay_bound` and `backlog_bound` bound one class of a port;
`port_bounds` bounds all of its classes in one pass, which is what the
admission solver calls once per changed port.  The three share one
implementation of each formula (`_residual` for (R, T), `_class_bounds`
for the delay and backlog), so their numbers agree class by class.

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
    built each time the solver bounds a port.
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


def _residual(link_rate_Bps: int, rate_hi: int, burst_hi: int, lmax_B: int) -> tuple[int, int]:
    """(R, T) left by higher classes of total rate `rate_hi` and burst `burst_hi`.

    `lmax_B` is the blocking packet.  Raises Unschedulable when the higher
    classes claim the whole link.
    """
    if rate_hi >= link_rate_Bps:
        raise Unschedulable(
            f"higher-priority rate {rate_hi} B/s >= link rate {link_rate_Bps} B/s"
        )
    residual = link_rate_Bps - rate_hi
    return residual, ceil_div((burst_hi + lmax_B) * US_PER_S, residual)


def _class_bounds(
    agg: ClassAggregate, rate_Bps: int, latency_us: int, priority: int, fwd_delay_us: int
) -> tuple[int, int]:
    """(D, q) of class `priority`, aggregate `agg`, under residual service (R, T).

    D = T + b_p/R + d_proc and q = b_p + r_p * T.  Raises Unschedulable if
    the class's rate exceeds R.
    """
    if agg.rate_Bps > rate_Bps:
        raise Unschedulable(
            f"class {priority} rate {agg.rate_Bps} B/s exceeds residual {rate_Bps} B/s"
        )
    return (
        latency_us + ceil_div(agg.burst_B * US_PER_S, rate_Bps) + fwd_delay_us,
        agg.burst_B + ceil_div(agg.rate_Bps * latency_us, US_PER_S),
    )


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
    return RateLatency(
        *_residual(state.link_rate_Bps, rate_hi, burst_hi, state.blocking_pkt_B(priority))
    )


def _bounds(state: PortClassState, priority: int) -> tuple[int, int]:
    """(D, q) of one class, from its own residual service."""
    rate_Bps, latency_us = sp_residual_service(state, priority)
    return _class_bounds(
        state.aggregate(priority), rate_Bps, latency_us, priority, state.fwd_delay_us[priority]
    )


def hop_delay_bound(state: PortClassState, priority: int) -> int:
    """Delay bound (us) for any class-`priority` packet at this port.

    D = T + b_p/R + d_proc with (R, T) the residual service and b_p the
    class aggregate burst.  FIFO within the class, so every member flow
    inherits the aggregate bound.
    """
    return _bounds(state, priority)[0]


def backlog_bound(state: PortClassState, priority: int) -> int:
    """Backlog bound (bytes) for class `priority`: q = b_p + r_p * T."""
    return _bounds(state, priority)[1]


def port_bounds(state: PortClassState) -> tuple[dict[int, int], dict[int, int]]:
    """Every class's delay bound (us) and backlog bound (B), by class, in one pass.

    Class by class, the two maps hold what `hop_delay_bound` and
    `backlog_bound` return.  A class for which those raise Unschedulable is
    in neither map; that is how this marks it, instead of raising.  The
    pass runs lowest class first: the blocking packet is the largest packet
    seen so far, and the higher classes' rate and burst are the port's
    totals less those of the classes seen so far.
    """
    classes = state.classes
    rate_hi = burst_hi = 0
    for agg in classes.values():
        rate_hi += agg.rate_Bps
        burst_hi += agg.burst_B
    lmax = state.lmax_floor_B
    delay_us: dict[int, int] = {}
    backlog_B: dict[int, int] = {}
    for cls in sorted(classes):
        agg = classes[cls]
        rate_hi -= agg.rate_Bps
        burst_hi -= agg.burst_B
        try:
            rate_Bps, latency_us = _residual(state.link_rate_Bps, rate_hi, burst_hi, lmax)
            delay_us[cls], backlog_B[cls] = _class_bounds(
                agg, rate_Bps, latency_us, cls, state.fwd_delay_us[cls]
            )
        except Unschedulable:
            pass
        if agg.max_pkt_B > lmax:
            lmax = agg.max_pkt_B
    return delay_us, backlog_B


def propagate_burst(burst_B: int, rate_Bps: int, hop_delay_us: int) -> int:
    """Output burst after a hop with delay bound D: b' = b + r*D."""
    return burst_B + ceil_div(rate_Bps * hop_delay_us, US_PER_S)
