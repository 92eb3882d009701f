"""Network-side translator: per-flow tagging/routing and de-jittering.

The translator holds one `NwttRule` per admitted UE-sourced flow, rendered
from the flow's assignment by `NetworkState.nwtt_rule`.  Packets leaving the
5G segment are matched exactly on (source, destination) against those rules
(`classify_and_tag`): a hit yields the VLAN/priority tag, the egress toward
the fabric and the regulator, anything else falls through to best effort,
class 0 with no regulator.

The optional hold-and-forward regulator retains the first packet of a busy
period for a configured hold time and then releases queued packets strictly
one release period apart, which absorbs the slot-pattern jitter upstream at
the price of added latency.  Each de-jittered flow has its own queue, a
`RegulatorState` holding its configuration; the simulator calls
`regulator_release` once per release, at `next_release_ns`, to let the head go.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field

from .topology import PortId
from .units import NS_PER_US, ceil_div


@dataclass(frozen=True)
class RegulatorConfig:
    """As loaded: a non-negative hold, a positive release period and capacity."""

    hold_us: int
    release_period_us: int
    queue_cap_pkts: int = 64


def regulator_delay_bound(cfg: RegulatorConfig, burst_B: int, max_pkt_B: int) -> int:
    """Worst regulator delay in us of a (burst_B, max_pkt_B) flow alone in its queue.

    The first packet of a busy period waits the hold time; a burst of
    ceil(b/L) packets leaves one release period apart behind it.
    """
    return cfg.hold_us + (ceil_div(burst_B, max_pkt_B) - 1) * cfg.release_period_us


@dataclass(frozen=True)
class NwttRule:
    """Route + tag entry for one admitted 5G flow."""

    flow_id: str
    src: str
    dst: str
    egress: PortId
    vlan_id: int
    pcp: int
    regulator: RegulatorConfig | None = None

    def wire(self) -> dict:
        """The rule as the translator's configuration entry (JSON-ready)."""
        return {
            "flow_id": self.flow_id,
            "match": {"src": self.src, "dst": self.dst},
            "egress": str(self.egress),
            "vlan_id": self.vlan_id,
            "pcp": self.pcp,
            "regulator": None if self.regulator is None else asdict(self.regulator),
        }


def classify_and_tag(
    rules: dict[tuple[str, str], NwttRule], src: str, dst: str
) -> NwttRule | None:
    """The rule matching (src, dst) exactly; None (best effort) if none does."""
    return rules.get((src, dst))


@dataclass
class RegulatorState:
    """One regulator queue and its configuration; times are integer nanoseconds,
    `next_release_ns` being the head's release time (None while empty)."""

    cfg: RegulatorConfig
    queue: deque = field(default_factory=deque)
    next_release_ns: int | None = None
    last_release_ns: int | None = None


def regulator_offer(state: RegulatorState, packet, t_arrival_ns: int) -> bool:
    """Enqueue a packet; returns False when full.

    The first packet of a busy period anchors the release schedule at
    arrival + hold; spacing to the previous busy period's last departure
    is still kept >= the release period.
    """
    cfg = state.cfg
    if len(state.queue) >= cfg.queue_cap_pkts:
        return False
    state.queue.append(packet)
    if state.next_release_ns is None:
        release = t_arrival_ns + cfg.hold_us * NS_PER_US
        if state.last_release_ns is not None:
            release = max(release, state.last_release_ns + cfg.release_period_us * NS_PER_US)
        state.next_release_ns = release
    return True


def regulator_release(state: RegulatorState):
    """Pop and return the head, which departs at `next_release_ns`.

    Call it once per release, at that time, on a non-empty queue.  While
    the queue stays backlogged consecutive departures are exactly one
    release period apart; when it drains the busy period ends and the next
    arrival re-anchors.
    """
    t_depart = state.next_release_ns
    state.last_release_ns = t_depart
    packet = state.queue.popleft()
    state.next_release_ns = (t_depart + state.cfg.release_period_us * NS_PER_US
                             if state.queue else None)
    return packet
