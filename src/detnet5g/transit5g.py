"""The 5G segment as a transit node: TDD-limited worst-case latency per UE.

The radio system is reduced to what a DetNet controller can rely on: a
slot pattern, a numerology, and per-UE transport block sizes.  A burst of
B bytes needs n = ceil(B / tbs) usable slots; a packet arriving during
slot k may first be served in slot k + 1 + grant_delay.  Worst and best
case latencies come from sweeping the arrival slot over one pattern
period: the worst case drains the whole burst from an arrival just after
a slot start, the best case a lone packet in one block from an arrival
just before the slot ends.

That sweep reads neither the burst nor the TBS, so it runs once per
pattern and direction: a `Staircase` holds the usable slots, each slot's
wait for the next usable one, the best case, and the worst case for each
count of blocks up to one period's worth.  Both directions' staircases
are swept on the first use of either and kept in a `cached_property` of
the `TddConfig`.  A contract is then a lookup, the capacity reads the
usable slot count, and the simulator's slot clock reads the waits.

This module holds the arithmetic, capacity and sweep; admission
(`NetworkState._terms`) checks a flow against the capacity before it asks
for the flow's contract.

A staircase counts slots and everything else is integer nanoseconds (a
mu=4 slot is 62.5 us); reported bounds are microseconds, rounded up for
the worst case and down for the best case so both stay conservative.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from .units import NS_PER_S, ceil_div, ns_to_us_ceil, ns_to_us_floor

if TYPE_CHECKING:  # topology imports this module
    from .topology import PortId

SLOT_KINDS = "DUSF"
UPLINK = "ul"
DOWNLINK = "dl"


@dataclass(frozen=True)
class Staircase:
    """One direction of a TDD pattern, swept once over its arrival slots; all in slots.

    `usable` lists the pattern's usable slots, and `wait[k]` counts the
    slots from pattern slot k to the first usable slot at or after it
    (None if there is none).  `best` is the least span, over arrival slots
    k, from slot k's end to the end of the first usable slot at or after
    k's first grant slot.  `worst[r]` is the most span from slot k's start
    to the end of the (r + 1)-th such usable slot.  The usable slots repeat
    every period, so with n - 1 = q * len(usable) + r an n-block burst's
    worst case is q * len(pattern) + worst[r].  With no usable slot, `best`
    is None and `worst` empty.
    """

    usable: tuple[int, ...]
    wait: tuple[int | None, ...]
    best: int | None
    worst: tuple[int, ...]


@dataclass(frozen=True)
class TddConfig:
    """Periodic slot pattern plus the knobs that shape latency.

    ``grant_delay_slots`` models the scheduling-request round trip; the
    S-slot usability flags decide whether special slots carry payload.  As
    loaded: a non-empty pattern of SLOT_KINDS, numerology 0..4 and a
    non-negative grant delay.
    """

    pattern: str
    numerology_mu: int = 1
    grant_delay_slots: int = 0
    s_slot_usable_ul: bool = False
    s_slot_usable_dl: bool = True

    @property
    def slot_ns(self) -> int:
        # 1 ms / 2^mu; exact in nanoseconds for every numerology 0..4.
        return 1_000_000 // (2 ** self.numerology_mu)

    @property
    def period_ns(self) -> int:
        return len(self.pattern) * self.slot_ns

    def usable(self, kind: str, direction: str) -> bool:
        if direction == UPLINK:
            return kind == "U" or (kind == "S" and self.s_slot_usable_ul)
        return kind == "D" or (kind == "S" and self.s_slot_usable_dl)

    def first_grant_slot(self, arrival_slot: int) -> int:
        """Earliest slot that may carry a packet arriving during `arrival_slot`."""
        return arrival_slot + 1 + self.grant_delay_slots

    @cached_property
    def _staircases(self) -> dict[str, Staircase]:
        """Both directions' staircases, swept on first use; outside eq, hash and repr."""
        return {direction: _sweep(self, direction) for direction in (UPLINK, DOWNLINK)}

    def staircase(self, direction: str) -> Staircase:
        """The pattern's staircase in `direction`."""
        return self._staircases[direction]


@dataclass(frozen=True)
class UeRecord:
    """Reported state of one attached UE; positive TBS values from live MCS."""

    ue_id: str
    tbs_ul_B: int
    tbs_dl_B: int


@dataclass
class TransitNode5G:
    """The whole 5G system folded into one forwarding device."""

    tdd: TddConfig
    ues: dict[str, UeRecord]
    attach: PortId  # the switch port the NW-TT feeds


@dataclass(frozen=True)
class TransitContract:
    """What the 5G segment promises the controller for one flow direction."""

    delay_bound_us: int
    best_case_us: int


def _capacity_Bps(tdd: TddConfig, tbs_B: int, direction: str) -> int:
    # floor keeps the admission test rate <= capacity conservative
    return len(tdd.staircase(direction).usable) * tbs_B * NS_PER_S // tdd.period_ns


def ul_capacity(tdd: TddConfig, ue: UeRecord) -> int:
    """Sustainable uplink rate: usable slots per period times TBS."""
    return _capacity_Bps(tdd, ue.tbs_ul_B, UPLINK)


def dl_capacity(tdd: TddConfig, ue: UeRecord) -> int:
    return _capacity_Bps(tdd, ue.tbs_dl_B, DOWNLINK)


def _sweep(tdd: TddConfig, direction: str) -> Staircase:
    """`direction`'s staircase, from one pass over the arrival slots of a period.

    For arrival slot k the usable slots at index >= first_grant_slot(k) are
    counted through the per-period usable slot list.
    """
    period = len(tdd.pattern)
    usable = tuple(i for i, kind in enumerate(tdd.pattern) if tdd.usable(kind, direction))
    if not usable:
        return Staircase(usable, (None,) * period, None, ())
    per_period = len(usable)

    def slot_index(j: int) -> int:  # the index of usable slot j, counted from 0 at slot 0
        wraps, within = divmod(j, per_period)
        return wraps * period + usable[within]

    wait = tuple(slot_index(bisect_left(usable, k)) - k for k in range(period))
    worst = [0] * per_period
    best = None
    for k in range(period):
        wraps, offset = divmod(tdd.first_grant_slot(k), period)
        first = wraps * per_period + bisect_left(usable, offset)
        for r in range(per_period):
            worst[r] = max(worst[r], slot_index(first + r) + 1 - k)
        span = slot_index(first) - k
        best = span if best is None else min(best, span)
    return Staircase(usable, wait, best, tuple(worst))


def transit_contract(
    node: TransitNode5G, ue_id: str, direction: str, burst_B: int, rate_Bps: int
) -> TransitContract:
    """Delay bound and best case the 5G segment reports for one flow.

    The direction's staircase gives both: the worst for the whole burst,
    the best for a lone packet in one transport block, the least any packet
    needs.  So simulated latencies always fall inside [best_case_us,
    delay_bound_us].  The flow must fit: a known UE, a positive burst, and a
    direction with a usable slot and room for `rate_Bps`, which the
    contract does not read.
    """
    ue = node.ues[ue_id]
    tdd = node.tdd
    stair = tdd.staircase(direction)
    tbs = ue.tbs_ul_B if direction == UPLINK else ue.tbs_dl_B
    periods, r = divmod(ceil_div(burst_B, tbs) - 1, len(stair.usable))
    slot_ns = tdd.slot_ns
    return TransitContract(
        delay_bound_us=ns_to_us_ceil((periods * len(tdd.pattern) + stair.worst[r]) * slot_ns),
        best_case_us=ns_to_us_floor(stair.best * slot_ns),
    )
