"""Integer time/size arithmetic helpers.

Durations are integer microseconds at the bound level and integer
nanoseconds inside the simulator; sizes are bytes, rates bytes/second.
"""

US_PER_S = 1_000_000
NS_PER_US = 1_000
NS_PER_S = 1_000_000_000


def ceil_div(a: int, b: int) -> int:
    """Ceiling division for non-negative integers."""
    return -(-a // b)


def ns_to_us_ceil(ns: int) -> int:
    return ceil_div(ns, NS_PER_US)


def ns_to_us_floor(ns: int) -> int:
    return ns // NS_PER_US
