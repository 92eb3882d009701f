"""Exception taxonomy shared across the package."""


class DetnetError(Exception):
    """Base class for all errors raised by this package."""


class Disconnected(DetnetError):
    """The switch graph is not connected."""


class Unreachable(DetnetError):
    """An endpoint cannot be resolved to a switch attachment."""


class Unschedulable(DetnetError):
    """A class gets less residual rate than it needs, or no fixed point exists."""


class NoUplinkSlots(DetnetError):
    """The TDD pattern has no usable uplink slot."""


class NoDownlinkSlots(DetnetError):
    """The TDD pattern has no usable downlink slot."""


class RateExceedsCapacity(DetnetError):
    """A flow's rate exceeds the UE's TDD-limited capacity."""


class UnknownUe(DetnetError):
    """UE id not present in the transit node registry."""


class UnknownFlow(DetnetError):
    """Flow id not present in the flow registry."""


class NotA5GFlow(DetnetError):
    """The flow does not traverse the 5G segment."""


class InvalidSpec(DetnetError):
    """A flow spec violates its own invariants."""


class MalformedRequest(DetnetError):
    """A flow request does not match the wire schema."""


class ScenarioInvalid(DetnetError):
    """A scenario or topology file fails validation."""


class AdmissionMissing(DetnetError):
    """A flow marked critical was not admitted before simulation."""
