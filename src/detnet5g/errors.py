"""Exception taxonomy shared across the package."""


class DetnetError(Exception):
    """Base class for all errors raised by this package."""


class Disconnected(DetnetError):
    """The switch graph is not connected."""


class Unreachable(DetnetError):
    """An endpoint cannot be resolved to a switch attachment."""


class Unschedulable(DetnetError):
    """A class or a UE direction lacks the rate a flow needs, or no fixed point exists."""


class UnknownFlow(DetnetError):
    """Flow id not present in the flow registry."""


class InvalidSpec(DetnetError):
    """A flow spec violates its own invariants."""


class MalformedRequest(DetnetError):
    """A flow request does not match the wire schema."""


class ScenarioInvalid(DetnetError):
    """A scenario or topology file fails validation."""


class AdmissionMissing(DetnetError):
    """A flow marked critical was not admitted before simulation."""
