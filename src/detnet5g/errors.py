"""Exception taxonomy shared across the package, and the input field checks.

The checks raise ScenarioInvalid with the offending field path, so that the
file loaders and the wire path report a bad field the same way.

Admission refuses a flow with these classes too: a reject's reason is the
name of the class that raised its detail, up front or in a placement trial.
"""


class DetnetError(Exception):
    """Base class for all errors raised by this package."""


class Disconnected(DetnetError):
    """The switch graph is not connected."""


class Unreachable(DetnetError):
    """An endpoint cannot be resolved to a switch attachment."""


class Unschedulable(DetnetError):
    """A class or a UE direction lacks the rate a flow needs, or no fixed point exists."""


class DeadlineInfeasible(DetnetError):
    """A flow's e2e bound under a trial placement exceeds its deadline."""


class BufferExceeded(DetnetError):
    """A port's backlog bound under a trial placement exceeds its buffer."""


class UnknownFlow(DetnetError):
    """Flow id not present in the flow registry."""


class InvalidSpec(DetnetError):
    """A flow spec conflicts with the registry or the network: a duplicate id, or a
    de-jittered flow without a UE source or a regulator."""


class ScenarioInvalid(DetnetError):
    """An input file or a flow request fails validation."""


class AdmissionMissing(DetnetError):
    """A flow marked critical was not admitted before simulation."""


SCHEMA_VERSION = 1


def _fail(path: str, message: str):
    raise ScenarioInvalid(f"{path}: {message}")


def _expect(obj, path: str, kind):
    """`obj` if it is a `kind`; an optional field passes `obj.get(key, default)`,
    so an explicit JSON `null` fails like any other wrong type."""
    if kind is int and (not isinstance(obj, int) or isinstance(obj, bool)):
        _fail(path, "must be an integer")
    elif kind is not int and not isinstance(obj, kind):
        _fail(path, f"must be {kind.__name__}")
    return obj


def _positive_int(obj, path: str) -> int:
    value = _expect(obj, path, int)
    if value <= 0:
        _fail(path, "must be positive")
    return value


def _non_negative_int(obj, path: str) -> int:
    value = _expect(obj, path, int)
    if value < 0:
        _fail(path, "must be non-negative")
    return value


def _int_in(obj, path: str, lo: int, hi: int) -> int:
    value = _expect(obj, path, int)
    if not lo <= value <= hi:
        _fail(path, f"must be in {lo}..{hi}")
    return value


def _known_keys(obj: dict, path: str, keys: frozenset) -> None:
    """Fail on a key not in `keys` or an unsupported `schema_version`; `path` is "" at the top."""
    version = obj.get("schema_version", SCHEMA_VERSION)  # `true` and `1.0` equal 1, yet fail
    if not keys.issuperset(obj) or type(version) is not int or version != SCHEMA_VERSION:
        at = f"{path}." if path else ""
        for key in obj:
            if key not in keys:
                _fail(at + key, "unknown field")
        _fail(at + "schema_version", f"unsupported version {obj['schema_version']!r}")
