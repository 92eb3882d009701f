"""Latency-guaranteed flow admission over a fixed fabric joined to a 5G segment.

The package models the control plane of an integrated deterministic
network: a central manager that admits flows against strict-priority
delay/backlog bounds, a transit-node abstraction of the 5G system, the
network-side translator with a de-jittering regulator, and an event
simulator that validates every computed bound.
"""

__version__ = "0.1.0"
