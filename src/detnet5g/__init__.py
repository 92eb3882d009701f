"""Latency-guaranteed flow admission over a fixed fabric joined to a 5G segment.

The package models the control plane of an integrated deterministic
network: a central manager that admits flows against strict-priority
delay/backlog bounds, a transit-node abstraction of the 5G system, the
network-side translator with a de-jittering regulator, and an event
simulator that validates every computed bound.
"""

__version__ = "0.1.0"

from .admission import Decision, FlowAssignment, FlowSpec, NetworkState
from .calculus import (
    ClassAggregate,
    PortClassState,
    RateLatency,
    backlog_bound,
    hop_delay_bound,
    propagate_burst,
    sp_residual_service,
)
from .nwtt import (
    BEST_EFFORT,
    NwttConfig,
    NwttRule,
    RegulatorConfig,
    RegulatorState,
    classify_and_tag,
    regulator_offer,
    regulator_release,
)
from .scenario import Scenario, load_scenario, load_scenario_file
from .sim import RunResult, compare_dejitter, dejitter_summary, run
from .topology import (
    PortId,
    SwitchProfile,
    Topology,
    VlanTree,
    enumerate_spanning_trees,
    path_in_tree,
)
from .transit5g import (
    TddConfig,
    TransitContract,
    TransitNode5G,
    UeRecord,
    dl_capacity,
    transit_contract,
    ul_capacity,
)
