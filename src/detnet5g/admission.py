"""Central network manager: flow registry and joint routing + scheduling.

A flow request carries a traffic spec (rate, burst, max packet, deadline).
Admission tries candidate placements — priority class descending, then
VLAN tree ascending, skipping a tree whose path repeats an earlier tree's,
since the solve depends on (class, path) only — and accepts the first one
under which the new flow AND every already-admitted flow still meet their
deadline and every port's backlog fits its buffer.  Per-hop bounds use the
strict-priority calculus with each flow's burst propagated hop by hop;
because flows sharing a port inflate each other's bursts, bounds are solved
to a fixed point (the iteration is monotone, so deadline/buffer violations
detected on the way are final).  If no candidate fits, one batch pass
re-places all flows in ascending-deadline order; failing that, the request
is rejected and the registry is left untouched.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .calculus import (
    ClassAggregate,
    PortClassState,
    backlog_bound,
    hop_delay_bound,
    propagate_burst,
    sp_residual_service,  # not called here; benchmarks/tracing.py looks this name up
)
from .errors import (
    InvalidSpec,
    MalformedRequest,
    NoDownlinkSlots,
    NoUplinkSlots,
    NotA5GFlow,
    RateExceedsCapacity,
    RateOverload,
    Unreachable,
    UnknownFlow,
    Unschedulable,
)
from .nwtt import NwttConfig, NwttRule, RegulatorConfig, regulator_delay_bound
from .topology import (
    PortId,
    Topology,
    VlanTree,
    enumerate_spanning_trees,
    merge_5g_snapshot,
    path_in_tree,
)
from .transit5g import DOWNLINK, UPLINK, dl_capacity, transit_contract, ul_capacity

log = logging.getLogger(__name__)

DEFAULT_MAX_PKT_B = 1500  # largest unannounced frame that can block a higher class
SOLVER_ITER_CAP = 100


@dataclass(frozen=True)
class FlowSpec:
    """Traffic specification of an admission request."""

    flow_id: str
    src: str
    dst: str
    rate_Bps: int
    burst_B: int
    max_pkt_B: int
    deadline_us: int
    dejitter: bool = False

    def validate(self) -> None:
        if not self.flow_id:
            raise InvalidSpec("flow_id must be non-empty")
        if self.src == self.dst:
            raise InvalidSpec("source and destination must differ")
        if self.rate_Bps <= 0:
            raise InvalidSpec("rate_Bps must be positive")
        if self.max_pkt_B <= 0:
            raise InvalidSpec("max_pkt_B must be positive")
        if self.burst_B < self.max_pkt_B:
            raise InvalidSpec("burst_B must be at least max_pkt_B")
        if self.deadline_us <= 0:
            raise InvalidSpec("deadline_us must be positive")


@dataclass(frozen=True)
class FlowAssignment:
    """Resolved placement of an admitted flow, with all bound components."""

    flow_id: str
    vlan_id: int
    priority_class: int
    hop_ports: tuple[PortId, ...]
    per_hop_bounds_us: tuple[int, ...]
    transit_bound_us: int
    regulator_bound_us: int
    e2e_bound_us: int


@dataclass(frozen=True)
class Decision:
    accepted: bool
    reason: str | None = None
    detail: str | None = None
    assignment: FlowAssignment | None = None
    reconfigured: tuple[str, ...] = ()


@dataclass(frozen=True)
class _Placement:
    spec: FlowSpec
    priority: int
    tree: VlanTree
    hops: tuple[PortId, ...]
    transit_us: int
    regulator_us: int
    regulator: RegulatorConfig | None


@dataclass
class _FlowRecord:
    placement: _Placement
    assignment: FlowAssignment
    orphaned: bool = False


class _Infeasible(Exception):
    def __init__(self, reason: str, detail: str):
        super().__init__(detail)
        self.reason = reason
        self.detail = detail


@dataclass
class _Solution:
    hop_bounds: dict[str, tuple[int, ...]]
    e2e_us: dict[str, int]
    aggregates: dict[PortId, dict[int, ClassAggregate]]


def _port_state(
    topo: Topology, port: PortId, classes: dict[int, ClassAggregate]
) -> PortClassState:
    profile = topo.profile(port.node)
    return PortClassState(
        link_rate_Bps=profile.link_rate_Bps,
        class_count=profile.class_count,
        classes=classes,
        fwd_delay_us=profile.fwd_delay_us,
        lmax_floor_B=DEFAULT_MAX_PKT_B,
    )


def _solve(topo: Topology, placements: dict[str, _Placement]) -> _Solution:
    """Fixed point of hop bounds and propagated bursts over all flows.

    Bursts start at each flow's spec value and only grow, so the first
    deadline or buffer violation encountered is final and aborts early.
    Within one iteration every member of a (port, class) aggregate shares
    one delay bound, so each port state is built once and each (port,
    class) bound is computed once, on first use in flow order, which keeps
    the first failure, and so its detail, the same as a per-hop evaluation.
    """
    fids = sorted(placements)
    bursts: dict[str, list[int]] = {
        fid: [placements[fid].spec.burst_B] * len(placements[fid].hops) for fid in fids
    }

    for _ in range(SOLVER_ITER_CAP):
        # aggregate the current per-hop bursts into port/class state
        raw: dict[PortId, dict[int, list]] = {}
        for fid in fids:
            pl = placements[fid]
            for i, port in enumerate(pl.hops):
                slot = raw.setdefault(port, {}).setdefault(pl.priority, [0, 0, 0, []])
                slot[0] += bursts[fid][i]
                slot[1] += pl.spec.rate_Bps
                slot[2] = max(slot[2], pl.spec.max_pkt_B)
                slot[3].append(fid)
        aggregates: dict[PortId, dict[int, ClassAggregate]] = {}
        states: dict[PortId, PortClassState] = {}
        for port, per_cls in raw.items():
            aggregates[port] = {
                cls: ClassAggregate(b, r, m, tuple(sorted(flows)))
                for cls, (b, r, m, flows) in per_cls.items()
            }
            states[port] = _port_state(topo, port, aggregates[port])
        delays: dict[tuple[PortId, int], int] = {}

        changed = False
        hop_bounds: dict[str, tuple[int, ...]] = {}
        e2e: dict[str, int] = {}
        try:
            for fid in fids:
                pl = placements[fid]
                bounds = []
                burst = pl.spec.burst_B
                for i, port in enumerate(pl.hops):
                    delay = delays.get((port, pl.priority))
                    if delay is None:
                        delay = hop_delay_bound(states[port], pl.priority)
                        delays[port, pl.priority] = delay
                    bounds.append(delay)
                    burst = propagate_burst(burst, pl.spec.rate_Bps, delay)
                    if i + 1 < len(pl.hops) and bursts[fid][i + 1] != burst:
                        bursts[fid][i + 1] = burst
                        changed = True
                hop_bounds[fid] = tuple(bounds)
                total = sum(bounds) + pl.transit_us + pl.regulator_us
                e2e[fid] = total
                if total > pl.spec.deadline_us:
                    raise _Infeasible(
                        "DeadlineInfeasible",
                        f"flow {fid!r}: bound {total} us > deadline {pl.spec.deadline_us} us",
                    )
            for port, classes in aggregates.items():
                buffer_B = topo.profile(port.node).port_buffer_B
                backlog = sum(backlog_bound(states[port], cls) for cls in classes)
                if backlog > buffer_B:
                    raise _Infeasible(
                        "BufferExceeded",
                        f"port {port}: backlog {backlog} B > buffer {buffer_B} B",
                    )
        except (Unschedulable, RateOverload) as exc:
            raise _Infeasible("Unschedulable", str(exc)) from exc

        if not changed:
            return _Solution(hop_bounds=hop_bounds, e2e_us=e2e, aggregates=aggregates)
    raise _Infeasible("Unschedulable", "burst propagation found no fixed point")


class NetworkState:
    """Flow registry plus the admission pipeline over one topology."""

    def __init__(
        self,
        topology: Topology,
        *,
        trees: list[VlanTree] | None = None,
        class_count: int | None = None,
        best_effort_class: int = 0,
        enable_reconfig: bool = True,
        default_regulator: RegulatorConfig | None = None,
    ):
        self.topology = topology
        self.trees_truncated = False
        if trees is None:
            trees, self.trees_truncated = enumerate_spanning_trees(topology)
        self.trees = list(trees)
        if not self.trees:
            raise Unreachable("topology yields no VLAN trees")
        profile_classes = min(p.class_count for p in topology.switches.values())
        self.class_count = profile_classes if class_count is None else min(
            class_count, profile_classes
        )
        self.best_effort_class = best_effort_class
        self.enable_reconfig = enable_reconfig
        self.default_regulator = default_regulator
        self._flows: dict[str, _FlowRecord] = {}
        self._aggregates: dict[PortId, dict[int, ClassAggregate]] = {}

    # ------------------------------------------------------------------ helpers

    def flows(self) -> dict[str, FlowAssignment]:
        return {fid: rec.assignment for fid, rec in sorted(self._flows.items())}

    def spec_of(self, flow_id: str) -> FlowSpec:
        return self._record(flow_id).placement.spec

    def regulator_of(self, flow_id: str) -> RegulatorConfig | None:
        return self._record(flow_id).placement.regulator

    def orphaned_flows(self) -> list[str]:
        return sorted(fid for fid, rec in self._flows.items() if rec.orphaned)

    def _record(self, flow_id: str) -> _FlowRecord:
        try:
            return self._flows[flow_id]
        except KeyError:
            raise UnknownFlow(flow_id) from None

    def _endpoint_kind(self, node_id: str) -> str:
        if node_id in self.topology.hosts:
            return "host"
        if self.topology.is_ue(node_id):
            return "ue"
        raise Unreachable(f"endpoint {node_id!r} is not a host or UE")

    def _transit_terms(self, spec: FlowSpec) -> tuple[int, int]:
        """(uplink bound, downlink bound) in us; zero when not applicable."""
        transit = self.topology.transit
        bounds = []
        for end, direction, name, capacity in (
            ("src", UPLINK, "uplink", ul_capacity),
            ("dst", DOWNLINK, "downlink", dl_capacity),
        ):
            ue_id = getattr(spec, end)
            if not self.topology.is_ue(ue_id):
                bounds.append(0)
                continue
            ue = transit.ue(ue_id)
            peers = sum(
                rec.placement.spec.rate_Bps
                for rec in self._flows.values()
                if getattr(rec.placement.spec, end) == ue_id
            )
            if peers + spec.rate_Bps > capacity(transit.tdd, ue):
                raise RateExceedsCapacity(
                    f"aggregate {name} rate of {ue_id} exceeds TDD capacity"
                )
            bounds.append(transit_contract(
                transit, ue_id, direction, spec.burst_B, spec.rate_Bps
            ).delay_bound_us)
        return tuple(bounds)

    def _regulator_terms(
        self, spec: FlowSpec, override: RegulatorConfig | None
    ) -> tuple[int, RegulatorConfig | None]:
        if not spec.dejitter:
            return 0, None
        if not self.topology.is_ue(spec.src):
            raise InvalidSpec("de-jittering applies to 5G-sourced flows only")
        cfg = override or self.default_regulator
        if cfg is None:
            raise InvalidSpec("dejitter requested but no regulator configured")
        return regulator_delay_bound(cfg, spec.burst_B, spec.max_pkt_B), cfg

    def _candidates(self, terms: _Placement):
        """Placements of a flow in fixed search order: class descending, tree ascending.

        Only the spec and the transit and regulator terms of `terms` are read;
        its own class and tree are not.  The solve depends on (class, hops)
        only, so a tree whose path repeats an earlier tree's is skipped: it
        would fail exactly as that one did.  Paths are discovered lazily while
        the top class walks the trees, so an accept on an early tree costs
        only the paths walked so far.
        """
        spec = terms.spec
        distinct: list[tuple[VlanTree, tuple[PortId, ...]]] = []

        def routes():
            seen: set[tuple[PortId, ...]] = set()
            for tree in self.trees:
                hops = tuple(path_in_tree(self.topology, tree, spec.src, spec.dst))
                if hops not in seen:
                    seen.add(hops)
                    distinct.append((tree, hops))
                    yield tree, hops

        top = self.class_count - 1
        for priority in range(top, self.best_effort_class, -1):
            for tree, hops in routes() if priority == top else distinct:
                yield _Placement(
                    spec=spec,
                    priority=priority,
                    tree=tree,
                    hops=hops,
                    transit_us=terms.transit_us,
                    regulator_us=terms.regulator_us,
                    regulator=terms.regulator,
                )

    def _placements(self) -> dict[str, _Placement]:
        return {fid: rec.placement for fid, rec in self._flows.items()}

    def _commit(self, placements: dict[str, _Placement], solution: _Solution) -> None:
        flows: dict[str, _FlowRecord] = {}
        for fid, pl in placements.items():
            assignment = FlowAssignment(
                flow_id=fid,
                vlan_id=pl.tree.vlan_id,
                priority_class=pl.priority,
                hop_ports=pl.hops,
                per_hop_bounds_us=solution.hop_bounds[fid],
                transit_bound_us=pl.transit_us,
                regulator_bound_us=pl.regulator_us,
                e2e_bound_us=solution.e2e_us[fid],
            )
            orphaned = fid in self._flows and self._flows[fid].orphaned
            flows[fid] = _FlowRecord(placement=pl, assignment=assignment, orphaned=orphaned)
        self._flows = flows
        self._aggregates = solution.aggregates

    # ------------------------------------------------------------------ operations

    def register_flow(
        self, spec: FlowSpec, regulator: RegulatorConfig | None = None
    ) -> Decision:
        """Admit a flow or reject it, leaving the registry untouched on reject."""
        try:
            spec.validate()
            if spec.flow_id in self._flows:
                raise InvalidSpec(f"flow id {spec.flow_id!r} already registered")
            self._endpoint_kind(spec.src)
            self._endpoint_kind(spec.dst)
        except InvalidSpec as exc:
            return Decision(False, reason="InvalidSpec", detail=str(exc))
        except Unreachable as exc:
            return Decision(False, reason="Unreachable", detail=str(exc))

        try:
            ul_us, dl_us = self._transit_terms(spec)
            reg_us, reg_cfg = self._regulator_terms(spec, regulator)
        except (RateExceedsCapacity, NoUplinkSlots, NoDownlinkSlots) as exc:
            return Decision(False, reason="Unschedulable", detail=str(exc))
        except InvalidSpec as exc:
            return Decision(False, reason="InvalidSpec", detail=str(exc))
        # the flow's terms; _candidates supplies class, tree and hops
        request = _Placement(spec, None, None, (), ul_us + dl_us, reg_us, reg_cfg)

        current = self._placements()
        reasons: dict[str, str] = {}
        for cand in self._candidates(request):
            trial = dict(current)
            trial[spec.flow_id] = cand
            try:
                solution = _solve(self.topology, trial)
            except _Infeasible as exc:
                reasons.setdefault(exc.reason, exc.detail)
                continue
            self._commit(trial, solution)
            log.info(
                "flow %s accepted: vlan %d class %d e2e %d us",
                spec.flow_id,
                cand.tree.vlan_id,
                cand.priority,
                solution.e2e_us[spec.flow_id],
            )
            return Decision(
                True, assignment=self._flows[spec.flow_id].assignment, reconfigured=()
            )

        if self.enable_reconfig and self._flows:
            batch = self._batch_reassign(request)
            if batch is not None:
                placements, solution = batch
                before = {
                    fid: (rec.placement.priority, rec.placement.tree.vlan_id)
                    for fid, rec in self._flows.items()
                }
                self._commit(placements, solution)
                moved = tuple(
                    sorted(
                        fid
                        for fid, (prio, vlan) in before.items()
                        if (placements[fid].priority, placements[fid].tree.vlan_id)
                        != (prio, vlan)
                    )
                )
                log.info("flow %s accepted after reconfiguring %s", spec.flow_id, moved)
                return Decision(
                    True,
                    assignment=self._flows[spec.flow_id].assignment,
                    reconfigured=moved,
                )

        for reason in ("DeadlineInfeasible", "BufferExceeded", "Unschedulable"):
            if reason in reasons:
                log.info("flow %s rejected: %s", spec.flow_id, reason)
                return Decision(False, reason=reason, detail=reasons[reason])
        return Decision(False, reason="Unschedulable", detail="no feasible candidate")

    def _batch_reassign(self, request: _Placement):
        """Re-place every flow in ascending deadline order; None if that fails.

        Returns the placements with the solve of the last trial, which is
        the solve of the full set.
        """
        pending = [rec.placement for rec in self._flows.values()] + [request]
        pending.sort(key=lambda pl: (pl.spec.deadline_us, pl.spec.flow_id))
        placed: dict[str, _Placement] = {}
        for terms in pending:
            for cand in self._candidates(terms):
                trial = {**placed, terms.spec.flow_id: cand}
                try:
                    solution = _solve(self.topology, trial)
                except _Infeasible:
                    continue
                placed = trial
                break
            else:
                return None
        return placed, solution

    def remove_flow(self, flow_id: str) -> None:
        """Drop a flow; the survivors' bounds can only improve."""
        self._record(flow_id)
        remaining = {
            fid: rec.placement for fid, rec in self._flows.items() if fid != flow_id
        }
        solution = _solve(self.topology, remaining)
        self._commit(remaining, solution)
        log.info("flow %s removed", flow_id)

    def apply_5g_snapshot(self, ues) -> list[str]:
        """Replace the UE set and flag flows whose UE endpoint disappeared."""
        self.topology = merge_5g_snapshot(self.topology, ues)
        present = set(self.topology.transit.ues)
        orphaned = []
        for fid, rec in sorted(self._flows.items()):
            spec = rec.placement.spec
            lost = (
                (spec.src not in self.topology.hosts and spec.src not in present)
                or (spec.dst not in self.topology.hosts and spec.dst not in present)
            )
            rec.orphaned = lost
            if lost:
                orphaned.append(fid)
        return orphaned

    # ------------------------------------------------------------------ wire surface

    def handle_flow_request(self, request: dict) -> dict:
        """Validate a wire-format request, run admission, shape the response."""
        if not isinstance(request, dict):
            raise MalformedRequest("request must be an object")
        fields = {
            "flow_id": str,
            "src": str,
            "dst": str,
            "rate_Bps": int,
            "burst_B": int,
            "max_pkt_B": int,
            "deadline_us": int,
        }
        values = {}
        for name, kind in fields.items():
            if name not in request:
                raise MalformedRequest(f"missing field {name!r}")
            value = request[name]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise MalformedRequest(f"field {name!r} must be {kind.__name__}")
            values[name] = value
        dejitter = request.get("dejitter", False)
        if not isinstance(dejitter, bool):
            raise MalformedRequest("field 'dejitter' must be a boolean")

        spec = FlowSpec(dejitter=dejitter, **values)
        decision = self.register_flow(spec)
        response: dict = {
            "schema_version": 1,
            "flow_id": spec.flow_id,
            "accepted": decision.accepted,
            "reconfigured": list(decision.reconfigured),
        }
        if decision.accepted:
            a = decision.assignment
            response.update(
                vlan_id=a.vlan_id, pcp=a.priority_class, e2e_bound_us=a.e2e_bound_us
            )
            if self.topology.is_ue(spec.src):
                response["nwtt_config"] = self.config_for_nwtt(spec.flow_id)
            else:
                response["host_config"] = self.config_for_host(spec.flow_id)
        else:
            response["reason"] = decision.reason
            if decision.detail:
                response["detail"] = decision.detail
        return response

    def config_for_nwtt(self, flow_id: str) -> dict:
        """Route + tag (+ regulator) entry the translator needs for one flow."""
        rec = self._record(flow_id)
        spec = rec.placement.spec
        if not self.topology.is_ue(spec.src):
            raise NotA5GFlow(flow_id)
        attach = self.topology.transit.attach
        cfg = {
            "flow_id": flow_id,
            "match": {"src": spec.src, "dst": spec.dst},
            "egress": str(attach),
            "vlan_id": rec.assignment.vlan_id,
            "pcp": rec.assignment.priority_class,
            "regulator": None,
        }
        reg = rec.placement.regulator
        if spec.dejitter and reg is not None:
            cfg["regulator"] = {
                "hold_us": reg.hold_us,
                "release_period_us": reg.release_period_us,
                "queue_cap_pkts": reg.queue_cap_pkts,
                "per_class": reg.per_class,
            }
        return cfg

    def config_for_host(self, flow_id: str) -> dict:
        """Tagging + policing entry for the source host's middleware."""
        rec = self._record(flow_id)
        spec = rec.placement.spec
        if self.topology.is_ue(spec.src):
            raise NotA5GFlow(f"{flow_id}: source is a UE, configure the NW-TT instead")
        return {
            "flow_id": flow_id,
            "match": {"src": spec.src, "dst": spec.dst},
            "vlan_id": rec.assignment.vlan_id,
            "pcp": rec.assignment.priority_class,
            "policer": {"burst_B": spec.burst_B, "rate_Bps": spec.rate_Bps},
        }

    def nwtt_rules(self) -> NwttConfig:
        """Aggregate NW-TT ruleset over all admitted 5G-sourced flows."""
        cfg = NwttConfig()
        for fid, rec in sorted(self._flows.items()):
            spec = rec.placement.spec
            if not self.topology.is_ue(spec.src):
                continue
            cfg.add_rule(
                NwttRule(
                    flow_id=fid,
                    src=spec.src,
                    dst=spec.dst,
                    egress=self.topology.transit.attach,
                    vlan_id=rec.assignment.vlan_id,
                    pcp=rec.assignment.priority_class,
                    regulator=rec.placement.regulator if spec.dejitter else None,
                )
            )
        return cfg

    # ------------------------------------------------------------------ introspection

    def aggregates(self) -> dict:
        """Port/class aggregates of the last full solve, in canonical form."""
        return _canonical_aggregates(self._aggregates)

    def backlog_bounds(self) -> dict[PortId, dict[int, int]]:
        """Per-port, per-class backlog bounds implied by the current registry."""
        out: dict[PortId, dict[int, int]] = {}
        for port, classes in self._aggregates.items():
            state = _port_state(self.topology, port, classes)
            out[port] = {cls: backlog_bound(state, cls) for cls in classes}
        return out

    def recompute_aggregates(self) -> dict:
        """Rebuild the cache from the registry alone (coherence oracle)."""
        if not self._flows:
            return {}
        solution = _solve(self.topology, self._placements())
        return _canonical_aggregates(solution.aggregates)

    def snapshot(self) -> dict:
        """Deep, comparable image of registry + cache for atomicity checks."""
        flows = {}
        for fid, rec in sorted(self._flows.items()):
            a = rec.assignment
            flows[fid] = {
                "spec": rec.placement.spec,
                "vlan_id": a.vlan_id,
                "priority_class": a.priority_class,
                "hop_ports": a.hop_ports,
                "per_hop_bounds_us": a.per_hop_bounds_us,
                "transit_bound_us": a.transit_bound_us,
                "regulator_bound_us": a.regulator_bound_us,
                "e2e_bound_us": a.e2e_bound_us,
                "orphaned": rec.orphaned,
            }
        return {"flows": flows, "aggregates": self.aggregates()}


def _canonical_aggregates(aggregates) -> dict:
    return {
        str(port): {
            cls: (agg.burst_B, agg.rate_Bps, agg.max_pkt_B, agg.flows)
            for cls, agg in sorted(per_cls.items())
        }
        for port, per_cls in sorted(aggregates.items())
    }
