"""Scenario and topology file schemas and their loaders.

Everything is plain JSON.  Validation errors carry the offending field
path so a broken file points at its own problem.  The demo network lives
only in `scenarios/canonical.json` and `scenarios/canonical_topology.json`.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .admission import DEFAULT_MAX_PKT_B, WIRE_KEYS, FlowSpec, read_endpoints, read_flow_spec
from .errors import (ScenarioInvalid, _expect, _fail, _int_in, _known_keys, _non_negative_int,
                     _positive_int)
from .nwtt import RegulatorConfig
from .topology import PortId, SwitchProfile, Topology, make_link
from .transit5g import SLOT_KINDS, TddConfig, TransitNode5G, UeRecord

# the keys each block may carry; any other key is an error, so that a
# misspelled optional key cannot silently keep its default
SCENARIO_KEYS = frozenset(("schema_version", "topology", "classes", "flows", "nwtt", "sim"))
FLOWS_FILE_KEYS = frozenset(("schema_version", "flows"))  # `detnet5g admit`'s input
TOPOLOGY_KEYS = frozenset(("schema_version", "switches", "links", "hosts", "transit5g"))
SWITCH_KEYS = frozenset(("id", "link_rate_Bps", "fwd_delay_us", "port_buffer_B", "class_count"))
HOST_KEYS = frozenset(("id", "attach"))
TRANSIT5G_KEYS = frozenset(("tdd_pattern", "numerology", "grant_delay_slots", "s_slot_usable_ul",
                            "s_slot_usable_dl", "attach", "ues"))
UE_KEYS = frozenset(("id", "tbs_ul_B", "tbs_dl_B"))
CLASSES_KEYS = frozenset(("count", "best_effort_class"))
NWTT_KEYS = frozenset(("dejitter",))
REGULATOR_KEYS = frozenset(("hold_us", "release_period_us", "queue_cap_pkts", "per_class"))
SIM_KEYS = frozenset(("duration_ms", "seed", "sources"))
FLOW_KEYS = WIRE_KEYS | {"critical", "source"}
# per source mode: the keys it requires, and every key it may carry
SOURCE_KEYS = {
    mode: (required, frozenset((*required, *optional, "mode", "offset_us")))
    for mode, required, optional in (
        ("periodic", ("period_us", "pkt_B"), ("count",)),
        ("greedy_token_bucket", ("pkt_B", "burst_B", "rate_Bps"), ()),
        ("onoff_background", ("pkt_B", "rate_Bps", "on_ms", "off_ms"), ()),
    )
}
SOURCE_MODES = tuple(SOURCE_KEYS)


@dataclass(frozen=True)
class SourceModel:
    """Traffic generator settings for one flow id."""

    flow_id: str
    src: str
    dst: str
    mode: str
    params: dict


@dataclass(frozen=True)
class FlowEntry:
    spec: FlowSpec
    critical: bool
    source: SourceModel


@dataclass
class Scenario:
    topology: Topology
    flows: list[FlowEntry]
    extra_sources: list[SourceModel]
    class_count: int = 8
    best_effort_class: int = 0
    dejitter: RegulatorConfig | None = None
    duration_ms: int = 1000
    seed: int = 1
    name: str = "scenario"


def _port(text, path: str) -> PortId:
    _expect(text, path, str)
    try:
        return PortId.parse(text)
    except ValueError as exc:
        _fail(path, str(exc))


def load_topology(obj: dict, path: str = "topology") -> Topology:
    """Build a Topology from its file schema block."""
    _expect(obj, path, dict)
    _known_keys(obj, path, TOPOLOGY_KEYS)
    topo = Topology()
    switches = _expect(obj.get("switches"), f"{path}.switches", list)
    if not switches:
        _fail(f"{path}.switches", "at least one switch required")
    for i, sw in enumerate(switches):
        p = f"{path}.switches[{i}]"
        _expect(sw, p, dict)
        _known_keys(sw, p, SWITCH_KEYS)
        sid = _expect(sw.get("id"), f"{p}.id", str)
        if sid in topo.switches:
            _fail(f"{p}.id", f"duplicate switch id {sid!r}")
        # a class travels as the 3-bit 802.1Q PCP; check before the default table
        class_count = _int_in(sw.get("class_count", 8), f"{p}.class_count", 2, 8)
        fwd = sw.get("fwd_delay_us", [0] * class_count)
        _expect(fwd, f"{p}.fwd_delay_us", list)
        for k, delay in enumerate(fwd):
            _non_negative_int(delay, f"{p}.fwd_delay_us[{k}]")
        if len(fwd) != class_count:
            _fail(f"{p}.fwd_delay_us",
                  f"must have one entry for each of the {class_count} classes, not {len(fwd)}")
        topo.switches[sid] = SwitchProfile(
            link_rate_Bps=_positive_int(sw.get("link_rate_Bps"), f"{p}.link_rate_Bps"),
            fwd_delay_us=tuple(fwd),
            port_buffer_B=_positive_int(sw.get("port_buffer_B"), f"{p}.port_buffer_B"),
            class_count=class_count,
        )

    used_ports: dict = {}

    def claim(port: PortId, p: str):
        if port in used_ports:
            _fail(p, f"port {port} already used by {used_ports[port]}")
        used_ports[port] = p

    for i, pair in enumerate(_expect(obj.get("links"), f"{path}.links", list)):
        p = f"{path}.links[{i}]"
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(p, "must be a two-element list of port ids")
        a, b = (_port(pair[0], f"{p}[0]"), _port(pair[1], f"{p}[1]"))
        for end in (a, b):
            if end.node not in topo.switches:
                _fail(p, f"unknown switch {end.node!r}")
            claim(end, p)
        if a.node == b.node:  # no spanning tree holds a switch's link to itself
            _fail(p, f"links two ports of switch {a.node!r}")
        topo.links.add(make_link(a, b))

    for i, host in enumerate(_expect(obj.get("hosts", []), f"{path}.hosts", list)):
        p = f"{path}.hosts[{i}]"
        _expect(host, p, dict)
        _known_keys(host, p, HOST_KEYS)
        hid = _expect(host.get("id"), f"{p}.id", str)
        attach = _port(host.get("attach"), f"{p}.attach")
        if attach.node not in topo.switches:
            _fail(f"{p}.attach", f"unknown switch {attach.node!r}")
        if hid in topo.hosts or hid in topo.switches:
            _fail(f"{p}.id", f"duplicate node id {hid!r}")
        claim(attach, f"{p}.attach")
        topo.hosts[hid] = attach

    if "transit5g" in obj:
        t5g = obj["transit5g"]
        p = f"{path}.transit5g"
        _expect(t5g, p, dict)
        _known_keys(t5g, p, TRANSIT5G_KEYS)
        pattern = _expect(t5g.get("tdd_pattern"), f"{p}.tdd_pattern", str)
        if not pattern:
            _fail(f"{p}.tdd_pattern", "must be non-empty")
        bad = sorted(set(pattern) - set(SLOT_KINDS))
        if bad:
            _fail(f"{p}.tdd_pattern", f"unknown slot kinds {bad}")
        numerology = _int_in(t5g.get("numerology", 1), f"{p}.numerology", 0, 4)
        grant_delay = _non_negative_int(t5g.get("grant_delay_slots", 0), f"{p}.grant_delay_slots")
        tdd = TddConfig(
            pattern=pattern,
            numerology_mu=numerology,
            grant_delay_slots=grant_delay,
            s_slot_usable_ul=_expect(t5g.get("s_slot_usable_ul", False),
                                     f"{p}.s_slot_usable_ul", bool),
            s_slot_usable_dl=_expect(t5g.get("s_slot_usable_dl", True),
                                     f"{p}.s_slot_usable_dl", bool),
        )
        attach = _port(t5g.get("attach"), f"{p}.attach")
        if attach.node not in topo.switches:
            _fail(f"{p}.attach", f"unknown switch {attach.node!r}")
        claim(attach, f"{p}.attach")
        ues = {}
        for i, ue in enumerate(_expect(t5g.get("ues", []), f"{p}.ues", list)):
            q = f"{p}.ues[{i}]"
            _expect(ue, q, dict)
            _known_keys(ue, q, UE_KEYS)
            uid = _expect(ue.get("id"), f"{q}.id", str)
            if uid in ues or uid in topo.hosts or uid in topo.switches:
                _fail(f"{q}.id", f"duplicate node id {uid!r}")
            ues[uid] = UeRecord(
                ue_id=uid,
                tbs_ul_B=_positive_int(ue.get("tbs_ul_B"), f"{q}.tbs_ul_B"),
                tbs_dl_B=_positive_int(ue.get("tbs_dl_B"), f"{q}.tbs_dl_B"),
            )
        topo.transit = TransitNode5G(tdd=tdd, ues=ues, attach=attach)
    return topo


def _load_regulator(obj, path: str) -> RegulatorConfig:
    _expect(obj, path, dict)
    _known_keys(obj, path, REGULATOR_KEYS)
    hold_us = _non_negative_int(obj.get("hold_us"), f"{path}.hold_us")
    release_period_us = _positive_int(obj.get("release_period_us"), f"{path}.release_period_us")
    if _expect(obj.get("per_class", False), f"{path}.per_class", bool):
        _fail(f"{path}.per_class",
              "must be false: each de-jittered flow has its own regulator queue")
    return RegulatorConfig(
        hold_us=hold_us,
        release_period_us=release_period_us,
        queue_cap_pkts=_positive_int(obj.get("queue_cap_pkts", 64), f"{path}.queue_cap_pkts"),
    )


def _load_source(obj, path: str, *, flow_id: str, src: str, dst: str) -> SourceModel:
    _expect(obj, path, dict)
    mode = _expect(obj.get("mode"), f"{path}.mode", str)
    if mode not in SOURCE_MODES:
        _fail(f"{path}.mode", f"must be one of {SOURCE_MODES}")
    params = {k: v for k, v in obj.items() if k != "mode"}
    required, known = SOURCE_KEYS[mode]
    _known_keys(obj, path, known)
    for key in required:
        _positive_int(obj.get(key), f"{path}.{key}")
    if "count" in obj:  # `periodic` reads it too, as packets per period
        _positive_int(obj["count"], f"{path}.count")
    if "offset_us" in obj:  # a source never sends before the run starts at t = 0
        _non_negative_int(obj["offset_us"], f"{path}.offset_us")
    return SourceModel(flow_id=flow_id, src=src, dst=dst, mode=mode, params=params)


def check_ends(topo: Topology, seen: set[str], fid: str, src: str, dst: str, path: str) -> None:
    """Fail unless a flow or source entry's id is not in `seen` (it is added) and its
    two ends are hosts or UEs: traffic never starts or ends at a switch."""
    if fid in seen:
        _fail(f"{path}.flow_id", f"duplicate flow id {fid!r}")
    seen.add(fid)
    for ep, label in ((src, "src"), (dst, "dst")):
        if ep not in topo.hosts and not topo.is_ue(ep):
            _fail(f"{path}.{label}", f"{ep!r} is not a host or a UE")


def load_scenario(obj: dict, *, name: str = "scenario") -> Scenario:
    """Parse and validate a scenario document."""
    _expect(obj, "scenario", dict)
    _known_keys(obj, "", SCENARIO_KEYS)
    topo = load_topology(_expect(obj.get("topology"), "topology", dict))

    classes = obj.get("classes", {})
    _expect(classes, "classes", dict)
    _known_keys(classes, "classes", CLASSES_KEYS)
    class_count = _int_in(classes.get("count", 8), "classes.count", 2, 8)
    best_effort = _expect(classes.get("best_effort_class", 0), "classes.best_effort_class", int)
    if best_effort != 0:
        _fail("classes.best_effort_class", "class 0 is the best-effort class")

    dejitter = None
    nwtt = obj.get("nwtt", {})
    _expect(nwtt, "nwtt", dict)
    _known_keys(nwtt, "nwtt", NWTT_KEYS)
    if "dejitter" in nwtt:
        dejitter = _load_regulator(nwtt["dejitter"], "nwtt.dejitter")

    seen_flow_ids: set[str] = set()
    flows: list[FlowEntry] = []
    nwtt_matches: dict[tuple[str, str], str] = {}  # NW-TT matches on (src, dst) only
    for i, fl in enumerate(_expect(obj.get("flows", []), "flows", list)):
        p = f"flows[{i}]"
        _known_keys(_expect(fl, p, dict), p, FLOW_KEYS)
        spec = read_flow_spec(fl, p)
        fid, src, dst = spec.flow_id, spec.src, spec.dst
        check_ends(topo, seen_flow_ids, fid, src, dst, p)
        if topo.is_ue(src):
            earlier = nwtt_matches.setdefault((src, dst), fid)
            if earlier != fid:
                _fail(f"{p}.dst", f"NW-TT match ({src}, {dst}) already used by flow {earlier!r}")
        # admission would reject these specs, and a non-critical flow's source would vanish
        if spec.dejitter and not topo.is_ue(src):
            _fail(f"{p}.dejitter", "needs a UE source")
        if spec.dejitter and dejitter is None:
            _fail(f"{p}.dejitter", "needs an nwtt.dejitter block")
        source = _load_source(_expect(fl.get("source"), f"{p}.source", dict),
                              f"{p}.source", flow_id=fid, src=src, dst=dst)
        # the blocking term and per-hop transmission times assume this limit
        if source.params["pkt_B"] > spec.max_pkt_B:
            _fail(f"{p}.source.pkt_B", f"must not exceed max_pkt_B ({spec.max_pkt_B})")
        critical = _expect(fl.get("critical", False), f"{p}.critical", bool)
        flows.append(FlowEntry(spec=spec, critical=critical, source=source))

    sim = obj.get("sim", {})
    _expect(sim, "sim", dict)
    _known_keys(sim, "sim", SIM_KEYS)
    extra_sources: list[SourceModel] = []
    for i, src_obj in enumerate(_expect(sim.get("sources", []), "sim.sources", list)):
        p = f"sim.sources[{i}]"
        fid, src, dst = read_endpoints(_expect(src_obj, p, dict), p)
        check_ends(topo, seen_flow_ids, fid, src, dst, p)
        # an unregistered source on a flow's match would be tagged into its class
        earlier = nwtt_matches.get((src, dst))
        if earlier is not None:
            _fail(f"{p}.dst", f"NW-TT match ({src}, {dst}) already used by flow {earlier!r}")
        body = {k: v for k, v in src_obj.items() if k not in ("flow_id", "src", "dst")}
        source = _load_source(body, p, flow_id=fid, src=src, dst=dst)
        # admission budgets this size as the largest unannounced blocking frame
        if source.params["pkt_B"] > DEFAULT_MAX_PKT_B:
            _fail(f"{p}.pkt_B", f"must be at most {DEFAULT_MAX_PKT_B}")
        extra_sources.append(source)

    return Scenario(
        topology=topo,
        flows=flows,
        extra_sources=extra_sources,
        class_count=class_count,
        best_effort_class=best_effort,
        dejitter=dejitter,
        duration_ms=_positive_int(sim.get("duration_ms", 1000), "sim.duration_ms"),
        seed=_expect(sim.get("seed", 1), "sim.seed", int),
        name=name,
    )


@contextmanager
def open_input(path, newline=None):
    """An input file open for reading UTF-8 text, with `open`'s `newline`.

    A file that cannot be opened, read or decoded raises ScenarioInvalid,
    also when the error comes while the caller is reading it.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioInvalid(f"cannot read {path}: {exc}") from exc


def read_json(path):
    """Parsed JSON input file; an unreadable or malformed one raises ScenarioInvalid."""
    with open_input(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioInvalid(f"{path}: line {exc.lineno} col {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ScenarioInvalid(f"{path}: arrays or objects nested too deeply") from None
    except ValueError:  # the rest: an integer past Python's int-conversion digit limit
        raise ScenarioInvalid(f"{path}: an integer has too many digits") from None


def load_scenario_file(path) -> Scenario:
    return load_scenario(read_json(path), name=Path(path).stem)


def load_topology_file(path) -> Topology:
    return load_topology(read_json(path))
