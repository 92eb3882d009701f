"""Seeded inputs for the benchmark workloads and the closed loops that drive them.

Every workload drives both operator paths of detnet5g on its own generated
input, one call at a time from a single thread:

- the admission path that `detnet5g admit` uses
  (`NetworkState.handle_flow_request`, plus `remove_flow` for churn), and
- the simulation path that `detnet5g run` uses
  (`sim.run`, `sim.write_trace`, `sim.write_report`).

The workloads differ in which path carries the weight.  `admit-grid` spends
nearly all of its time in admission churn on a 4x4 switch grid and runs a
short side simulation of the same fabric.  The two sim workloads spend
nearly all of theirs in the simulator and run a short side admission
(register every flow of a scenario, then remove them all).  Both paths run
on every workload because every end-to-end metric is reported for every
workload.  Calls are timed through `Measurements.timed`, which keeps the
CPU time of this process (user plus system) per call and runs the pace probe
between calls.

Work is split into units (an admission episode, or one simulator
repetition).  Unit k of a run draws its inputs from its own generator keyed
by (workload, seed, k), so the same seed always gives the same inputs.  The
number of units follows from `--seconds` alone (see `units_for`), never from
the clock, so a seed's work, and with it `attempted`, `failed` and every
count, is the same on every run.  The output digests cover unit 0.

Modules are called through their module objects (`sim.run`, not a name
imported from it) so that a traced run can rebind them to timing wrappers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from detnet5g import admission, scenario, sim, topology

WORKLOADS = ("admit-grid", "sim-canonical", "sim-dense-ue")

# admit-grid: churn on a 4x4 grid (24 links, 64 trees at the default cap).
GRID_ROWS, GRID_COLS = 4, 4
GRID_LINK_RATE_Bps = 1_250_000
GRID_BUFFER_B = 65_536
GRID_UES = 4
FLOW_RATE_Bps = 10_000
FLOW_PKT_B = 300
DEADLINE_MIN_US, DEADLINE_MAX_US = 2_000, 50_000
UE_SHARE = 0.2
EPISODE_REGISTRATIONS = 20  # into an empty registry
EPISODE_CHURN = 12  # remove_flow + register pairs at steady size
# side simulation of the grid: generous deadlines, so admission inside run is cheap
GRID_SIM_FLOWS = 16
GRID_SIM_DEADLINE_US = 50_000
GRID_SIM_DURATION_MS = 10_000

# sim workloads
CANONICAL_DURATION_MS = 120_000
DENSE_DURATION_MS = 10_000
# side admission: register every flow of a scenario, then remove them all.
# sim-canonical repeats its one flow list up to this many registrations;
# sim-dense-ue draws this many fresh flow lists per unit.
SIDE_ADMISSION_REGISTRATIONS = 32
DENSE_SIDE_VARIANTS = 4

# wall time of one unit on the reference host (2 vCPU Intel Xeon, 2.0 GHz);
# a run of `--seconds` does seconds / UNIT_WALL_S units
UNIT_WALL_S = {"admit-grid": 2.0, "sim-canonical": 3.8, "sim-dense-ue": 4.6}

# set-up repetitions; the median counts (tree enumeration takes about 0.1 s,
# loading a scenario file about 1 ms)
GRID_SETUP_REPEATS = 7
SCENARIO_SETUP_REPEATS = 200


# --------------------------------------------------------------------- generators


def grid_topology_doc(
    rows: int,
    cols: int,
    *,
    link_rate_Bps: int,
    buffer_B: int,
    hosts_per_switch: int,
    ue_count: int,
    tbs_ul_B: int = 1500,
    tbs_dl_B: int = 3000,
) -> dict:
    """Topology file block for a rows x cols switch grid.

    Ports: 1 east, 2 south, 3 west, 4 north, then one per host; the 5G
    segment (pattern DDDSU, numerology 1) hangs off the next port of the
    corner switch S00.
    """
    def sw(r: int, c: int) -> str:
        return f"S{r}{c}"

    switches = [
        {"id": sw(r, c), "link_rate_Bps": link_rate_Bps,
         "fwd_delay_us": [0] * 8, "port_buffer_B": buffer_B}
        for r in range(rows) for c in range(cols)
    ]
    links = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                links.append([f"{sw(r, c)}.1", f"{sw(r, c + 1)}.3"])
            if r + 1 < rows:
                links.append([f"{sw(r, c)}.2", f"{sw(r + 1, c)}.4"])
    hosts = [
        {"id": f"H{r}{c}{k}", "attach": f"{sw(r, c)}.{5 + k}"}
        for r in range(rows) for c in range(cols) for k in range(hosts_per_switch)
    ]
    transit = {
        "tdd_pattern": "DDDSU",
        "numerology": 1,
        "grant_delay_slots": 0,
        "attach": f"{sw(0, 0)}.{5 + hosts_per_switch}",
        "ues": [
            {"id": f"UE{i}", "tbs_ul_B": tbs_ul_B, "tbs_dl_B": tbs_dl_B}
            for i in range(ue_count)
        ],
    }
    return {"switches": switches, "links": links, "hosts": hosts, "transit5g": transit}


def admit_grid_topology_doc() -> dict:
    return grid_topology_doc(
        GRID_ROWS, GRID_COLS, link_rate_Bps=GRID_LINK_RATE_Bps,
        buffer_B=GRID_BUFFER_B, hosts_per_switch=2, ue_count=GRID_UES,
    )


def _unit_rng(workload: str, seed: int, unit: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{unit}")


def _endpoints(rng: random.Random, hosts: list[str], ues: list[str], ue_flow: bool):
    if not ue_flow:
        return tuple(rng.sample(hosts, 2))
    ue, host = rng.choice(ues), rng.choice(hosts)
    return (ue, host) if rng.random() < 0.5 else (host, ue)


def admit_grid_episode(seed: int, episode: int, hosts: list[str], ues: list[str]) -> dict:
    """Requests and removal picks of one admission episode.

    Deadlines are stratified over [DEADLINE_MIN_US, DEADLINE_MAX_US] (one
    uniform draw per stratum, shuffled) and exactly UE_SHARE of the
    requests have a UE endpoint; both keep the mix of tight and loose,
    fabric-only and 5G requests the same from episode to episode.  A
    removal pick indexes the live flows at the time of the removal.
    """
    rng = _unit_rng("admit-grid", seed, episode)
    n = EPISODE_REGISTRATIONS + EPISODE_CHURN
    span = DEADLINE_MAX_US - DEADLINE_MIN_US
    deadlines = [DEADLINE_MIN_US + int(span * (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(deadlines)
    ue_flows = set(rng.sample(range(n), round(UE_SHARE * n)))
    requests = []
    for i in range(n):
        src, dst = _endpoints(rng, hosts, ues, i in ue_flows)
        requests.append({
            "flow_id": f"e{episode}f{i}",
            "src": src,
            "dst": dst,
            "rate_Bps": FLOW_RATE_Bps,
            "burst_B": FLOW_PKT_B,
            "max_pkt_B": FLOW_PKT_B,
            "deadline_us": deadlines[i],
        })
    picks = [rng.randrange(1 << 30) for _ in range(EPISODE_CHURN)]
    return {"requests": requests, "remove_picks": picks}


def _periodic_flow(request: dict, period_us: int) -> dict:
    """Scenario flow entry: the request plus a periodic source of max-size packets."""
    return {
        **request,
        "critical": False,
        "source": {"mode": "periodic", "period_us": period_us, "pkt_B": request["max_pkt_B"]},
    }


def admit_grid_sim_doc(seed: int, episode: int, topology: dict) -> dict:
    """Side simulation of the grid: GRID_SIM_FLOWS periodic 10 kB/s flows."""
    rng = _unit_rng("admit-grid-sim", seed, episode)
    hosts = [h["id"] for h in topology["hosts"]]
    ues = [u["id"] for u in topology["transit5g"]["ues"]]
    ue_flows = set(rng.sample(range(GRID_SIM_FLOWS), round(UE_SHARE * GRID_SIM_FLOWS)))
    period_us = FLOW_PKT_B * 1_000_000 // FLOW_RATE_Bps
    flows = []
    pairs = set()
    for i in range(GRID_SIM_FLOWS):
        # the NW-TT matches on (src, dst) only, so a scenario needs distinct pairs
        src, dst = _endpoints(rng, hosts, ues, i in ue_flows)
        while (src, dst) in pairs:
            src, dst = _endpoints(rng, hosts, ues, i in ue_flows)
        pairs.add((src, dst))
        flows.append(_periodic_flow({
            "flow_id": f"g{i}", "src": src, "dst": dst, "rate_Bps": FLOW_RATE_Bps,
            "burst_B": FLOW_PKT_B, "max_pkt_B": FLOW_PKT_B,
            "deadline_us": GRID_SIM_DEADLINE_US,
        }, period_us))
    return {
        "schema_version": 1,
        "topology": topology,
        "classes": {"count": 8, "best_effort_class": 0},
        "flows": flows,
        "sim": {"duration_ms": GRID_SIM_DURATION_MS, "seed": seed, "sources": []},
    }


def canonical_doc(root: Path) -> dict:
    """The bundled canonical scenario with its simulated duration stretched."""
    doc = json.loads((root / "scenarios" / "canonical.json").read_text())
    doc["sim"]["duration_ms"] = CANONICAL_DURATION_MS
    return doc


# sim-dense-ue endpoints are drawn per switch from fixed multisets, so every
# seed loads the fabric with the same mix of path lengths
DENSE_UE_SWITCHES = ("S00", "S01", "S02", "S10", "S11", "S12", "S02", "S12")
DENSE_NEAR_PAIRS = (("S00", "S01"), ("S01", "S02"), ("S10", "S11"), ("S11", "S12"),
                    ("S00", "S10"), ("S01", "S11"), ("S02", "S12"))
DENSE_FAR_PAIRS = (("S00", "S02"), ("S10", "S12"), ("S00", "S11"), ("S01", "S10"),
                   ("S01", "S12"), ("S02", "S11"), ("S00", "S12"), ("S02", "S10"))


def dense_ue_doc(seed: int, variant: int = 0) -> dict:
    """2x3 grid (15 trees, 12 hosts) with 8 UEs at the corner switch S00.

    Each UE has one uplink flow (200 B every 2 ms; half of the UEs, picked
    by the seed, are de-jittered through a per-flow NW-TT regulator with
    hold 3 ms and period 1 ms) and one downlink flow from a host.  Twelve
    host-to-host flows send greedy token-bucket traffic: one per switch
    pair at distance 2 or 3, and four of the seven neighbour pairs.  One
    on/off best-effort source crosses the fabric corner to corner.  Variant
    0 is the simulated scenario; the side admission draws further variants,
    which share the fabric and differ in flows.
    """
    rng = _unit_rng("sim-dense-ue", seed, variant)
    topology = grid_topology_doc(
        2, 3, link_rate_Bps=12_500_000, buffer_B=65_536,
        hosts_per_switch=2, ue_count=8,
    )
    ues = [u["id"] for u in topology["transit5g"]["ues"]]

    def host(switch: str) -> str:
        return f"H{switch[1:]}{rng.randrange(2)}"

    def host_pair(pair: tuple[str, str]) -> tuple[str, str]:
        src, dst = pair if rng.random() < 0.5 else pair[::-1]
        return host(src), host(dst)

    dejittered = set(rng.sample(ues, len(ues) // 2))
    ul_switches = rng.sample(DENSE_UE_SWITCHES, len(ues))
    dl_switches = rng.sample(DENSE_UE_SWITCHES, len(ues))
    ue_spec = {"rate_Bps": 100_000, "burst_B": 200, "max_pkt_B": 200, "deadline_us": 40_000}
    flows = []
    for ue, ul_switch, dl_switch in zip(ues, ul_switches, dl_switches):
        flows.append(_periodic_flow({
            "flow_id": f"{ue}-ul", "src": ue, "dst": host(ul_switch), **ue_spec,
            "dejitter": ue in dejittered,
        }, 2_000))
        flows.append(_periodic_flow({
            "flow_id": f"{ue}-dl", "src": host(dl_switch), "dst": ue, **ue_spec,
        }, 2_000))
    host_pairs = list(DENSE_FAR_PAIRS[:6]) + rng.sample(DENSE_NEAR_PAIRS, 4)
    host_pairs += list(DENSE_FAR_PAIRS[6:])
    rng.shuffle(host_pairs)
    for i, pair in enumerate(host_pairs):
        src, dst = host_pair(pair)
        flows.append({
            "flow_id": f"h{i}", "src": src, "dst": dst, "rate_Bps": 50_000,
            "burst_B": 1_500, "max_pkt_B": 500, "deadline_us": 20_000,
            "critical": False,
            "source": {"mode": "greedy_token_bucket", "pkt_B": 500,
                       "burst_B": 1_500, "rate_Bps": 50_000},
        })
    bg_src, bg_dst = host_pair(rng.choice(DENSE_FAR_PAIRS[6:]))
    return {
        "schema_version": 1,
        "topology": topology,
        "classes": {"count": 8, "best_effort_class": 0},
        "flows": flows,
        "nwtt": {"dejitter": {"hold_us": 3_000, "release_period_us": 1_000,
                              "queue_cap_pkts": 64, "per_class": False}},
        "sim": {
            "duration_ms": DENSE_DURATION_MS,
            "seed": seed,
            "sources": [{
                "flow_id": "bg", "src": bg_src, "dst": bg_dst,
                "mode": "onoff_background", "pkt_B": 1_500, "rate_Bps": 2_000_000,
                "on_ms": 20, "off_ms": 80,
            }],
        },
    }


# --------------------------------------------------------------------- measurement


# Pace: on a shared virtual machine the same work can take twice as long from
# one minute to the next, in CPU time too, because other tenants share the
# physical cores and their caches.  A fixed reference computation, the probe,
# runs before a timed call when PROBE_EVERY_S of CPU time have passed since
# the last one, and after a call that took that long.  The call's time is
# scaled by PROBE_NOMINAL_S / the mean time of the probes just before and
# just after it.
PROBE_EVERY_S = 0.01
PROBE_NOMINAL_S = 250e-6
PROBE_ROUNDS = 1_500


def probe() -> int:
    """The reference computation: dictionary updates in a plain loop."""
    table: dict[int, int] = {}
    for i in range(PROBE_ROUNDS):
        key = (i * 7919) % 251
        table[key] = table.get(key, 0) + i
    return len(table)


@dataclass
class Measurements:
    """What a run observed; turned into metrics by the caller.

    Times are CPU seconds of this process, kept per kind of call ("setup",
    "register", "remove", "sim"), paced in `times` and unscaled in `raw`.
    `probes` holds the probe times.
    """

    times: defaultdict = field(default_factory=lambda: defaultdict(list))
    raw: defaultdict = field(default_factory=lambda: defaultdict(list))
    probes: list[float] = field(default_factory=list)
    probed_at: float = 0.0
    accepted: int = 0
    rejected: int = 0
    packets_sent: int = 0
    packets_delivered: int = 0
    packets_dropped: int = 0
    regulator_drops: int = 0
    bound_violations: int = 0
    bound_checks: int = 0
    trace_bytes: int = 0
    units: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    requested_pairs: set = field(default_factory=set)

    def timed(self, kind: str, fn, *args):
        """Call fn(*args) and record its time under `kind`; probe before it if due."""
        if not self.probes or time.process_time() - self.probed_at >= PROBE_EVERY_S:
            self._probe()
        before = self.probes[-1]
        t0 = time.process_time()
        result = fn(*args)
        elapsed = time.process_time() - t0
        if elapsed >= PROBE_EVERY_S:
            self._probe()
        self.raw[kind].append(elapsed)
        self.times[kind].append(elapsed * PROBE_NOMINAL_S * 2 / (before + self.probes[-1]))
        return result

    def _probe(self) -> None:
        t0 = time.process_time()
        probe()
        self.probed_at = time.process_time()
        self.probes.append(self.probed_at - t0)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def decision_record(decision: dict) -> list:
    """(flow_id, accepted, reason, vlan, pcp, e2e_bound_us, reconfigured) of a
    wire response or of a decision that `sim.run` returns."""
    return [
        decision["flow_id"],
        decision["accepted"],
        decision.get("reason"),
        decision.get("vlan_id"),
        decision.get("pcp"),
        decision.get("e2e_bound_us"),
        list(decision["reconfigured"]),
    ]


def run_admission(state, ops, m: Measurements) -> list:
    """Drive one admission unit on a fresh registry; return its decision log.

    An op is ("register", request), ("remove", pick) which removes the
    live flow at index pick modulo the live count, or ("remove", None)
    which removes every live flow, oldest first.
    """
    log = []
    live: list[str] = []
    for op, arg in ops:
        if op == "remove":
            victims = [live.pop(arg % len(live))] if arg is not None else live
            for victim in victims:
                m.timed("remove", state.remove_flow, victim)
            if arg is None:
                live = []
            continue
        response = m.timed("register", state.handle_flow_request, arg)
        log.append(decision_record(response))
        m.requested_pairs.add((arg["src"], arg["dst"]))
        if not response["accepted"]:
            m.rejected += 1
            continue
        live.append(arg["flow_id"])
        m.accepted += 1
        if response["e2e_bound_us"] > arg["deadline_us"]:
            m.errors.append(f"{arg['flow_id']}: accepted bound {response['e2e_bound_us']} us "
                            f"> deadline {arg['deadline_us']} us")
    return log


def run_simulation(scn, run_seed: int, out_dir: Path, m: Measurements, keep: bool) -> None:
    """`detnet5g run`: simulate, write the trace and the report, check them."""
    trace_path = out_dir / "trace.csv"
    report_path = out_dir / "report.json"

    def run_and_write():
        result = sim.run(scn, seed=run_seed)
        sim.write_trace(trace_path, result.trace_rows)
        sim.write_report(report_path, result.report)
        return result

    result = m.timed("sim", run_and_write)
    report = result.report
    flows = report["flows"].values()
    sent = sum(f["sent"] for f in flows)
    m.packets_sent += sent
    m.packets_delivered += sum(f["received"] for f in flows)
    m.packets_dropped += sum(f["dropped"] for f in flows)
    m.regulator_drops += sum(f["drops"].get("regulator", 0) for f in flows)
    m.bound_violations += report["violations"]["total"]
    # checked items: delivered packets of admitted flows (end-to-end, per-hop
    # and 5G transit bounds) and (port, class) pairs with a backlog bound
    m.bound_checks += sum(f["received"] for f in flows if f["admitted"])
    m.bound_checks += sum(entry["bound_B"] is not None
                          for per_class in report["ports"].values()
                          for entry in per_class.values())
    m.trace_bytes += trace_path.stat().st_size
    with open(trace_path, newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != sent:
        m.errors.append(f"trace has {rows} rows but {sent} packets were sent")
    deadlines = {entry.spec.flow_id: entry.spec.deadline_us for entry in scn.flows}
    for d in result.decisions:
        if d["accepted"] and d["e2e_bound_us"] > deadlines[d["flow_id"]]:
            m.errors.append(f"{d['flow_id']}: accepted bound {d['e2e_bound_us']} us "
                            f"> deadline {deadlines[d['flow_id']]} us")
    if keep:
        m.digests.update(
            trace_sha256=_sha256(trace_path.read_bytes()),
            report_sha256=_sha256(report_path.read_bytes()),
            run_decisions_sha256=_sha256(
                json.dumps([decision_record(d) for d in result.decisions]).encode()
            ),
            bound_violations=report["violations"]["total"],
        )


def _repeat_setup(fn, m: Measurements, repeats: int):
    """Call fn as set-up `repeats` times; return its last value."""
    for _ in range(repeats):
        value = m.timed("setup", fn)
    return value


def _checked(generate, *args):
    """Generate an input twice; differing copies mean the generator is not seeded."""
    first = generate(*args)
    if generate(*args) != first:
        raise RuntimeError(f"{generate.__name__}{args} is not deterministic")
    return first


def _digest_log(m: Measurements, log: list) -> None:
    m.digests["decisions_sha256"] = _sha256(json.dumps(log).encode())


# --------------------------------------------------------------------- workloads


def units_for(name: str, seconds: float) -> int:
    """Units that take about `seconds` on the reference host; at least one."""
    return max(1, round(seconds / UNIT_WALL_S[name]))


class Workload:
    """One workload: set-up, then a fixed number of units."""

    def __init__(self, name: str, root: Path, seed: int, work_dir: Path):
        self.name = name
        self.root = root
        self.seed = seed
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)

    def setup(self, m: Measurements) -> None:
        raise NotImplementedError

    def unit(self, k: int, m: Measurements) -> None:
        raise NotImplementedError

    def drive(self, m: Measurements, units: int) -> None:
        """Run units 0 .. units-1."""
        for k in range(units):
            self.unit(k, m)
            m.units = k + 1

    def distinct_paths_median(self, m: Measurements) -> float:
        """Median over the requested pairs of distinct tree paths between them."""
        counts = [
            len({tuple(topology.path_in_tree(self.topo, tree, src, dst)) for tree in self.trees})
            for src, dst in sorted(m.requested_pairs)
        ]
        return statistics.median(counts)


class AdmitGrid(Workload):
    def setup(self, m: Measurements) -> None:
        self.topology_doc = admit_grid_topology_doc()
        self.topo = scenario.load_topology(self.topology_doc)
        state = _repeat_setup(lambda: admission.NetworkState(self.topo.copy()), m,
                              GRID_SETUP_REPEATS)
        self.trees = state.trees
        self.hosts = sorted(self.topo.hosts)
        self.ues = sorted(self.topo.transit.ues)

    def ops(self, k: int) -> list:
        episode = _checked(admit_grid_episode, self.seed, k, self.hosts, self.ues)
        reqs = episode["requests"]
        ops = [("register", r) for r in reqs[:EPISODE_REGISTRATIONS]]
        for pick, req in zip(episode["remove_picks"], reqs[EPISODE_REGISTRATIONS:]):
            ops += [("remove", pick), ("register", req)]
        return ops

    def unit(self, k: int, m: Measurements) -> None:
        state = admission.NetworkState(self.topo.copy(), trees=self.trees)
        log = run_admission(state, self.ops(k), m)
        if k == 0:
            _digest_log(m, log)
        doc = _checked(admit_grid_sim_doc, self.seed, k, self.topology_doc)
        scn = scenario.load_scenario(doc, name=f"{self.name}-{k}")
        run_simulation(scn, self.seed * 1000 + k, self.work_dir, m, keep=(k == 0))


class SimWorkload(Workload):
    """A scenario file simulated repeatedly, one run seed per unit."""

    def scenario_doc(self) -> dict:
        raise NotImplementedError

    def setup(self, m: Measurements) -> None:
        self.doc = _checked(self.scenario_doc)
        path = self.work_dir / f"{self.name}.json"
        path.write_text(json.dumps(self.doc, indent=2))
        self.scn = _repeat_setup(lambda: scenario.load_scenario_file(path), m,
                                 SCENARIO_SETUP_REPEATS)

    def side_flow_sets(self, k: int) -> list[list[dict]]:
        """Flow lists the side admission of unit k registers, one registry each."""
        raise NotImplementedError

    def new_state(self):
        scn = self.scn
        state = admission.NetworkState(
            scn.topology.copy(),
            class_count=scn.class_count,
            best_effort_class=scn.best_effort_class,
            default_regulator=scn.dejitter,
        )
        self.topo, self.trees = state.topology, state.trees
        return state

    def unit(self, k: int, m: Measurements) -> None:
        run_simulation(self.scn, self.seed * 1000 + k, self.work_dir, m, keep=(k == 0))
        log = []
        for flows in self.side_flow_sets(k):
            ops = [("register", _request(fl)) for fl in flows] + [("remove", None)]
            log += run_admission(self.new_state(), ops, m)
        if k == 0:
            _digest_log(m, log)


def _request(flow: dict) -> dict:
    """The `detnet5g admit` request for a scenario flow entry."""
    keys = ("flow_id", "src", "dst", "rate_Bps", "burst_B", "max_pkt_B", "deadline_us")
    return {key: flow[key] for key in keys} | {"dejitter": flow.get("dejitter", False)}


class SimCanonical(SimWorkload):
    def scenario_doc(self) -> dict:
        return canonical_doc(self.root)

    def side_flow_sets(self, k: int) -> list[list[dict]]:
        flows = self.doc["flows"]
        return [flows] * math.ceil(SIDE_ADMISSION_REGISTRATIONS / len(flows))


class SimDenseUe(SimWorkload):
    def scenario_doc(self) -> dict:
        return dense_ue_doc(self.seed)

    def side_flow_sets(self, k: int) -> list[list[dict]]:
        first = 1 + k * DENSE_SIDE_VARIANTS
        return [_checked(dense_ue_doc, self.seed, v)["flows"]
                for v in range(first, first + DENSE_SIDE_VARIANTS)]


def make_workload(name: str, root: Path, seed: int, work_dir: Path) -> Workload:
    cls = {"admit-grid": AdmitGrid, "sim-canonical": SimCanonical,
           "sim-dense-ue": SimDenseUe}[name]
    return cls(name, root, seed, work_dir)


def new_work_dir(root: Path) -> Path:
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=base))
