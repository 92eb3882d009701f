import re

import pytest

from detnet5g.admission import DEFAULT_MAX_PKT_B
from detnet5g.errors import ScenarioInvalid
from detnet5g.scenario import SOURCE_MODES, load_scenario, load_scenario_file, load_topology
from conftest import canonical_scenario, canonical_topology


def test_canonical_scenario_parses():
    scn = load_scenario(canonical_scenario())
    assert {e.spec.flow_id for e in scn.flows} == {"orange"}
    assert {s.flow_id for s in scn.extra_sources} == {"green", "bg"}
    assert scn.dejitter.hold_us == 5_000
    assert scn.duration_ms == 4_000


def test_bundled_files_carry_one_topology():
    # `run` reads the scenario file and `admit` the topology file
    topo = canonical_topology()
    del topo["schema_version"]
    assert canonical_scenario()["topology"] == topo


def test_canonical_topology_block():
    topo = load_topology(canonical_topology())
    assert set(topo.switches) == {"S1", "S2", "S3"}
    assert set(topo.hosts) == {"D", "G"}
    assert set(topo.transit.ues) == {"UE1", "UE2"}
    assert str(topo.transit.attach) == "S1.3"


def test_missing_field_names_path():
    doc = canonical_scenario()
    del doc["flows"][0]["rate_Bps"]
    with pytest.raises(ScenarioInvalid, match=r"flows\[0\].rate_Bps"):
        load_scenario(doc)


def test_unknown_node_reference():
    doc = canonical_scenario()
    doc["flows"][0]["dst"] = "Mars"
    with pytest.raises(ScenarioInvalid, match=r"flows\[0\].dst"):
        load_scenario(doc)


def test_unknown_switch_in_link():
    doc = canonical_topology()
    doc["links"].append(["S9.1", "S1.4"])
    with pytest.raises(ScenarioInvalid, match="S9"):
        load_topology(doc)


def test_self_link_rejected_by_port_claim():
    # `make_link` takes the loader's word that a link's two ends differ
    doc = canonical_topology()
    doc["links"].append(["S1.4", "S1.4"])
    with pytest.raises(ScenarioInvalid,
                       match=r"^topology\.links\[3\]: port S1\.4 already used by topology\.links\[3\]$"):
        load_topology(doc)


def test_link_between_two_ports_of_one_switch_rejected():
    # no VLAN tree could ever use it: a tree's edges join two switches
    doc = canonical_topology()
    doc["links"].append(["S1.4", "S1.5"])
    with pytest.raises(ScenarioInvalid,
                       match=r"^topology\.links\[3\]: links two ports of switch 'S1'$"):
        load_topology(doc)


def test_port_reuse_rejected():
    doc = canonical_topology()
    doc["links"].append(["S1.1", "S3.4"])  # S1.1 already linked to S2.1
    with pytest.raises(ScenarioInvalid, match="already used"):
        load_topology(doc)
    doc = canonical_topology()
    doc["hosts"].append({"id": "H9", "attach": "S1.3"})  # transit port
    with pytest.raises(ScenarioInvalid, match="already used"):
        load_topology(doc)


def test_bad_schema_version():
    doc = canonical_scenario()
    doc["schema_version"] = 99
    with pytest.raises(ScenarioInvalid, match="^schema_version: unsupported version 99$"):
        load_scenario(doc)
    doc = canonical_scenario()
    doc["topology"]["schema_version"] = 2
    with pytest.raises(ScenarioInvalid, match=r"^topology\.schema_version: unsupported version 2$"):
        load_scenario(doc)
    doc = canonical_topology()
    doc["schema_version"] = 99
    with pytest.raises(ScenarioInvalid, match=r"^topology\.schema_version: unsupported version 99$"):
        load_topology(doc)
    # JSON `true` and `1.0` compare equal to 1 in Python, but are not version 1
    for version in (True, 1.0):
        text = f"unsupported version {version!r}$"
        doc = canonical_scenario()
        doc["schema_version"] = version
        with pytest.raises(ScenarioInvalid, match="^schema_version: " + text):
            load_scenario(doc)
        doc = canonical_scenario()
        doc["topology"]["schema_version"] = version
        with pytest.raises(ScenarioInvalid, match=r"^topology\.schema_version: " + text):
            load_scenario(doc)
        doc = canonical_topology()
        doc["schema_version"] = version
        with pytest.raises(ScenarioInvalid, match=r"^topology\.schema_version: " + text):
            load_topology(doc)


def test_duplicate_flow_ids_rejected():
    doc = canonical_scenario()
    doc["sim"]["sources"].append(dict(doc["sim"]["sources"][0]))
    with pytest.raises(ScenarioInvalid, match="duplicate"):
        load_scenario(doc)


def test_nwtt_match_collision_names_earlier_flow():
    doc = canonical_scenario()
    twin = dict(doc["flows"][0], flow_id="orange2")
    doc["flows"].append(twin)
    with pytest.raises(ScenarioInvalid, match=r"flows\[1\]\.dst: .*'orange'"):
        load_scenario(doc)


@pytest.mark.parametrize("dst, collides", [("D", True), ("G", False)])
def test_sim_source_on_flow_nwtt_match_rejected(dst, collides):
    # the NW-TT would tag an unregistered source on orange's match as orange
    doc = canonical_scenario()
    doc["sim"]["sources"].append({"flow_id": "extra", "src": "UE1", "dst": dst,
                                  "mode": "periodic", "period_us": 2_000, "pkt_B": 100})
    if collides:
        with pytest.raises(ScenarioInvalid, match=r"^sim\.sources\[2\]\.dst: NW-TT match "
                                                  r"\(UE1, D\) already used by flow 'orange'$"):
            load_scenario(doc)
    else:
        assert load_scenario(doc).extra_sources[2].dst == "G"


def test_nwtt_match_only_binds_ue_sources():
    doc = canonical_scenario()
    host_flow = dict(doc["flows"][0], src="G", burst_B=1_500, max_pkt_B=1_500,
                     source={"mode": "periodic", "period_us": 2_000, "pkt_B": 1_500})
    doc["flows"] += [dict(host_flow, flow_id="h1"), dict(host_flow, flow_id="h2"),
                     dict(doc["flows"][0], flow_id="orange2", src="UE2")]
    assert [e.spec.flow_id for e in load_scenario(doc).flows] == [
        "orange", "h1", "h2", "orange2"]


def test_ue_traffic_requires_transit():
    doc = canonical_scenario()
    del doc["topology"]["transit5g"]
    with pytest.raises(ScenarioInvalid, match=r"^flows\[0\]\.src: 'UE1' is not a host or a UE$"):
        load_scenario(doc)


@pytest.mark.parametrize("where, src, dst, message", [
    (("sim", "sources", 0), "G", "G", "sim.sources[0].dst: must differ from src"),
    (("sim", "sources", 0), "UE2", "UE2", "sim.sources[0].dst: must differ from src"),
    (("sim", "sources", 0), "G", "S2", "sim.sources[0].dst: 'S2' is not a host or a UE"),
    (("sim", "sources", 0), "G", "S1", "sim.sources[0].dst: 'S1' is not a host or a UE"),
    (("sim", "sources", 1), "S3", "G", "sim.sources[1].src: 'S3' is not a host or a UE"),
    (("flows", 0), "UE1", "UE1", "flows[0].dst: must differ from src"),
], ids=["host-loop", "ue-loop", "to-switch", "to-attach-switch", "from-switch", "flow-loop"])
def test_endpoints_are_two_hosts_or_ues(where, src, dst, message):
    # a loop or a switch endpoint used to crash the simulator, deliver to a
    # switch, or (a non-critical flow) be rejected and vanish from the run
    doc = canonical_scenario()
    doc["flows"][0]["critical"] = False
    entry = doc
    for key in where:
        entry = entry[key]
    entry.update(src=src, dst=dst)
    with pytest.raises(ScenarioInvalid, match=rf"^{re.escape(message)}$"):
        load_scenario(doc)


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc["flows"][0].update(src="G"), "needs a UE source"),
    (lambda doc: doc.pop("nwtt"), "needs an nwtt.dejitter block"),
], ids=["host-source", "no-regulator"])
def test_dejitter_needs_ue_source_and_regulator(mutate, message):
    # admission would reject the flow, and a non-critical one would vanish from the run
    doc = canonical_scenario()
    doc["flows"][0].update(critical=False, dejitter=True)
    assert load_scenario(doc).flows[0].spec.dejitter
    mutate(doc)
    with pytest.raises(ScenarioInvalid, match=rf"^flows\[0\]\.dejitter: {message}$"):
        load_scenario(doc)


def test_bad_source_mode():
    doc = canonical_scenario()
    doc["flows"][0]["source"]["mode"] = "warp"
    with pytest.raises(ScenarioInvalid, match="mode"):
        load_scenario(doc)


def test_json_parse_error_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\n  \"schema_version\": 1,\n")
    with pytest.raises(ScenarioInvalid, match="line"):
        load_scenario_file(path)


BOOL, INT, DICT, LIST = "must be bool", "must be an integer", "must be dict", "must be list"


@pytest.mark.parametrize("where, value, message", [
    (("flows", 0, "critical"), "false", BOOL),
    (("flows", 0, "dejitter"), "no", BOOL),
    (("flows", 0, "dejitter"), 0, BOOL),
    (("nwtt", "dejitter", "per_class"), "false", BOOL),
    (("topology", "transit5g", "s_slot_usable_ul"), 1, BOOL),
    (("topology", "transit5g", "s_slot_usable_dl"), "true", BOOL),
    # an explicit null is a wrong type too, never the optional field's default
    (("flows", 0, "critical"), None, BOOL),
    (("flows", 0, "dejitter"), None, BOOL),
    (("nwtt", "dejitter", "per_class"), None, BOOL),
    (("topology", "transit5g", "s_slot_usable_ul"), None, BOOL),
    (("topology", "transit5g", "s_slot_usable_dl"), None, BOOL),
    (("topology", "transit5g", "numerology"), None, INT),
    (("topology", "transit5g", "grant_delay_slots"), None, INT),
    (("topology", "switches", 0, "class_count"), None, INT),
    (("nwtt", "dejitter", "queue_cap_pkts"), None, INT),
    (("classes", "count"), None, INT),
    (("classes", "best_effort_class"), None, INT),
    (("sim", "seed"), None, INT),
    (("nwtt", "dejitter"), None, DICT),
    (("topology", "transit5g"), None, DICT),
    (("topology", "hosts"), None, LIST),
    (("topology", "transit5g", "ues"), None, LIST),
    (("flows",), None, LIST),
    (("sim", "sources"), None, LIST),
], ids=["critical", "dejitter", "dejitter-int", "per-class", "s-slot-ul", "s-slot-dl",
        "critical-null", "dejitter-null", "per-class-null", "s-slot-ul-null", "s-slot-dl-null",
        "numerology-null", "grant-delay-null", "class-count-null", "queue-cap-null",
        "classes-count-null", "best-effort-null", "sim-seed-null", "regulator-null",
        "transit-null", "hosts-null", "ues-null", "flows-null", "sources-null"])
def test_flag_must_be_boolean(where, value, message):
    # a flag, or an optional field whose value has the wrong type
    doc = canonical_scenario()
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path = ".".join(str(k) for k in where).replace(".0.", "[0].")
    with pytest.raises(ScenarioInvalid, match=rf"^{re.escape(path)}: {message}$"):
        load_scenario(doc)


@pytest.mark.parametrize("value, message", [
    ("x", "must be an integer"),
    (1.5, "must be an integer"),
    (True, "must be an integer"),
    (None, "must be an integer"),
    (-700, "must be non-negative"),
], ids=["string", "float", "bool", "null", "negative"])
@pytest.mark.parametrize("where, path", [
    (lambda doc: doc["sim"]["sources"][0], "sim.sources[0].offset_us"),
    (lambda doc: doc["flows"][0]["source"], "flows[0].source.offset_us"),
], ids=["sim-source", "flow-source"])
def test_bad_offset_rejected(where, path, value, message):
    doc = canonical_scenario()
    where(doc)["offset_us"] = value
    with pytest.raises(ScenarioInvalid, match=rf"^{re.escape(path)}: {message}$"):
        load_scenario(doc)


def test_zero_offset_accepted():
    doc = canonical_scenario()
    doc["sim"]["sources"][0]["offset_us"] = 0
    assert load_scenario(doc).extra_sources[0].params["offset_us"] == 0


@pytest.mark.parametrize("value, message", [
    ("3", "must be an integer"),
    (0, "must be positive"),
    (True, "must be an integer"),
    (2.0, "must be an integer"),
], ids=["string", "zero", "bool", "float"])
@pytest.mark.parametrize("where, path", [
    (lambda doc: doc["sim"]["sources"][0], "sim.sources[0].count"),
    (lambda doc: doc["flows"][0]["source"], "flows[0].source.count"),
], ids=["sim-source", "flow-source"])
def test_bad_periodic_count_rejected(where, path, value, message):
    # `count` is optional on a periodic source, but read when present
    doc = canonical_scenario()
    assert where(doc)["mode"] == "periodic"
    where(doc)["count"] = value
    with pytest.raises(ScenarioInvalid, match=rf"^{re.escape(path)}: {message}$"):
        load_scenario(doc)


def test_positive_periodic_count_accepted():
    doc = canonical_scenario()
    doc["sim"]["sources"][0]["count"] = 2
    assert load_scenario(doc).extra_sources[0].params["count"] == 2


def test_flow_source_packet_above_max_pkt_rejected():
    # the blocking term and the per-hop transmission times assume max_pkt_B
    doc = canonical_scenario()
    doc["flows"][0]["source"]["pkt_B"] = 26
    with pytest.raises(ScenarioInvalid,
                       match=r"^flows\[0\]\.source\.pkt_B: must not exceed max_pkt_B \(25\)$"):
        load_scenario(doc)
    doc["flows"][0]["source"]["pkt_B"] = 25
    assert load_scenario(doc).flows[0].source.params["pkt_B"] == 25


@pytest.mark.parametrize("critical", [False, True])
def test_flow_burst_below_max_pkt_rejected(critical):
    # admission would reject the spec, and a non-critical flow's source would vanish
    doc = canonical_scenario()
    doc["flows"][0].update(burst_B=24, critical=critical)
    with pytest.raises(ScenarioInvalid,
                       match=r"^flows\[0\]\.burst_B: must be at least max_pkt_B \(25\)$"):
        load_scenario(doc)
    doc["flows"][0]["burst_B"] = 25
    assert load_scenario(doc).flows[0].spec.burst_B == 25


def test_unregistered_source_packet_above_default_max_rejected():
    # admission budgets DEFAULT_MAX_PKT_B as the largest unannounced blocking frame
    doc = canonical_scenario()
    doc["sim"]["sources"][1]["pkt_B"] = DEFAULT_MAX_PKT_B + 1
    with pytest.raises(ScenarioInvalid,
                       match=rf"^sim\.sources\[1\]\.pkt_B: must be at most {DEFAULT_MAX_PKT_B}$"):
        load_scenario(doc)
    doc["sim"]["sources"][1]["pkt_B"] = DEFAULT_MAX_PKT_B
    assert load_scenario(doc).extra_sources[1].params["pkt_B"] == DEFAULT_MAX_PKT_B


@pytest.mark.parametrize("value, message", [
    (2.7, "must be an integer"),
    (True, "must be an integer"),
    ("5", "must be an integer"),
    (-1, "must be non-negative"),
], ids=["float", "bool", "string", "negative"])
def test_bad_fwd_delay_entry_rejected(value, message):
    doc = canonical_topology()
    doc["switches"][1]["fwd_delay_us"][3] = value
    path = "topology.switches[1].fwd_delay_us[3]"
    with pytest.raises(ScenarioInvalid, match=rf"^{re.escape(path)}: {message}$"):
        load_topology(doc)


@pytest.mark.parametrize("ue_id", ["UE1", "G", "S2"], ids=["ue", "host", "switch"])
def test_ue_id_must_be_a_new_node_id(ue_id):
    # a second UE1 would silently replace the first one's TBS
    doc = canonical_topology()
    doc["transit5g"]["ues"].append({"id": ue_id, "tbs_ul_B": 10, "tbs_dl_B": 10})
    path = "topology.transit5g.ues[2].id"
    with pytest.raises(ScenarioInvalid,
                       match=rf"^{re.escape(path)}: duplicate node id '{ue_id}'$"):
        load_topology(doc)


@pytest.mark.parametrize("mutate, path, message", [
    (lambda doc: doc["topology"]["switches"][0].update(class_count=1, fwd_delay_us=[0]),
     "topology.switches[0].class_count", "must be in 2..8"),
    # a class travels as the 3-bit 802.1Q PCP
    (lambda doc: doc["topology"]["switches"][0].update(class_count=9, fwd_delay_us=[0] * 9),
     "topology.switches[0].class_count", "must be in 2..8"),
    # checked before the default forwarding-delay table is built
    (lambda doc: doc["topology"]["switches"][0].update(class_count=10**20),
     "topology.switches[0].class_count", "must be in 2..8"),
    (lambda doc: doc["topology"]["switches"][0].update(fwd_delay_us=[0] * 3),
     "topology.switches[0].fwd_delay_us", "must have one entry for each of the 8 classes, not 3"),
    # extra entries are an error too, never silently ignored
    (lambda doc: doc["topology"]["switches"][0].update(class_count=4),
     "topology.switches[0].fwd_delay_us", "must have one entry for each of the 4 classes, not 8"),
    (lambda doc: doc["topology"]["transit5g"].update(tdd_pattern="DX"),
     "topology.transit5g.tdd_pattern", "unknown slot kinds ['X']"),
    (lambda doc: doc["topology"]["transit5g"].update(tdd_pattern=""),
     "topology.transit5g.tdd_pattern", "must be non-empty"),
    (lambda doc: doc["topology"]["transit5g"].update(numerology=5),
     "topology.transit5g.numerology", "must be in 0..4"),
    (lambda doc: doc["topology"]["transit5g"].update(grant_delay_slots=-1),
     "topology.transit5g.grant_delay_slots", "must be non-negative"),
    (lambda doc: doc["nwtt"]["dejitter"].update(hold_us=-1),
     "nwtt.dejitter.hold_us", "must be non-negative"),
    (lambda doc: doc["nwtt"]["dejitter"].update(queue_cap_pkts=0),
     "nwtt.dejitter.queue_cap_pkts", "must be positive"),
    (lambda doc: doc["topology"]["links"][0].__setitem__(1, "S2-1"),
     "topology.links[0][1]", "port id must look like 'S1.1', got 'S2-1'"),
    # a port number is ASCII digits: `int` would read these as 1 and fail on them
    (lambda doc: doc["topology"]["links"][0].__setitem__(1, "S2.\u0661"),
     "topology.links[0][1]", "port id must look like 'S1.1', got 'S2.\u0661'"),
    (lambda doc: doc["topology"]["links"][0].__setitem__(1, "S2.\u00b2"),
     "topology.links[0][1]", "port id must look like 'S1.1', got 'S2.\u00b2'"),
    (lambda doc: doc["topology"].update(switches=[]),
     "topology.switches", "at least one switch required"),
    (lambda doc: doc["topology"]["switches"][1].update(id="S1"),
     "topology.switches[1].id", "duplicate switch id 'S1'"),
    (lambda doc: doc["topology"]["links"].append(["S1.4"]),
     "topology.links[3]", "must be a two-element list of port ids"),
    (lambda doc: doc["topology"]["hosts"][0].update(attach="S9.1"),
     "topology.hosts[0].attach", "unknown switch 'S9'"),
    (lambda doc: doc["topology"]["hosts"][1].update(id="D"),
     "topology.hosts[1].id", "duplicate node id 'D'"),
    (lambda doc: doc["topology"]["transit5g"].update(attach="S9.1"),
     "topology.transit5g.attach", "unknown switch 'S9'"),
    # `periodic` with `count` is the one spelling of a periodic burst
    (lambda doc: doc["sim"]["sources"][0].update(mode="burst_periodic", count=2),
     "sim.sources[0].mode",
     "must be one of ('periodic', 'greedy_token_bucket', 'onoff_background')"),
    (lambda doc: doc["classes"].update(count=1),
     "classes.count", "must be in 2..8"),
    (lambda doc: doc["classes"].update(count=9),
     "classes.count", "must be in 2..8"),
    # a queue shared by a class voids the single-flow regulator bound
    (lambda doc: doc["nwtt"]["dejitter"].update(per_class=True),
     "nwtt.dejitter.per_class", "must be false: each de-jittered flow has its own regulator queue"),
    (lambda doc: doc["classes"].update(best_effort_class=1),
     "classes.best_effort_class", "class 0 is the best-effort class"),
], ids=["one-class", "nine-classes", "huge-class-count", "short-fwd-table", "long-fwd-table",
        "slot-kind", "empty-pattern", "numerology", "grant-delay", "hold", "queue-cap",
        "port-id", "port-id-arabic-indic-digit", "port-id-superscript-digit", "no-switches",
        "duplicate-switch", "one-ended-link", "host-on-unknown-switch", "duplicate-host",
        "transit-on-unknown-switch", "burst-periodic-mode", "one-class-count",
        "nine-class-count", "per-class-regulator", "best-effort-class"])
def test_record_check_names_its_block(mutate, path, message):
    # the records check nothing: the loader checks each field at its own path
    doc = canonical_scenario()
    mutate(doc)
    with pytest.raises(ScenarioInvalid, match=rf"^{re.escape(f'{path}: {message}')}$"):
        load_scenario(doc)


@pytest.mark.parametrize("mutate, path", [
    (lambda doc: doc["flows"][0].update(dejiter=True), "flows[0].dejiter"),
    (lambda doc: doc["flows"][0].update(critcal=True), "flows[0].critcal"),
    (lambda doc: doc["flows"][0]["source"].update(ofset_us=5), "flows[0].source.ofset_us"),
    # no source reads `start` or `seed` (a phase is `offset_us`), and only greedy
    # ones read `burst_B`
    (lambda doc: doc["flows"][0]["source"].update(start="off"), "flows[0].source.start"),
    (lambda doc: doc["sim"]["sources"][1].update(start="off"), "sim.sources[1].start"),
    (lambda doc: doc["sim"]["sources"][0].update(seed=1), "sim.sources[0].seed"),
    (lambda doc: doc["flows"][0]["source"].update(seed=1), "flows[0].source.seed"),
    (lambda doc: doc["sim"]["sources"][1].update(burst_B=1500), "sim.sources[1].burst_B"),
    (lambda doc: doc["sim"]["sources"][1].update(count=2), "sim.sources[1].count"),
    (lambda doc: doc["sim"]["sources"][0].update(ofset_us=5), "sim.sources[0].ofset_us"),
    # a misspelled optional key used to keep its default: numerology 1, 8 classes
    (lambda doc: doc["topology"]["transit5g"].update(numerolgy=0),
     "topology.transit5g.numerolgy"),
    (lambda doc: doc["topology"]["switches"][0].update(clas_count=4),
     "topology.switches[0].clas_count"),
    (lambda doc: doc["topology"].update(link=[]), "topology.link"),
    (lambda doc: doc["topology"]["hosts"][1].update(attatch="S2.9"), "topology.hosts[1].attatch"),
    (lambda doc: doc["topology"]["transit5g"]["ues"][1].update(tbs_B=1),
     "topology.transit5g.ues[1].tbs_B"),
    (lambda doc: doc["classes"].update(cout=4), "classes.cout"),
    (lambda doc: doc["nwtt"].update(dejitte={}), "nwtt.dejitte"),
    (lambda doc: doc["nwtt"]["dejitter"].update(hold=1), "nwtt.dejitter.hold"),
    (lambda doc: doc["sim"].update(duration=5), "sim.duration"),
    (lambda doc: doc.update(flow=[]), "flow"),
    # the keys of the retired poll events do nothing, like any other unknown key
    (lambda doc: doc["topology"].update(fixed_poll_interval_s=2),
     "topology.fixed_poll_interval_s"),
    (lambda doc: doc["topology"].update(fiveg_poll_interval_s=1),
     "topology.fiveg_poll_interval_s"),
    (lambda doc: doc["sim"].update(snapshot_schedule=[]), "sim.snapshot_schedule"),
], ids=["dejiter", "critcal", "flow-source-ofset", "periodic-start", "onoff-start",
        "source-seed", "flow-source-seed", "onoff-burst",
        "onoff-count", "sim-source-ofset", "numerolgy", "clas-count", "topology-link",
        "host-attatch", "ue-tbs", "classes-cout", "nwtt-dejitte", "regulator-hold",
        "sim-duration", "scenario-flow", "fixed-poll", "fiveg-poll", "snapshot-schedule"])
def test_unknown_field_rejected(mutate, path):
    doc = canonical_scenario()
    mutate(doc)
    with pytest.raises(ScenarioInvalid, match=rf"^{re.escape(path)}: unknown field$"):
        load_scenario(doc)


def test_every_source_mode_accepts_its_own_fields():
    doc = canonical_scenario()
    doc["sim"]["sources"] = [
        {"flow_id": "p", "src": "D", "dst": "G", "mode": "periodic", "period_us": 1_000,
         "pkt_B": 100, "count": 2, "offset_us": 0},
        {"flow_id": "g", "src": "UE2", "dst": "D", "mode": "greedy_token_bucket",
         "pkt_B": 100, "burst_B": 300, "rate_Bps": 1_000, "offset_us": 0},
        {"flow_id": "o", "src": "D", "dst": "UE2", "mode": "onoff_background", "pkt_B": 100,
         "rate_Bps": 1_000, "on_ms": 1, "off_ms": 1, "offset_us": 0},
    ]
    assert [s.mode for s in load_scenario(doc).extra_sources] == list(SOURCE_MODES)


@pytest.mark.parametrize("where, path", [
    (lambda doc: doc["flows"][0], "flows[0].flow_id"),
    (lambda doc: doc["sim"]["sources"][0], "sim.sources[0].flow_id"),
], ids=["flow", "sim-source"])
def test_empty_flow_id_rejected(where, path):
    # a source wrote a trace that `report` refused; a non-critical flow vanished from the run
    doc = canonical_scenario()
    where(doc)["flow_id"] = ""
    doc["flows"][0]["critical"] = False
    with pytest.raises(ScenarioInvalid, match=rf"^{re.escape(path)}: must be non-empty$"):
        load_scenario(doc)
