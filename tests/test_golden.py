"""Golden outputs: sha256 digests of canonical traces, reports and decisions.

Refactors of the bound math or of the simulator must leave these bytes
unchanged; comparing two runs of the same code (acceptance criterion 8)
cannot show that.  The digests cover the canonical scenario at seed 1 with
the regulator off and on, a variant whose flows cross the 5G segment
uplink-to-downlink (UE1 -> UE2) and downlink only (G -> UE2), and the
`detnet5g admit --json` output for the bundled topology and flow files.

A change whose purpose is to change a bound updates these digests and
records the old and new values, with the bounds that moved, in CHANGES.md.
So does a change that adds or removes a report field: it updates the report
digests, records old and new values, and checks that each new report equals
the old one with only that field changed.
On a mismatch the assertion message lists every current digest.
"""

import hashlib
from pathlib import Path

from detnet5g.cli import main
from detnet5g.scenario import load_scenario
from detnet5g.sim import run, write_report, write_trace
from conftest import canonical_scenario

REPO = Path(__file__).resolve().parents[1]

GOLDEN = {
    "canonical-off.trace":
        "25ff53f96826fb562453a92c6d9e562aea32743a0176b95ce68baafe7d62f15f",
    "canonical-off.report":
        "70fd0c36b7e3b8ba5f6e108347550b62694d2be7ac04102f9332990dff3c30ef",
    "canonical-on.trace":
        "97ec2f7714e6b89f975bb83d070b2b03d388c9662cd0e4054f9ac077411b419f",
    "canonical-on.report":
        "f0aef488370f27eb7e9f78a5b2985aca51bc8ae21b5eb6df0ef9adf61ab10cff",
    "ue-transit.trace":
        "c5c91eda7c177bb162ab6a7fd61f21d6eb002a8fab15f5a5a5732796bdeb9c69",
    "ue-transit.report":
        "5fcd88c65f2eb89ed2389e8c68d00452bdcd1cd68e3c0c5f9d7e132e123d56b9",
    "admit.json":
        "0c720818ba1378d905761727092cb7d9418a32494d288a1f3dcbfd8a1ce76f89",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def ue_transit_doc() -> dict:
    """Canonical fabric with one UE1 -> UE2 and one G -> UE2 flow, no background."""
    doc = canonical_scenario()
    doc["sim"]["sources"] = []
    doc["flows"] = [
        {"flow_id": "loop", "src": "UE1", "dst": "UE2", "rate_Bps": 12_500,
         "burst_B": 1_500, "max_pkt_B": 1_500, "deadline_us": 200_000,
         "critical": True,
         "source": {"mode": "periodic", "period_us": 120_000, "pkt_B": 1_500}},
        {"flow_id": "down", "src": "G", "dst": "UE2", "rate_Bps": 12_500,
         "burst_B": 1_500, "max_pkt_B": 1_500, "deadline_us": 200_000,
         "critical": True,
         "source": {"mode": "periodic", "period_us": 120_000, "pkt_B": 1_500}},
    ]
    return doc


def run_digests(name: str, doc: dict, dejitter: str, tmp_path: Path) -> dict:
    result = run(load_scenario(doc), seed=1, dejitter=dejitter)
    trace, report = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
    write_trace(trace, result.trace_rows)
    write_report(report, result.report)
    return {
        f"{name}.trace": sha256(trace.read_bytes()),
        f"{name}.report": sha256(report.read_bytes()),
    }


def test_canonical_outputs_are_byte_identical(tmp_path, capsys):
    digests = {}
    digests.update(run_digests("canonical-off", canonical_scenario(), "off", tmp_path))
    digests.update(run_digests("canonical-on", canonical_scenario(), "on", tmp_path))
    digests.update(run_digests("ue-transit", ue_transit_doc(), "scenario", tmp_path))
    capsys.readouterr()
    scenarios = REPO / "scenarios"
    assert main(["admit", str(scenarios / "canonical_topology.json"),
                 str(scenarios / "canonical_flows.json"), "--json"]) == 0
    digests["admit.json"] = sha256(capsys.readouterr().out.encode())
    assert digests == GOLDEN, "current digests:\n" + "\n".join(
        f"    {k!r}: {v!r}," for k, v in digests.items())
