"""Command-line front end: trees, admit, run, report.

`report` reads a trace with `sim.read_trace`, which checks each row, and
summarises a flow's send and receive times with `sim.packet_summary`, as
`run`'s report does: the trace format is `sim`'s alone.  Every file the
CLI reads or writes is UTF-8; stdout keeps the locale's encoding, with
what it cannot encode backslash-escaped.

Exit codes are part of the contract: 0 all checks pass, 1 usage or parse
error or stdout closed early, 2 admission rejected a flow marked critical,
3 a simulated packet violated a computed bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .admission import NetworkState, read_endpoints
from .errors import AdmissionMissing, DetnetError, ScenarioInvalid, _expect, _known_keys
from .scenario import (FLOWS_FILE_KEYS, check_ends, load_scenario_file, load_topology_file,
                       read_json)
from .sim import dejitter_summary, packet_summary, read_trace, run, write_report, write_trace
from .topology import BASE_VLAN, enumerate_spanning_trees

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REJECTED = 2
EXIT_VIOLATION = 3


def _out_dir(arg: str | None) -> Path:
    path = Path(arg or os.environ.get("DETNET5G_OUT", "."))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioInvalid(f"cannot create output directory {path}: {exc}") from None
    return path


def cmd_trees(args) -> int:
    topo = load_topology_file(args.topology)
    trees, truncated = enumerate_spanning_trees(topo, cap=args.cap)
    if args.json:
        doc = {
            "schema_version": 1,
            "truncated": truncated,
            "trees": [
                {"vlan_id": t.vlan_id, "tree_index": t.vlan_id - BASE_VLAN,
                 "edges": [[str(a), str(b)] for a, b in t.edges]}
                for t in trees
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for t in trees:
            edges = " ".join(f"{a}-{b}" for a, b in t.edges)
            print(f"vlan {t.vlan_id} tree {t.vlan_id - BASE_VLAN}: {edges}")
        print(f"{len(trees)} spanning tree(s)" + (" [truncated]" if truncated else ""))
    return EXIT_OK


def cmd_admit(args) -> int:
    topo = load_topology_file(args.topology)
    doc = _expect(read_json(args.flows), args.flows, dict)
    try:
        _known_keys(doc, "", FLOWS_FILE_KEYS)
    except ScenarioInvalid as exc:
        raise ScenarioInvalid(f"{args.flows}: {exc}") from None
    flows = _expect(doc.get("flows"), f"{args.flows}: flows", list)
    state = NetworkState(topo)
    if state.trees_truncated:
        print(f"note: VLAN tree enumeration stopped at its cap of {len(state.trees)} trees; "
              "placements use only those", file=sys.stderr)
    requests, responses = [], []
    seen: set[str] = set()
    for i, item in enumerate(flows):
        where = f"{args.flows}: flows[{i}]"
        _expect(item, where, dict)
        critical = _expect(item.get("critical", False), f"{where}.critical", bool)
        request = {k: v for k, v in item.items() if k != "critical"}
        # a repeated id or an unknown end is a fault of the file, not a reject
        check_ends(topo, seen, *read_endpoints(request, where), where)
        response = state.handle_flow_request(request, where)
        response["critical"] = critical
        requests.append(request)
        responses.append(response)
    # printed once every entry has passed its checks, so a bad entry prints nothing
    if args.json:
        print(json.dumps({"schema_version": 1, "decisions": responses},
                         indent=2, sort_keys=True))
    else:
        for request, response in zip(requests, responses):
            print(f"request {request['flow_id']}: {request['src']} -> {request['dst']} "
                  f"rate={request['rate_Bps']}B/s burst={request['burst_B']}B "
                  f"deadline={request['deadline_us']}us")
            if response["accepted"]:
                extra = ""
                if response["reconfigured"]:
                    extra = f" reconfigured={','.join(response['reconfigured'])}"
                print(f"  ACCEPTED vlan={response['vlan_id']} pcp={response['pcp']} "
                      f"e2e_bound_us={response['e2e_bound_us']}{extra}")
            else:
                print(f"  REJECTED {response['reason']}: {response.get('detail', '')}")
    critical_rejected = any(r["critical"] and not r["accepted"] for r in responses)
    return EXIT_REJECTED if critical_rejected else EXIT_OK


def _write(write, path: Path, data) -> None:
    """`write(path, data)`; a file that cannot be written raises ScenarioInvalid."""
    try:
        write(path, data)
    except OSError as exc:
        raise ScenarioInvalid(f"cannot write {path}: {exc}") from None


def _write_run(result, out: Path, scenario_name: str) -> tuple[Path, Path]:
    stem = f"{scenario_name}_{result.report['dejitter']}_seed{result.report['seed']}"
    trace_path = out / f"{stem}_trace.csv"
    report_path = out / f"{stem}_report.json"
    _write(write_trace, trace_path, result.trace_rows)
    _write(write_report, report_path, result.report)
    return trace_path, report_path


def cmd_run(args) -> int:
    scenario = load_scenario_file(args.scenario)
    # `on` runs first, as it refuses a scenario with no regulator; results read (off, on)
    modes = ("on", "off") if args.dejitter == "both" else (args.dejitter,)
    results = [run(scenario, seed=args.seed, dejitter=mode) for mode in modes][::-1]
    out = _out_dir(args.out)  # a run that fails leaves no directory behind
    lines = []  # printed once every file is written, so a write error prints nothing
    if args.dejitter == "both":
        summary = dejitter_summary(*results)
        summary_path = out / f"{scenario.name}_seed{summary['seed']}_dejitter_summary.json"
        _write(write_report, summary_path, summary)
        lines.append(f"wrote {summary_path}")

    violation_total = 0
    for result in results:
        trace_path, report_path = _write_run(result, out, scenario.name)
        violations = result.report["violations"]["total"]
        mode = result.report["dejitter"]
        violation_total += violations
        lines += [f"wrote {trace_path}", f"wrote {report_path}"]
        for fid, flow in sorted(result.report["flows"].items()):
            lat = flow["latency_us"]
            shown = f"max={lat['max']}us jitter={flow['jitter_us']}us" if lat else "no packets received"
            bound = flow["e2e_bound_us"]
            bound_txt = f" bound={bound}us" if bound is not None else ""
            lines.append(f"  [{mode}] {fid}: sent={flow['sent']} "
                         f"received={flow['received']} dropped={flow['dropped']} "
                         f"{shown}{bound_txt} violations={flow['bound_violations']}")
        lines.append(f"  [{mode}] total bound violations: {violations}")
    print("\n".join(lines))
    return EXIT_VIOLATION if violation_total else EXIT_OK


def cmd_report(args) -> int:
    doc = {"schema_version": 1, "flows": {
        fid: packet_summary(*columns) for fid, columns in sorted(read_trace(args.trace).items())
    }}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_USAGE; argparse's own code 2 is EXIT_REJECTED here.

    `add_subparsers` builds the subcommand parsers with this class too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def positive_int(text: str) -> int:
    """argparse type: an int of at least 1; argparse reports a ValueError as usage."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="detnet5g",
        description="Latency-guaranteed flow admission over a 5G-attached fabric",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_trees = sub.add_parser("trees", help="list the VLAN spanning trees of a topology")
    p_trees.add_argument("topology", help="topology JSON file")
    p_trees.add_argument("--cap", type=positive_int, default=64, help="max trees to enumerate")
    p_trees.add_argument("--json", action="store_true", help="machine-readable output")
    p_trees.set_defaults(func=cmd_trees)

    p_admit = sub.add_parser("admit", help="run the admission pipeline on a flow list")
    p_admit.add_argument("topology", help="topology JSON file")
    p_admit.add_argument("flows", help="flow request JSON file")
    p_admit.add_argument("--json", action="store_true", help="machine-readable output")
    p_admit.set_defaults(func=cmd_admit)

    p_run = sub.add_parser("run", help="admit and simulate a scenario")
    p_run.add_argument("scenario", help="scenario JSON file")
    p_run.add_argument("--out", default=None,
                       help="output directory (default: $DETNET5G_OUT or '.')")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p_run.add_argument("--dejitter", choices=["scenario", "on", "off", "both"],
                       default="scenario", help="regulator mode for 5G flows")
    p_run.set_defaults(func=cmd_run)

    p_report = sub.add_parser("report", help="re-summarize an existing trace CSV")
    p_report.add_argument("trace", help="trace CSV file")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    # a flow id the locale cannot encode prints escaped, not as a traceback
    if hasattr(sys.stdout, "reconfigure"):  # a stream in its place may have none
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader gone early shows here, not at exit
        return status
    except BrokenPipeError:
        # stdout's reader stopped reading (`report TRACE | head`): send what
        # is left, and the flush at exit, nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_USAGE
    except AdmissionMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REJECTED
    except ScenarioInvalid as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DetnetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
