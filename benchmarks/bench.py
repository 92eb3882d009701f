#!/usr/bin/env python3
"""detnet5g benchmark: one workload per call, result JSON on the last line.

    python3 benchmarks/bench.py --workload admit-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory.  `--trace 0` runs the units that take about `--seconds` on
the reference host (a count fixed by `--seconds`, see `units_for` in
workloads.py) and reports the end-to-end metrics.  `--trace 1` runs a fixed
amount of work three times (plain, with tracing wrappers, plain), reports the
per-layer metrics and the tracing overhead, and writes spans and counters to
`.bench_out/<workload>-seed<n>-trace.json`.
Times are paced CPU times (see PROBE_* in workloads.py).  Output digests and
correctness checks are printed before the result line; the exit code is 1
when an output is wrong.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# units of work in a traced run: fixed, so its counts repeat for a seed
TRACED_UNITS = {"admit-grid": 3, "sim-canonical": 1, "sim-dense-ue": 1}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("admit-grid", "sim-canonical", "sim-dense-ue"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail_rank(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"need at least 11 samples for a tail, got {n}")
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(m, times: dict) -> tuple[dict, float]:
    """The end-to-end metrics from one set of times (paced or raw)."""
    register, remove = times["register"], times["remove"]
    tail_s, tail_pct = tail_rank(register)
    metrics = {
        "setup_s": metric(statistics.median(times["setup"]), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "admit.requests_per_s":
            metric((len(register) + len(remove)) / (sum(register) + sum(remove)), "1/s"),
        "admit.register_p50_ms": metric(statistics.median(register) * 1e3, "ms"),
        "admit.register_tail_ms": metric(tail_s * 1e3, "ms"),
        "admit.remove_p50_ms": metric(statistics.median(remove) * 1e3, "ms"),
        "admit.accept_ratio": metric(m.accepted / (m.accepted + m.rejected), "ratio"),
        "sim.pkts_per_s": metric(m.packets_sent / sum(times["sim"]), "1/s"),
        "sim.bound_met_share": metric(1 - m.bound_violations / m.bound_checks, "ratio"),
    }
    return metrics, tail_pct


def per_layer(m, tracer, wl, overhead_s: float, untraced_s: float) -> dict:
    calls, total, self_s, outcome = tracer.calls, tracer.total_s, tracer.self_s, tracer.outcomes
    registers = calls["admission.register"] + calls["sim.admit"]
    return {
        "topology.enumerate_spanning_trees.s":
            metric(total["topology.enumerate_spanning_trees"], "s"),
        "topology.trees": metric(len(wl.trees), "count"),
        "topology.distinct_paths_median": metric(wl.distinct_paths_median(m), "count"),
        "topology.path_in_tree.calls": metric(calls["topology.path_in_tree"], "count"),
        "topology.path_in_tree.s": metric(total["topology.path_in_tree"], "s"),
        "calculus.hop_delay_bound.calls": metric(calls["calculus.hop_delay_bound"], "count"),
        "calculus.hop_delay_bound.s": metric(total["calculus.hop_delay_bound"], "s"),
        "calculus.sp_residual_service.calls":
            metric(calls["calculus.sp_residual_service"], "count"),
        "calculus.sp_residual_service.s": metric(total["calculus.sp_residual_service"], "s"),
        "transit5g.transit_contract.calls":
            metric(calls["transit5g.transit_contract"], "count"),
        "transit5g.transit_contract.s": metric(total["transit5g.transit_contract"], "s"),
        "transit5g.capacity.calls": metric(calls["transit5g.capacity"], "count"),
        "admission.register.s": metric(total["admission.register"], "s"),
        "admission.register.self_s": metric(self_s["admission.register"], "s"),
        "admission.register.accepted": metric(outcome["accepted"], "count"),
        "admission.register.rejected": metric(outcome["rejected"], "count"),
        "admission.register.reconfigured": metric(outcome["reconfigured"], "count"),
        "admission.candidates_per_register":
            metric(calls["topology.path_in_tree"] / registers, "count"),
        "admission.remove.s": metric(total["admission.remove"], "s"),
        "nwtt.classify_and_tag.calls": metric(calls["nwtt.classify_and_tag"], "count"),
        "nwtt.classify_and_tag.s": metric(total["nwtt.classify_and_tag"], "s"),
        "nwtt.regulator_offer.calls": metric(calls["nwtt.regulator_offer"], "count"),
        "nwtt.regulator_release.calls": metric(calls["nwtt.regulator_release"], "count"),
        "nwtt.regulator_release.s": metric(total["nwtt.regulator_release"], "s"),
        "nwtt.regulator_drops": metric(m.regulator_drops, "count"),
        "sim.run.s": metric(total["sim.run"], "s"),
        "sim.admit.s": metric(total["sim.admit"], "s"),
        "sim.engine_report.s": metric(total["sim.run"] - total["sim.admit"], "s"),
        "sim.write_trace.s": metric(total["sim.write_trace"], "s"),
        "sim.write_report.s": metric(total["sim.write_report"], "s"),
        "sim.trace_bytes": metric(m.trace_bytes, "B"),
        "sim.packets_sent": metric(m.packets_sent, "count"),
        "sim.packets_delivered": metric(m.packets_delivered, "count"),
        "sim.packets_dropped": metric(m.packets_dropped, "count"),
        "sim.bound_violations": metric(m.bound_violations, "count"),
        "scenario.load_scenario.s": metric(total["scenario.load_scenario"], "s"),
        "trace.overhead_s": metric(overhead_s, "s"),
        "trace.overhead_share": metric(overhead_s / untraced_s, "ratio"),
    }


def run_pass(workloads, name, seed, work_dir, units):
    """Set up one workload and drive it; return (measurements, workload, seconds)."""
    m = workloads.Measurements()
    t0 = time.perf_counter()
    wl = workloads.make_workload(name, ROOT, seed, work_dir)
    wl.setup(m)
    wl.drive(m, units)
    return m, wl, time.perf_counter() - t0


def run_traced(workloads, tracing, name, seed, work_dir):
    """Plain, traced, plain: the overhead is the traced pass minus the plain mean.

    The passes do a fixed number of units, so a seed's counts repeat.
    """
    units = TRACED_UNITS[name]
    before, _, before_s = run_pass(workloads, name, seed, work_dir / "before",
                                   units=units)
    with tracing.Tracer() as tracer:
        m, wl, traced_s = run_pass(workloads, name, seed, work_dir / "traced",
                                   units=units)
    after, _, after_s = run_pass(workloads, name, seed, work_dir / "after",
                                 units=units)
    untraced_s = (before_s + after_s) / 2
    if not m.digests == before.digests == after.digests:
        m.errors.append("traced and plain passes produced different outputs")
    overhead_s = traced_s - untraced_s
    metrics = per_layer(m, tracer, wl, overhead_s, untraced_s)

    out = ROOT / ".bench_out" / f"{name}-seed{seed}-trace.json"
    out.write_text(json.dumps({
        "workload": name,
        "seed": seed,
        "units": units,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "overhead_s": overhead_s,
        "layers": {
            layer: {"calls": tracer.calls[layer], "total_s": tracer.total_s[layer],
                    "self_s": tracer.self_s[layer]}
            for layer in sorted(tracer.calls)
        },
        "register_outcomes": dict(tracer.outcomes),
        "metrics": metrics,
        "spans_columns": ["id", "name", "start_s", "end_s", "parent_id"],
        "spans": tracer.spans,
    }, indent=1))
    print(f"trace: wrote {out.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    print(f"trace: overhead {overhead_s:.3f} s = traced {traced_s:.3f} s "
          f"- untraced {untraced_s:.3f} s (mean of the passes before and after) "
          f"over {units} unit(s)")
    return m, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "detnet5g" / "__init__.py").is_file():
        print(f"bench: no detnet5g sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import detnet5g

    if Path(detnet5g.__file__).resolve().parent != SRC / "detnet5g":
        print(f"bench: imported detnet5g from {detnet5g.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    work_dir = workloads.new_work_dir(ROOT)
    try:
        if args.trace:
            m, metrics = run_traced(workloads, tracing, args.workload, args.seed, work_dir)
        else:
            m, _, wall_s = run_pass(workloads, args.workload, args.seed, work_dir,
                                    workloads.units_for(args.workload, args.seconds))
            print(f"{m.units} units in {wall_s:.1f} s wall")
            metrics, tail_pct = end_to_end(m, m.times)
            raw, _ = end_to_end(m, m.raw)
            print(f"pace: {len(m.probes)} probes, median "
                  f"{statistics.median(m.probes) * 1e6:.1f} us, nominal "
                  f"{workloads.PROBE_NOMINAL_S * 1e6:.1f} us")
            print(f"admit.register_tail_ms is p{tail_pct:.2f} of "
                  f"{len(m.times['register'])} registrations")
            print(f"sim.bound_met_share: {m.bound_violations} violations in "
                  f"{m.bound_checks} checked packets and (port, class) pairs")
            for name, entry in metrics.items():
                print(f"{name} = {entry['value']:.6g} {entry['unit']} "
                      f"(raw {raw[name]['value']:.6g})")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"units {m.units}; registrations {len(m.times['register'])} "
          f"(accepted {m.accepted}, rejected {m.rejected}); removals {len(m.times['remove'])}; "
          f"packets {m.packets_sent}; bound violations {m.bound_violations}")
    for key, value in sorted(m.digests.items()):
        print(f"digest {key} {value}")
    for error in m.errors:
        print(f"WRONG OUTPUT: {error}")
    result = {
        "correct": not m.errors,
        "attempted": len(m.times["register"]) + len(m.times["remove"]) + m.packets_sent,
        "failed": m.rejected + m.bound_violations,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
