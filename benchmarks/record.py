#!/usr/bin/env python3
"""Record one point of the perf trajectory: BENCH_<label>.json.

    python3 benchmarks/record.py --label baseline

Runs every workload of BENCHMARK.json for seeds 1-10 (one process each, one
after another, `run_seconds` each), plus one traced run per workload, and
writes benchmarks/BENCH_<label>.json with each run's metrics, unpaced values
and digests, and per metric the median, quartiles and quartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RAW = re.compile(r"(\S+) = \S+ \S+ \(raw (\S+)\)$")
SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
        "raw": {m[1]: float(m[2]) for m in map(RAW.match, lines) if m},
        "digests": {line.split()[1]: line.split()[2]
                    for line in lines if line.startswith("digest ")},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor()
    names = [line.split(":", 1)[1].strip() for line in text.splitlines()
             if line.startswith("model name")]
    return names[0] if names else platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    record = {
        "label": args.label,
        "host": {"cpu": cpu_model(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in record["seeds"]:
            runs.append(bench(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: done", flush=True)
        summary = {}
        for metric in (m["name"] for m in spec["end_to_end"]):
            summary[metric] = spread([run["metrics"][metric] for run in runs])
            summary[metric]["raw_spread"] = spread([run["raw"][metric] for run in runs])["spread"]
        traced = bench(workload, 1, seconds, 1)
        record["workloads"][workload] = {
            "summary": summary, "runs": runs, "traced_seed1": traced["metrics"],
        }
    out = HERE / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
