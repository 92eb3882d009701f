"""Self-tests of the benchmark code (not of detnet5g).

    python3 benchmarks/selfcheck.py            # or: python -m pytest benchmarks/selfcheck.py

The file name keeps it out of the repository's own test collection.  Smoke
runs shrink the workload sizes so the whole file takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "EPISODE_REGISTRATIONS": 12,
    "EPISODE_CHURN": 4,
    "GRID_SIM_FLOWS": 4,
    "GRID_SIM_DURATION_MS": 500,
    "CANONICAL_DURATION_MS": 2_000,
    "DENSE_DURATION_MS": 300,
    "GRID_SETUP_REPEATS": 2,
    "SCENARIO_SETUP_REPEATS": 2,
}


@contextlib.contextmanager
def tiny_sizes():
    saved = {name: getattr(workloads, name) for name in TINY}
    for name, value in TINY.items():
        setattr(workloads, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(workloads, name, value)


def run_bench(workload: str, seed: int, trace: int) -> tuple[int, list[str]]:
    out = io.StringIO()
    with tiny_sizes(), contextlib.redirect_stdout(out):
        code = bench.main(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace)])
    return code, out.getvalue().splitlines()


def test_generators_are_seeded():
    hosts = [f"H{i}" for i in range(8)]
    ues = ["UE0", "UE1"]
    topo = workloads.admit_grid_topology_doc()
    generators = [
        lambda seed: workloads.admit_grid_episode(seed, 0, hosts, ues),
        lambda seed: workloads.admit_grid_episode(0, seed, hosts, ues),
        lambda seed: workloads.admit_grid_sim_doc(seed, 0, topo),
        workloads.dense_ue_doc,
    ]
    for generate in generators:
        assert generate(1) == generate(1)
        assert generate(1) != generate(2)


def test_canonical_seed_changes_the_run():
    digests = []
    for seed in (1, 1, 2):
        code, lines = run_bench("sim-canonical", seed, 0)
        assert code == 0
        digests.append([line for line in lines if line.startswith("digest trace")])
    assert digests[0] == digests[1] != digests[2]


def test_counts_repeat_for_a_seed():
    results = []
    for _ in range(2):
        out = io.StringIO()
        with tiny_sizes(), contextlib.redirect_stdout(out):
            bench.main(["--workload", "admit-grid", "--seed", "4",
                        "--seconds", "5", "--trace", "0"])
        result = json.loads(out.getvalue().splitlines()[-1])
        results.append((result["attempted"], result["failed"]))
    assert workloads.units_for("admit-grid", 5) > 1
    assert results[0] == results[1]


def test_smoke_runs_print_every_metric():
    wanted = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
              1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, names in wanted.items():
            code, lines = run_bench(workload, 3, trace)
            result = json.loads(lines[-1])
            assert code == 0 and result["correct"], (workload, trace, lines[-5:])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            assert got == names, (workload, trace)
            assert result["attempted"] >= 1


def test_tracer_restores_every_name():
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in tracing.targets()}
    run_bench("sim-dense-ue", 5, 1)
    try:
        with tracing.Tracer():
            assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in before.items())
            raise RuntimeError("abort inside a traced run")
    except RuntimeError:
        pass
    after = {(owner, attr): owner.__dict__[attr] for owner, attr in tracing.targets()}
    assert after == before
    assert all(after[key] is before[key] for key in before)


def test_tail_rank_leaves_ten_beyond():
    value, pct = bench.tail_rank([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


if __name__ == "__main__":
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except Exception as exc:  # report every failing check, then exit non-zero
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"PASS {name}")
    sys.exit(1 if failed else 0)
