"""Self-test of the benchmark: every workload at tiny size, in seconds.

    python3 perfbench/selftest.py

Runs each workload of ``BENCHMARK.json`` with ``--size tiny``, untraced
and traced, and checks that the run passes its correctness gate, that
the last stdout line is the result object with exactly the declared
metrics and units (end-to-end values never 0; the layers a workload
passes through non-zero in its traced run), and that no server process
outlives the run. Finally it checks that a directory holding
only ``BENCHMARK.json`` and the benchmark fails without a result.
"""

from __future__ import annotations

import fnmatch
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join("perfbench", "run.py")]

#: Per-layer metrics (name patterns) each workload passes through, so
#: its traced run must read them non-zero: a renamed program call or
#: metrics field shows here instead of as a silent 0.
EXERCISED = {
    "build": ("graph.generate_s", "pipeline.*.s", "pipeline.*.rounds",
              "pipeline.glue_s", "mpc.*.calls", "mpc.*.s",
              "mpc.outside_primitives_share", "mpc.peak_global_words",
              "oracle.from_result_s", "proc.driver.cpu_share"),
    "fleet_read": ("graph.generate_s", "wire.front.*.frames_in",
                   "wire.worker.*.frames_in", "wire.*.bytes_out",
                   "batching.batches", "batching.queue_p50_ms",
                   "router.forwarded", "router.depth_polls",
                   "router.forward_p50_ms", "proc.*.cpu_share",
                   "driver.encode_s"),
    "churn": ("graph.generate_s", "pipeline.sens_*.s", "pipeline.glue_s",
              "pipeline.cache_hits", "pipeline.cache_misses", "mpc.sort.s",
              "oracle.from_result_s", "oracle.bulk.*.calls",
              "oracle.bulk.*.rows", "batching.batches",
              "wire.front.*.frames_in", "updates.preserving",
              "updates.rebuilds", "updates.stages_executed",
              "updates.stages_cached", "stream.batches_applied",
              "stream.scoped_replays", "stream.apply_p50_ms",
              "shards.swap_s", "proc.driver.cpu_share",
              "proc.front.cpu_share", "driver.encode_s"),
}


def _launchers() -> list:
    pids = []
    for name in os.listdir("/proc"):
        try:
            with open(f"/proc/{name}/cmdline", "rb") as fh:
                if b"perfbench/launcher.py" in fh.read():
                    pids.append(int(name))
        except (OSError, ValueError):
            continue
    return pids


def _roles(workload: str) -> set:
    """The processes a workload runs, as ``proc.<role>.cpu_share``."""
    roles = {"build": ("driver",), "churn": ("driver", "front"),
             "fleet_read": ("driver", "front", "worker0", "worker1")}
    return {f"proc.{r}.cpu_share" for r in roles[workload]}


def check_run(workload: str, trace: int, spec: dict) -> None:
    p = subprocess.run(RUN + ["--workload", workload, "--seed", "7",
                              "--seconds", "2", "--trace", str(trace),
                              "--size", "tiny"],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if p.returncode != 0:
        raise AssertionError(f"{where}: exit {p.returncode}\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0, (where, p.stdout)
    assert result["attempted"] >= 1, where
    declared = spec["per_layer" if trace else "end_to_end"]
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {d["name"]: d["unit"] for d in declared}, where
    if trace:
        names = sorted(result["metrics"])
        for pattern in EXERCISED[workload]:
            hit = [k for k in fnmatch.filter(names, pattern)
                   if not pattern.startswith("proc.") or k in _roles(workload)]
            assert hit, f"{where}: no declared metric matches {pattern}"
            zero = [k for k in hit if not result["metrics"][k]["value"]]
            assert not zero, f"{where}: exercised layers read 0: {zero}"
    else:
        zero = [k for k, v in result["metrics"].items() if not v["value"]]
        assert not zero, f"{where}: end-to-end metrics read 0: {zero}"
    assert not _launchers(), f"{where}: a server process outlived the run"
    print(f"ok  {where}: {len(got)} metrics, "
          f"{result['attempted']} checked operations")


def check_bare_directory() -> None:
    """Without the program the benchmark must fail, printing no result."""
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    try:
        p = subprocess.run(RUN + ["--workload", "build", "--seed", "1",
                                  "--seconds", "1", "--trace", "0"],
                           cwd=bare, env=env, capture_output=True, text=True,
                           timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0, "bare directory: exit code 0"
    assert not any(line.startswith("{") for line in p.stdout.splitlines()), \
        "bare directory: printed a result"
    print("ok  bare directory: fails without a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(w["name"], trace, spec)
    check_bare_directory()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
