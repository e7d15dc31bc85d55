"""Host-time benchmark for checkpoint-restart over the simulated cluster.

Usage, from the repository root::

    python3 perfbench/run.py --workload {lu_restart,bigmem_store,
        service_stream} --seed N --seconds S --trace {0,1}

Workloads (why each is here is in ``BENCHMARK.json``):

* ``lu_restart`` - NAS LU class A, 128 ranks on 8 MGHPCC nodes under
  ``dmtcp_launch`` + ``InfinibandPlugin``; seeded ``intent="resume"``
  rounds inside the LU timed loop, one ``intent="restart"`` round,
  teardown, ``dmtcp_restart`` on a fresh cluster, run to completion;
* ``bigmem_store`` - a 4-rank app of 8 x 1 MiB regions whose every step
  rewrites seeded 4 KiB chunks in every region; incremental rounds into a
  ``CheckpointStore``, then a restart that fetches from the store;
* ``service_stream`` - ``service_scenario``: 100 gang-scheduled jobs, 3
  tenants (one quota-capped), 8 slots, preemption by checkpoint.

Every repetition runs in a fresh interpreter (``child.py``); capture is
serial, so no repetition uses more than one core.  ``--trace 0`` repeats
the workload as often as fits in ``--seconds``, adds set-up-only
repetitions, and prints the end-to-end metrics as medians.  ``--trace 1``
runs one untraced and one profiled repetition and prints the per-layer
metrics; it also writes the phase spans to ``perfbench/out/`` and prints
how each layer moved against the last traced result from the same host
fingerprint (information only, never a gate).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed witness,
placement guard or operation sets ``correct`` to false and the exit code
to 1; a repetition that cannot run at all (for instance, no program next
to the benchmark) exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("lu_restart", "bigmem_store", "service_stream")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "events_per_s": "1/s",
    "ckpt_p50_s": "s",
    "restart_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

#: set-up-only repetitions added to every untraced run, so ``setup_s`` is
#: a median over enough fresh interpreters even when a workload repeats
#: only once or twice in ``--seconds``
SETUP_SAMPLES = 3
CHILD_TIMEOUT = 170.0


class BenchError(RuntimeError):
    """A repetition could not run: no result can be reported."""


def per_layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio", "efficiency", "overhead")):
        return "ratio"
    if name.endswith("bytes_dirty"):
        return "bytes"
    if name.endswith("batch_mean"):
        return "events"
    return "count"


def fingerprint() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def child(workload: str, seed: int, *flags: str) -> dict:
    """One repetition in a fresh interpreter; its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} repetition exceeded "
                         f"{CHILD_TIMEOUT:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} repetition exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(reps: list, setups: list) -> dict:
    median = statistics.median
    rounds = [s for r in reps for s in r["ckpt_s"]]
    # per repetition the mean restart: one restart for lu and bigmem; in
    # the service stream restarts overlap other jobs, and their spans
    # fall into two groups, which makes a median of spans unstable
    restarts = [sum(r["restart_s"]) / len(r["restart_s"])
                for r in reps if r["restart_s"]]
    return {
        "wall_s": median(r["wall_s"] for r in reps),
        "setup_s": median(setups),
        "events_per_s": median(r["events"] / r["wall_s"] for r in reps),
        "ckpt_p50_s": median(rounds) if rounds else 0.0,
        "restart_s": median(restarts) if restarts else 0.0,
        "jobs_per_s": median(r["jobs"] / r["wall_s"] for r in reps),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    metrics = dict(traced["counts"])
    metrics.update(traced["layers"])
    metrics["trace_overhead"] = traced["wall_s"] / untraced["wall_s"]
    return metrics


def _same_host(a: dict, b: dict) -> bool:
    return all(a.get(k) == b.get(k) for k in ("python", "numpy", "nproc",
                                              "cpu"))


def layer_diff(workload: str, host: dict, metrics: dict) -> list:
    """Lines saying how each layer's self time moved against the last
    traced result recorded with the same host fingerprint."""
    history = OUT / "history.jsonl"
    last = None
    if history.exists():
        for line in history.read_text().splitlines():
            try:
                row = json.loads(line)
            except ValueError:
                continue        # a torn line from an interrupted run
            if row.get("workload") == workload and row.get("trace") \
                    and _same_host(row.get("host", {}), host):
                last = row
    if last is None:
        return [f"# no earlier traced {workload} result on this host"]
    lines = []
    for name, value in metrics.items():
        if name.startswith("layer.") and name.endswith(".self_s"):
            before = last["metrics"].get(name, 0.0)
            if before > 0:
                lines.append(f"# layer {name.split('.')[1]} moved "
                             f"{100.0 * (value / before - 1.0):+.1f}% vs "
                             f"the last result with the same fingerprint")
    return lines


def record(workload: str, seed: int, host: dict, trace: bool,
           metrics: dict, reps: list) -> None:
    OUT.mkdir(exist_ok=True)
    row = {"workload": workload, "seed": seed, "trace": trace, "host": host,
           "time": time.time(), "metrics": metrics}
    with open(OUT / "history.jsonl", "a") as f:
        f.write(json.dumps(row) + "\n")
    if trace:
        spans = {"workload": workload, "seed": seed, "host": host,
                 "spans": [r["spans"] for r in reps if "spans" in r]}
        (OUT / f"{workload}.spans.json").write_text(
            json.dumps(spans, indent=1) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run the repetitions; returns (metrics, units, reps)."""
    if trace:
        reps = [child(workload, seed), child(workload, seed, "--trace")]
        if "wall_s" in reps[0] and "layers" in reps[1]:
            metrics = per_layer(reps[0], reps[1])
            return metrics, {n: per_layer_unit(n) for n in metrics}, reps
        return {}, {}, reps
    # repeat while another repetition of the mean length still ends
    # within ``seconds`` (always at least one)
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(child(workload, seed))
        elapsed = time.perf_counter() - t0
        if "error" in reps[-1] \
                or elapsed * (len(reps) + 1) / len(reps) > seconds:
            break
    setup_reps = [child(workload, seed, "--setup-only")
                  for _ in range(SETUP_SAMPLES)]
    done = [r for r in reps if "wall_s" in r]
    setups = [r["setup_s"] for r in setup_reps + done if "setup_s" in r]
    metrics = end_to_end(done, setups) if done else {}
    # a set-up-only repetition is no operation unless it failed
    return metrics, END_TO_END, reps + [r for r in setup_reps
                                         if "error" in r]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src' / 'repro'}; the "
              f"benchmark runs from a checkout of the repository",
              file=sys.stderr)
        return 2
    host = {**fingerprint(), "loadavg_start": os.getloadavg()[0]}
    print(f"# host: {json.dumps(host)}")
    try:
        metrics, units, reps = measure(args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r.get("attempted", 1) for r in reps)
    failed = sum(r.get("failed", 1) for r in reps)
    for r in reps:
        for name, ok in r.get("checks", {}).items():
            if not ok:
                print(f"# FAIL: {name}")
        if "error" in r:
            print(r["error"], file=sys.stderr)
    print(f"# {args.workload}: {len(reps)} repetition(s), seed {args.seed}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6g} {units[name]}")
    if args.trace and metrics:
        for line in layer_diff(args.workload, host, metrics):
            print(line)
    if metrics:
        record(args.workload, args.seed, host, bool(args.trace),
               metrics, reps)
    correct = failed == 0 and bool(metrics)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
