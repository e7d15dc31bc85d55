"""One repetition of one workload, in a fresh interpreter.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/child.py --workload NAME --seed N [--trace]
        [--setup-only]

Prints one JSON line: the repetition's host timings, its simulation
witnesses, the checks it passed or failed and, with ``--trace``, the
per-layer fold of a cProfile of everything after set-up.  Exits 2 when
the program cannot be imported.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import witness  # noqa: E402
from probe import Probe, SetupDone  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_layers(profiler) -> dict:
    import pstats

    stats = pstats.Stats(profiler).stats
    self_s = layers.fold(stats)
    share = layers.shares(self_s)
    out = {}
    for name in layers.LAYERS:
        out[f"layer.{name}.self_s"] = self_s[name]
        out[f"layer.{name}.share"] = share[name]
    out.update(layers.call_counts(stats))
    calls, seconds = layers.builtin_by_layer(
        stats, "<built-in method zlib.compress>", "dmtcp")
    out["dmtcp.compress.calls"] = calls
    out["dmtcp.compress_s"] = seconds
    return out


def counts(raw: dict, probe: Probe) -> dict:
    """Exact counts at the layer boundaries (they repeat run to run)."""
    env = raw["env"]
    capture: dict = {}
    for _host_s, _ok, stats in probe.rounds:
        for key, value in stats.items():
            capture[key] = capture.get(key, 0) + value
    core = probe.core_stats()
    store = raw.get("store", {})
    service = raw.get("service", {})
    chunks = capture.get("chunks_total", 0)
    bytes_dirty = capture.get("bytes_dirty", 0)
    naive = store.get("chunks_new", 0) + store.get("chunks_deduped", 0)
    out = {
        "sim.events": env.stats.events,
        "sim.heap_peak": env.stats.heap_peak,
        "sim.batch_mean": env.stats.events / max(1, env.stats.batches),
        "core.wrapper_calls": core.get("wrapper_calls", 0),
        "core.drained_completions": core.get("drained_completions", 0),
        "core.reposted_wrs": core.get("reposted_sends", 0)
        + core.get("reposted_recvs", 0),
        "core.replayed_modifies": core.get("replayed_modifies", 0),
        "dmtcp.ckpt_rounds": len(probe.rounds),
        "dmtcp.regions_dirty": capture.get("regions_dirty", 0),
        "dmtcp.chunks_dirty": capture.get("chunks_dirty", 0),
        "dmtcp.bytes_dirty": bytes_dirty,
        "dmtcp.chunks_clean_ratio":
            capture.get("chunks_clean", 0) / chunks if chunks else 0.0,
        "dmtcp.dirty_byte_efficiency":
            capture.get("chunks_dirty", 0) * 4096 / bytes_dirty
            if bytes_dirty else 0.0,
        "store.dedup_ratio":
            store.get("chunks_deduped", 0) / naive if naive else 0.0,
        "service.puts": service.get("puts", 0),
        "service.puts_rejected": service.get("puts_rejected", 0),
        "service.preemptions": service.get("preemptions", 0),
        "service.dedup_ratio": service.get("dedup_ratio", 0.0),
    }
    for key in ("puts", "chunks_new", "chunks_deduped", "replicated_chunks",
                "fetches", "hits_local", "hits_partner", "hits_lustre",
                "corrupt_detected", "healed"):
        out[f"store.{key}"] = store.get(key, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2

    setup, run = WORKLOADS[args.workload]
    state = setup(args.seed)
    probe = Probe(profile=args.trace, setup_only=args.setup_only)
    probe.install()
    out: dict = {"workload": args.workload, "seed": args.seed}
    try:
        raw = run(state, probe)
    except SetupDone:
        out["setup_s"] = probe.t_first_run - T_START
        print(json.dumps(out))
        return 0
    except Exception:       # a failed operation, reported, not a crash
        out["error"] = traceback.format_exc()
        out["checks"] = {"workload completed": False}
        print(json.dumps(out))
        return 0
    t_end = time.perf_counter()
    probe.stop_profile()
    probe.uninstall()

    env = raw["env"]
    # before the witness replay, which allocates memory of its own
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out.update({
        "setup_s": probe.t_first_run - T_START,
        "wall_s": t_end - probe.t_first_run,
        "events": env.stats.events,
        "sim_seconds": env.now,
        "jobs": raw["jobs"],
        "ckpt_s": [host_s for host_s, _ok, _s in probe.rounds],
        "restart_s": [host_s for host_s, _ok in probe.restarts],
        "spans": probe.span_dicts(),
        "peak_rss_mb": rss_mb,
    })
    checks = witness.check(args.workload, args.seed, raw, out)
    out["checks"] = checks
    # operations: rounds, restarts, jobs and witness checks; a designed
    # quota rejection is a successful put, not a failed operation
    out["attempted"] = (len(probe.rounds) + len(probe.restarts)
                        + raw["jobs"] + len(checks))
    out["failed"] = (sum(1 for _h, ok, _s in probe.rounds if not ok)
                     + sum(1 for _h, ok in probe.restarts if not ok)
                     + raw.get("jobs_failed", 0)
                     + sum(1 for ok in checks.values() if not ok))
    out["counts"] = counts(raw, probe)
    if args.trace:
        out["layers"] = traced_layers(probe.profiler)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
