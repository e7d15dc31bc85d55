"""The benchmark's three workloads, driven through the public entry points.

Each workload is a pair ``setup(seed) -> state`` / ``run(state, probe) ->
dict``.  ``setup`` builds the cluster, specs, store and job stream; the
first ``Environment.run`` call (seen by the :class:`~probe.Probe`) ends
set-up and starts the wall clock.  ``run`` returns the raw facts the
witness checks and metrics are computed from; nothing here judges them.

The seed moves only what each workload varies:

* ``lu_restart``: the checkpoint instants inside the LU timed loop;
* ``bigmem_store``: the dirty-chunk positions and bytes;
* ``service_stream``: the Poisson arrival stream.
"""

from __future__ import annotations

import hashlib

import numpy as np

# -- lu_restart -----------------------------------------------------------------

LU_RANKS = 128
LU_NODES = 8                # MGHPCC, 16 ranks per node
LU_ITERS = 8
LU_RESUME_CKPTS = 3         # then one intent="restart" round
#: simulated second at which LU A/128's timed loop starts (after the
#: dmtcp_launch wire-up) and its crash-free length; the checkpoint
#: instants are drawn inside this window and the placement guard checks
#: them against the loop the run actually executed
LU_LOOP_START = 4.1469
LU_LOOP_SECONDS = 0.0440


def lu_progress_points(seed: int) -> list:
    """Seeded loop-progress offsets (sim seconds after the loop start) of
    the ``LU_RESUME_CKPTS + 1`` checkpoint rounds, increasing."""
    rng = np.random.default_rng([seed, 1])
    points = rng.uniform(0.1, 0.9, LU_RESUME_CKPTS + 1) * LU_LOOP_SECONDS
    return sorted(float(p) for p in points)


def lu_setup(seed: int) -> dict:
    from repro import MGHPCC, Cluster, Environment
    from repro.apps.nas import lu_app
    from repro.mpi import make_mpi_specs

    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=LU_NODES, name="bench-lu")

    def app(ctx, comm):
        result = yield from lu_app(ctx, comm, klass="A", iters_sim=LU_ITERS)
        return result

    specs = make_mpi_specs(cluster, LU_RANKS, app, ppn=16)
    return {"env": env, "cluster": cluster, "specs": specs,
            "points": lu_progress_points(seed)}


def lu_run(state: dict, probe) -> dict:
    import repro.dmtcp as dmtcp
    from repro import MGHPCC, Cluster, InfinibandPlugin

    env, cluster, points = state["env"], state["cluster"], state["points"]
    instants = []
    events_at_resume = []

    def scenario():
        root = probe.begin("lu_restart", phase=True)
        session = yield from dmtcp.dmtcp_launch(
            cluster, state["specs"],
            plugin_factory=lambda: [InfinibandPlugin()], gzip=True,
            disk_kind="local", ckpt_workers=0)
        # progress offsets are loop time: a round freezes the ranks, so
        # the next wait counts from where the previous round resumed
        yield env.timeout(max(0.0, LU_LOOP_START + points[0] - env.now))
        for i, point in enumerate(points):
            if i:
                yield env.timeout(point - points[i - 1])
            instants.append(float(env.now))
            last = i == len(points) - 1
            ckpt = yield from session.checkpoint(
                intent="restart" if last else "resume")
        cluster.teardown()
        fresh = Cluster(env, MGHPCC, n_nodes=LU_NODES, name="bench-lu-r")
        session2 = yield from dmtcp.dmtcp_restart(fresh, ckpt,
                                                  disk_kind="local")
        events_at_resume.append(env.stats.events)
        span = probe.begin("wait")
        results = yield from session2.wait()
        probe.end(span)
        probe.end(root)
        return results

    results = env.run(until=env.process(scenario()))
    return {
        "env": env,
        "jobs": 1,
        "checksums": sorted({float(r.checksum) for r in results}),
        "instants": instants,
        "loop_start": max(float(r.t_init) for r in results),
        "loop_end": min(float(r.t_init + r.loop_seconds) for r in results),
        "post_restart_events": env.stats.events - events_at_resume[0],
    }


# -- bigmem_store ----------------------------------------------------------------

BM_RANKS = 4                # one rank per MGHPCC node
BM_REGIONS = 8
BM_REGION_BYTES = 1 << 20
BM_CHUNK = 4096
BM_CHUNKS_PER_STEP = 2      # rewritten per region per step
BM_STEP_SECONDS = 0.05      # simulated compute per step
BM_STEPS_PER_ROUND = 2
BM_ROUNDS = 4               # the last one is intent="restart"
BM_STEPS = BM_STEPS_PER_ROUND * (BM_ROUNDS + 1)
#: the initial bytes are fixed; only the dirtying pattern follows the seed
BM_BASE_SEED = 20140623


def bm_initial(rank: int, region: int) -> bytes:
    rng = np.random.default_rng([BM_BASE_SEED, rank, region])
    return rng.integers(0, 256, BM_REGION_BYTES, dtype=np.uint8).tobytes()


def bm_step_writes(seed: int, rank: int, step: int) -> list:
    """``(region, offset, bytes)`` rewrites of one rank's step: a few
    chunk-aligned 4 KiB blocks of seeded random bytes in every region."""
    rng = np.random.default_rng([seed, 2, rank, step])
    n_chunks = BM_REGION_BYTES // BM_CHUNK
    writes = []
    for region in range(BM_REGIONS):
        chunks = rng.choice(n_chunks, BM_CHUNKS_PER_STEP, replace=False)
        data = rng.integers(0, 256, (BM_CHUNKS_PER_STEP, BM_CHUNK),
                            dtype=np.uint8)
        for c, row in zip(sorted(int(c) for c in chunks), data):
            writes.append((region, c * BM_CHUNK, row.tobytes()))
    return writes


def bm_digest(buffers) -> str:
    h = hashlib.blake2b(digest_size=16)
    for buf in buffers:
        h.update(buf)
    return h.hexdigest()


def bm_expected_checksums(seed: int) -> list:
    """Each rank's final digest, recomputed in numpy from the seed without
    the simulator: the witness the restored run must reproduce."""
    out = []
    for rank in range(BM_RANKS):
        regions = [np.frombuffer(bytearray(bm_initial(rank, r)),
                                 dtype=np.uint8)
                   for r in range(BM_REGIONS)]
        for step in range(BM_STEPS):
            for region, off, data in bm_step_writes(seed, rank, step):
                regions[region][off:off + BM_CHUNK] = np.frombuffer(
                    data, dtype=np.uint8)
        out.append(bm_digest(r.tobytes() for r in regions))
    return out


def _bm_app(seed: int, rank: int, initial: list):
    def app(ctx):
        regions = [ctx.memory.mmap(f"bm{r}", BM_REGION_BYTES, data=data)
                   for r, data in enumerate(initial)]
        for step in range(BM_STEPS):
            for region, off, data in bm_step_writes(seed, rank, step):
                ctx.memory.write(regions[region].addr + off, data)
            yield ctx.compute(seconds=BM_STEP_SECONDS)
        return bm_digest(bytes(r.buffer) for r in regions)

    return app


def bigmem_setup(seed: int) -> dict:
    from repro import MGHPCC, AppSpec, Cluster, Environment
    from repro.store import CheckpointStore

    env = Environment()
    cluster = Cluster(env, MGHPCC, n_nodes=BM_RANKS, name="bench-bm")
    store = CheckpointStore(cluster)
    specs = [AppSpec(node_index=r, name=f"bm{r}", rank=r,
                     factory=_bm_app(seed, r, [bm_initial(r, i)
                                               for i in range(BM_REGIONS)]))
             for r in range(BM_RANKS)]
    return {"env": env, "cluster": cluster, "store": store, "specs": specs}


def bigmem_run(state: dict, probe) -> dict:
    import repro.dmtcp as dmtcp
    from repro import MGHPCC, Cluster, InfinibandPlugin
    from repro.store import CheckpointStore

    env, cluster, store = state["env"], state["cluster"], state["store"]
    rounds = []     # per round: (chunks_dirty, chunks_new)
    stores = []

    def scenario():
        root = probe.begin("bigmem_store", phase=True)
        session = yield from dmtcp.dmtcp_launch(
            cluster, state["specs"],
            plugin_factory=lambda: [InfinibandPlugin()], gzip=True,
            incremental=True, ckpt_workers=0, store=store)
        # mid-step instants: each round lands half a step into the
        # BM_STEPS_PER_ROUND-th step since the previous round resumed
        offset = (BM_STEPS_PER_ROUND - 0.5) * BM_STEP_SECONDS
        for i in range(BM_ROUNDS):
            yield env.timeout(offset)
            new_before = store.stats["chunks_new"]
            last = i == BM_ROUNDS - 1
            ckpt = yield from session.checkpoint(
                intent="restart" if last else "resume")
            rounds.append((sum(r.image.capture_stats.get("chunks_dirty", 0)
                               for r in ckpt.records),
                           store.stats["chunks_new"] - new_before))
            offset = BM_STEPS_PER_ROUND * BM_STEP_SECONDS
        yield from store.drain_replication()
        store.stop()
        stores.append(dict(store.stats))
        cluster.teardown()
        fresh = Cluster(env, MGHPCC, n_nodes=BM_RANKS, name="bench-bm-r")
        store2 = CheckpointStore(fresh)
        store2.stage_from(ckpt)
        session2 = yield from dmtcp.dmtcp_restart(
            fresh, ckpt, store=store2, stage_images=False,
            incremental=True, ckpt_workers=0)
        span = probe.begin("wait")
        results = yield from session2.wait()
        probe.end(span)
        store2.stop()
        stores.append(dict(store2.stats))
        probe.end(root)
        return results

    results = env.run(until=env.process(scenario()))
    return {
        "env": env,
        "jobs": 1,
        "checksums": list(results),
        "rounds": rounds,
        "store": _sum_dicts(*stores),
    }


# -- service_stream ----------------------------------------------------------------

SVC_CAPPED = "tiny"
#: the bench_service stream: a 4-long shape cycle over 3 tenants (coprime,
#: so the capped tenant sees every shape), 8 slots, and a quantum so the
#: gang scheduler preempts via checkpoint
SVC_KWARGS = dict(
    n_jobs=100, total_nodes=8, quantum=0.5,
    tenants=("acme", "umass", SVC_CAPPED),
    shapes=(("ml", "S"), ("lu", "A"), ("pingpong", "S"), ("ml", "S")),
    quotas={SVC_CAPPED: 1.5e6}, non_preemptible_tenants=(SVC_CAPPED,),
    mean_interarrival=0.3, iters_sim=2, ckpt_interval=1.0)


def service_setup(seed: int) -> dict:
    # the scenario builds its cluster, service and job stream itself,
    # inside service_scenario; the probe's first-run mark splits set-up
    from repro.service import service_scenario
    return {"seed": seed, "scenario": service_scenario}


def service_run(state: dict, probe) -> dict:
    span = probe.begin("service_stream", phase=True)
    run = state["scenario"](seed=state["seed"], **SVC_KWARGS)
    probe.end(span)
    outcomes = run["outcomes"]
    summary = run["summary"]
    return {
        "env": run["env"],
        "jobs": len(outcomes),
        "jobs_failed": sum(1 for o in outcomes if not o.ok),
        "outcomes": [{"name": o.name, "tenant": o.tenant,
                      "shape": f"{o.workload}.{o.klass}", "ok": o.ok,
                      "error": o.error, "checksum": float(o.checksum),
                      "preemptions": o.n_preemptions}
                     for o in outcomes],
        "ledger": run["ledger"],
        "service": {"puts": summary["puts"],
                    "puts_rejected": summary["puts_rejected"],
                    "dedup_ratio": summary["dedup_ratio"],
                    "preemptions": sum(o.n_preemptions for o in outcomes)},
        "store": {k: v for k, v in run["service"].stats.items()
                  if isinstance(v, (int, float))},
    }


# -- shared helpers ------------------------------------------------------------------

def _sum_dicts(*dicts) -> dict:
    total: dict = {}
    for d in dicts:
        for key, value in d.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value
    return total


WORKLOADS = {
    "lu_restart": (lu_setup, lu_run),
    "bigmem_store": (bigmem_setup, bigmem_run),
    "service_stream": (service_setup, service_run),
}
