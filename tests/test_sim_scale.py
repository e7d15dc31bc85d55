"""Scale/determinism tests for the batched event core (BENCH_sim PR).

The optimization contract is *bit-identical replay*: the ready-lane /
pooled kernel must process the exact event stream the seed kernel did.
These tests pin that from four directions:

* hypothesis property tests race random timeout/spawn/interrupt programs
  through the batched :class:`Environment` and the pure-heap
  :class:`ReferenceEnvironment` and require identical resume order,
  final clock, and event counts;
* the 1024-rank pingpong witnesses (events / sim_seconds / checksum)
  are pinned against the values recorded with the seed kernel;
* same-timestamp ties must fire in insertion order through the batched
  drain, and kernel misuse (double-trigger) must still raise;
* a 512-rank LU chaos run (node crash mid-flight, ChunkSan oracle on)
  must restore bit-identically to the crash-free checksum.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    Environment,
    Interrupt,
    ReferenceEnvironment,
    SimulationError,
    Store,
)

BASELINE = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                        "baseline_sim_seed.json")

with open(BASELINE) as _fh:
    SEED_BASELINE = json.load(_fh)


# -- property: batched kernel == reference kernel --------------------------------

_DELAYS = (0.0, 0.0, 0.0, 1e-6, 2e-6, 5e-6, 1e-3)

_op = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("spawn"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("event"), st.just(None)),
    st.tuples(st.just("interrupt"), st.sampled_from(_DELAYS)),
)

_programs = st.lists(st.lists(_op, min_size=1, max_size=6),
                     min_size=2, max_size=5)


def _run_program(env_cls, program):
    """Run one generated multi-process program; returns its full resume
    trace (the observable pop order), final clock, and event count."""
    env = env_cls()
    trace = []
    procs = []

    def body(pid, ops):
        for j, (op, arg) in enumerate(ops):
            try:
                if op == "timeout":
                    yield env.timeout(arg, value=(pid, j))
                elif op == "spawn":
                    def child(cid=(pid, j), delay=arg):
                        yield env.timeout(delay)
                        trace.append(("child", cid, env.now))
                    env.process(child())
                    yield env.timeout(0.0)
                elif op == "event":
                    evt = env.event()
                    evt.succeed((pid, j))
                    yield env.timeout(0.0)
                    trace.append(("event", evt.value, env.now))
                elif op == "interrupt":
                    target = procs[(pid + 1) % len(procs)]
                    if target.is_alive:
                        target.interrupt(cause=(pid, j))
                    yield env.timeout(arg)
            except Interrupt as intr:
                trace.append(("interrupted", pid, intr.cause, env.now))
        trace.append(("done", pid, env.now))

    for pid, ops in enumerate(program):
        procs.append(env.process(body(pid, ops), name=f"p{pid}"))
    env.run()
    return trace, env.now, env.stats.events


@settings(max_examples=80, deadline=None)
@given(_programs)
def test_batched_kernel_matches_reference(program):
    """The ready-lane/pooled drain preserves the exact pop order of the
    pure-heap reference on arbitrary timeout/spawn/interrupt programs."""
    got = _run_program(Environment, program)
    want = _run_program(ReferenceEnvironment, program)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(_DELAYS), min_size=2, max_size=12))
def test_store_pipeline_matches_reference(delays):
    """Producer/consumer through a Store: item arrival order and clock
    are kernel-independent."""

    def run(env_cls):
        env = env_cls()
        store = Store(env)
        seen = []

        def producer():
            for i, d in enumerate(delays):
                yield env.timeout(d)
                store.put(i)

        def consumer():
            for _ in delays:
                item = yield store.get()
                seen.append((item, env.now))

        env.process(producer())
        env.process(consumer())
        env.run()
        return seen, env.now, env.stats.events

    assert run(Environment) == run(ReferenceEnvironment)


# -- pinned pre-optimization witnesses -------------------------------------------

def test_pingpong_1024_matches_seed_witnesses():
    """Same seeds => bit-identical events / sim clock / checksum as the
    pre-optimization kernel (values recorded at the seed commit)."""
    from repro.experiments.sim_scale import run_pingpong

    want = SEED_BASELINE["pingpong"]["1024"]
    got = run_pingpong(1024)
    assert got["events"] == want["events"]
    assert got["sim_seconds"] == want["sim_seconds"]
    assert got["checksum"] == want["checksum"]


# -- tie-break + misuse semantics ------------------------------------------------

def test_same_timestamp_fires_in_insertion_order_through_batched_drain():
    """A same-timestamp wake storm from many processes drains in exact
    insertion order — both on the zero-delay (ready lane) and the equal
    -nonzero-delay (heap) path."""
    for delay in (0.0, 1e-3):
        env = Environment()
        order = []

        def waker(i, delay=delay):
            yield env.timeout(delay)
            order.append(i)

        for i in range(64):
            env.process(waker(i))
        env.run()
        assert order == list(range(64))
        # the drain was actually batched: one timestamp, 64+ pops
        assert env.stats.max_batch >= 64


def test_interleaved_zero_and_positive_delays_keep_global_order():
    """The ready lane never jumps ahead of an earlier heap deadline."""
    env = Environment()
    order = []

    def late():
        yield env.timeout(1e-9)
        order.append("late")

    def chain(n):
        for i in range(n):
            yield env.timeout(0.0)
            order.append(("zero", i))

    env.process(chain(3))
    env.process(late())
    env.run()
    assert order == [("zero", 0), ("zero", 1), ("zero", 2), "late"]


def test_double_trigger_still_raises():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)
    with pytest.raises(SimulationError):
        evt.fail(RuntimeError("x"))
    env.run()
    with pytest.raises(SimulationError):  # processed is still triggered
        evt.succeed(3)


def test_failed_event_without_handler_raises_at_step():
    env = Environment()
    evt = env.event()
    evt.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


# -- golden trace byte-identity --------------------------------------------------

def test_lu_precopy_migration_golden_trace_bytes_identical():
    """The canonical live-migration trace re-serializes byte-identical
    to the checked-in golden file: the batched kernel replayed the
    protocol's event ordering exactly."""
    from repro.obs import canonicalize
    from test_obs_golden import SCENARIOS, _golden_path

    events = canonicalize(SCENARIOS["lu_precopy_migration"]())
    blob = "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)
    with open(_golden_path("lu_precopy_migration")) as fh:
        assert fh.read() == blob


# -- 512-rank chaos restore ------------------------------------------------------

@pytest.mark.chunksan
def test_lu_512_node_crash_restores_bit_identically():
    """Crash a node mid-LU at 512 ranks, restart from the image (with
    the ChunkSan capture oracle auditing every chunk stamp), and require
    the final checksum to equal the crash-free run's — the restore
    reproduced the lost ranks' data bit-for-bit."""
    from repro.faults.harness import run_chaos_nas
    from repro.faults.schedule import FailureEvent, FixedSchedule

    # timeline (all sim time, fully deterministic): launch completes
    # ~7.2s, the 0.2s interval timer fires, and the class-A capture of
    # 512 ranks runs 7.4->26.694.  The crash at 26.71 lands after the
    # checkpoint commits but before the job finishes (26.73 crash-free),
    # forcing a restart from the image.
    out = run_chaos_nas(
        app="lu", klass="A", nprocs=512, ppn=16, iters_sim=10,
        seed=2014, ckpt_interval=0.2,
        schedule=FixedSchedule([FailureEvent(
            t=26.71, kind="node-crash", node_index=3)]),
        backoff_base=0.25)
    assert out.recovery.n_restarts >= 1
    assert out.recovery.n_checkpoints >= 1
    # data-dependent witness: the checksum of the *uninterrupted* run of
    # this same workload (seed 2014, iters_sim=10) — kernel-independent,
    # so equality means the restore reproduced every chunk exactly
    assert out.checksum == 1.9020139881052927e+43
    assert out.sim_stats is not None and out.sim_stats["events"] > 0
