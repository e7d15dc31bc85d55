"""ChunkSan, the runtime shadow oracle: accepts every stamp bitmap a
disciplined (TrackedView / touch-covered) write sequence produces,
catches a seeded stale stamp with the chunk index and last-touch
backtrace, charges zero simulated time, and rides the chaos harness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instrument
from repro.analysis.chunksan import ChunkSan, ChunkSanError
from repro.dmtcp.image import CheckpointImage
from repro.instrument import installed
from repro.memory import CHUNK_BYTES, AddressSpace

SIZE = 4 * CHUNK_BYTES + 100


def _capture(mem, prev=None):
    return CheckpointImage.capture("p0", 1, "3.8.13", None, mem,
                                   gzip=False, prev=prev)


# -- the hypothesis property: disciplined writes always accepted ---------------


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, SIZE - 2),        # offset
              st.integers(1, 2 * CHUNK_BYTES),  # length
              st.integers(0, 255),              # value
              st.booleans()),                   # capture after this write?
    max_size=10))
def test_chunksan_accepts_all_tracked_write_sequences(writes):
    """Any stamp bitmap produced by random TrackedView writes (plus
    interleaved captures) satisfies the stamps ⊇ content-diff oracle."""
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    san = ChunkSan()
    with installed(chunksan=san):
        prev = _capture(mem)
        view = region.view()
        for off, length, value, ckpt in writes:
            end = min(SIZE, off + length)
            view[off:end] = value
            if ckpt:
                prev = _capture(mem, prev=prev)
        _capture(mem, prev=prev)
        assert san.stale_caught == 0
        assert san.regions_checked >= 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, SIZE - 65),
                          st.integers(1, 64)), max_size=8))
def test_chunksan_accepts_touch_covered_buffer_writes(writes):
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    san = ChunkSan()
    with installed(chunksan=san):
        prev = _capture(mem)
        for off, length in writes:
            region.buffer[off:off + length] = bytes([7]) * length
            region.touch(off, length)
            prev = _capture(mem, prev=prev)
        assert san.stale_caught == 0


# -- the seeded negative: a deliberately skipped touch() ----------------------


def test_chunksan_catches_seeded_stale_stamp():
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    san = ChunkSan()
    with installed(chunksan=san):
        prev = _capture(mem)
        # the bug under test: bytes move in chunk 2, stamps do not
        lo = 2 * CHUNK_BYTES + 17
        region.buffer[lo:lo + 4] = b"XXXX"
        with pytest.raises(ChunkSanError) as exc:
            _capture(mem, prev=prev)
        assert "chunk 2" in str(exc.value)
        assert "p0/data" in str(exc.value)
        assert san.stale_caught == 1


def test_chunksan_error_carries_last_touch_backtrace():
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    with installed(chunksan=ChunkSan()):
        prev = _capture(mem)
        view = region.view()
        view[0:10] = 9                   # the touch ChunkSan remembers
        prev = _capture(mem, prev=prev)
        region.buffer[0:4] = b"ZZZZ"     # ...then an untracked write
        with pytest.raises(ChunkSanError) as exc:
            _capture(mem, prev=prev)
    message = str(exc.value)
    assert "chunk 0" in message
    assert "test_chunksan.py" in message     # the view[0:10] frame


def test_untouched_chunk_reports_no_backtrace_available():
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    with installed(chunksan=ChunkSan()):
        prev = _capture(mem)
        region.buffer[0:4] = b"QQQQ"
        with pytest.raises(ChunkSanError) as exc:
            _capture(mem, prev=prev)
    assert "never touch()ed" in str(exc.value)


# -- re-seeding ----------------------------------------------------------------


def test_remapped_region_reseeds_instead_of_judging():
    """A region replaced wholesale between captures (restart path) must
    not be judged against the old object's stamps."""
    mem = AddressSpace("p0")
    mem.mmap("data", SIZE)
    san = ChunkSan()
    with installed(chunksan=san):
        _capture(mem)
        mem.munmap(mem.region("data"))
        mem.mmap("data", SIZE)           # same name, fresh object
        _capture(mem)
        assert san.stale_caught == 0


def test_restore_path_is_chunksan_clean():
    """AddressSpace.restore touches what it rewrites, so a checkpoint /
    mutate / restore / capture cycle satisfies the oracle."""
    mem = AddressSpace("p0")
    region = mem.mmap("data", SIZE)
    san = ChunkSan()
    with installed(chunksan=san):
        img = _capture(mem)
        view = region.view()
        view[10:20] = 5
        img2 = _capture(mem, prev=img)
        img.restore_memory(mem)
        _capture(mem, prev=img2)
        assert san.stale_caught == 0


# -- install wiring ------------------------------------------------------------


def test_install_uninstall_restores_class_state():
    from repro.memory.address_space import Region

    orig_touch = Region.touch
    prev = instrument.chunksan
    san = ChunkSan()
    with installed(chunksan=san):
        assert instrument.chunksan is san
        assert Region.touch is not orig_touch
    assert instrument.chunksan is prev
    assert Region.touch is orig_touch


# -- the pytest knob ----------------------------------------------------------


@pytest.mark.chunksan
def test_marker_knob_installs_the_oracle():
    """The conftest fixture: a chunksan-marked test runs with the
    oracle in the instrumentation slot."""
    assert isinstance(instrument.chunksan, ChunkSan)


# -- end to end: chaos harness, zero sim time ---------------------------------


def test_chaos_run_under_chunksan_is_timing_invariant():
    """An LU chaos run under ChunkSan completes with an identical
    fingerprint (checksum, completion time, failure record) to the
    unsanitized run — the oracle charges zero simulated time — and the
    outcome carries the audit volume."""
    from repro.faults.harness import run_chaos_nas

    base = run_chaos_nas(app="lu", iters_sim=12, seed=2014,
                         ckpt_interval=0.5, incremental=True)
    san = run_chaos_nas(app="lu", iters_sim=12, seed=2014,
                        ckpt_interval=0.5, incremental=True,
                        chunksan=True)
    assert san.fingerprint() == base.fingerprint()
    assert base.chunksan is None
    assert san.chunksan is not None
    assert san.chunksan["checks"] > 0
    assert san.chunksan["stale_caught"] == 0


def test_chunksan_emits_audit_trace_events():
    from repro.faults.harness import run_chaos_nas

    out = run_chaos_nas(app="lu", iters_sim=12, seed=2014,
                        ckpt_interval=0.5, incremental=True,
                        chunksan=True, trace=True)
    checks = [e for e in out.trace_events
              if e["kind"] == "chunksan.check"]
    assert checks and all(e["stale"] == 0 for e in checks)
    assert sum(1 for e in checks) == out.chunksan["checks"]

    from repro.obs import decompose, render
    decomp = decompose(out.trace_events)
    assert decomp["chunksan"]["checks"] == out.chunksan["checks"]
    assert "chunksan" in render(decomp)


def test_upc_ft_segment_judged_and_proven_clean_by_stamp():
    """UPC FT under ``dmtcp_launch(incremental=True)``: ChunkSan judges
    the shared segment like any region, the second capture proves the
    segment chunks FT never wrote clean by stamp alone, and the restart
    checksum equals the native one."""
    from repro.apps.nas.upc_ft import upc_ft_app
    from repro.core import InfinibandPlugin
    from repro.dmtcp import dmtcp_launch, dmtcp_restart, native_launch
    from repro.hardware import BUFFALO_CCR, Cluster
    from repro.sim import Environment
    from repro.upc import make_upc_specs

    threads = 4

    def app(ctx, upc):
        return (yield from upc_ft_app(ctx, upc, "B", 2))

    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=threads, name="upc-nat")
    native = env.run(until=env.process(native_launch(
        cluster, make_upc_specs(cluster, threads, app)).wait()))

    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=threads, name="upc-san")
    san = ChunkSan()
    with installed(chunksan=san):
        session = env.run(until=env.process(dmtcp_launch(
            cluster, make_upc_specs(cluster, threads, app),
            plugin_factory=lambda: [InfinibandPlugin()],
            incremental=True)))

        def scenario():
            yield env.timeout(10.0)
            first = yield from session.checkpoint(intent="resume")
            yield env.timeout(10.0)
            second = yield from session.checkpoint(intent="restart")
            cluster.teardown()
            cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=threads,
                               name="upc-san-spare")
            session2 = yield from dmtcp_restart(cluster2, second)
            results = yield from session2.wait()
            return first, second, results

        first, second, results = env.run(until=env.process(scenario()))

    assert san.stale_caught == 0
    # the segment (256 chunks per thread) is judged, not skipped
    segment_chunks = (1 << 20) // CHUNK_BYTES
    assert san.regions_checked > 0
    assert san.chunks_checked >= threads * segment_chunks
    for before, after in zip(first.records, second.records):
        stats = after.image.capture_stats
        assert stats["mode"] == "incremental"
        assert stats["chunks_hash_skipped"] > 0
        seg = f"{after.name}.upc.segment"
        gens = [np.frombuffer(rec.image.region_meta[seg]["chunk_gens"],
                              dtype=np.int64)
                for rec in (before, after)]
        # chunks FT never wrote between the captures kept their stamps
        assert int(np.count_nonzero(gens[0] == gens[1])) > 0
    assert [r.checksum for r in results] == [r.checksum for r in native]
