"""Tests for the UPC/GASNet runtime, including checkpoint-restart of a
native (non-MPI) UPC job — the paper's §6.3 generality claim."""

import numpy as np
import pytest

from repro.core import InfinibandPlugin
from repro.dmtcp import dmtcp_launch, dmtcp_restart, native_launch
from repro.hardware import BUFFALO_CCR, Cluster
from repro.upc import make_upc_specs
from repro.sim import Environment


def _run_native(app, threads=4, n_nodes=4, **kw):
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=n_nodes, name="upc-test")
    specs = make_upc_specs(cluster, threads, app, **kw)
    session = native_launch(cluster, specs)
    results = env.run(until=env.process(session.wait()))
    return env, results


def test_barrier_and_ids():
    seen = {}

    def app(ctx, upc):
        seen[upc.MYTHREAD] = upc.THREADS
        yield from upc.barrier()
        return upc.MYTHREAD

    env, results = _run_native(app, threads=4)
    assert results == [0, 1, 2, 3]
    assert seen == {i: 4 for i in range(4)}


def test_memput_memget_roundtrip():
    def app(ctx, upc):
        seg = upc.core.segment
        view = seg.view(dtype=np.float64)
        n = 16
        if upc.MYTHREAD == 0:
            view[:n] = np.arange(n) + 1.0
            # put my first 128 bytes into thread 1's segment at offset 512
            yield from upc.memput(1, 512, 0, 8 * n)
        yield from upc.barrier()
        if upc.MYTHREAD == 1:
            got = np.frombuffer(seg.buffer, dtype=np.float64, count=n,
                                offset=512)
            return got.sum()
        return None

    env, results = _run_native(app, threads=2, n_nodes=2)
    assert results[1] == sum(range(1, 17))


def test_memget_one_sided():
    def app(ctx, upc):
        seg = upc.core.segment
        view = seg.view(dtype=np.float64)
        if upc.MYTHREAD == 1:
            view[:8] = 7.0
        yield from upc.barrier()
        if upc.MYTHREAD == 0:
            # fetch thread 1's data without thread 1 doing anything
            yield from upc.memget(1, 0, 1024, 64)
            got = np.frombuffer(seg.buffer, dtype=np.float64, count=8,
                                offset=1024)
            return float(got.sum())
        yield ctx.sleep(0.001)  # thread 1 is passive
        return None

    env, results = _run_native(app, threads=2, n_nodes=2)
    assert results[0] == 56.0


def test_shared_array_affinity_and_access():
    def app(ctx, upc):
        arr = upc.all_alloc(nblocks=8, block_bytes=64)
        # fill my blocks
        for b in range(8):
            if arr.owner(b) == upc.MYTHREAD:
                arr.local_view(b)[:] = float(b)
        yield from upc.barrier()
        # fetch every block one-sided and sum first elements
        scratch = upc.scratch(64)
        total = 0.0
        for b in range(8):
            yield from arr.get(b, scratch)
            got = np.frombuffer(upc.core.segment.buffer, dtype=np.float64,
                                count=8, offset=scratch)
            total += got[0]
        return total

    env, results = _run_native(app, threads=4)
    assert results == [28.0] * 4  # 0+1+...+7


def test_shared_array_remote_affinity_guard():
    def app(ctx, upc):
        arr = upc.all_alloc(nblocks=4, block_bytes=64)
        yield from upc.barrier()
        if upc.MYTHREAD == 0:
            with pytest.raises(ValueError):
                arr.local_view(1)  # affinity thread 1
        return True

    env, results = _run_native(app, threads=2, n_nodes=2)
    assert all(results)


def test_upc_checkpoint_restart_under_plugin():
    """A native UPC computation (RDMA gets, no MPI anywhere) survives
    checkpoint-restart onto a new cluster."""
    env = Environment()
    cluster = Cluster(env, BUFFALO_CCR, n_nodes=4, name="upc-prod")

    def app(ctx, upc):
        arr = upc.all_alloc(nblocks=upc.THREADS, block_bytes=256)
        mine = arr.local_view(upc.MYTHREAD)
        scratch = upc.scratch(256)
        total = 0.0
        for it in range(10):
            mine[:] = upc.MYTHREAD * 100.0 + it
            yield from upc.barrier()
            for b in range(upc.THREADS):
                yield from arr.get(b, scratch)
                got = np.frombuffer(upc.core.segment.buffer,
                                    dtype=np.float64, count=32,
                                    offset=scratch)
                total += float(got[0])
            yield from upc.barrier()
            yield ctx.compute(seconds=0.02)
        return total

    specs = make_upc_specs(cluster, 4, app)
    session = env.run(until=env.process(dmtcp_launch(
        cluster, specs, plugin_factory=lambda: [InfinibandPlugin()])))

    def scenario():
        yield env.timeout(0.12)
        ckpt = yield from session.checkpoint(intent="restart")
        cluster.teardown()
        cluster2 = Cluster(env, BUFFALO_CCR, n_nodes=4, name="upc-spare")
        session2 = yield from dmtcp_restart(cluster2, ckpt)
        return (yield from session2.wait())

    results = env.run(until=env.process(scenario()))
    expected = float(sum(sum(t * 100.0 + it for t in range(4))
                         for it in range(10)))
    assert results == [expected] * 4
