"""The one instrumentation slot: ``repro.instrument.installed`` is the
single install point for the tracer, the protocol monitor and ChunkSan."""

import pytest

from repro import instrument
from repro.analysis import ChunkSan, ProtocolMonitor
from repro.instrument import installed
from repro.memory.address_space import Region
from repro.obs import Tracer


def test_nested_installs_restore_every_slot_and_region_touch():
    outer = (instrument.tracer, instrument.monitor, instrument.chunksan)
    orig_touch = Region.touch
    t1, m1, s1 = Tracer(), ProtocolMonitor(), ChunkSan()
    with installed(tracer=t1, monitor=m1, chunksan=s1):
        assert (instrument.tracer, instrument.monitor,
                instrument.chunksan) == (t1, m1, s1)
        touch1 = Region.touch
        assert touch1 is not orig_touch
        t2, s2 = Tracer(), ChunkSan()
        # a slot left out (or passed None) keeps the outer observer
        with installed(tracer=t2, monitor=None, chunksan=s2):
            assert (instrument.tracer, instrument.monitor,
                    instrument.chunksan) == (t2, m1, s2)
            assert Region.touch not in (orig_touch, touch1)
        assert (instrument.tracer, instrument.monitor,
                instrument.chunksan) == (t1, m1, s1)
        assert Region.touch is touch1
        with installed(monitor=ProtocolMonitor()):
            assert Region.touch is touch1
            assert instrument.chunksan is s1
    assert (instrument.tracer, instrument.monitor,
            instrument.chunksan) == outer
    assert Region.touch is orig_touch
    # an exception leaving the block restores just the same
    with pytest.raises(KeyError):
        with installed(tracer=Tracer(), monitor=ProtocolMonitor(),
                       chunksan=ChunkSan()):
            raise KeyError("boom")
    assert (instrument.tracer, instrument.monitor,
            instrument.chunksan) == outer
    assert Region.touch is orig_touch

