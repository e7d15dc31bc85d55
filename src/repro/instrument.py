"""The one instrumentation slot: the opt-in observers every layer reports to.

Three module-level slots, all ``None`` (off) by default:

``tracer``
    the lifecycle :class:`~repro.obs.trace.Tracer` — checkpoint, drain,
    refill, replay, store, service and migration timeline records;
``monitor``
    the strict runtime :class:`~repro.analysis.protocol.ProtocolMonitor`
    — QP state machine (application and replayed modifies) and per-PD
    rkey translation;
``chunksan``
    the :class:`~repro.analysis.chunksan.ChunkSan` shadow oracle —
    audits chunk stamps at every capture and migration pre-copy round.

Hook sites read ``instrument.tracer`` (and so on) at the call and skip
the hook when it is ``None``; hot loops bind the slot to a local first.
This module imports nothing from the package, so ``core``/``dmtcp``/
``faults``/``migrate``/``store``/``service`` reach their observers
without importing ``obs`` or ``analysis``.

:func:`installed` is the only way to set the slots::

    with installed(tracer=Tracer(), monitor=ProtocolMonitor()):
        ...

A slot passed ``None`` (or not passed) keeps its current value, so an
opt-in caller can write ``installed(tracer=t if trace else None)``
inside an outer install without switching the outer observer off.  On
exit every slot, and ``Region.touch``, is back to what it was.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["tracer", "monitor", "chunksan", "installed"]

tracer: Any = None
monitor: Any = None
chunksan: Any = None


@contextmanager
def installed(tracer: Any = None, monitor: Any = None,
              chunksan: Any = None) -> Iterator[None]:
    """Install the given observers for the body of the ``with`` block;
    nested installs restore the outer ones on exit.  A ChunkSan also
    interposes ``Region.touch`` (its own :meth:`recording_touches`
    context) for as long as it is installed."""
    slots = globals()
    given = {name: value for name, value in (
        ("tracer", tracer), ("monitor", monitor), ("chunksan", chunksan))
        if value is not None}
    prev = {name: slots[name] for name in given}
    slots.update(given)
    try:
        if chunksan is None:
            yield
        else:
            with chunksan.recording_touches():
                yield
    finally:
        slots.update(prev)
