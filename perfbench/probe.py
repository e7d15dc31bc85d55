"""Host-time probes the benchmark wraps around the program's entry points.

Measured from outside the program: the probe replaces four public
callables for the life of one workload interpreter and records spans
(name, start, end, parent) in memory.

* ``Environment.run`` - the first call ends set-up and starts the wall
  clock (and, when tracing, the profiler);
* ``DmtcpSession.checkpoint`` - one span per coordinated checkpoint round,
  plus the images' ``capture_stats``;
* ``dmtcp_launch`` / ``dmtcp_restart`` - one span per launch or restart,
  up to the running session, plus the IB plugins' counters.

A round that raises is recorded as failed and the exception propagates
unchanged, so the program's own error handling still sees it.
"""

from __future__ import annotations

import cProfile
import sys
import time


class SetupDone(Exception):
    """Raised at the first ``Environment.run`` in set-up-only mode."""


class Probe:
    def __init__(self, profile: bool = False, setup_only: bool = False):
        self.t_first_run = None
        self.setup_only = setup_only
        self.profiler = cProfile.Profile() if profile else None
        self.spans = []         # [name, parent, t0, t1, attrs]
        self.stack = []         # open phase spans: parents of later spans
        self.rounds = []        # (host_s, ok, capture_stats sum)
        self.restarts = []      # (host_s, ok)
        #: the IB plugins' ``stats`` dicts by identity: a plugin rides the
        #: continuation through a restart, so each is counted once, and
        #: holding the dict alone keeps no cluster alive
        self.plugin_stats = {}
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, phase: bool = False, **attrs) -> int:
        """Open a span under the innermost open phase; a ``phase`` span
        becomes the parent of the spans opened until it ends."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, parent, time.perf_counter(), None, attrs])
        span = len(self.spans) - 1
        if phase:
            self.stack.append(span)
        return span

    def end(self, span: int, **attrs) -> float:
        record = self.spans[span]
        record[3] = time.perf_counter()
        record[4].update(attrs)
        if self.stack and self.stack[-1] == span:
            self.stack.pop()
        return record[3] - record[2]

    def span_dicts(self) -> list:
        return [{"id": i, "name": name, "parent": parent,
                 "start": t0 - self.t_first_run,
                 "seconds": None if t1 is None else t1 - t0, **attrs}
                for i, (name, parent, t0, t1, attrs) in enumerate(self.spans)]

    def core_stats(self) -> dict:
        total: dict = {}
        for stats in self.plugin_stats.values():
            for key, value in stats.items():
                total[key] = total.get(key, 0) + value
        return total

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _session_entry(self, entry, name: str, sink):
        """Wrap ``dmtcp_launch``/``dmtcp_restart``: a span per call, and
        the revived session's plugin counters."""
        probe = self

        def timed(*args, **kwargs):
            span = probe.begin(name)
            ok = False
            try:
                session = yield from entry(*args, **kwargs)
                for proc in session.procs:
                    for plugin in proc.plugins:
                        stats = getattr(plugin, "stats", None)
                        if stats is not None:
                            probe.plugin_stats[id(stats)] = stats
                ok = True
                return session
            finally:
                host_s = probe.end(span, ok=ok)
                if sink is not None:
                    sink.append((host_s, ok))

        return timed

    def install(self) -> None:
        from repro.dmtcp import launcher
        from repro.sim import Environment

        probe = self
        env_run = Environment.run
        checkpoint = launcher.DmtcpSession.checkpoint

        def run(env, *args, **kwargs):
            if probe.t_first_run is None:
                probe.t_first_run = time.perf_counter()
                if probe.setup_only:
                    raise SetupDone()
                if probe.profiler is not None:
                    probe.profiler.enable()
            return env_run(env, *args, **kwargs)

        def timed_checkpoint(session, intent="resume"):
            span = probe.begin("checkpoint", intent=intent)
            ok = False
            stats = {}
            try:
                ckpt = yield from checkpoint(session, intent)
                for record in ckpt.records:
                    for key, value in record.image.capture_stats.items():
                        if isinstance(value, (int, float)):
                            stats[key] = stats.get(key, 0) + value
                ok = True
                return ckpt
            finally:
                probe.rounds.append((probe.end(span, ok=ok), ok, stats))

        self._patch(Environment, "run", run)
        self._patch(launcher.DmtcpSession, "checkpoint", timed_checkpoint)
        # modules that imported an entry point by name hold their own
        # reference; rebind every one inside the program
        for entry, name, sink in (
                (launcher.dmtcp_launch, "launch", None),
                (launcher.dmtcp_restart, "restart", self.restarts)):
            timed = self._session_entry(entry, name, sink)
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro") \
                        and getattr(module, entry.__name__, None) is entry:
                    self._patch(module, entry.__name__, timed)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def stop_profile(self) -> None:
        if self.profiler is not None:
            self.profiler.disable()
