"""Fold a cProfile of one workload into per-layer host time and counts.

A layer is a ``repro.<package>``; its self time is the profile self time
of the functions defined in that package.  Code outside the program (C
builtins such as ``zlib.compress``, ``blake2b`` and ``pickle``, numpy, the
standard library) has no layer of its own: its self time is charged to
the layer that called it, split over its call edges by the time each edge
spent there, and passed further up through callers that are themselves
outside the program.  Time with no program caller at all is ``other``.
"""

from __future__ import annotations

import os

LAYERS = ("sim", "hardware", "ibverbs", "core", "mpi", "memory", "dmtcp",
          "store", "service", "net", "apps", "faults", "other")

#: profile ncalls of these functions are reported as boundary counts (a
#: generator's count includes its resumptions).  The verbs counts are the
#: ``VerbsLib`` driver entries every post and poll reaches, whether it
#: came through the IB plugin's ops table or straight from the app.
CALL_COUNTS = {
    "ibverbs.post_send.calls": ("ibverbs/verbs.py", "_drv_post_send"),
    "ibverbs.post_recv.calls": ("ibverbs/verbs.py", "_drv_post_recv"),
    "ibverbs.post_srq_recv.calls": ("ibverbs/verbs.py",
                                    "_drv_post_srq_recv"),
    "ibverbs.poll_cq.calls": ("ibverbs/verbs.py", "_drv_poll_cq"),
    "ibverbs.modify_qp.calls": ("ibverbs/verbs.py", "modify_qp"),
    "hardware.disk_writes.calls": ("hardware/storage.py", "write"),
    "hardware.disk_reads.calls": ("hardware/storage.py", "read"),
}

_MARK = os.sep.join(("", "src", "repro", ""))


def layer_of(filename: str):
    """The layer a source file belongs to, or None outside the program."""
    i = filename.rfind(_MARK)
    if i < 0:
        return None
    package = filename[i + len(_MARK):].split(os.sep, 1)[0]
    if package.endswith(".py"):
        return "other"          # repro/__init__.py and top-level modules
    return package if package in LAYERS else "other"


def owner_resolver(stats: dict):
    """``owner(key) -> {layer: fraction}`` for a profiled function: its own
    layer, or - outside the program - its callers' layers weighted by the
    cumulative time of each call edge (memoized; call cycles are cut)."""
    memo: dict = {}

    def owner(key, active=frozenset()):
        if key in memo:
            return memo[key]
        layer = layer_of(key[0])
        if layer is not None:
            return {layer: 1.0}
        callers = {c: edge for c, edge in stats.get(key, (0,) * 4 + ({},))[4]
                   .items() if c not in active}
        total = sum(edge[3] for edge in callers.values())
        out: dict = {}
        for caller, edge in callers.items():
            weight = edge[3] / total if total > 0 else 1.0 / len(callers)
            for name, frac in owner(caller, active | {key}).items():
                out[name] = out.get(name, 0.0) + frac * weight
        out = out or {"other": 1.0}
        if not active:
            memo[key] = out
        return out

    return owner


def fold(stats: dict) -> dict:
    """Per-layer self seconds from a ``pstats.Stats(...).stats`` mapping
    ``(file, line, func) -> (cc, nc, tt, ct, callers)``, where each
    caller edge is ``(nc, cc, tt, ct)``."""
    owner = owner_resolver(stats)
    self_s = {name: 0.0 for name in LAYERS}
    for key, (_cc, _nc, tt, _ct, callers) in stats.items():
        if layer_of(key[0]) is not None or not callers:
            for name, frac in owner(key).items():
                self_s[name] += tt * frac
            continue
        # outside the program: each call edge carries its own self time
        for caller, edge in callers.items():
            for name, frac in owner(caller).items():
                self_s[name] += edge[2] * frac
    return self_s


def shares(self_s: dict) -> dict:
    total = sum(self_s.values())
    return {name: (v / total if total else 0.0) for name, v in self_s.items()}


def call_counts(stats: dict) -> dict:
    out = {name: 0 for name in CALL_COUNTS}
    for (filename, _line, func), row in stats.items():
        for name, (suffix, wanted) in CALL_COUNTS.items():
            if func == wanted and filename.endswith(
                    _MARK + suffix.replace("/", os.sep)):
                out[name] += row[1]
    return out


def builtin_by_layer(stats: dict, label: str, layer: str) -> tuple:
    """(calls, self seconds) of the builtin profiled as ``label`` (such as
    ``<built-in method zlib.compress>``) made on behalf of ``layer``."""
    owner = owner_resolver(stats)
    calls, seconds = 0.0, 0.0
    for key, (_cc, _nc, _tt, _ct, callers) in stats.items():
        if key[0] != "~" or key[2] != label:
            continue
        for caller, edge in callers.items():
            frac = owner(caller).get(layer, 0.0)
            calls += edge[0] * frac
            seconds += edge[2] * frac
    return round(calls), seconds
