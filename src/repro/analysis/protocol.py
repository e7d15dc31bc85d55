"""Runtime verbs-protocol monitor: the dynamic half of the analysis gate.

The :class:`ProtocolMonitor` sits in the ``monitor`` slot of
:mod:`repro.instrument` (``installed(monitor=ProtocolMonitor())`` —
``core`` never imports ``analysis``) and validates, while the simulation
runs, the invariants the paper's correctness argument rests on that need
no timeline:

``qp-state-machine``
    Every ``modify_qp`` the application issues — and every modify the
    plugin *replays* at restart (Principle 6) — must follow the legal
    RESET→INIT→RTR→RTS progression.  One shared table,
    :data:`~repro.ibverbs.enums.LEGAL_QP_TRANSITIONS`, backs both the
    library model and this check.  :meth:`ProtocolMonitor.on_replay_qp`
    walks a QP's whole modify log from RESET before the first replayed
    modify reaches the re-created QP.

``rkey-pd``
    Rkey translation is per-PD (§3.2.2).  If a virtual rkey fails to
    resolve under the remote QP's PD but *would* resolve under some
    other PD, the application is mixing rkeys across protection domains
    — a silent-data-corruption bug on real hardware.

Each of the other runtime rules has one home elsewhere: an orphan
completion raises :class:`~repro.core.ib_plugin.WqeLogError` in the
shadow layer (Principle 3), and replay balance — the re-posts equal the
surviving logged set (Principle 6) — is the ``replay-balance`` trace
invariant in :mod:`repro.obs.invariants`.

``strict`` (the default) raises :class:`ProtocolViolation` at the
offending call; non-strict accumulates violations for ``summary()``.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, List, Optional

from ..ibverbs.enums import QpAttrMask, QpState, qp_transition_legal

__all__ = ["ProtocolViolation", "ProtocolMonitor"]


class ProtocolViolation(AssertionError):
    """A verbs-protocol invariant was broken at runtime."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant


class ProtocolMonitor:
    """Validates shadow-layer events against the protocol invariants."""

    def __init__(self, strict: bool = True):
        self.strict = strict
        self.counts: Counter = Counter()
        self.violations: List[str] = []
        #: application-visible QP state, tracked here because the shadow
        #: VirtualQp deliberately does not mirror it
        self._qp_state: Dict[int, QpState] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _violate(self, invariant: str, message: str) -> None:
        self.counts[f"violation:{invariant}"] += 1
        self.violations.append(f"[{invariant}] {message}")
        if self.strict:
            raise ProtocolViolation(invariant, message)

    def summary(self) -> Dict[str, Any]:
        return {
            "events": dict(self.counts),
            "violations": list(self.violations),
            "qps_tracked": len(self._qp_state),
        }

    # -- qp lifecycle / state machine ----------------------------------------

    def on_create_qp(self, vqp: Any) -> None:
        self.counts["create_qp"] += 1
        self._qp_state[id(vqp)] = QpState.RESET

    def on_destroy_qp(self, vqp: Any) -> None:
        self.counts["destroy_qp"] += 1
        self._qp_state.pop(id(vqp), None)

    def on_modify_qp(self, vqp: Any, attr: Any, mask: QpAttrMask) -> None:
        self.counts["modify_qp"] += 1
        if not mask & QpAttrMask.STATE:
            return
        old = self._qp_state.get(id(vqp), QpState.RESET)
        new = attr.qp_state
        if not qp_transition_legal(old, new):
            self._violate(
                "qp-state-machine",
                f"illegal transition {old.name} -> {new.name} on "
                f"vqpn {vqp.qp_num}")
            return  # non-strict: do not advance through an illegal jump
        self._qp_state[id(vqp)] = new

    # -- restart replay (Principle 6) ----------------------------------------

    def on_replay_qp(self, vqp: Any) -> None:
        """Walk ``vqp.modify_log`` from RESET — the state the re-created
        real QP starts in — before any of it is replayed."""
        self.counts["replay_qp"] += 1
        state = QpState.RESET
        for attr, mask in vqp.modify_log:
            if not mask & QpAttrMask.STATE:
                continue
            new = attr.qp_state
            if not qp_transition_legal(state, new):
                self._violate(
                    "qp-state-machine",
                    f"replayed modify_qp walks an illegal transition "
                    f"{state.name} -> {new.name} on vqpn {vqp.qp_num}: "
                    "the modify log was poisoned before the checkpoint")
                return
            state = new

    # -- rkey translation (§3.2.2) -------------------------------------------

    def on_translate_rkey(self, plugin: Any, vqp: Any, vrkey: int,
                          qinfo: Optional[Dict[str, Any]],
                          rkey: Optional[int]) -> None:
        self.counts["translate_rkey"] += 1
        if rkey is not None or qinfo is None:
            return
        suffix = f":{vrkey}"
        other_pds = [key.split(":")[1] for key in plugin.db
                     if key.startswith("mr:") and key.endswith(suffix)]
        if other_pds:
            self._violate(
                "rkey-pd",
                f"vrkey {vrkey:#x} does not resolve under the remote "
                f"QP's pd {qinfo['pd']} but is registered under pd(s) "
                f"{sorted(set(other_pds))}: rkeys are per-PD (§3.2.2) "
                "and must not cross protection domains")
