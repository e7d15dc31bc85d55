"""The interposition layer: a drop-in replacement for ``VerbsLib``.

``dmtcp_launch`` swaps this object into the process's library table, so
application code calls it exactly as it would call the real library (the
LD_PRELOAD analogue).  Every entry:

* translates virtual structs/ids to real ones before calling down
  (Principle 1), going through the saved real ``ops`` pointers for the
  "inline" functions (Principle 2);
* records posts and queue-pair modifications in the shadow logs
  (Principle 3);
* serves drained completions from the plugin's private queue before ever
  touching the real completion queue (Principle 5);
* charges the interposition overhead that shows up as the paper's 0.8-1.7%
  runtime tax.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, List, Optional

from ... import instrument
from ...ibverbs.enums import (
    QpAttrMask,
    QpType,
    SendFlags,
    WcOpcode,
    WrOpcode,
)
from ...ibverbs.structs import (
    VerbsError,
    ibv_port_attr,
    ibv_qp_init_attr,
    ibv_recv_wr,
    ibv_send_wr,
    ibv_sge,
    ibv_wc,
)
from .errors import UnsupportedQpTypeError
from .shadow import (
    RecvLogEntry,
    SendLogEntry,
    VirtualContext,
    VirtualCq,
    VirtualMr,
    VirtualPd,
    VirtualQp,
    VirtualSrq,
)

if TYPE_CHECKING:  # pragma: no cover
    from .plugin import InfinibandPlugin

_RECV_OPCODES = (WcOpcode.RECV, WcOpcode.RECV_RDMA_WITH_IMM)

__all__ = ["WrappedVerbs"]


class WrappedVerbs:
    """The application-facing verbs library under DMTCP."""

    def __init__(self, plugin: "InfinibandPlugin"):
        self.plugin = plugin

    # -- helpers -------------------------------------------------------------

    def _charge(self, nbytes: float = 0.0) -> None:
        self.plugin.charge_wrapper(nbytes)

    @property
    def _real(self):
        return self.plugin.real_lib

    # -- devices ------------------------------------------------------------------

    def get_device_list(self):
        self._charge()
        return self._real.get_device_list()

    def open_device(self, device) -> VirtualContext:
        self._charge()
        return self.plugin.open_device(device)

    def close_device(self, vctx: VirtualContext) -> None:
        self._charge()
        self._real.close_device(vctx.real)
        self.plugin.registry_remove(vctx)

    def query_port(self, vctx: VirtualContext,
                   port_num: int = 1) -> ibv_port_attr:
        """The application sees the *virtual* lid — frozen at first query,
        stable across restarts even though the real lid changes (§3.2)."""
        self._charge()
        attr = self._real.query_port(vctx.real, port_num)
        vctx.real_lid = attr.lid
        if vctx.vlid == 0:
            vctx.vlid = attr.lid
        return ibv_port_attr(lid=vctx.vlid, state=attr.state,
                             max_mtu=attr.max_mtu)

    # -- pds / mrs -----------------------------------------------------------------

    def alloc_pd(self, vctx: VirtualContext) -> VirtualPd:
        self._charge()
        return self.plugin.alloc_pd(vctx)

    def dealloc_pd(self, vpd: VirtualPd) -> None:
        self._charge()
        self._real.dealloc_pd(vpd.real)
        self.plugin.registry_remove(vpd)

    def reg_mr(self, vpd: VirtualPd, addr: int, length: int,
               access=None) -> VirtualMr:
        self._charge()
        return self.plugin.reg_mr(vpd, addr, length, access)

    def dereg_mr(self, vmr: VirtualMr) -> None:
        self._charge()
        self._real.dereg_mr(vmr.real)
        self.plugin.registry_remove(vmr)

    # -- cqs --------------------------------------------------------------------------

    def create_cq(self, vctx: VirtualContext, cqe: int = 4096) -> VirtualCq:
        self._charge()
        real = self._real.create_cq(vctx.real, cqe)
        vcq = VirtualCq(real=real, vcontext=vctx, cqe=cqe)
        self.plugin.registry_add(vcq)
        return vcq

    def destroy_cq(self, vcq: VirtualCq) -> None:
        self._charge()
        self._real.destroy_cq(vcq.real)
        self.plugin.registry_remove(vcq)

    def poll_cq(self, vcq: VirtualCq, num_entries: int) -> List[ibv_wc]:
        """Inline function → dispatch through the (plugin's) ops table."""
        return vcq.context.ops.poll_cq(vcq, num_entries)

    def req_notify_cq(self, vcq: VirtualCq, solicited_only: bool = False):
        return vcq.context.ops.req_notify_cq(vcq, solicited_only)

    def get_cq_event(self, notify_event):
        return notify_event

    # -- srqs ---------------------------------------------------------------------------

    def create_srq(self, vpd: VirtualPd, max_wr: int = 4096) -> VirtualSrq:
        self._charge()
        real = self._real.create_srq(vpd.real, max_wr)
        vsrq = VirtualSrq(real=real, vpd=vpd, max_wr=max_wr)
        self.plugin.registry_add(vsrq)
        return vsrq

    def modify_srq(self, vsrq: VirtualSrq, limit: int) -> None:
        self._charge()
        vsrq.modify_log.append(limit)  # recorded for restart replay
        vsrq.limit = limit
        self._real.modify_srq(vsrq.real, limit)

    def destroy_srq(self, vsrq: VirtualSrq) -> None:
        self._charge()
        self._real.destroy_srq(vsrq.real)
        self.plugin.registry_remove(vsrq)

    def post_srq_recv(self, vsrq: VirtualSrq, wr: ibv_recv_wr) -> None:
        return vsrq.context.ops.post_srq_recv(vsrq, wr)

    # -- qps ------------------------------------------------------------------------------

    def create_qp(self, vpd: VirtualPd,
                  init_attr: ibv_qp_init_attr) -> VirtualQp:
        self._charge()
        return self.plugin.create_qp(vpd, init_attr)

    def modify_qp(self, vqp: VirtualQp, attr, mask: QpAttrMask) -> None:
        self._charge()
        monitor = instrument.monitor
        if monitor is not None:
            # validate against the shared transition table before the call
            # is logged or forwarded — an illegal jump must not poison the
            # replay log
            monitor.on_modify_qp(vqp, attr, mask)
        # Principle 3: record for restart replay (with the app's VIRTUAL ids)
        vqp.modify_log.append((attr.copy(), mask))
        if mask & QpAttrMask.DEST_QPN:
            vqp.remote_vqpn = attr.dest_qp_num
        if mask & QpAttrMask.AV:
            vqp.remote_vlid = attr.dlid
        self._real.modify_qp(
            vqp.real, self.plugin.translate_qp_attr(attr, mask, vqp), mask)

    def destroy_qp(self, vqp: VirtualQp) -> None:
        self._charge()
        self._real.destroy_qp(vqp.real)
        self.plugin.registry_remove(vqp)
        if instrument.monitor is not None:
            instrument.monitor.on_destroy_qp(vqp)

    def post_send(self, vqp: VirtualQp, wr: ibv_send_wr) -> None:
        """Inline function → dispatch through the (plugin's) ops table."""
        return vqp.context.ops.post_send(vqp, wr)

    def post_recv(self, vqp: VirtualQp, wr: ibv_recv_wr) -> None:
        return vqp.context.ops.post_recv(vqp, wr)

    # -- ops-table entries (installed into VirtualContext.ops) ------------------------

    def ops_post_send(self, vqp: VirtualQp, wr: ibv_send_wr) -> None:
        logical = sum(s.length for s in wr.sg_list)
        self._charge(logical)
        self.plugin.charge_ib2tcp_copy(logical)
        if vqp.qp_type is QpType.UD:
            raise UnsupportedQpTypeError(
                "UD queue pairs are not supported (§4)")
        if self.plugin.delegated:
            self.plugin.fallback.post_send(vqp, wr)
            return
        is_inline = bool(wr.send_flags & SendFlags.INLINE)
        rdma = wr.opcode in (WrOpcode.RDMA_WRITE, WrOpcode.RDMA_WRITE_WITH_IMM)
        assume = (wr.opcode is WrOpcode.RDMA_WRITE_WITH_IMM
                  or (rdma and is_inline))
        signaled = vqp.sq_sig_all or bool(wr.send_flags & SendFlags.SIGNALED)
        entry = SendLogEntry(wr=wr.copy(), signaled=signaled,
                             assume_complete_on_drain=assume)
        vqp.send_log.append(entry)
        real_wr = self._translate_send_wr(vqp, wr)
        vqp.context.real_ops.post_send(vqp.real, real_wr)

    def ops_post_recv(self, vqp: VirtualQp, wr: ibv_recv_wr) -> None:
        self._charge()
        self.plugin.charge_ib2tcp_copy(0.0)
        vqp.recv_log.append(RecvLogEntry(wr=wr.copy()))
        if self.plugin.delegated:
            self.plugin.fallback.post_recv(vqp, wr.copy())
            return
        vqp.context.real_ops.post_recv(vqp.real,
                                       self._translate_recv_wr(wr))

    def ops_post_srq_recv(self, vsrq: VirtualSrq, wr: ibv_recv_wr) -> None:
        self._charge()
        vsrq.recv_log.append(RecvLogEntry(wr=wr.copy()))
        if self.plugin.delegated:
            self.plugin.fallback.post_srq_recv(vsrq, wr.copy())
            return
        vsrq.context.real_ops.post_srq_recv(vsrq.real,
                                            self._translate_recv_wr(wr))

    def ops_poll_cq(self, vcq: VirtualCq, num_entries: int) -> List[ibv_wc]:
        """Principle 5: refill from the plugin's private queue first; the
        real CQ is only polled once the private queue is empty."""
        self._charge()
        private_before = len(vcq.private_queue)
        out: List[ibv_wc] = []
        while vcq.private_queue and len(out) < num_entries:
            out.append(vcq.private_queue.pop(0))
        served_private = len(out)
        if len(out) < num_entries and not self.plugin.delegated:
            real_wcs = vcq.context.real_ops.poll_cq(
                vcq.real, num_entries - len(out))
            for wc in real_wcs:
                self.plugin.bookkeep_completion(wc)
                out.append(self.plugin.translate_wc(wc))
        tracer = instrument.tracer
        if tracer is not None and (private_before > 0 or len(out)
                                   > served_private):
            # empty polls are not recorded — only refill activity and
            # real-CQ hits carry Principle-5 evidence
            tracer.emit("refill.poll", self.plugin.appctx.name,
                        self.plugin.appctx.env.now,
                        private_before=private_before,
                        served_private=served_private,
                        served_real=len(out) - served_private,
                        restarted=self.plugin.restarted)
        return out

    def ops_req_notify_cq(self, vcq: VirtualCq, solicited_only: bool = False):
        self._charge()
        return self.plugin.arm_notify(vcq)

    # -- wr translation --------------------------------------------------------------

    def _translate_send_wr(self, vqp: VirtualQp,
                           wr: ibv_send_wr) -> ibv_send_wr:
        real_wr = wr.copy()
        real_wr.sg_list = [self.plugin.translate_sge(s) for s in wr.sg_list]
        if wr.opcode in (WrOpcode.RDMA_WRITE, WrOpcode.RDMA_WRITE_WITH_IMM,
                         WrOpcode.RDMA_READ):
            real_wr.rkey = self.plugin.translate_rkey(vqp, wr.rkey)
            real_wr.remote_addr = wr.remote_addr  # virtual addrs restored 1:1
        return real_wr

    def _translate_recv_wr(self, wr: ibv_recv_wr) -> ibv_recv_wr:
        real_wr = wr.copy()
        real_wr.sg_list = [self.plugin.translate_sge(s) for s in wr.sg_list]
        return real_wr
