"""Group packets into bidirectional flows with timeout and TCP-termination rules."""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable

from .errors import OutOfOrderTimestamp
from .packets import IPPROTO_TCP, PacketRecord, TcpFlags

DEFAULT_FLOW_TIMEOUT_US = 600_000_000
# a half-closed TCP flow is considered finished after this much silence
HALF_CLOSE_SILENCE_US = 1_000_000

Endpoint = tuple[str, int]


def canonical_key(pkt: PacketRecord) -> tuple[Endpoint, Endpoint, int]:
    """Direction-independent flow identity: (lower endpoint, higher endpoint, protocol)."""
    a = (pkt.src_ip, pkt.src_port)
    b = (pkt.dst_ip, pkt.dst_port)
    if b < a:
        a, b = b, a
    return (a, b, pkt.protocol)


class Termination(enum.Enum):
    TIMEOUT = "TIMEOUT"
    TCP_FIN = "TCP_FIN"
    TCP_RST = "TCP_RST"
    END_OF_CAPTURE = "END_OF_CAPTURE"


@dataclass
class FlowState:
    """One flow's decoded packets, both directions, in the order they were ingested.

    `packets` is in non-decreasing timestamp order: `FlowAssembler.ingest`
    rejects a decreasing timestamp, and a flow built by hand must keep that
    order, since `compute_features` reads `packets` as the flow's timeline.
    Forward means sent by the initiator's endpoint (`is_forward`); `split()`
    splits `packets` by that rule.
    """

    key: tuple[Endpoint, Endpoint, int]
    initiator: Endpoint
    responder: Endpoint
    start_ts: int
    last_ts: int
    packets: list[PacketRecord] = field(default_factory=list)
    termination: Termination | None = None
    fin_fwd: bool = False
    fin_bwd: bool = False

    @property
    def protocol(self) -> int:
        return self.key[2]

    @property
    def flow_id(self) -> str:
        src, dst = self.initiator, self.responder
        return f"{src[0]}-{dst[0]}-{src[1]}-{dst[1]}-{self.protocol}-{self.start_ts}"

    @property
    def packet_count(self) -> int:
        return len(self.packets)

    def is_forward(self, pkt: PacketRecord) -> bool:
        return (pkt.src_ip, pkt.src_port) == self.initiator

    def split(self) -> tuple[list[PacketRecord], list[PacketRecord]]:
        """(forward, backward) packets, each in ingest order, in one pass."""
        fwd: list[PacketRecord] = []
        bwd: list[PacketRecord] = []
        is_forward = self.is_forward
        for pkt in self.packets:
            (fwd if is_forward(pkt) else bwd).append(pkt)
        return fwd, bwd


class FlowAssembler:
    """Single-writer flow table; requires packets in non-decreasing time order."""

    def __init__(self, flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US):
        self.flow_timeout_us = flow_timeout_us
        self._table: dict[tuple, FlowState] = {}
        self._last_ts: int | None = None

    def ingest(self, pkt: PacketRecord) -> list[FlowState]:
        """Add one packet; returns any flows this packet completed."""
        if self._last_ts is not None and pkt.timestamp < self._last_ts:
            raise OutOfOrderTimestamp(
                f"packet at {pkt.timestamp} after {self._last_ts}; sort the capture first"
            )
        self._last_ts = pkt.timestamp

        key = canonical_key(pkt)
        completed: list[FlowState] = []
        flow = self._table.get(key)

        if flow is not None and pkt.timestamp - flow.start_ts > self.flow_timeout_us:
            completed.append(self._complete(key, Termination.TIMEOUT))
            flow = None
        elif (
            flow is not None
            and (flow.fin_fwd or flow.fin_bwd)
            and pkt.timestamp - flow.last_ts >= HALF_CLOSE_SILENCE_US
        ):
            completed.append(self._complete(key, Termination.TCP_FIN))
            flow = None

        if flow is None:
            flow = FlowState(
                key=key,
                initiator=(pkt.src_ip, pkt.src_port),
                responder=(pkt.dst_ip, pkt.dst_port),
                start_ts=pkt.timestamp,
                last_ts=pkt.timestamp,
            )
            self._table[key] = flow

        flow.packets.append(pkt)
        flow.last_ts = pkt.timestamp

        if pkt.protocol == IPPROTO_TCP:
            fin_both_before = flow.fin_fwd and flow.fin_bwd
            if pkt.tcp_flags & TcpFlags.RST:
                completed.append(self._complete(key, Termination.TCP_RST))
            elif fin_both_before and pkt.tcp_flags & (TcpFlags.ACK | TcpFlags.FIN):
                completed.append(self._complete(key, Termination.TCP_FIN))
            elif pkt.tcp_flags & TcpFlags.FIN:
                if flow.is_forward(pkt):
                    flow.fin_fwd = True
                else:
                    flow.fin_bwd = True
        return completed

    def flush(self) -> list[FlowState]:
        """Complete every open flow (END_OF_CAPTURE); idempotent once drained."""
        flows = sorted(self._table.values(), key=lambda f: (f.start_ts, f.flow_id))
        for flow in flows:
            flow.termination = Termination.END_OF_CAPTURE
        self._table.clear()
        return flows

    def _complete(self, key: tuple, termination: Termination) -> FlowState:
        flow = self._table.pop(key)
        flow.termination = termination
        return flow


def assemble_flows(
    packets: Iterable[PacketRecord], flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US
) -> list[FlowState]:
    """Run the assembler over a sorted packet stream; flows ordered by start time."""
    assembler = FlowAssembler(flow_timeout_us)
    flows: list[FlowState] = []
    for pkt in packets:
        flows.extend(assembler.ingest(pkt))
    flows.extend(assembler.flush())
    flows.sort(key=lambda f: (f.start_ts, f.flow_id))
    return flows
