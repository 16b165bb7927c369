"""Group packets into bidirectional flows with timeout and TCP-termination rules."""
from __future__ import annotations

import enum
from array import array
from typing import Iterable

from .errors import OutOfOrderTimestamp
from .packets import IPPROTO_TCP, PacketRecord, TcpFlags, address_text

DEFAULT_FLOW_TIMEOUT_US = 600_000_000
# a half-closed TCP flow is considered finished after this much silence
HALF_CLOSE_SILENCE_US = 1_000_000

Endpoint = tuple[bytes, int]  # (raw address, port)


class Termination(enum.Enum):
    TIMEOUT = "TIMEOUT"
    TCP_FIN = "TCP_FIN"
    TCP_RST = "TCP_RST"
    END_OF_CAPTURE = "END_OF_CAPTURE"


class Flow:
    """What every flow keeps, whatever reads it: its identity, its timing, the
    `termination` that `assemble_flows` gives it and whether each side sent
    FIN (`fin_fwd`, `fin_bwd`).

    The identity is the first packet's source and destination endpoints,
    (raw address, port) pairs that only `flow_id` and the identity cells spell
    as text, as `initiator` and `responder`, and the IP protocol number as
    `protocol`. `start_ts` and `last_ts` are the first and last packet's
    timestamps.

    Each reader of a capture has its own subclass, which keeps what that
    reader needs of the packets: `FlowState` for the feature vector,
    `protocols.InspectedFlow` for inspect's report. `assemble_flows` builds
    flows of the one it is given and hands each packet to the flow's `add`,
    which sets `last_ts` and returns whether the packet is forward (sent from
    the initiator's endpoint). No flow keeps payload bytes: a reader of
    payloads reads each packet's `payload_head` in `add`.
    """

    __slots__ = ("initiator", "responder", "protocol", "start_ts", "last_ts", "termination",
                 "fin_fwd", "fin_bwd")

    def __init__(self, initiator: Endpoint, responder: Endpoint, protocol: int, start_ts: int):
        self.initiator = initiator
        self.responder = responder
        self.protocol = protocol
        self.start_ts = start_ts
        self.last_ts = start_ts
        self.termination: Termination | None = None
        self.fin_fwd = False
        self.fin_bwd = False

    @property
    def flow_id(self) -> str:
        src, dst = self.initiator, self.responder
        return (f"{address_text(src[0])}-{address_text(dst[0])}-{src[1]}-{dst[1]}-"
                f"{self.protocol}-{self.start_ts}")

    def add(self, pkt: PacketRecord) -> bool:
        """Take one packet of the flow; returns whether it is forward."""
        raise NotImplementedError


class FlowState(Flow):
    """A flow with its packets' columns, which `compute_features` reads.

    `add` appends one entry to every per-packet column:

    - `timestamps` and `payload_lengths`: `array('q')`
    - `directions`: a `bytearray`, 1 for a forward packet and 0 for a
      backward one
    - `header_lengths` (transport header bytes) and `tcp_flags` (the raw flags
      byte, 0 for UDP): `bytearray`s

    It also keeps the wire-byte sum (`wire_bytes`) and the TCP window of the
    first packet in each direction (`first_window_fwd`, `first_window_bwd`;
    None before that direction's first packet). The columns are in
    non-decreasing timestamp order: `assemble_flows` rejects a decreasing
    timestamp, and a flow built by hand must add its packets in that order,
    since `compute_features` reads the columns as the flow's timeline.
    """

    __slots__ = ("timestamps", "payload_lengths", "directions", "header_lengths", "tcp_flags",
                 "wire_bytes", "first_window_fwd", "first_window_bwd")

    def __init__(self, initiator: Endpoint, responder: Endpoint, protocol: int, start_ts: int):
        super().__init__(initiator, responder, protocol, start_ts)
        self.timestamps = array("q")
        self.payload_lengths = array("q")
        self.directions = bytearray()
        self.header_lengths = bytearray()
        self.tcp_flags = bytearray()
        self.wire_bytes = 0
        self.first_window_fwd: int | None = None
        self.first_window_bwd: int | None = None

    @property
    def packet_count(self) -> int:
        return len(self.timestamps)

    def add(self, pkt: PacketRecord) -> bool:
        """Append one packet to the columns; returns whether it is forward."""
        (timestamp, src_ip, _, src_port, _, _, total_length, header_length, payload_length,
         _, flags, window) = pkt
        forward = src_port == self.initiator[1] and src_ip == self.initiator[0]
        self.timestamps.append(timestamp)
        self.payload_lengths.append(payload_length)
        self.directions.append(forward)
        self.header_lengths.append(header_length)
        self.tcp_flags.append(flags)
        self.wire_bytes += total_length
        self.last_ts = timestamp
        if forward:
            if self.first_window_fwd is None:
                self.first_window_fwd = window
        elif self.first_window_bwd is None:
            self.first_window_bwd = window
        return forward


def assemble_flows(
    packets: Iterable[PacketRecord],
    flow_timeout_us: int = DEFAULT_FLOW_TIMEOUT_US,
    flow_type: type[Flow] = FlowState,
) -> list[Flow]:
    """Group packets in non-decreasing time order into flows, ordered by
    (start_ts, flow_id); a decreasing timestamp raises OutOfOrderTimestamp.

    A packet more than flow_timeout_us after its flow's start ends the flow
    (TIMEOUT), as does one HALF_CLOSE_SILENCE_US or more after the flow's last
    packet once either side sent FIN (TCP_FIN); the packet then opens a new
    flow. A TCP packet with RST (TCP_RST), or with ACK or FIN once both sides
    sent FIN (TCP_FIN), ends its flow after joining it. Flows still open when
    the packets run out end with END_OF_CAPTURE.

    The flows are made as `flow_type`, a Flow subclass, and each packet goes to
    its flow's `add` as it joins.
    """
    add = flow_type.add
    table: dict[tuple, Flow] = {}
    flows: list[Flow] = []
    last_ts = None
    for pkt in packets:
        timestamp, src_ip, dst_ip, src_port, dst_port, protocol, _, _, _, _, flags, _ = pkt
        if last_ts is not None and timestamp < last_ts:
            raise OutOfOrderTimestamp(f"packet at {timestamp} after {last_ts}; sort the capture first")
        last_ts = timestamp

        source = (src_ip, src_port)
        destination = (dst_ip, dst_port)
        if destination < source:  # one key for both directions: the lower endpoint first
            key = (destination, source, protocol)
        else:
            key = (source, destination, protocol)
        flow = table.get(key)
        if flow is not None:
            if timestamp - flow.start_ts > flow_timeout_us:
                flow.termination = Termination.TIMEOUT
            elif (flow.fin_fwd or flow.fin_bwd) and timestamp - flow.last_ts >= HALF_CLOSE_SILENCE_US:
                flow.termination = Termination.TCP_FIN
            if flow.termination is not None:
                flows.append(flow)
                flow = None
        if flow is None:
            flow = table[key] = flow_type(source, destination, protocol, timestamp)

        forward = add(flow, pkt)

        if protocol == IPPROTO_TCP:
            if flags & TcpFlags.RST:
                flow.termination = Termination.TCP_RST
            elif flow.fin_fwd and flow.fin_bwd and flags & (TcpFlags.ACK | TcpFlags.FIN):
                flow.termination = Termination.TCP_FIN
            elif flags & TcpFlags.FIN:
                if forward:
                    flow.fin_fwd = True
                else:
                    flow.fin_bwd = True
            if flow.termination is not None:
                flows.append(table.pop(key))

    for flow in table.values():
        flow.termination = Termination.END_OF_CAPTURE
    flows += table.values()
    flows.sort(key=lambda f: (f.start_ts, f.flow_id))
    return flows
