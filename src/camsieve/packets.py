"""pcap reading and Ethernet/IP/TCP/UDP decoding into normalized packet records.

Only classic pcap is supported (both endiannesses, micro- and nanosecond
timestamp resolution). pcapng files are rejected at the magic check.
"""
from __future__ import annotations

import ipaddress
import socket
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, NamedTuple

from .errors import MalformedCapture

LINKTYPE_ETHERNET = 1
LINKTYPE_RAW_IP = 101

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD
ETHERTYPE_VLAN = (0x8100, 0x88A8)

IPPROTO_TCP = 6
IPPROTO_UDP = 17
PROTOCOL_NAMES = {IPPROTO_TCP: "TCP", IPPROTO_UDP: "UDP"}

# libpcap's MAXIMUM_SNAPLEN: no real capture holds a longer record
MAX_RECORD_LENGTH = 262_144

# magic -> (byte order, divisor turning the subsecond field into microseconds)
_PCAP_MAGICS = {
    0xA1B2C3D4: ("<", 1),
    0xD4C3B2A1: (">", 1),
    0xA1B23C4D: ("<", 1000),
    0x4D3CB2A1: (">", 1000),
}


class TcpFlags:
    """Bit masks of the TCP flags byte: `p.tcp_flags & TcpFlags.PSH`."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWE = 0x80  # congestion-window-reduced bit, named as in the CSV schema


@dataclass(frozen=True)
class PacketRecord:
    """One decoded TCP or UDP packet, timestamp in microseconds since epoch."""

    timestamp: int
    src_ip: str
    dst_ip: str
    src_port: int
    dst_port: int
    protocol: int  # IPPROTO_TCP or IPPROTO_UDP
    total_length: int  # bytes on the wire (pcap orig_len, link header included)
    transport_header_length: int
    payload_length: int  # transport payload bytes on the wire, from the IP/UDP length fields
    payload: bytes  # the captured payload bytes, fewer than payload_length on a snaplen cut
    tcp_flags: int = 0  # raw flags byte; always 0 for UDP
    tcp_window: int = 0  # always 0 for UDP


class CapturedFrame(NamedTuple):
    timestamp: int  # microseconds
    link_type: int
    data: bytes
    wire_length: int


def open_capture(path: str | Path) -> Iterator[CapturedFrame]:
    """Yield raw frames from a pcap file in file order.

    Timestamps are converted to microseconds (nanosecond captures are
    truncated). Raises MalformedCapture on a bad magic number, a record
    longer than MAX_RECORD_LENGTH or a record cut short by file truncation;
    frames before the bad record are still yielded.
    """
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24:
            raise MalformedCapture(f"{path}: file shorter than a pcap global header")
        magic_le = struct.unpack("<I", header[:4])[0]
        if magic_le not in _PCAP_MAGICS:
            raise MalformedCapture(f"{path}: unrecognized magic 0x{magic_le:08X}")
        order, subsec_div = _PCAP_MAGICS[magic_le]
        link_type = struct.unpack(order + "I", header[20:24])[0]

        while True:
            rec = fh.read(16)
            if not rec:
                return
            if len(rec) < 16:
                raise MalformedCapture(f"{path}: truncated record header")
            ts_sec, ts_frac, incl_len, orig_len = struct.unpack(order + "IIII", rec)
            if incl_len > MAX_RECORD_LENGTH:
                raise MalformedCapture(
                    f"{path}: record claims {incl_len} bytes, more than {MAX_RECORD_LENGTH}"
                )
            data = fh.read(incl_len)
            if len(data) < incl_len:
                raise MalformedCapture(f"{path}: truncated record body")
            ts_us = ts_sec * 1_000_000 + ts_frac // subsec_div
            yield CapturedFrame(ts_us, link_type, data, orig_len)


def decode_packet(
    raw_frame: bytes,
    link_type: int,
    timestamp: int = 0,
    wire_length: int | None = None,
) -> PacketRecord | None:
    """Decode one frame; returns None (skip) for anything that is not IP+TCP/UDP.

    Total by design: ARP, ICMP, unknown ethertypes, non-first IP fragments
    and malformed headers all skip rather than raise. 802.1Q tags are
    unwrapped transparently.
    """
    if wire_length is None:
        wire_length = len(raw_frame)

    if link_type == LINKTYPE_ETHERNET:
        if len(raw_frame) < 14:
            return None
        ethertype = struct.unpack("!H", raw_frame[12:14])[0]
        offset = 14
        tags = 0
        while ethertype in ETHERTYPE_VLAN and tags < 4:
            if len(raw_frame) < offset + 4:
                return None
            ethertype = struct.unpack("!H", raw_frame[offset + 2 : offset + 4])[0]
            offset += 4
            tags += 1
        if ethertype == ETHERTYPE_IPV4:
            return _decode_ipv4(raw_frame[offset:], timestamp, wire_length, offset)
        if ethertype == ETHERTYPE_IPV6:
            return _decode_ipv6(raw_frame[offset:], timestamp, wire_length, offset)
        return None

    if link_type == LINKTYPE_RAW_IP:
        if not raw_frame:
            return None
        version = raw_frame[0] >> 4
        if version == 4:
            return _decode_ipv4(raw_frame, timestamp, wire_length, 0)
        if version == 6:
            return _decode_ipv6(raw_frame, timestamp, wire_length, 0)
        return None

    return None


def _decode_ipv4(
    data: bytes, timestamp: int, wire_length: int, link_length: int
) -> PacketRecord | None:
    if len(data) < 20 or data[0] >> 4 != 4:
        return None
    header_len = (data[0] & 0x0F) * 4
    if header_len < 20 or len(data) < header_len:
        return None
    total_len = struct.unpack("!H", data[2:4])[0]
    frag_word = struct.unpack("!H", data[6:8])[0]
    if frag_word & 0x1FFF:  # non-first fragments carry no transport header
        return None
    proto = data[9]
    src = socket.inet_ntoa(data[12:16])
    dst = socket.inet_ntoa(data[16:20])
    # zero (segmentation offload), too small, or longer than the frame on the
    # wire: the length field is wrong, so trust the capture
    if not header_len <= total_len <= wire_length - link_length:
        total_len = len(data)
    return _decode_transport(
        data[header_len:total_len], proto, src, dst, timestamp, wire_length, total_len - header_len
    )


def _decode_ipv6(
    data: bytes, timestamp: int, wire_length: int, link_length: int
) -> PacketRecord | None:
    if len(data) < 40 or data[0] >> 4 != 6:
        return None
    payload_len = struct.unpack("!H", data[4:6])[0]
    next_header = data[6]
    # ipaddress, not inet_ntop: before Python 3.13 the two write IPv4-mapped
    # addresses differently (::ffff:102:304 vs ::ffff:1.2.3.4)
    src = str(ipaddress.IPv6Address(data[8:24]))
    dst = str(ipaddress.IPv6Address(data[24:40]))
    ip_end = 40 + payload_len
    if not payload_len or ip_end > wire_length - link_length:  # jumbogram or bogus
        ip_end = len(data)
    end = min(len(data), ip_end)
    offset = 40

    # walk the common extension-header chain; anything exotic is a skip
    while next_header not in (IPPROTO_TCP, IPPROTO_UDP):
        if next_header in (0, 43, 60):  # hop-by-hop, routing, destination opts
            if end < offset + 8:
                return None
            ext_len = (data[offset + 1] + 1) * 8
            next_header = data[offset]
            offset += ext_len
        elif next_header == 44:  # fragment header
            if end < offset + 8:
                return None
            frag_off = struct.unpack("!H", data[offset + 2 : offset + 4])[0] >> 3
            if frag_off:
                return None
            next_header = data[offset]
            offset += 8
        else:
            return None
        if offset > end:
            return None
    return _decode_transport(
        data[offset:end], next_header, src, dst, timestamp, wire_length, ip_end - offset
    )


def _decode_transport(
    data: bytes,
    proto: int,
    src: str,
    dst: str,
    timestamp: int,
    wire_length: int,
    segment_length: int,
) -> PacketRecord | None:
    """Decode the transport header at the start of data, the captured part of
    a segment that the IP header says is segment_length bytes long. Payload
    lengths come from these length fields, so a snaplen-cut frame reports its
    wire payload length."""
    if proto == IPPROTO_UDP:
        if len(data) < 8:
            return None
        src_port, dst_port, udp_len = struct.unpack("!HHH", data[:6])
        if 8 <= udp_len < segment_length:
            segment_length = udp_len
        return PacketRecord(
            timestamp=timestamp,
            src_ip=src,
            dst_ip=dst,
            src_port=src_port,
            dst_port=dst_port,
            protocol=IPPROTO_UDP,
            total_length=wire_length,
            transport_header_length=8,
            payload_length=segment_length - 8,
            payload=data[8:segment_length],
        )
    if proto == IPPROTO_TCP:
        if len(data) < 20:
            return None
        src_port, dst_port = struct.unpack("!HH", data[:4])
        header_len = (data[12] >> 4) * 4
        if header_len < 20 or len(data) < header_len:
            return None
        window = struct.unpack("!H", data[14:16])[0]
        return PacketRecord(
            timestamp=timestamp,
            src_ip=src,
            dst_ip=dst,
            src_port=src_port,
            dst_port=dst_port,
            protocol=IPPROTO_TCP,
            total_length=wire_length,
            transport_header_length=header_len,
            payload_length=segment_length - header_len,
            payload=data[header_len:],
            tcp_flags=data[13],
            tcp_window=window,
        )
    return None


def read_packets(path: str | Path) -> Iterator[PacketRecord]:
    """Decode every TCP/UDP packet in a capture, skipping everything else."""
    for frame in open_capture(path):
        record = decode_packet(frame.data, frame.link_type, frame.timestamp, frame.wire_length)
        if record is not None:
            yield record


def read_packets_sorted(path: str | Path) -> list[PacketRecord]:
    """All decodable packets, stably sorted by timestamp for flow assembly."""
    return sorted(read_packets(path), key=lambda p: p.timestamp)
