"""pcap reading and Ethernet/IP/TCP/UDP decoding into normalized packet records.

Only classic pcap is supported (both endiannesses, micro- and nanosecond
timestamp resolution). pcapng files are rejected at the magic check.
"""
from __future__ import annotations

import ipaddress
import socket
import struct
from operator import attrgetter
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

# Bytes a capture is read in at a time; a longer record takes more than one
# block. A 64 KiB block's frames are still in cache when they are decoded:
# blocks of MAX_RECORD_LENGTH read frames 0.3-0.7 us a frame slower.
_BLOCK_SIZE = 1 << 16

# Payload bytes a packet record keeps: the fixed 12-byte RTP header, the most
# that any `protocols` heuristic reads. Features read payload_length, so a
# record's size does not grow with its payload.
PAYLOAD_HEAD = 12

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


class PacketRecord(NamedTuple):
    """One decoded TCP or UDP packet, timestamp in microseconds since epoch."""

    timestamp: int
    src_ip: bytes  # raw network-order address: 4 bytes for IPv4, 16 for IPv6
    dst_ip: bytes
    src_port: int
    dst_port: int
    protocol: int  # IPPROTO_TCP or IPPROTO_UDP
    total_length: int  # bytes on the wire (pcap orig_len, link header included)
    transport_header_length: int
    payload_length: int  # transport payload bytes on the wire, from the IP/UDP length fields
    payload_head: bytes  # the first PAYLOAD_HEAD captured payload bytes, or all of fewer
    tcp_flags: int = 0  # raw flags byte; always 0 for UDP
    tcp_window: int = 0  # always 0 for UDP


class CapturedFrame(NamedTuple):
    timestamp: int  # microseconds
    link_type: int
    data: bytes
    wire_length: int


# Builds a record from the tuple of its fields without the Python-level
# `__new__` that NamedTuple gives each class: _new(PacketRecord, fields).
_new = tuple.__new__


def open_capture(path: str | Path) -> Iterator[CapturedFrame]:
    """Yield raw frames from a pcap file in file order.

    Timestamps are converted to microseconds (nanosecond captures are
    truncated). A frame's data stops before the FCS that the header's
    link-type field announces, as far as the record holds it; its wire
    length keeps the FCS. Raises MalformedCapture on a bad magic number, a
    record longer than MAX_RECORD_LENGTH or a record cut short by file
    truncation; frames before the bad record are still yielded. The file is
    read in blocks of _BLOCK_SIZE bytes and each record header is parsed in
    place, so a record costs no read of its own; a record that straddles
    blocks carries over to the next.
    """
    with open(path, "rb") as fh:
        header = fh.read(24)
        if len(header) < 24:
            raise MalformedCapture(f"{path}: file shorter than a pcap global header")
        magic_le = struct.unpack("<I", header[:4])[0]
        if magic_le not in _PCAP_MAGICS:
            raise MalformedCapture(f"{path}: unrecognized magic 0x{magic_le:08X}")
        order, subsec_div = _PCAP_MAGICS[magic_le]
        # the field's low 16 bits, as libpcap's LT_LINKTYPE reads them; bit 26
        # announces that each frame ends in an FCS of the 16-bit words in bits
        # 28-31 (draft-ietf-opsawg-pcap)
        field = struct.unpack(order + "I", header[20:24])[0]
        link_type = field & 0xFFFF
        fcs = (field >> 28) * 2 if field & 0x04000000 else 0
        record_header = struct.Struct(order + "IIII").unpack_from

        block = b""
        pos = 0
        while True:
            size = len(block)
            while size - pos >= 16:
                ts_sec, ts_frac, incl_len, orig_len = record_header(block, pos)
                if incl_len > MAX_RECORD_LENGTH:
                    raise MalformedCapture(
                        f"{path}: record claims {incl_len} bytes, more than {MAX_RECORD_LENGTH}"
                    )
                end = pos + 16 + incl_len
                if end > size:
                    break
                frame_end = end
                if fcs and orig_len - fcs < incl_len:  # the record holds FCS bytes
                    frame_end = pos + 16 + max(orig_len - fcs, 0)
                yield _new(CapturedFrame, (
                    ts_sec * 1_000_000 + ts_frac // subsec_div, link_type,
                    block[pos + 16 : frame_end], orig_len,
                ))
                pos = end
            more = fh.read(_BLOCK_SIZE)
            if not more:
                if pos == size:
                    return
                if size - pos < 16:
                    raise MalformedCapture(f"{path}: truncated record header")
                raise MalformedCapture(f"{path}: truncated record body")
            block = block[pos:] + more
            pos = 0


# a raw IP frame's version nibble -> the ethertype of its IP version
_RAW_IP_VERSIONS = {4: ETHERTYPE_IPV4, 6: ETHERTYPE_IPV6}


# Each header is read in place with one unpack_from call at its offset in the
# frame; only the payload head is ever copied out of it.
_U16 = struct.Struct("!H").unpack_from
# version/IHL, total length, fragment word, protocol, source, destination
_IPV4 = struct.Struct("!BxHxxHxB2x4s4s").unpack_from
# version, payload length, next header, source, destination
_IPV6 = struct.Struct("!B3xHBx16s16s").unpack_from
# source port, destination port, length
_UDP = struct.Struct("!HHH").unpack_from
# source port, destination port, data offset, flags, window
_TCP = struct.Struct("!HH8xBBH").unpack_from

# The common frame's fields, read with one call: untagged Ethernet, then IPv4
# without options (version/IHL 0x45), then the first 16 bytes of a UDP or TCP
# header. The call only reads: decode_packet checks these fields by the rules
# it checks every other frame's by. UDP's length field shares its bytes with
# the high half of TCP's sequence number, so one layout serves both.
# Ethertype, version/IHL, total length, fragment word, protocol, source,
# destination, source port, destination port, UDP length, TCP data offset,
# TCP flags, TCP window.
_COMMON = struct.Struct("!12xHBxH2xHxB2x4s4sHHH6xBBH")
_COMMON_LENGTH = _COMMON.size  # 50: the TCP window ends there
_common_frame = _COMMON.unpack_from

_IPV4_MAPPED_PREFIX = bytes(10) + b"\xff\xff"
_IPV4_MAPPED_TAIL = struct.Struct("!HH").unpack_from


def address_text(address: bytes) -> str:
    """The text of a raw 4-byte IPv4 or 16-byte IPv6 address, as a flow's
    identity is written. IPv6 is spelled as `ipaddress` spells it on Python
    3.10-3.12, on every version: 3.13 writes an IPv4-mapped address with a
    dotted tail (::ffff:1.2.3.4), where earlier versions write ::ffff:102:304."""
    if len(address) == 4:
        return socket.inet_ntoa(address)
    if address[:12] == _IPV4_MAPPED_PREFIX:
        # the leading five zero groups are the longest run, so they compress
        return "::ffff:%x:%x" % _IPV4_MAPPED_TAIL(address, 12)
    return str(ipaddress.IPv6Address(address))


def decode_packet(
    raw_frame: bytes,
    link_type: int,
    timestamp: int = 0,
    wire_length: int | None = None,
) -> PacketRecord | None:
    """Decode one frame; returns None (skip) for anything that is not IP+TCP/UDP.

    Total by design: ARP, ICMP, unknown ethertypes, non-first IP fragments
    and malformed headers all skip rather than raise. 802.1Q tags are
    unwrapped transparently. Payload lengths come from the IP and UDP length
    fields, so a snaplen-cut frame reports its wire payload length. Addresses
    stay raw bytes: no text is made per frame.
    """
    captured = len(raw_frame)
    if wire_length is None:
        wire_length = captured

    # the common frame's fields in one call; any other frame is read header
    # by header into the same locals, and both go through the rules below
    if link_type == LINKTYPE_ETHERNET and captured >= _COMMON_LENGTH:
        (ethertype, version_ihl, total_len, frag_word, proto, src, dst, src_port, dst_port,
         udp_len, data_offset, flags, window) = _common_frame(raw_frame)
        common = ethertype == ETHERTYPE_IPV4 and version_ihl == 0x45
    else:
        common = False

    # the link header: `start` is its length, where the IP header begins
    if common:
        start = 14
        header_len = 20
    elif link_type == LINKTYPE_ETHERNET:
        if captured < 14:
            return None
        ethertype = _U16(raw_frame, 12)[0]
        start = 14
        tags = 0
        while ethertype in ETHERTYPE_VLAN and tags < 4:
            if captured < start + 4:
                return None
            ethertype = _U16(raw_frame, start + 2)[0]
            start += 4
            tags += 1
    elif link_type == LINKTYPE_RAW_IP:
        if not captured:
            return None
        ethertype = _RAW_IP_VERSIONS.get(raw_frame[0] >> 4)
        start = 0
    else:
        return None

    # the IP header: the transport header starts at `offset`, the captured part
    # of the segment ends at `end`, and the IP header says the segment is
    # `segment_length` bytes long
    if ethertype == ETHERTYPE_IPV4:
        if not common:
            if captured - start < 20:
                return None
            version_ihl, total_len, frag_word, proto, src, dst = _IPV4(raw_frame, start)
            header_len = (version_ihl & 0x0F) * 4
            if version_ihl >> 4 != 4 or header_len < 20 or captured - start < header_len:
                return None
        if frag_word & 0x1FFF:  # non-first fragments carry no transport header
            return None
        # zero (segmentation offload), too small, or longer than the frame on
        # the wire: the length field is wrong, so trust the capture
        if not header_len <= total_len <= wire_length - start:
            total_len = captured - start
        offset = start + header_len
        end = start + total_len
        if end > captured:
            end = captured
        segment_length = total_len - header_len
    elif ethertype == ETHERTYPE_IPV6:
        bounds = _ipv6_transport(raw_frame, start, wire_length)
        if bounds is None:
            return None
        proto, src, dst, offset, end, segment_length = bounds
    else:
        return None

    # the transport header, its fields already read for the common frame
    if proto == IPPROTO_UDP:
        if end - offset < 8:
            return None
        if not common:
            src_port, dst_port, udp_len = _UDP(raw_frame, offset)
        if 8 <= udp_len < segment_length:
            segment_length = udp_len
        # the head stops at the segment's end, and at the frame's end when
        # snaplen cut the segment
        offset += 8
        payload_length = segment_length - 8
        head_end = offset + (payload_length if payload_length < PAYLOAD_HEAD else PAYLOAD_HEAD)
        return _new(PacketRecord, (
            timestamp, src, dst, src_port, dst_port, IPPROTO_UDP, wire_length, 8,
            payload_length, raw_frame[offset:head_end], 0, 0,
        ))
    if proto == IPPROTO_TCP:
        if not common:  # the data-offset check below bounds the common frame's header
            if end - offset < 20:
                return None
            src_port, dst_port, data_offset, flags, window = _TCP(raw_frame, offset)
        header_len = (data_offset >> 4) * 4
        if header_len < 20 or end - offset < header_len:
            return None
        offset += header_len
        head_end = offset + PAYLOAD_HEAD
        if head_end > end:
            head_end = end
        return _new(PacketRecord, (
            timestamp, src, dst, src_port, dst_port, IPPROTO_TCP, wire_length, header_len,
            segment_length - header_len, raw_frame[offset:head_end], flags, window,
        ))
    return None


def _ipv6_transport(
    frame: bytes, start: int, wire_length: int
) -> tuple[int, bytes, bytes, int, int, int] | None:
    """The transport bounds of the IPv6 packet at frame[start:], start being the
    link header's length: (protocol, raw source, raw destination, the transport
    header's offset, the captured segment's end, the segment's length by the
    IP header), or None for a skip. Walks the common extension headers;
    anything exotic is a skip."""
    captured = len(frame) - start
    if captured < 40:
        return None
    version, payload_len, next_header, src, dst = _IPV6(frame, start)
    if version >> 4 != 6:
        return None
    ip_end = 40 + payload_len
    if not payload_len or ip_end > wire_length - start:  # jumbogram or bogus
        ip_end = captured
    end = start + min(captured, ip_end)
    offset = start + 40

    # an offset walked past end fails the next length check
    while next_header not in (IPPROTO_TCP, IPPROTO_UDP):
        if next_header in (0, 43, 60):  # hop-by-hop, routing, destination opts
            if end < offset + 8:
                return None
            ext_len = (frame[offset + 1] + 1) * 8
            next_header = frame[offset]
            offset += ext_len
        elif next_header == 44:  # fragment header
            if end < offset + 8:
                return None
            if _U16(frame, offset + 2)[0] >> 3:
                return None
            next_header = frame[offset]
            offset += 8
        else:
            return None
    return next_header, src, dst, offset, end, start + ip_end - offset


def read_packets(path: str | Path) -> Iterator[PacketRecord]:
    """Decode every TCP/UDP packet in a capture, skipping everything else.

    Raises MalformedCapture on a frame of a link type that decode_packet does
    not read: a pcap has one link type, so no frame of it would decode.
    """
    for timestamp, link_type, data, wire_length in open_capture(path):
        record = decode_packet(data, link_type, timestamp, wire_length)
        if record is not None:
            yield record
        elif link_type not in (LINKTYPE_ETHERNET, LINKTYPE_RAW_IP):
            raise MalformedCapture(
                f"{path}: link type {link_type} is not supported; only Ethernet "
                f"({LINKTYPE_ETHERNET}) and raw IP ({LINKTYPE_RAW_IP}) are read"
            )


def read_packets_sorted(path: str | Path) -> Iterator[PacketRecord]:
    """Every packet of `read_packets(path)`, stably sorted by timestamp.

    Decodes the whole capture here and sorts its records in a list, so a pipe
    is read once; raises MalformedCapture here on a capture that
    `open_capture` rejects. `flows.read_flows` calls it only for a capture
    that is not a regular file or whose timestamps fall.

    The held records share one `bytes` object per distinct address, where
    decode_packet gives each record its own two.
    """
    addresses: dict[bytes, bytes] = {}
    records = []
    for record in read_packets(path):
        src, dst = record[1], record[2]
        shared_src = addresses.setdefault(src, src)
        shared_dst = addresses.setdefault(dst, dst)
        if shared_src is not src or shared_dst is not dst:
            record = _new(PacketRecord, (record[0], shared_src, shared_dst) + record[3:])
        records.append(record)
    records.sort(key=attrgetter("timestamp"))
    return iter(records)
