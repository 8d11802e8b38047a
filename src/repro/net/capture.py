"""Passive packet captures — the reproduction's equivalent of a pcap file.

The crawler of Section V runs tcpdump for the duration of a single page
load and stores the result as one pcap file per visit.  Here a
:class:`Sniffer` plays tcpdump's role and a :class:`PacketCapture` plays
the pcap file's role; the downstream preprocessing in
:mod:`repro.traces.sequences` consumes captures exactly the way the paper's
preprocessing consumes pcaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.net.address import IPAddress
from repro.net.packet import Direction, Packet

_BY_TIMESTAMP = attrgetter("timestamp")


@dataclass
class PacketCapture:
    """An ordered collection of observed packets for one page load."""

    client_ip: IPAddress
    packets: List[Packet] = field(default_factory=list)

    def add(self, packet: Packet) -> None:
        """Append a packet (captures are kept sorted lazily on read)."""
        self.packets.append(packet)

    def extend(self, packets: Iterable[Packet]) -> None:
        for packet in packets:
            self.add(packet)

    def sorted_packets(self) -> List[Packet]:
        """Packets in timestamp order (stable for equal timestamps)."""
        return sorted(self.packets, key=_BY_TIMESTAMP)

    def __len__(self) -> int:
        return len(self.packets)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.sorted_packets())

    @property
    def duration(self) -> float:
        """Time between the first and last packet, 0 for empty captures."""
        if not self.packets:
            return 0.0
        times = [p.timestamp for p in self.packets]
        return max(times) - min(times)

    @property
    def total_bytes(self) -> int:
        return sum(p.size for p in self.packets)

    def bytes_by_direction(self) -> Dict[Direction, int]:
        """Total bytes sent and received by the monitored client."""
        totals = {Direction.OUTGOING: 0, Direction.INCOMING: 0}
        for packet in self.packets:
            totals[packet.direction(self.client_ip)] += packet.size
        return totals

    def remote_ips(self) -> List[IPAddress]:
        """The distinct non-client IPs, in order of first appearance."""
        seen: List[IPAddress] = []
        for packet in self.sorted_packets():
            remote = packet.dst if packet.src == self.client_ip else packet.src
            if remote not in seen:
                seen.append(remote)
        return seen

    def filter_ip(self, ip: IPAddress) -> "PacketCapture":
        """A new capture containing only packets that involve ``ip``."""
        subset = PacketCapture(client_ip=self.client_ip)
        subset.extend(p for p in self.packets if p.involves(ip))
        return subset

    def transmissions(self) -> List[Tuple[float, IPAddress, int]]:
        """(timestamp, sender-ip, bytes) triples in timestamp order.

        This is the exact information the paper's preprocessing consumes to
        build per-IP byte-count sequences (Figure 4).
        """
        return [(p.timestamp, p.src, p.size) for p in self.sorted_packets()]


class Sniffer:
    """A passive on-path observer that records packets into a capture.

    The sniffer can optionally be restricted to a set of observable IPs to
    model partial vantage points (e.g. an adversary who only sees traffic
    crossing one link).
    """

    def __init__(self, client_ip: IPAddress, observable_ips: Optional[Iterable[IPAddress]] = None) -> None:
        self.client_ip = client_ip
        self._observable = set(observable_ips) if observable_ips is not None else None
        self._capture: Optional[PacketCapture] = None

    @property
    def running(self) -> bool:
        return self._capture is not None

    def start(self) -> None:
        """Begin a new capture, discarding any previous unfinished one."""
        self._capture = PacketCapture(client_ip=self.client_ip)

    def observe(self, packet: Packet) -> None:
        """Record a packet if the sniffer is running and can see it."""
        if self._capture is None:
            return
        if self._observable is not None and not (
            packet.src in self._observable or packet.dst in self._observable
        ):
            return
        self._capture.add(packet)

    def stop(self) -> PacketCapture:
        """Stop capturing and return the completed capture."""
        if self._capture is None:
            raise RuntimeError("sniffer was not started")
        capture, self._capture = self._capture, None
        return capture
