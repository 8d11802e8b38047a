"""Packet-level network substrate.

The paper's adversary observes packets on the wire (tcpdump pcap files).
This package provides the equivalent simulated view: IP addresses,
packets carrying ciphertext byte counts, a latency model, a
transmission channel that segments TLS records into MTU-sized packets (with
optional retransmissions), and a passive :class:`Sniffer` producing
:class:`PacketCapture` objects — the reproduction's stand-in for pcap.
"""

from repro.net.address import IPAddress, AddressAllocator
from repro.net.packet import Packet, Direction
from repro.net.latency import LatencyModel
from repro.net.capture import PacketCapture, Sniffer
from repro.net.channel import TransmissionChannel

__all__ = [
    "IPAddress",
    "AddressAllocator",
    "Packet",
    "Direction",
    "LatencyModel",
    "PacketCapture",
    "Sniffer",
    "TransmissionChannel",
]
