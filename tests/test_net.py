"""Tests for the packet-level network substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import (
    AddressAllocator,
    Direction,
    IPAddress,
    LatencyModel,
    Packet,
    PacketCapture,
    Sniffer,
    TransmissionChannel,
)


class TestIPAddress:
    def test_valid_address(self):
        ip = IPAddress("192.168.1.10")
        assert str(ip) == "192.168.1.10"

    @pytest.mark.parametrize("bad", ["1.2.3", "256.1.1.1", "a.b.c.d", "1.2.3.4.5", ""])
    def test_invalid_addresses(self, bad):
        with pytest.raises(ValueError):
            IPAddress(bad)

    def test_int_roundtrip(self):
        ip = IPAddress("10.0.3.200")
        assert IPAddress.from_int(ip.as_int) == ip

    def test_from_int_out_of_range(self):
        with pytest.raises(ValueError):
            IPAddress.from_int(-1)
        with pytest.raises(ValueError):
            IPAddress.from_int(2**32)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_int_roundtrip_property(self, packed):
        assert IPAddress.from_int(packed).as_int == packed

    def test_ordering_is_stable(self):
        ips = [IPAddress("10.0.0.2"), IPAddress("10.0.0.1")]
        assert sorted(ips)[0] == IPAddress("10.0.0.1")


class TestEndpointAndAllocator:
    def test_allocator_unique_and_deterministic(self):
        a = AddressAllocator()
        b = AddressAllocator()
        ips_a = [a.allocate() for _ in range(50)]
        ips_b = [b.allocate() for _ in range(50)]
        assert ips_a == ips_b
        assert len(set(ips_a)) == 50


class TestPacket:
    def setup_method(self):
        self.client = IPAddress("10.0.0.1")
        self.server = IPAddress("10.0.0.2")

    def test_direction(self):
        out = Packet(0.0, self.client, self.server, 100)
        inc = Packet(0.1, self.server, self.client, 200)
        assert out.direction(self.client) is Direction.OUTGOING
        assert inc.direction(self.client) is Direction.INCOMING

    def test_direction_unrelated_ip_raises(self):
        packet = Packet(0.0, self.client, self.server, 100)
        with pytest.raises(ValueError):
            packet.direction(IPAddress("10.0.0.99"))

    def test_rejects_negative_size_or_time(self):
        with pytest.raises(ValueError):
            Packet(0.0, self.client, self.server, -1)
        with pytest.raises(ValueError):
            Packet(-0.5, self.client, self.server, 1)

    def test_direction_flip(self):
        assert Direction.OUTGOING.flip() is Direction.INCOMING
        assert Direction.INCOMING.flip() is Direction.OUTGOING


class TestLatencyModel:
    def test_delays_positive(self):
        model = LatencyModel(base_rtt=0.05, jitter=0.01)
        rng = np.random.default_rng(0)
        delays = [model.one_way_delay(1500, rng) for _ in range(100)]
        assert all(d > 0 for d in delays)

    def test_serialization_delay_grows_with_size(self):
        model = LatencyModel(base_rtt=0.05, jitter=0.0, bandwidth=1e6)
        small = model.one_way_delay(100)
        large = model.one_way_delay(1_000_000)
        assert large > small

    def test_scaled(self):
        model = LatencyModel(base_rtt=0.04, jitter=0.004)
        far = model.scaled(3.0)
        assert far.base_rtt == pytest.approx(0.12)
        with pytest.raises(ValueError):
            model.scaled(0.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LatencyModel(base_rtt=0.0)
        with pytest.raises(ValueError):
            LatencyModel(jitter=-1.0)
        with pytest.raises(ValueError):
            LatencyModel(bandwidth=0.0)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel().one_way_delay(-5)


class TestPacketCapture:
    def setup_method(self):
        self.client = IPAddress("10.0.0.1")
        self.text = IPAddress("10.0.0.2")
        self.media = IPAddress("10.0.0.3")
        self.capture = PacketCapture(client_ip=self.client)
        self.capture.extend([
            Packet(0.3, self.media, self.client, 900),
            Packet(0.1, self.client, self.text, 300),
            Packet(0.2, self.text, self.client, 1400),
        ])

    def test_sorted_packets(self):
        times = [p.timestamp for p in self.capture.sorted_packets()]
        assert times == sorted(times)

    def test_duration_and_total_bytes(self):
        assert self.capture.duration == pytest.approx(0.2)
        assert self.capture.total_bytes == 2600

    def test_remote_ips_order_of_appearance(self):
        assert self.capture.remote_ips() == [self.text, self.media]

    def test_transmissions_triples(self):
        triples = self.capture.transmissions()
        assert triples[0] == (0.1, self.client, 300)
        assert len(triples) == 3

    def test_empty_capture(self):
        empty = PacketCapture(client_ip=self.client)
        assert empty.duration == 0.0
        assert empty.total_bytes == 0
        assert empty.remote_ips() == []


class TestSniffer:
    def setup_method(self):
        self.client = IPAddress("10.0.0.1")
        self.server = IPAddress("10.0.0.2")

    def test_capture_lifecycle(self):
        sniffer = Sniffer(self.client)
        sniffer.start()
        sniffer.observe(Packet(0.0, self.client, self.server, 100))
        capture = sniffer.stop()
        assert len(capture) == 1

    def test_observe_before_start_is_ignored(self):
        sniffer = Sniffer(self.client)
        sniffer.observe(Packet(0.0, self.client, self.server, 100))
        sniffer.start()
        assert len(sniffer.stop()) == 0

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Sniffer(self.client).stop()

    def test_observable_filter(self):
        other = IPAddress("10.0.0.3")
        sniffer = Sniffer(self.client, observable_ips=[self.client, self.server])
        sniffer.start()
        sniffer.observe(Packet(0.0, self.client, self.server, 10))
        sniffer.observe(Packet(0.1, other, IPAddress("10.0.0.4"), 10))
        assert len(sniffer.stop()) == 1


class TestTransmissionChannel:
    def setup_method(self):
        self.client = IPAddress("10.0.0.1")
        self.server = IPAddress("10.0.0.2")
        self.sniffer = Sniffer(self.client)
        self.sniffer.start()
        self.channel = TransmissionChannel(
            client_ip=self.client,
            server_ip=self.server,
            sniffer=self.sniffer,
            latency=LatencyModel(base_rtt=0.02, jitter=0.0),
        )

    def test_segments_respect_mss(self):
        rng = np.random.default_rng(0)
        self.channel.transmit([4000], from_client=False, start_time=0.0, rng=rng)
        capture = self.sniffer.stop()
        sizes = [p.size for p in capture]
        assert all(size <= self.channel.mss for size in sizes)
        assert sum(sizes) == 4000

    def test_timestamps_monotonic(self):
        rng = np.random.default_rng(1)
        end = self.channel.transmit([1500, 1500, 200], from_client=True, start_time=0.0, rng=rng)
        capture = self.sniffer.stop()
        times = [p.timestamp for p in capture.sorted_packets()]
        assert times == sorted(times)
        assert end >= times[-1]

    def test_retransmissions_are_flagged(self):
        channel = TransmissionChannel(
            client_ip=self.client,
            server_ip=self.server,
            sniffer=self.sniffer,
            retransmission_rate=0.5,
            latency=LatencyModel(base_rtt=0.02, jitter=0.0),
        )
        rng = np.random.default_rng(2)
        channel.transmit([1460] * 30, from_client=False, start_time=0.0, rng=rng)
        capture = self.sniffer.stop()
        flags = [p.retransmission for p in capture]
        assert any(flags) and not all(flags)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            TransmissionChannel(self.client, self.server, mss=0)
        with pytest.raises(ValueError):
            TransmissionChannel(self.client, self.server, retransmission_rate=1.0)

    def test_negative_record_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            self.channel.transmit([-5], from_client=True, start_time=0.0, rng=rng)

    @given(st.lists(st.integers(0, 20000), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_total_bytes_preserved(self, records):
        sniffer = Sniffer(self.client)
        sniffer.start()
        channel = TransmissionChannel(
            client_ip=self.client,
            server_ip=self.server,
            sniffer=sniffer,
            latency=LatencyModel(base_rtt=0.01, jitter=0.0),
        )
        channel.transmit(list(records), from_client=False, start_time=0.0, rng=np.random.default_rng(3))
        capture = sniffer.stop()
        assert capture.total_bytes == sum(records)
