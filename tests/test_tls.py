"""Tests for the TLS record-layer substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net import IPAddress, LatencyModel, Sniffer, TransmissionChannel
from repro.tls import (
    AES_128_GCM_TLS12,
    AES_128_GCM_TLS13,
    CHACHA20_POLY1305_TLS13,
    CipherSuite,
    MAX_PLAINTEXT_FRAGMENT,
    NoRecordPadding,
    PadToBlock,
    PadToMaximum,
    RandomRecordPadding,
    RecordLayer,
    TLSSession,
    TLSVersion,
    handshake_flights,
)
from repro.tls.ciphersuites import default_suite


class TestVersion:
    def test_record_header(self):
        assert TLSVersion.TLS_1_2.record_header_size == 5
        assert TLSVersion.TLS_1_3.record_header_size == 5

    def test_padding_support(self):
        assert not TLSVersion.TLS_1_2.supports_record_padding
        assert TLSVersion.TLS_1_3.supports_record_padding

    def test_round_trips(self):
        assert TLSVersion.TLS_1_2.handshake_round_trips == 2
        assert TLSVersion.TLS_1_3.handshake_round_trips == 1

    def test_str(self):
        assert str(TLSVersion.TLS_1_3) == "TLSv1.3"


class TestCipherSuites:
    def test_tls12_gcm_expansion(self):
        # 8-byte explicit nonce + 16-byte tag for TLS 1.2 AES-GCM.
        assert AES_128_GCM_TLS12.ciphertext_size(1000) == 1000 + 8 + 16

    def test_tls13_expansion_includes_content_type(self):
        # TLS 1.3: no explicit nonce, 16-byte tag, 1 content-type byte.
        assert AES_128_GCM_TLS13.ciphertext_size(1000) == 1000 + 16 + 1

    def test_tls13_padding_adds_bytes(self):
        padded = AES_128_GCM_TLS13.ciphertext_size(1000, padding=24)
        assert padded == AES_128_GCM_TLS13.ciphertext_size(1000) + 24

    def test_tls12_rejects_padding(self):
        with pytest.raises(ValueError):
            AES_128_GCM_TLS12.ciphertext_size(1000, padding=10)

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError):
            AES_128_GCM_TLS13.ciphertext_size(-1)
        with pytest.raises(ValueError):
            AES_128_GCM_TLS13.ciphertext_size(10, padding=-1)
        with pytest.raises(ValueError):
            CipherSuite("bad", TLSVersion.TLS_1_3, -1, 16)

    def test_default_suites(self):
        assert default_suite(TLSVersion.TLS_1_2) is AES_128_GCM_TLS12
        assert default_suite(TLSVersion.TLS_1_3) is AES_128_GCM_TLS13
        assert CHACHA20_POLY1305_TLS13.version is TLSVersion.TLS_1_3


class TestHandshake:
    def test_tls12_has_four_flights(self):
        flights = handshake_flights(TLSVersion.TLS_1_2, rng=np.random.default_rng(0))
        assert len(flights) == 4
        assert flights[0].from_client

    def test_tls13_server_flight_carries_certificate(self):
        flights = handshake_flights(
            TLSVersion.TLS_1_3, certificate_chain_size=5000, rng=np.random.default_rng(0)
        )
        server_flights = [f for f in flights if not f.from_client]
        assert max(f.size for f in server_flights) > 5000

    def test_resumption_is_smaller(self):
        full = handshake_flights(TLSVersion.TLS_1_3, rng=np.random.default_rng(1))
        resumed = handshake_flights(
            TLSVersion.TLS_1_3, session_resumption=True, rng=np.random.default_rng(1)
        )
        assert sum(f.size for f in resumed) < sum(f.size for f in full)

    def test_rejects_bad_certificate_size(self):
        with pytest.raises(ValueError):
            handshake_flights(TLSVersion.TLS_1_2, certificate_chain_size=0)

    def test_flight_sizes_positive(self):
        for version in TLSVersion:
            for resumption in (False, True):
                for flight in handshake_flights(
                    version, session_resumption=resumption, rng=np.random.default_rng(2)
                ):
                    assert flight.size > 0


class TestPaddingPolicies:
    def test_no_padding(self):
        assert NoRecordPadding().padding_for(1234) == 0

    def test_pad_to_block(self):
        policy = PadToBlock(512)
        assert policy.padding_for(1) == 511
        assert policy.padding_for(512) == 0
        assert policy.padding_for(513) == 511
        assert policy.padding_for(0) == 512

    def test_pad_to_maximum(self):
        policy = PadToMaximum()
        assert policy.padding_for(100) == MAX_PLAINTEXT_FRAGMENT - 100
        assert policy.padding_for(MAX_PLAINTEXT_FRAGMENT) == 0
        with pytest.raises(ValueError):
            policy.padding_for(MAX_PLAINTEXT_FRAGMENT + 1)

    def test_random_padding_bounds(self):
        policy = RandomRecordPadding(max_padding=64)
        rng = np.random.default_rng(0)
        values = [policy.padding_for(100, rng) for _ in range(200)]
        assert all(0 <= v <= 64 for v in values)
        assert len(set(values)) > 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PadToBlock(0)
        with pytest.raises(ValueError):
            RandomRecordPadding(0)
        with pytest.raises(ValueError):
            NoRecordPadding().padding_for(-1)

    def test_names(self):
        assert "512" in PadToBlock(512).name
        assert NoRecordPadding().name == "NoRecordPadding"

    @given(st.integers(0, MAX_PLAINTEXT_FRAGMENT), st.integers(1, 4096))
    @settings(max_examples=100, deadline=None)
    def test_pad_to_block_always_aligns(self, size, block):
        policy = PadToBlock(block)
        padded = size + policy.padding_for(size)
        assert padded % block == 0
        assert padded >= size


class TestRecordLayer:
    def test_fragmentation_respects_max(self):
        layer = RecordLayer(AES_128_GCM_TLS12)
        fragments = layer.fragment(3 * MAX_PLAINTEXT_FRAGMENT + 17)
        assert fragments == [MAX_PLAINTEXT_FRAGMENT] * 3 + [17]
        assert layer.fragment(0) == []

    def test_wire_sizes_include_overhead(self):
        layer = RecordLayer(AES_128_GCM_TLS12)
        sizes = layer.wire_sizes(1000)
        assert sizes == [5 + 1000 + 8 + 16]

    def test_padding_policy_applied(self):
        layer = RecordLayer(AES_128_GCM_TLS13, PadToBlock(1024))
        unpadded = sum(RecordLayer(AES_128_GCM_TLS13).wire_sizes(700))
        padded = sum(layer.wire_sizes(700))
        assert padded > unpadded
        assert (padded - 5 - 16 - 1) % 1024 == 0

    def test_tls12_with_padding_policy_rejected(self):
        with pytest.raises(ValueError):
            RecordLayer(AES_128_GCM_TLS12, PadToBlock(512))

    def test_non_policy_rejected(self):
        with pytest.raises(TypeError):
            RecordLayer(AES_128_GCM_TLS13, padding_policy="pad please")

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            RecordLayer(AES_128_GCM_TLS12).wire_sizes(-1)

    @given(st.integers(0, 100_000))
    @settings(max_examples=50, deadline=None)
    def test_wire_bytes_at_least_payload(self, payload):
        layer = RecordLayer(AES_128_GCM_TLS12)
        assert sum(layer.wire_sizes(payload)) >= payload


class TestTLSSession:
    def _make_session(self, version=TLSVersion.TLS_1_2, **kwargs):
        client = IPAddress("10.0.0.1")
        server = IPAddress("10.0.0.2")
        sniffer = Sniffer(client)
        sniffer.start()
        channel = TransmissionChannel(
            client_ip=client,
            server_ip=server,
            sniffer=sniffer,
            latency=LatencyModel(base_rtt=0.02, jitter=0.0),
        )
        return TLSSession(channel=channel, version=version, **kwargs), sniffer

    def test_handshake_then_exchange(self):
        session, sniffer = self._make_session()
        rng = np.random.default_rng(0)
        t = session.handshake(0.0, rng)
        end = session.exchange(400, 30_000, t, rng)
        assert end > t
        capture = sniffer.stop()
        assert capture.total_bytes > 30_000

    def test_exchange_before_handshake_raises(self):
        session, _ = self._make_session()
        with pytest.raises(RuntimeError):
            session.exchange(100, 100, 0.0, np.random.default_rng(0))

    def test_double_handshake_raises(self):
        session, _ = self._make_session()
        rng = np.random.default_rng(0)
        session.handshake(0.0, rng)
        with pytest.raises(RuntimeError):
            session.handshake(1.0, rng)

    def test_mismatched_ciphersuite_rejected(self):
        client = IPAddress("10.0.0.1")
        channel = TransmissionChannel(client_ip=client, server_ip=IPAddress("10.0.0.2"))
        with pytest.raises(ValueError):
            TLSSession(channel=channel, version=TLSVersion.TLS_1_3, ciphersuite=AES_128_GCM_TLS12)

    def test_chunked_responses_preserve_volume_ordering(self):
        session, sniffer = self._make_session(version=TLSVersion.TLS_1_3)
        rng = np.random.default_rng(1)
        t = session.handshake(0.0, rng)
        session.exchange(500, 100_000, t, rng, response_chunks=8)
        chunky = sniffer.stop().total_bytes

        session2, sniffer2 = self._make_session(version=TLSVersion.TLS_1_3)
        rng2 = np.random.default_rng(2)
        t2 = session2.handshake(0.0, rng2)
        session2.exchange(500, 100_000, t2, rng2, response_chunks=1)
        whole = sniffer2.stop().total_bytes
        # Chunking adds per-record overhead but the payload dominates.
        assert abs(chunky - whole) < 0.05 * whole

    def test_invalid_chunk_count(self):
        session, _ = self._make_session()
        rng = np.random.default_rng(0)
        t = session.handshake(0.0, rng)
        with pytest.raises(ValueError):
            session.exchange(10, 10, t, rng, response_chunks=0)

    def test_tls13_padding_increases_bytes_on_wire(self):
        session, sniffer = self._make_session(
            version=TLSVersion.TLS_1_3, padding_policy=PadToBlock(4096)
        )
        rng = np.random.default_rng(3)
        t = session.handshake(0.0, rng)
        session.exchange(200, 10_000, t, rng)
        padded_bytes = sniffer.stop().total_bytes

        plain, plain_sniffer = self._make_session(version=TLSVersion.TLS_1_3)
        rng = np.random.default_rng(3)
        t = plain.handshake(0.0, rng)
        plain.exchange(200, 10_000, t, rng)
        assert padded_bytes > plain_sniffer.stop().total_bytes
