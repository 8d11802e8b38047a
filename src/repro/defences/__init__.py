"""Countermeasures against webpage fingerprinting (Section VII).

Record-level TLS 1.3 padding policies live in :mod:`repro.tls.padding`
(they change what goes on the wire); the defences here operate at the
trace level, the granularity the paper's countermeasure evaluation uses:
fixed-length (FL) padding of whole page loads, random padding, a simplified
adaptive-padding scheme, and per-website anonymity-set padding.  The
``overhead`` helpers quantify the bandwidth cost every defence pays.
"""

from repro.defences.base import TraceDefence
from repro.defences.fixed_length import FixedLengthPadding
from repro.defences.random_padding import RandomPaddingDefence
from repro.defences.adaptive_padding import AdaptivePaddingDefence
from repro.defences.anonymity_sets import AnonymitySetPadding
from repro.defences.overhead import bandwidth_overhead
from repro.defences.spec import DEFENCE_KINDS, DefenceConfigError, defence_from_spec

__all__ = [
    "TraceDefence",
    "FixedLengthPadding",
    "RandomPaddingDefence",
    "AdaptivePaddingDefence",
    "AnonymitySetPadding",
    "DEFENCE_KINDS",
    "DefenceConfigError",
    "bandwidth_overhead",
    "defence_from_spec",
]
