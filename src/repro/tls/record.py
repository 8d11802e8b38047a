"""The TLS record layer: fragmentation and ciphertext expansion.

Application data handed to the record layer is fragmented into records of
at most ``MAX_PLAINTEXT_FRAGMENT`` (2^14) bytes, each record is expanded by
the ciphersuite's nonce/tag overhead plus the 5-byte record header, and —
for TLS 1.3 — an optional padding policy may inflate the inner plaintext.
The output is the list of on-the-wire record sizes, which is all a passive
adversary can observe.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

MAX_PLAINTEXT_FRAGMENT = 2**14


class RecordLayer:
    """Turns application-data byte counts into wire-visible record sizes."""

    def __init__(self, ciphersuite, padding_policy=None) -> None:
        # Imported lazily to avoid a circular import with tls.padding.
        from repro.tls.padding import NoRecordPadding, RecordPaddingPolicy

        if padding_policy is not None and not isinstance(padding_policy, RecordPaddingPolicy):
            raise TypeError("padding_policy must be a RecordPaddingPolicy")
        if padding_policy is not None and not ciphersuite.version.supports_record_padding:
            if not isinstance(padding_policy, NoRecordPadding):
                raise ValueError(
                    f"{ciphersuite.version} does not support record padding; "
                    "use NoRecordPadding or a TLS 1.3 suite"
                )
        self.ciphersuite = ciphersuite
        self.padding_policy = padding_policy if padding_policy is not None else NoRecordPadding()

    def fragment(self, application_bytes: int) -> List[int]:
        """Split an application payload into plaintext fragment sizes."""
        if application_bytes < 0:
            raise ValueError("application_bytes must be non-negative")
        if application_bytes == 0:
            return []
        fragments = []
        remaining = application_bytes
        while remaining > 0:
            fragment = min(MAX_PLAINTEXT_FRAGMENT, remaining)
            fragments.append(fragment)
            remaining -= fragment
        return fragments

    def wire_sizes(
        self, application_bytes: int, rng: Optional[np.random.Generator] = None
    ) -> List[int]:
        """On-the-wire sizes (header + ciphertext) of the records produced."""
        rng = rng if rng is not None else np.random.default_rng(0)
        header = self.ciphersuite.version.record_header_size
        sizes = []
        for fragment in self.fragment(application_bytes):
            padding = self.padding_policy.padding_for(fragment, rng)
            # Padding may not push the inner plaintext past the fragment cap.
            padding = min(padding, MAX_PLAINTEXT_FRAGMENT - fragment)
            ciphertext = self.ciphersuite.ciphertext_size(fragment, padding)
            sizes.append(header + ciphertext)
        return sizes

