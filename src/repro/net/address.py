"""IP addresses.

TLS does not conceal the IP addresses of the communicating parties
(Section II-A of the paper); the adversary's per-IP sequences are keyed by
these addresses, so the substrate models them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True, order=True)
class IPAddress:
    """An IPv4 address represented as a dotted-quad string."""

    value: str
    #: The address packed into a 32-bit integer, computed once on creation
    #: (captures store their addresses in this form).
    as_int: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        parts = self.value.split(".")
        if len(parts) != 4:
            raise ValueError(f"invalid IPv4 address: {self.value!r}")
        for part in parts:
            if not part.isdigit() or not 0 <= int(part) <= 255:
                raise ValueError(f"invalid IPv4 address: {self.value!r}")
        a, b, c, d = (int(part) for part in parts)
        object.__setattr__(self, "as_int", (a << 24) | (b << 16) | (c << 8) | d)

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_int(cls, packed: int) -> "IPAddress":
        if not 0 <= packed <= 0xFFFFFFFF:
            raise ValueError(f"packed address out of range: {packed}")
        parts = [(packed >> shift) & 0xFF for shift in (24, 16, 8, 0)]
        return cls(".".join(str(p) for p in parts))


class AddressAllocator:
    """Hands out unique IP addresses from a private /16-style pool.

    Used by the web substrate to assign addresses to clients and to each
    content server of a synthetic website.  Allocation is deterministic so
    that datasets are reproducible run-to-run.
    """

    def __init__(self, base: str = "10.0.0.0") -> None:
        self._base = IPAddress(base).as_int
        self._next = 1

    def allocate(self) -> IPAddress:
        """Return the next unused address in the pool."""
        address = IPAddress.from_int(self._base + self._next)
        self._next += 1
        return address

    def __iter__(self) -> Iterator[IPAddress]:
        while True:
            yield self.allocate()
