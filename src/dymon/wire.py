"""Deterministic pair framing.

Layout: 4-byte big-endian length of the first component, then the first
component, then the rest of the buffer as the second component.  Injective
for fixed inputs, and decode is a left inverse of encode.  Literal byte
arrays are their own encoding; only pairs carry framing.
"""

from __future__ import annotations

from .errors import EncodingError, MalformedPairError

_PREFIX = 4
_MAX = 1 << 32


def pair_encode(b1: bytes, b2: bytes) -> bytes:
    if len(b1) >= _MAX:
        raise EncodingError("first component too large for 4-byte length prefix")
    return len(b1).to_bytes(_PREFIX, "big") + b1 + b2


def pair_decode(data: bytes) -> tuple[bytes, bytes]:
    if len(data) < _PREFIX:
        raise MalformedPairError("missing length prefix")
    n = int.from_bytes(data[:_PREFIX], "big")
    if _PREFIX + n > len(data):
        raise MalformedPairError("declared length exceeds buffer")
    return data[_PREFIX : _PREFIX + n], data[_PREFIX + n :]
