"""Concrete cryptographic primitives behind the wrappers.

The symbolic layer treats these as trusted library routines; nothing here
knows about terms or logs.  The cipher is a deterministic encrypt-then-MAC
construction over an HMAC-SHA1 keystream: not a production AEAD, but a
faithful stand-in with the properties the runtime relies on: determinism,
injectivity per key, and overwhelming tag-rejection of foreign keys or
tampered bodies.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
import random

from .errors import AuthFailureError

DIGEST_LEN = 20
DEFAULT_KEY_LEN = 16


def hmac_sha1(key: bytes, msg: bytes) -> bytes:
    return _hmac.new(key, msg, hashlib.sha1).digest()


def _keystream(key: bytes, n: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < n:
        out += hmac_sha1(key, counter.to_bytes(8, "big"))
        counter += 1
    return bytes(out[:n])


def _xor_keystream(key: bytes, data: bytes) -> bytes:
    # one big-integer XOR instead of one Python step per byte
    n = len(data)
    stream = int.from_bytes(_keystream(key, n), "big")
    return (int.from_bytes(data, "big") ^ stream).to_bytes(n, "big")


def senc(key: bytes, plaintext: bytes) -> bytes:
    body = _xor_keystream(key, plaintext)
    return body + hmac_sha1(key, body)


def sdec(key: bytes, ciphertext: bytes) -> bytes:
    if len(ciphertext) < DIGEST_LEN:
        raise AuthFailureError("ciphertext shorter than its tag")
    body, tag = ciphertext[:-DIGEST_LEN], ciphertext[-DIGEST_LEN:]
    if not _hmac.compare_digest(hmac_sha1(key, body), tag):
        raise AuthFailureError("tag mismatch")
    return _xor_keystream(key, body)


class RandomSource:
    """Seeded, replayable byte source.  counter counts draws made.

    The generator is seeded on the first draw, not when the source is made.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.counter = 0
        self._rng: random.Random | None = None

    def draw(self, nbytes: int) -> bytes:
        if nbytes < 1:
            raise ValueError("draw needs at least one byte")
        if self._rng is None:
            self._rng = random.Random(self.seed)
        self.counter += 1
        return self._rng.randbytes(nbytes)
