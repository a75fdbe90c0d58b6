"""Concrete crypto: published HMAC-SHA1 vectors, cipher round trips."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from dymon import AuthFailureError, RandomSource, hmac_sha1, sdec, senc
from dymon.backend import DIGEST_LEN

# RFC 2202 section 3: all seven HMAC-SHA1 test cases
RFC2202 = [
    (b"\x0b" * 20, b"Hi There",
     "b617318655057264e28bc0b6fb378c8ef146be00"),
    (b"Jefe", b"what do ya want for nothing?",
     "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
    (b"\xaa" * 20, b"\xdd" * 50,
     "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "4c9007f4026250c6bc8414f9bf50c86c2d7235da"),
    (b"\x0c" * 20, b"Test With Truncation",
     "4c1a03424b55e07fe7f27be1d58bb9324a9a5a04"),
    (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
    (b"\xaa" * 80,
     b"Test Using Larger Than Block-Size Key and Larger "
     b"Than One Block-Size Data",
     "e8e99d0f45237d786d6bbaa7965c7808bbff1a91"),
]


@pytest.mark.parametrize("key,msg,digest", RFC2202)
def test_hmac_sha1_published_vectors(key, msg, digest):
    assert hmac_sha1(key, msg).hex() == digest


def test_hmac_digest_length():
    assert len(hmac_sha1(b"k", b"m")) == DIGEST_LEN


@given(key=st.binary(min_size=1, max_size=64), body=st.binary(max_size=256))
def test_senc_sdec_round_trip(key, body):
    assert sdec(key, senc(key, body)) == body


@given(key=st.binary(min_size=1, max_size=64), body=st.binary(max_size=128),
       pos=st.integers(min_value=0, max_value=10_000))
def test_sdec_rejects_tampering(key, body, pos):
    blob = bytearray(senc(key, body))
    blob[pos % len(blob)] ^= 0x01
    with pytest.raises(AuthFailureError):
        sdec(key, bytes(blob))


@given(k1=st.binary(min_size=1, max_size=32), k2=st.binary(min_size=1, max_size=32),
       body=st.binary(max_size=128))
def test_sdec_rejects_foreign_key(k1, k2, body):
    if k1 == k2:
        return
    with pytest.raises(AuthFailureError):
        sdec(k2, senc(k1, body))


def test_sdec_rejects_truncated():
    with pytest.raises(AuthFailureError):
        sdec(b"k", b"short")


def test_senc_deterministic_and_key_sensitive():
    assert senc(b"k1", b"hello") == senc(b"k1", b"hello")
    assert senc(b"k1", b"hello") != senc(b"k2", b"hello")


# (key, body) -> SHA-256 of senc(key, body), computed by XORing the keystream
# one byte at a time: XORing it as one integer must give the same bytes.  The
# 53-byte body is the size of an Otway-Rees ticket
SENC_PINS = [
    (b"k" * 16, b"", "99d4cb93455aa46b479ae2f1f87c22be8e3d79cef6a961b377955d4dd9a3d51a"),
    (b"\x00" * 16, b"\x7f", "17338c3c16804f8be7005b0f26a1f0994aa3ea8e0d679a95487da09d87509e5e"),
    (bytes(range(16)), bytes(range(53)),
     "f6162b90ce188ea0c5aff4e88b8d5fcf6d3c00e843e134c4d67eea3ec86ac91a"),
    (b"key", bytes(range(200)),
     "fca4dcaedee759c28adb0e3be114978c743246da1b0fd9c2cd89c989d520b521"),
]


@pytest.mark.parametrize("key,body,digest", SENC_PINS)
def test_senc_matches_pinned_ciphertexts(key, body, digest):
    blob = senc(key, body)
    assert len(blob) == len(body) + DIGEST_LEN
    assert hashlib.sha256(blob).hexdigest() == digest
    assert sdec(key, blob) == body


def test_random_source_replayable():
    a, b = RandomSource(99), RandomSource(99)
    assert [a.draw(16) for _ in range(5)] == [b.draw(16) for _ in range(5)]
    assert RandomSource(1).draw(16) != RandomSource(2).draw(16)


def test_random_source_draws_what_a_seeded_random_draws():
    for seed in (0, 1, 99, 2**40 + 3):
        src, ref = RandomSource(seed), random.Random(seed)
        for n in (16, 1, 20, 5):
            assert src.draw(n) == ref.randbytes(n)


def test_random_source_rejects_empty_draw():
    with pytest.raises(ValueError):
        RandomSource(0).draw(0)
