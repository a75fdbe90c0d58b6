"""Decision procedure for the two-point secrecy level of a term.

``level(lv, t, log)`` decides whether the inductive derivability judgement
holds for t at level lv over the given log.  Low means attacker-knowable;
everything Low is also High.  The recursion is structural on the term head:

  Literal:   some New event created it; attacker guesses are both levels,
             keys are High, and Low exactly when the matching compromise
             condition holds.
  Pair:      both components at the same level.
  Hmac:      either the payload is sayable under the key's usage and the
             payload itself has the level, or key and payload are both Low.
  SEnc:      either the payload is a well-formed ticket under the key's
             usage (and has *some* level, decided at High since Low implies
             High), or key and payload are both Low.

Results are memoized per Log value, in one dict per level keyed by term;
logs are immutable so entries never need invalidation.
"""

from __future__ import annotations

import enum

from .terms import (
    AttackerGuess,
    Bad,
    HmacKey,
    Hmac,
    Initiator,
    Literal,
    Log,
    Pair,
    PresharedKey,
    Request,
    Responder,
    Response,
    SEnc,
    SEncKey,
    SessionKey,
    Term,
    match_bare_response,
    match_pair4,
    match_request,
    match_response,
    render_term,
)


class Level(enum.Enum):
    LOW = "low"
    HIGH = "high"


# bound once: looking a member up on an Enum class is a Python-level call
_LOW = Level.LOW
_HIGH = Level.HIGH

_MISS = object()


def level(lv: Level, t: Term, log: Log) -> bool:
    # one memo per level, keyed by term alone, so no Enum is ever hashed
    memo = log._memo_high if lv is _HIGH else log._memo_low
    cached = memo.get(t, _MISS)
    if cached is not _MISS:
        return cached
    result = _decide(lv, t, log)
    memo[t] = result
    return result


def _decide(lv: Level, t: Term, log: Log) -> bool:
    if isinstance(t, Literal):
        for u in log.usages_of(t):
            if isinstance(u, AttackerGuess):
                return True
            if lv is _HIGH:
                return True
            if isinstance(u, HmacKey) and _mac_usage_comp(u.usage, log):
                return True
            if isinstance(u, SEncKey) and _enc_usage_comp(u.usage, log):
                return True
        return False
    if isinstance(t, Pair):
        return level(lv, t.fst, log) and level(lv, t.snd, log)
    if isinstance(t, Hmac):
        if can_hmac(t.key, t.msg, log) and level(lv, t.msg, log):
            return True
        return level(_LOW, t.key, log) and level(_LOW, t.msg, log)
    if isinstance(t, SEnc):
        if can_senc(t.key, t.body, log) and level(_HIGH, t.body, log):
            return True
        return level(_LOW, t.key, log) and level(_LOW, t.body, log)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# payload predicates


def can_hmac(k: Term, m: Term, log: Log) -> bool:
    """Is m a payload the key's owners may MAC, given the logged events?"""
    for u in log.usages_of(k):
        if not isinstance(u, HmacKey):
            continue
        a, b = u.usage.a, u.usage.b
        req = match_request(m)
        if req is not None and Request(a, b, req) in log:
            return True
        rr = match_response(m)
        if rr is not None and Response(a, b, rr[0], rr[1]) in log:
            return True
        if not log.convention.response_binds_request:
            resp = match_bare_response(m)
            if resp is not None and any(
                r.a == a and r.b == b and r.resp == resp for r in log.responses
            ):
                return True
    return False


def can_senc(k: Term, p: Term, log: Log) -> bool:
    """Is p a well-formed key-server ticket for the key's owning principal?"""
    quad = match_pair4(p)
    if quad is None:
        return False
    w, x, y, z = quad
    if w == x:
        return False
    for u in log.usages_of(k):
        if not isinstance(u, SEncKey):
            continue
        q = u.usage.principal
        if w == q and _session_key_between(log, y, w, x) and Initiator(w, z, y, x) in log:
            return True
        if x == q and _session_key_between(log, y, w, x) and Responder(x, z, y, w) in log:
            return True
    return False


def _session_key_between(log: Log, k: Term, a: Term, b: Term) -> bool:
    return any(
        isinstance(u, HmacKey)
        and isinstance(u.usage, SessionKey)
        and u.usage.a == a
        and u.usage.b == b
        for u in log.usages_of(k)
    )


# ---------------------------------------------------------------------------
# compromise conditions


def _mac_usage_comp(u, log: Log) -> bool:
    return Bad(u.a) in log or Bad(u.b) in log


def _enc_usage_comp(u, log: Log) -> bool:
    return Bad(u.principal) in log


def hmac_comp(k: Term, log: Log) -> bool:
    return any(
        isinstance(u, HmacKey) and _mac_usage_comp(u.usage, log)
        for u in log.usages_of(k)
    )


def senc_comp(k: Term, log: Log) -> bool:
    return any(
        isinstance(u, SEncKey) and _enc_usage_comp(u.usage, log)
        for u in log.usages_of(k)
    )


# ---------------------------------------------------------------------------
# sweeps and debugging aids


def weak_secrecy_violations(log: Log) -> list[tuple[Term, object]]:
    """Key literals that are Low although their owner is not compromised.

    Returns (literal, usage) pairs; empty on every good log if the runtime
    is sound.  MAC keys use the two-party condition, principal encryption
    keys the one-party condition.
    """
    out = []
    for t, u in log.news:
        if isinstance(u, HmacKey):
            if level(Level.LOW, t, log) and not _mac_usage_comp(u.usage, log):
                out.append((t, u))
        elif isinstance(u, SEncKey):
            if level(Level.LOW, t, log) and not _enc_usage_comp(u.usage, log):
                out.append((t, u))
    return out


def explain(lv: Level, t: Term, log: Log, _depth: int = 0) -> list[str]:
    """Human-readable trace of the derivation attempt. Debug output only."""
    pad = "  " * _depth
    holds = level(lv, t, log)
    lines = [f"{pad}level({lv.value}, {render_term(t)}) = {str(holds).lower()}"]
    if isinstance(t, Literal):
        usages = log.usages_of(t)
        if not usages:
            lines.append(f"{pad}  no New event for this literal")
        for u in usages:
            if isinstance(u, AttackerGuess):
                lines.append(f"{pad}  created as attacker guess")
            elif isinstance(u, HmacKey):
                comp = _mac_usage_comp(u.usage, log)
                kind = "preshared" if isinstance(u.usage, PresharedKey) else "session"
                lines.append(
                    f"{pad}  {kind} mac key; owner compromised: {str(comp).lower()}"
                )
            elif isinstance(u, SEncKey):
                comp = _enc_usage_comp(u.usage, log)
                lines.append(
                    f"{pad}  principal enc key; owner compromised: {str(comp).lower()}"
                )
    elif isinstance(t, Pair):
        lines += explain(lv, t.fst, log, _depth + 1)
        lines += explain(lv, t.snd, log, _depth + 1)
    elif isinstance(t, Hmac):
        sayable = can_hmac(t.key, t.msg, log)
        lines.append(f"{pad}  payload sayable under key usage: {str(sayable).lower()}")
        if sayable:
            lines += explain(lv, t.msg, log, _depth + 1)
        if not (sayable and level(lv, t.msg, log)):
            lines.append(f"{pad}  public-key-and-payload route:")
            lines += explain(Level.LOW, t.key, log, _depth + 1)
            lines += explain(Level.LOW, t.msg, log, _depth + 1)
    elif isinstance(t, SEnc):
        sayable = can_senc(t.key, t.body, log)
        lines.append(f"{pad}  ticket well-formed under key usage: {str(sayable).lower()}")
        if sayable:
            lines += explain(Level.HIGH, t.body, log, _depth + 1)
        if not (sayable and level(Level.HIGH, t.body, log)):
            lines.append(f"{pad}  public-key-and-payload route:")
            lines += explain(Level.LOW, t.key, log, _depth + 1)
            lines += explain(Level.LOW, t.body, log, _depth + 1)
    return lines
