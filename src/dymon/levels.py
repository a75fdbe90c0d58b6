"""Decision procedure for the two-point secrecy level of a term.

``level(lv, t, log)`` decides whether the inductive derivability judgement
holds for t at level lv over the given log.  Low means attacker-knowable;
everything Low is also High.  The recursion is structural on the term head:

  Literal:   some New event created it; attacker guesses are both levels,
             keys are High, and Low exactly when compromised.
  Pair:      both components at the same level.
  Hmac:      either the payload is sayable under the key's usage and the
             payload itself has the level, or key and payload are both Low.
  SEnc:      either the payload is a well-formed ticket under the key's
             usage (and has *some* level, decided at High since Low implies
             High), or key and payload are both Low.

One rule says when a key is compromised: a principal it is shared between
(either party of a MAC key, the owner of an encryption key) is Bad.  Under a
MAC key between a and b, Pair(tag1, req) is sayable once Request(a, b, req)
is logged and Pair(tag2, Pair(req, resp)) once Response(a, b, req, resp) is;
the flawed convention also takes Pair(tag2, resp).  A ticket is Pair(a,
Pair(b, Pair(key, nonce))) with a != b and key a session MAC key between
them, under a's key with Initiator(a, nonce, key, b) logged or under b's key
with Responder(b, nonce, key, a) logged.

Each term is decided once per Log value, and again after its subterms are
judged, children first, when the decision overflows the recursion limit.
Values are memoized in one dict keyed by term: 2 Low (hence High), 1 High
only, 0 neither.  Logs are immutable, so entries never need invalidation.
"""

from __future__ import annotations

import enum

from .terms import (
    TAG_REQUEST,
    TAG_RESPONSE,
    AttackerGuess,
    Bad,
    HmacKey,
    Hmac,
    Initiator,
    Literal,
    Log,
    New,
    Pair,
    PresharedKey,
    PrincipalKey,
    Request,
    Responder,
    Response,
    SEnc,
    SEncKey,
    SessionKey,
    Term,
    render_term,
)


class Level(enum.Enum):
    LOW = "low"
    HIGH = "high"


# bound once: looking a member up on an Enum class is a Python-level call
_LOW = Level.LOW
_HIGH = Level.HIGH

_TAG1 = Literal(TAG_REQUEST)
_TAG2 = Literal(TAG_RESPONSE)


def level(lv: Level, t: Term, log: Log) -> bool:
    memo = log._memo
    v = memo.get(t)
    if v is None:
        try:
            v = _decide(t, log)
        except RecursionError:
            nodes = [t]
            for s in nodes:  # read as it grows: every child comes after its parent
                nodes += [c for c in s[1:] if isinstance(c, (Pair, Hmac, SEnc))]
            for s in reversed(nodes[1:]):  # children first, so each nests one level
                level(_HIGH, s, log)
            v = _decide(t, log)
        memo[t] = v
    return v > 0 if lv is _HIGH else v > 1


def _decide(t: Term, log: Log) -> int:
    # children go through level itself: a helper frame per term level costs depth
    if isinstance(t, Literal):
        usages = log.usages_of(t)
        for u in usages:
            if isinstance(u, AttackerGuess) or _comp(u.usage, log):
                return 2
        return 1 if usages else 0
    if isinstance(t, Pair):
        if level(_HIGH, t.fst, log) and level(_HIGH, t.snd, log):
            return min(log._memo[t.fst], log._memo[t.snd])
        return 0
    if isinstance(t, (Hmac, SEnc)):
        payload, sayable, need = _route(_LOW, t, log)
        if sayable and level(_HIGH, payload, log):
            # High holds; Low holds when the payload has the level Low needs
            return log._memo[payload] if need is _LOW else 2
        return 2 if level(_LOW, t.key, log) and level(_LOW, payload, log) else 0
    raise TypeError(f"not a term: {t!r}")


def _route(lv: Level, t: Hmac | SEnc, log: Log) -> tuple[Term, bool, Level]:
    """A MAC's or ciphertext's first route: its payload, whether the payload
    is sayable under the key's usage, and the level the payload then needs."""
    if isinstance(t, Hmac):
        return t.msg, can_hmac(t.key, t.msg, log), lv
    return t.body, can_senc(t.key, t.body, log), _HIGH


# ---------------------------------------------------------------------------
# payload predicates


def can_hmac(k: Term, m: Term, log: Log) -> bool:
    """Is m a payload the key's owners may MAC, given the logged events?"""
    if not isinstance(m, Pair):
        return False
    tag, rest = m.fst, m.snd
    for u in log.usages_of(k):
        if not isinstance(u, HmacKey):
            continue
        a, b = u.usage.a, u.usage.b
        if tag == _TAG1 and Request(a, b, rest) in log:
            return True
        if tag == _TAG2:
            if isinstance(rest, Pair) and Response(a, b, rest.fst, rest.snd) in log:
                return True
            if not log.convention.response_binds_request and any(
                r.a == a and r.b == b and r.resp == rest for r in log.responses
            ):
                return True
    return False


def can_senc(k: Term, p: Term, log: Log) -> bool:
    """Is p a well-formed key-server ticket for the key's owning principal?"""
    if not (isinstance(p, Pair) and isinstance(p.snd, Pair) and isinstance(p.snd.snd, Pair)):
        return False
    a, b, key, nonce = p.fst, p.snd.fst, p.snd.snd.fst, p.snd.snd.snd
    if a == b or HmacKey(SessionKey(a, b)) not in log.usages_of(key):
        return False
    for u in log.usages_of(k):
        if not isinstance(u, SEncKey):
            continue
        q = u.usage.principal
        if a == q and Initiator(a, nonce, key, b) in log:
            return True
        if b == q and Responder(b, nonce, key, a) in log:
            return True
    return False


# ---------------------------------------------------------------------------
# compromise


def _comp(usage, log: Log) -> bool:
    """Is a principal this key usage is shared between Bad?"""
    # every field of a key usage node is a principal
    events = log._events
    for principal in usage[1:]:
        if Bad(principal) in events:
            return True
    return False


def unsanctioned(t: Hmac | SEnc, log: Log) -> bool:
    """Does a MAC that verified, or a ciphertext that decrypted, break the
    postcondition both share?  It does when the key has a usage of the
    term's kind, the payload is not sayable under it, and no principal of
    that usage is Bad."""
    kind = HmacKey if isinstance(t, Hmac) else SEncKey
    usages = [u.usage for u in log.usages_of(t.key) if isinstance(u, kind)]
    if not usages:
        return False
    _, sayable, _ = _route(_LOW, t, log)
    return not sayable and not any(_comp(u, log) for u in usages)


# ---------------------------------------------------------------------------
# sweeps and debugging aids


def weak_secrecy_violations(log: Log) -> list[tuple[Term, object]]:
    """Key literals that are Low although their owner is not compromised.

    Returns (literal, usage) pairs, one per New event in log order; empty on
    every good log if the runtime is sound.
    """
    found = []
    for e in log._events:
        if type(e) is New:
            _, t, u = e  # a node is (class, *fields)
            if type(u) is not AttackerGuess and level(_LOW, t, log) and not _comp(u.usage, log):
                found.append((t, u))
    return found


_KEY_KINDS = {
    PresharedKey: "preshared mac key",
    SessionKey: "session mac key",
    PrincipalKey: "principal enc key",
}


def explain(lv: Level, t: Term, log: Log) -> list[str]:
    """Human-readable trace of the derivation attempt. Debug output only."""
    lines = []
    # (level, term, indent, lines before it) to explain; what follows a
    # term's own lines is pushed last first, so that it pops in order
    todo = [(lv, t, "", ())]
    while todo:
        lv, t, pad, before = todo.pop()
        lines += before
        holds = str(level(lv, t, log)).lower()
        lines.append(f"{pad}level({lv.value}, {render_term(t)}) = {holds}")
        pad += "  "
        if isinstance(t, Literal):
            usages = log.usages_of(t)
            if not usages:
                lines.append(f"{pad}no New event for this literal")
            for u in usages:
                if isinstance(u, AttackerGuess):
                    lines.append(f"{pad}created as attacker guess")
                else:
                    comp = str(_comp(u.usage, log)).lower()
                    lines.append(f"{pad}{_KEY_KINDS[type(u.usage)]}; owner compromised: {comp}")
        elif isinstance(t, Pair):
            todo += [(lv, t.snd, pad, ()), (lv, t.fst, pad, ())]
        elif isinstance(t, (Hmac, SEnc)):
            payload, sayable, need = _route(lv, t, log)
            what = "payload sayable" if isinstance(t, Hmac) else "ticket well-formed"
            lines.append(f"{pad}{what} under key usage: {str(sayable).lower()}")
            if not (sayable and level(need, payload, log)):
                route = (f"{pad}public-key-and-payload route:",)
                todo += [(_LOW, payload, pad, ()), (_LOW, t.key, pad, route)]
            if sayable:
                todo.append((need, payload, pad, ()))
    return lines
