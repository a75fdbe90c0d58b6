"""Independent fixed-point oracle for the level judgement, plus generators.

The production engine decides levels by memoized structural recursion.
This oracle instead saturates: starting from nothing, it keeps applying
the derivation rules over a finite, subterm-closed term universe until no
new (level, term) pair appears.  The payload predicates are re-derived
here by direct scans over the raw event list, sharing no code with the
engine beyond the term constructors.  Agreement between the two is a
strong check that the recursion implements the inductive system.

Also exports random generators for logs and term universes used by the
equivalence and theorem-suite tests, the soundness check and the three
primitive sets that the pinned run-report tests share, and a straight-line
attack program that builds a MAC chain of any depth.

Run as a script, ``python tests/oracles.py N`` prints that program for a chain
N deep.
"""

from __future__ import annotations

import random

from dymon import (
    AttackerGuess,
    Bad,
    Convention,
    Hmac,
    HmacKey,
    Initiator,
    Level,
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
    TAG_REQUEST,
    TAG_RESPONSE,
    VerdictKind,
    level,
    render_term,
    weak_secrecy_violations,
)

LOW, HIGH = Level.LOW, Level.HIGH
_TAG1 = Literal(TAG_REQUEST)
_TAG2 = Literal(TAG_RESPONSE)


# ---------------------------------------------------------------------------
# oracle


def _news(events):
    return [e for e in events if isinstance(e, New)]


def oracle_can_hmac(k, m, events, convention) -> bool:
    for e in _news(events):
        if e.term != k or not isinstance(e.usage, HmacKey):
            continue
        a, b = e.usage.usage.a, e.usage.usage.b
        if isinstance(m, Pair) and m.fst == _TAG1:
            if Request(a, b, m.snd) in events:
                return True
        if isinstance(m, Pair) and m.fst == _TAG2 and isinstance(m.snd, Pair):
            if Response(a, b, m.snd.fst, m.snd.snd) in events:
                return True
        if not convention.response_binds_request:
            if isinstance(m, Pair) and m.fst == _TAG2:
                for ev in events:
                    if isinstance(ev, Response) and ev.a == a and ev.b == b \
                            and ev.resp == m.snd:
                        return True
    return False


def oracle_can_senc(k, p, events) -> bool:
    if not (isinstance(p, Pair) and isinstance(p.snd, Pair)
            and isinstance(p.snd.snd, Pair)):
        return False
    w, x = p.fst, p.snd.fst
    y, z = p.snd.snd.fst, p.snd.snd.snd
    if w == x:
        return False
    session = any(
        e.term == y and isinstance(e.usage, HmacKey)
        and isinstance(e.usage.usage, SessionKey)
        and e.usage.usage.a == w and e.usage.usage.b == x
        for e in _news(events)
    )
    if not session:
        return False
    for e in _news(events):
        if e.term != k or not isinstance(e.usage, SEncKey):
            continue
        q = e.usage.usage.principal
        if w == q and Initiator(w, z, y, x) in events:
            return True
        if x == q and Responder(x, z, y, w) in events:
            return True
    return False


def _literal_rule(lv, t, events) -> bool:
    for e in _news(events):
        if e.term != t:
            continue
        u = e.usage
        if isinstance(u, AttackerGuess):
            return True
        if lv is HIGH:
            return True
        if isinstance(u, HmacKey):
            a, b = u.usage.a, u.usage.b
            if Bad(a) in events or Bad(b) in events:
                return True
        if isinstance(u, SEncKey):
            if Bad(u.usage.principal) in events:
                return True
    return False


def subterm_close(terms):
    out = set()
    stack = list(terms)
    while stack:
        t = stack.pop()
        if t in out:
            continue
        out.add(t)
        if isinstance(t, Pair):
            stack += [t.fst, t.snd]
        elif isinstance(t, Hmac):
            stack += [t.key, t.msg]
        elif isinstance(t, SEnc):
            stack += [t.key, t.body]
    return out


def saturate(universe, log: Log) -> set:
    """All (level, term) pairs derivable over the closed universe."""
    universe = subterm_close(universe)
    events = list(log)
    convention = log.convention
    derivable: set = set()
    changed = True
    while changed:
        changed = False
        for t in universe:
            for lv in (LOW, HIGH):
                if (lv, t) in derivable:
                    continue
                if isinstance(t, Literal):
                    holds = _literal_rule(lv, t, events)
                elif isinstance(t, Pair):
                    holds = (lv, t.fst) in derivable and (lv, t.snd) in derivable
                elif isinstance(t, Hmac):
                    holds = (
                        oracle_can_hmac(t.key, t.msg, events, convention)
                        and (lv, t.msg) in derivable
                    ) or (
                        (LOW, t.key) in derivable and (LOW, t.msg) in derivable
                    )
                elif isinstance(t, SEnc):
                    holds = (
                        oracle_can_senc(t.key, t.body, events)
                        and any((l2, t.body) in derivable for l2 in (LOW, HIGH))
                    ) or (
                        (LOW, t.key) in derivable and (LOW, t.body) in derivable
                    )
                else:
                    raise TypeError(t)
                if holds:
                    derivable.add((lv, t))
                    changed = True
    return derivable


# ---------------------------------------------------------------------------
# random instances
#
# Each instance is a good log plus a universe of terms that exercises every
# rule: plain data, both key families, well-shaped and mis-shaped MAC
# payloads, well-formed and broken tickets, and an unregistered literal.


_NAMES = [b"A", b"B", b"C", b"D", b"E"]
_PAYLOADS = [b"req", b"resp", b"msg", b"zz", b"yy"]


def random_instance(rng: random.Random):
    convention = Convention(response_binds_request=rng.random() < 0.5)
    log = Log.empty(convention)

    principals = [Literal(n) for n in rng.sample(_NAMES, k=3)]
    for p in principals:
        log = log.add(New(p, AttackerGuess()))
    payloads = [Literal(w) for w in rng.sample(_PAYLOADS, k=3)]
    for w in payloads:
        log = log.add(New(w, AttackerGuess()))
    log = log.add(New(_TAG1, AttackerGuess()))
    log = log.add(New(_TAG2, AttackerGuess()))

    a, b, c = principals

    mac_keys = []
    for i, (x, y) in enumerate([(a, b), (b, c), (a, c)]):
        k = Literal(b"mk%d" % i)
        usage = PresharedKey(x, y) if rng.random() < 0.6 else SessionKey(x, y)
        log = log.add(New(k, HmacKey(usage)))
        mac_keys.append((k, x, y, usage))

    skey = Literal(b"sess")
    sk_a, sk_b = (a, b) if rng.random() < 0.7 else (b, a)
    log = log.add(New(skey, HmacKey(SessionKey(sk_a, sk_b))))

    enc_keys = []
    for i, p in enumerate([a, b]):
        k = Literal(b"ek%d" % i)
        log = log.add(New(k, SEncKey(PrincipalKey(p))))
        enc_keys.append((k, p))

    ghost = Literal(b"ghost")  # never logged: no level at all

    # random protocol events over the pools
    req, resp = payloads[0], payloads[1]
    nonce = payloads[2]
    maybe = lambda pr: rng.random() < pr
    if maybe(0.7):
        log = log.add(Request(a, b, req))
    if maybe(0.6):
        log = log.add(Response(a, b, req, resp))
    if maybe(0.3):
        log = log.add(Request(b, c, req))
    if maybe(0.5):
        log = log.add(Initiator(a, nonce, skey, b))
    if maybe(0.5):
        log = log.add(Responder(b, nonce, skey, a))
    if maybe(0.35):
        log = log.add(Bad(rng.choice(principals)))
    if maybe(0.15):
        log = log.add(Bad(rng.choice(principals)))

    # term universe: shaped and unshaped payloads under every key
    universe = set(principals + payloads + [_TAG1, _TAG2, skey, ghost])
    universe |= {k for k, *_ in mac_keys} | {k for k, _ in enc_keys}

    shaped_req = Pair(_TAG1, req)
    shaped_resp = Pair(_TAG2, Pair(req, resp))
    bare_resp = Pair(_TAG2, resp)
    universe |= {shaped_req, shaped_resp, bare_resp}
    for k, *_ in mac_keys[:2]:
        universe |= {
            Hmac(k, shaped_req),
            Hmac(k, shaped_resp),
            Hmac(k, bare_resp),
            Hmac(k, req),
        }
    universe.add(Hmac(payloads[0], shaped_req))  # key without key usage

    ticket_ok = Pair(a, Pair(b, Pair(skey, nonce)))
    ticket_rev = Pair(b, Pair(a, Pair(skey, nonce)))
    ticket_same = Pair(a, Pair(a, Pair(skey, nonce)))
    for ek, _ in enc_keys:
        universe |= {
            SEnc(ek, ticket_ok),
            SEnc(ek, ticket_rev),
            SEnc(ek, ticket_same),
            SEnc(ek, req),
        }
    universe.add(SEnc(ghost, ticket_ok))

    # a few random binary trees over the pool for structural coverage; the
    # pool is sorted, since a set of nodes iterates in an order that differs
    # between processes (a node's hash includes its class's address)
    pool = sorted(universe, key=render_term)
    for _ in range(4):
        t1, t2 = rng.choice(pool), rng.choice(pool)
        ctor = rng.choice([Pair, Hmac, SEnc])
        universe.add(ctor(t1, t2))

    return log, subterm_close(universe)


def random_extension(rng: random.Random, log: Log) -> Log:
    """Superset log for monotonicity checks: adds a few fresh events."""
    extra = Literal(b"late%d" % rng.randrange(1000))
    out = log.add(New(extra, AttackerGuess()))
    names = [e.term for e in log if isinstance(e, New) and isinstance(e.usage, AttackerGuess)]
    if names and rng.random() < 0.6:
        out = out.add(Bad(rng.choice(names)))
    if len(names) >= 2 and rng.random() < 0.5:
        out = out.add(Request(names[0], names[1], extra))
    return out


# ---------------------------------------------------------------------------
# soundness of a run


class RepeatingSource:
    """Random source that repeats itself: every second fresh draw collides."""

    def draw(self, nbytes):
        return b"\x42" * nbytes


# run_attack keywords for the three primitive sets every soundness run is
# made under: the default primitives, a 1-byte MAC and a repeating source
PRIMITIVES = ({}, {"mac_fn": lambda k, m: b"\x00"}, {"rand": RepeatingSource()})


def check_sound(protocol, result, oracle):
    # broken crypto may cost a correct variant its verdict, never earn it
    # an attack: a decisive failure there is unsound, and so is an
    # assumption failure without a record or a Low key nobody leaked
    state, verdict = result.state, result.verdict
    if protocol != "rpc-flawed":
        assert verdict.kind not in (
            VerdictKind.ASSERTION_FAILURE, VerdictKind.CONTRACT_VIOLATION,
        )
    if verdict.kind is VerdictKind.ASSUMPTION_FAILURE:
        assert state.failures
        assert verdict.detail == state.failures[0].kind.value
    assert weak_secrecy_violations(state.log) == []
    if oracle:
        terms = state.by_term
        truth = saturate(terms, state.log)
        for t in terms:
            for lv in (LOW, HIGH):
                assert level(lv, t, state.log) == ((lv, t) in truth)


# ---------------------------------------------------------------------------
# deep programs


def hmac_chain_program(depth: int) -> str:
    """An attack program whose last variable holds a MAC chain ``depth`` deep:
    ``x0`` is a public literal and each ``x<i>`` MACs ``x<i-1>`` under it."""
    lines = [
        "let s : string", 's = "k"',
        "let x0 : bytespub", "x0 = att_toBytespub(s)",
    ]
    for i in range(1, depth + 1):
        lines += [f"let x{i} : bytespub", f"x{i} = att_hmacsha1(x0, x{i - 1})"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    import sys

    sys.stdout.write(hmac_chain_program(int(sys.argv[1])))
