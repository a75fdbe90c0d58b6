"""Level judgement: hand-picked rule cases and the saturation cross-check."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import oracles
from oracles import random_instance, saturate

import dymon

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
    can_hmac,
    can_senc,
    explain,
    level,
    weak_secrecy_violations,
)
from dymon import levels

LOW, HIGH = Level.LOW, Level.HIGH
A, B, C = Literal(b"A"), Literal(b"B"), Literal(b"C")
K = Literal(b"k")
REQ, RESP = Literal(b"req"), Literal(b"resp")
TAG1, TAG2 = Literal(TAG_REQUEST), Literal(TAG_RESPONSE)


def base_log(convention=Convention()):
    log = Log.empty(convention)
    for lit in (A, B, C, REQ, RESP, TAG1, TAG2):
        log = log.add(New(lit, AttackerGuess()))
    return log.add(New(K, HmacKey(PresharedKey(A, B))))


# -- literal rule --------------------------------------------------------------


def test_attacker_guess_literals_are_both_levels():
    log = base_log()
    assert level(LOW, A, log) and level(HIGH, A, log)


def test_unlogged_literal_has_no_level():
    log = base_log()
    ghost = Literal(b"ghost")
    assert not level(LOW, ghost, log)
    assert not level(HIGH, ghost, log)


def test_key_literal_is_high_but_not_low():
    log = base_log()
    assert level(HIGH, K, log)
    assert not level(LOW, K, log)


def test_key_becomes_low_when_either_owner_is_bad():
    for victim in (A, B):
        log = base_log().add(Bad(victim))
        assert level(LOW, K, log)
    log = base_log().add(Bad(C))
    assert not level(LOW, K, log)


def test_principal_enc_key_compromise_is_one_party():
    ek = Literal(b"ek")
    log = base_log().add(New(ek, SEncKey(PrincipalKey(B))))
    assert level(HIGH, ek, log) and not level(LOW, ek, log)
    assert level(LOW, ek, log.add(Bad(B)))
    assert not level(LOW, ek, log.add(Bad(A)))


# -- pair rule -----------------------------------------------------------------


def test_pair_needs_both_components():
    log = base_log()
    assert level(LOW, Pair(A, REQ), log)
    assert not level(LOW, Pair(A, K), log)
    assert level(HIGH, Pair(A, K), log)


# -- mac rule ------------------------------------------------------------------


def test_mac_of_logged_request_is_low():
    payload = Pair(TAG1, REQ)
    log = base_log()
    assert not can_hmac(K, payload, log)
    assert not level(LOW, Hmac(K, payload), log)
    logged = log.add(Request(A, B, REQ))
    assert can_hmac(K, payload, logged)
    assert level(LOW, Hmac(K, payload), logged)


def test_mac_of_logged_response_is_low():
    payload = Pair(TAG2, Pair(REQ, RESP))
    log = base_log().add(Response(A, B, REQ, RESP))
    assert can_hmac(K, payload, log)
    assert level(LOW, Hmac(K, payload), log)
    # same shape under the wrong principals stays underivable
    other = base_log().add(Response(B, A, REQ, RESP))
    assert not can_hmac(K, payload, other)


def test_mac_with_public_key_route():
    pk = Literal(b"pk")
    log = base_log().add(New(pk, AttackerGuess()))
    assert level(LOW, Hmac(pk, REQ), log)
    assert level(HIGH, Hmac(pk, REQ), log)
    assert not level(LOW, Hmac(K, REQ), log)


def test_mac_level_follows_payload_level():
    # sayable payload that is itself High-only: the MAC is High, not Low
    secret = Literal(b"s")
    k2 = Literal(b"k2")
    log = (
        base_log()
        .add(New(secret, HmacKey(PresharedKey(A, C))))
        .add(New(k2, HmacKey(PresharedKey(A, B))))
        .add(Request(A, B, secret))
    )
    payload = Pair(TAG1, secret)
    assert can_hmac(k2, payload, log)
    assert level(HIGH, Hmac(k2, payload), log)
    assert not level(LOW, Hmac(k2, payload), log)


def test_flawed_convention_accepts_bare_response_shape():
    payload = Pair(TAG2, RESP)
    bound = base_log().add(Response(A, B, REQ, RESP))
    assert not can_hmac(K, payload, bound)
    flawed = base_log(Convention(response_binds_request=False)).add(
        Response(A, B, REQ, RESP)
    )
    assert can_hmac(K, payload, flawed)
    assert level(LOW, Hmac(K, payload), flawed)


# -- cipher rule ---------------------------------------------------------------


def or_log(convention=Convention()):
    sk = Literal(b"sess")
    na = Literal(b"na")
    ek = Literal(b"ek")
    log = (
        base_log(convention)
        .add(New(na, AttackerGuess()))
        .add(New(sk, HmacKey(SessionKey(A, B))))
        .add(New(ek, SEncKey(PrincipalKey(A))))
    )
    return log, sk, na, ek


def ticket(a, b, key, nonce):
    return Pair(a, Pair(b, Pair(key, nonce)))


def test_ticket_encryption_initiator_branch():
    log, sk, na, ek = or_log()
    body = ticket(A, B, sk, na)
    assert not can_senc(ek, body, log)
    logged = log.add(Initiator(A, na, sk, B))
    assert can_senc(ek, body, logged)
    assert level(LOW, SEnc(ek, body), logged)
    assert level(HIGH, SEnc(ek, body), logged)


def test_ticket_encryption_responder_branch():
    log, sk, na, ek_a = or_log()
    ek_b = Literal(b"ekb")
    log = log.add(New(ek_b, SEncKey(PrincipalKey(B)))).add(Responder(B, na, sk, A))
    body = ticket(A, B, sk, na)
    assert can_senc(ek_b, body, log)
    # the initiator-key ticket is not justified by a Responder event
    assert not can_senc(ek_a, body, log)


def test_ticket_rejects_equal_principals():
    log, sk, na, ek = or_log()
    log = log.add(Initiator(A, na, sk, B)).add(Initiator(A, na, sk, A))
    assert not can_senc(ek, ticket(A, A, sk, na), log)


def test_ticket_requires_session_key_usage():
    log, sk, na, ek = or_log()
    log = log.add(Initiator(A, na, REQ, B))
    assert not can_senc(ek, ticket(A, B, REQ, na), log)


def test_senc_public_route():
    log, sk, na, ek = or_log()
    pk = Literal(b"pk")
    log = log.add(New(pk, AttackerGuess()))
    assert level(LOW, SEnc(pk, REQ), log)
    assert not level(LOW, SEnc(ek, REQ), log)


def test_senc_keeps_high_body_unreadable():
    # a well-formed ticket is Low even though its body holds a High key
    log, sk, na, ek = or_log()
    log = log.add(Initiator(A, na, sk, B))
    body = ticket(A, B, sk, na)
    assert level(LOW, SEnc(ek, body), log)
    assert not level(LOW, body, log)
    assert not level(LOW, sk, log)


# -- compromise predicates -----------------------------------------------------


def test_comp_predicates():
    # a MAC or ciphertext that nobody may make is unsanctioned until an
    # owner of its key's usage of that kind is Bad
    log = base_log()
    mac = Hmac(K, Pair(TAG1, REQ))
    assert levels.unsanctioned(mac, log)
    assert not levels.unsanctioned(mac, log.add(Bad(A)))
    assert levels.unsanctioned(mac, log.add(Bad(C)))
    assert not levels.unsanctioned(mac, log.add(Request(A, B, REQ)))
    ek = Literal(b"ek")
    log2 = log.add(New(ek, SEncKey(PrincipalKey(C))))
    enc = SEnc(ek, REQ)
    assert levels.unsanctioned(enc, log2)
    assert not levels.unsanctioned(enc, log2.add(Bad(C)))
    assert levels.unsanctioned(enc, log2.add(Bad(A)))
    # a key with only the other kind of usage sanctions nothing and breaks
    # nothing: the note is about a key of the term's own kind
    assert not levels.unsanctioned(SEnc(K, REQ), log)
    assert not levels.unsanctioned(Hmac(ek, Pair(TAG1, REQ)), log2)


# the parent's note conditions: hmac_comp and senc_comp, and the test that
# w_hmacsha1_verify and w_sdec each made before noting a passed check


def _hmac_comp(k, log):
    return any(isinstance(u, HmacKey) and levels._comp(u.usage, log) for u in log.usages_of(k))


def _senc_comp(k, log):
    return any(isinstance(u, SEncKey) and levels._comp(u.usage, log) for u in log.usages_of(k))


def _noted(t, log):
    if isinstance(t, Hmac):
        return any(isinstance(u, HmacKey) for u in log.usages_of(t.key)) and not (
            can_hmac(t.key, t.msg, log) or _hmac_comp(t.key, log)
        )
    return any(isinstance(u, SEncKey) for u in log.usages_of(t.key)) and not (
        can_senc(t.key, t.body, log) or _senc_comp(t.key, log)
    )


def test_unsanctioned_agrees_with_the_two_note_conditions():
    rng = random.Random(28)
    answers = Counter()
    for _ in range(300):
        log, universe = random_instance(rng)
        for t in universe:
            if isinstance(t, (Hmac, SEnc)):
                assert levels.unsanctioned(t, log) == _noted(t, log), t
                answers[type(t), _noted(t, log)] += 1
    # each kind gives both answers, so the comparison is not vacuous
    assert len(answers) == 4, answers


# -- sweeps and debugging ------------------------------------------------------


def test_weak_secrecy_sweep_flags_leaked_key():
    clean = base_log()
    assert weak_secrecy_violations(clean) == []
    # a compromised key is Low for a sanctioned reason: not a violation
    assert weak_secrecy_violations(clean.add(Bad(A))) == []
    # a double-usage (bad) log where the key is also an attacker guess
    dirty = clean.add(New(K, AttackerGuess()))
    assert not dirty.good
    hits = weak_secrecy_violations(dirty)
    assert [t for t, _ in hits] == [K]


def _sweep_reference(log):
    # the reference sweep: a comprehension over Log.news
    return [
        (t, u)
        for t, u in log.news
        if not isinstance(u, AttackerGuess) and level(LOW, t, log)
        and not levels._comp(u.usage, log)
    ]


def test_weak_secrecy_sweep_agrees_with_the_reference():
    # the same pairs in the same order, on good logs, on their extensions,
    # on logs with Bad events and on logs that are not good
    rng = random.Random(19)
    logs = []
    for _ in range(150):
        log, _ = random_instance(rng)
        news = list(log.news)
        keys = [t for t, u in news if not isinstance(u, AttackerGuess)]
        names = [t for t, u in news if isinstance(u, AttackerGuess)]
        logs += [log, oracles.random_extension(rng, log), log.add(Bad(rng.choice(names)))]
        # logs that are not good: two keys created again as attacker
        # guesses, and an attacker guess created again as a key, are Low
        twice = log
        for k in rng.sample(keys, 2):
            twice = twice.add(New(k, AttackerGuess()))
        a, b, c = rng.sample(names, 3)
        guessed = log.add(New(a, HmacKey(PresharedKey(b, c))))
        logs += [twice, twice.add(Bad(rng.choice(names))), guessed, guessed.add(Bad(b))]
    seen = Counter()
    for log in logs:
        # the reference first on one copy of the log, the sweep first on another
        again = Log.empty(log.convention)
        for e in log:
            again = again.add(e)
        want = _sweep_reference(log)
        assert weak_secrecy_violations(log) == want
        assert weak_secrecy_violations(again) == want == _sweep_reference(again)
        seen[log.good, len(want), any(isinstance(e, Bad) for e in log)] += 1
    # violations occur only on logs that are not good, with and without
    # Bad events, and some logs have two
    assert not any(n for good, n, _ in seen.elements() if good)
    assert seen[False, 1, False] and seen[False, 1, True] and seen[False, 2, False]
    assert seen[True, 0, True] and seen[False, 0, True]


def test_explain_mentions_the_route():
    log = base_log().add(Request(A, B, REQ))
    lines = explain(LOW, Hmac(K, Pair(TAG1, REQ)), log)
    text = "\n".join(lines)
    assert "= true" in lines[0]
    assert "payload sayable under key usage: true" in text
    lines2 = explain(LOW, K, log)
    assert "owner compromised: false" in "\n".join(lines2)


def _explain_cases():
    """(term, log) pairs reaching every branch of ``explain``."""
    log, sk, na, ek = or_log()
    pk = Literal(b"pk")
    log = (
        log.add(New(pk, AttackerGuess()))
        .add(Request(A, B, REQ))
        .add(Request(A, B, K))
        .add(Initiator(A, na, sk, B))
    )
    bad = log.add(Bad(A))
    flawed = base_log(Convention(response_binds_request=False)).add(
        Response(A, B, REQ, RESP)
    )
    return [
        (Literal(b"ghost"), log),
        (A, log),
        (K, log), (K, bad),
        (sk, log), (sk, bad),
        (ek, log), (ek, bad),
        (Pair(A, K), log),
        (Hmac(K, Pair(TAG1, REQ)), log),
        # sayable, but the payload is High only: both routes are shown
        (Hmac(K, Pair(TAG1, K)), log),
        (Hmac(pk, REQ), log),
        (SEnc(ek, ticket(A, B, sk, na)), log),
        (SEnc(pk, REQ), log),
        (Hmac(K, Pair(TAG2, RESP)), flawed),
    ]


def test_explain_matches_the_golden_text():
    lines = []
    for t, log in _explain_cases():
        for lv in (LOW, HIGH):
            lines += explain(lv, t, log)
    golden = (Path(__file__).parent / "explain_golden.txt").read_text()
    assert "\n".join(lines) + "\n" == golden


def _explain_reference(lv, t, log, _depth=0):
    # the reference explain: one recursion per term level
    pad = "  " * _depth
    holds = level(lv, t, log)
    lines = [f"{pad}level({lv.value}, {dymon.render_term(t)}) = {str(holds).lower()}"]
    if isinstance(t, Literal):
        usages = log.usages_of(t)
        if not usages:
            lines.append(f"{pad}  no New event for this literal")
        for u in usages:
            if isinstance(u, AttackerGuess):
                lines.append(f"{pad}  created as attacker guess")
            else:
                comp = str(levels._comp(u.usage, log)).lower()
                lines.append(f"{pad}  {levels._KEY_KINDS[type(u.usage)]}; owner compromised: {comp}")
    elif isinstance(t, Pair):
        lines += _explain_reference(lv, t.fst, log, _depth + 1)
        lines += _explain_reference(lv, t.snd, log, _depth + 1)
    elif isinstance(t, (Hmac, SEnc)):
        payload, sayable, need = levels._route(lv, t, log)
        what = "payload sayable" if isinstance(t, Hmac) else "ticket well-formed"
        lines.append(f"{pad}  {what} under key usage: {str(sayable).lower()}")
        if sayable:
            lines += _explain_reference(need, payload, log, _depth + 1)
        if not (sayable and level(need, payload, log)):
            lines.append(f"{pad}  public-key-and-payload route:")
            lines += _explain_reference(LOW, t.key, log, _depth + 1)
            lines += _explain_reference(LOW, payload, log, _depth + 1)
    return lines


def _with_headroom(frames, fn):
    """fn() with the recursion limit about ``frames`` frames above the
    caller (None: the limit as it is).  A RecursionError that escapes fails
    the test plainly: its chain of handled overflows is too long to print."""
    def down(n):
        try:
            return down(n + 1)
        except RecursionError:
            return n

    old = sys.getrecursionlimit()
    if frames is not None:
        sys.setrecursionlimit(old - down(0) + frames)
    try:
        return fn()
    except RecursionError as exc:
        escaped = str(exc)
    finally:
        sys.setrecursionlimit(old)
    raise AssertionError(f"RecursionError escaped: {escaped}")


def _counting(monkeypatch, name, bound):
    """The arguments of every call of levels.<name>, failing the test at
    once when there are more than bound."""
    calls = []
    original = getattr(levels, name)

    def counting(*args):
        calls.append(args)
        if len(calls) > bound:
            raise AssertionError(f"more than {bound} calls of {name}") from None
        return original(*args)

    monkeypatch.setattr(levels, name, counting)
    return calls


def _chains(depth):
    """(term, log) pairs: Pair, Hmac and SEnc chains ``depth`` deep over a
    public literal, each judged at Low along the public route."""
    a = Literal(b"a")
    log = Log.empty().add(New(a, AttackerGuess()))
    cases = []
    for head in (Pair, Hmac, SEnc):
        t = a
        for _ in range(depth):
            t = head(a, t)
        cases.append((t, log))
    return cases


def test_explain_matches_the_reference(monkeypatch):
    # on the golden cases, and on chains judged and explained with less
    # headroom than their depth (a fresh log each time, so nothing is memoized)
    for t, log in _explain_cases():
        for lv in (LOW, HIGH):
            assert explain(lv, t, log) == _explain_reference(lv, t, log), (lv, t)
    depth = 150
    want = [_explain_reference(lv, t, log) for lv in (LOW, HIGH) for t, log in _chains(depth)]
    cases = [(lv, t, log) for lv in (LOW, HIGH) for t, log in _chains(depth)]
    _counting(monkeypatch, "level", 5 * len(cases) * depth)  # a runaway walk fails fast
    got = _with_headroom(depth // 2, lambda: [explain(*case) for case in cases])
    assert got == want
    assert all(len(lines) > 2 * depth for lines in got)


def test_levels_do_not_share_a_memo_in_either_query_order():
    # term -> (Low, High); a preshared key and pairs over it are High only
    expected = {
        K: (False, True),
        Pair(A, K): (False, True),
        Hmac(K, Pair(TAG1, REQ)): (True, True),
        Hmac(K, Pair(A, B)): (False, False),
    }
    for order in ((LOW, HIGH), (HIGH, LOW)):
        log = base_log().add(Request(A, B, REQ))
        for t, (low, high) in expected.items():
            answers = {lv: level(lv, t, log) for lv in order}
            assert answers == {LOW: low, HIGH: high}, (order, t)
        # asked again, the memoized answers are the same
        for t, (low, high) in expected.items():
            assert (level(LOW, t, log), level(HIGH, t, log)) == (low, high)


def _subterms(t):
    yield t
    if not isinstance(t, Literal):
        for child in t[1:]:
            yield from _subterms(child)


def test_each_term_is_decided_once_per_log(monkeypatch):
    decided = {}
    decide = levels._decide

    def counting(*args):
        t, log = args[-2:]
        decided[t, id(log)] = decided.get((t, id(log)), 0) + 1
        return decide(*args)

    monkeypatch.setattr(levels, "_decide", counting)
    for order in ((LOW, HIGH), (HIGH, LOW)):
        cases = _explain_cases()  # fresh logs, kept alive so no id is reused
        for t, log in cases:
            for sub in _subterms(t):
                for lv in order:
                    level(lv, sub, log)
        assert decided and max(decided.values()) == 1, order
        decided.clear()


def test_chains_two_fifths_of_the_recursion_limit_deep_are_judged():
    # level and its decision step recurse two frames per term level
    a = Literal(b"a")
    log = Log.empty().add(New(a, AttackerGuess()))
    depth = 2 * sys.getrecursionlimit() // 5
    for head in (Pair, Hmac, SEnc):
        t = a
        for _ in range(depth):
            t = head(a, t)
        assert level(LOW, t, log) and level(HIGH, t, log), head


def test_chains_twice_the_recursion_limit_deep_are_judged(monkeypatch):
    # each term is decided once, but for the few near the limit whose
    # decision overflowed and is made again once their subterms are judged
    depth = 2 * sys.getrecursionlimit()
    cases = _chains(depth)  # one log: the three chains share the literal
    decided = _counting(monkeypatch, "_decide", 3 * depth + 30)
    _counting(monkeypatch, "level", 5 * 3 * depth)  # a runaway walk fails fast
    for t, log in cases:
        assert _with_headroom(None, lambda: level(LOW, t, log) and level(HIGH, t, log))
    assert len({t for t, _ in decided}) == 3 * depth + 1
    assert len(decided) - (3 * depth + 1) <= 15


def test_memo_is_per_log_version():
    log = base_log()
    assert not level(LOW, K, log)
    grown = log.add(Bad(A))
    assert level(LOW, K, grown)
    # the original log's cached result is unaffected
    assert not level(LOW, K, log)


# -- cross-check against the saturation oracle ---------------------------------


_INSTANCE_DIGEST = """
import hashlib, random
from dymon import render_event, render_term
from oracles import random_instance
rng = random.Random(11)
h = hashlib.sha256()
for _ in range(300):
    log, universe = random_instance(rng)
    events = [render_event(e) for e in log]
    h.update(repr((log.convention, events, sorted(map(render_term, universe)))).encode())
print(h.hexdigest())
"""


def test_oracle_samples_do_not_depend_on_the_process():
    # the seeded cross-checks must test the same instances in every process
    tests = str(Path(oracles.__file__).resolve().parent)
    src = str(Path(dymon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, tests, os.environ.get("PYTHONPATH"))))
    digests = {
        subprocess.run(
            [sys.executable, "-c", _INSTANCE_DIGEST],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout
        for seed in ("0", "1")
    }
    assert len(digests) == 1, digests


def test_engine_matches_saturation_oracle_sample():
    rng = random.Random(7)
    for _ in range(40):
        log, universe = random_instance(rng)
        truth = saturate(universe, log)
        for t in universe:
            for lv in (LOW, HIGH):
                assert level(lv, t, log) == ((lv, t) in truth)


def _fresh(log):
    """The same events in a new Log, with an empty memo."""
    again = Log.empty(log.convention)
    for e in log:
        again = again.add(e)
    return again


def test_engine_matches_the_oracle_while_the_fallback_runs(monkeypatch):
    # with a few frames of headroom, judging a compound term overflows and
    # level judges its subterms children first, then decides it again
    overflowed = []
    decide = levels._decide

    def watching(t, log):
        try:
            return decide(t, log)
        except RecursionError:
            overflowed.append(t)
            raise

    rng = random.Random(29)
    cases = []
    for _ in range(40):
        log, universe = random_instance(rng)
        for order in ((LOW, HIGH), (HIGH, LOW)):
            cases.append((order, universe, log, _fresh(log), _fresh(log)))
    monkeypatch.setattr(levels, "_decide", watching)

    def ask():
        return [level(lv, t, log) for order, universe, _, log, _ in cases
                for t in universe for lv in order]

    shallow = _with_headroom(12, ask)
    assert len(overflowed) > len(cases)
    answers = iter(shallow)
    for order, universe, log, _, normal in cases:
        truth = saturate(universe, log)
        for t in universe:
            for lv in order:
                got = next(answers)
                assert got == ((lv, t) in truth) == level(lv, t, normal), (lv, t)


def test_high_mac_and_ciphertext_mean_sayable_or_both_public():
    # w_hmacsha1 and w_senc refuse a call unless the term they would
    # register is High; their payload is registered, so High, and over a
    # High payload that must mean: sayable, or key and payload both Low
    rng = random.Random(7)
    seen = {(Hmac, True): 0, (Hmac, False): 0, (SEnc, True): 0, (SEnc, False): 0}
    for _ in range(300):
        log, universe = random_instance(rng)
        for t in universe:
            if not isinstance(t, (Hmac, SEnc)):
                continue
            payload = t.msg if isinstance(t, Hmac) else t.body
            if not level(HIGH, payload, log):
                continue
            sayable = can_hmac if isinstance(t, Hmac) else can_senc
            expected = sayable(t.key, payload, log) or (
                level(LOW, t.key, log) and level(LOW, payload, log)
            )
            assert level(HIGH, t, log) == expected, t
            seen[type(t), expected] += 1
    assert all(seen.values()), seen
