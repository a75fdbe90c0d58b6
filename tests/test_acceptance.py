"""Acceptance suite.

One test per acceptance criterion; `pytest -v` therefore prints one
pass/fail line per criterion.  Each test also prints a `CRITERION n` line
with the measured numbers (visible with -rA or -s).

Tolerances and thresholds are inline next to the assertions they govern.
"""

import inspect
import random
import time

import pytest

from oracles import LOW, HIGH, random_extension, random_instance, saturate

from dymon import (
    AssumptionKind,
    AttackerGuess,
    AuthFailureError,
    Bad,
    Hmac,
    HmacKey,
    Level,
    Literal,
    Log,
    New,
    OR_HONEST,
    Pair,
    PresharedKey,
    RPC_HONEST,
    RPC_SPLICE,
    Request,
    Responder,
    Response,
    SEncKey,
    TableAuditError,
    TAG_REQUEST,
    TAG_RESPONSE,
    VerdictKind,
    can_hmac,
    fuzz_attacks,
    hmac_sha1,
    level,
    run_attack,
    sdec,
    senc,
    weak_secrecy_violations,
)

_TAG1, _TAG2 = Literal(TAG_REQUEST), Literal(TAG_RESPONSE)


def test_criterion_01_honest_rpc_replay_ok_under_one_second():
    started = time.monotonic()
    results = {
        proto: run_attack(RPC_HONEST, proto, seed=3)
        for proto in ("rpc-correct", "rpc-flawed")
    }
    elapsed = time.monotonic() - started
    for proto, r in results.items():
        assert r.verdict.kind is VerdictKind.OK, proto
        names = [type(e).__name__ for e in r.state.log]
        assert "Request" in names and "Response" in names, proto
        assert r.assertions_checked == 2
        assert r.state.failures == []
    assert elapsed < 1.0
    print(f"CRITERION 1 PASS: honest replay ok on both variants in {elapsed*1000:.0f} ms")


def test_criterion_02_response_splice_separates_the_two_rpc_variants():
    flawed = run_attack(RPC_SPLICE, "rpc-flawed", seed=3)
    assert flawed.verdict.kind is VerdictKind.ASSERTION_FAILURE
    assert flawed.verdict.location == "rpc_client"
    assert flawed.verdict.exit_code == 10

    correct = run_attack(RPC_SPLICE, "rpc-correct", seed=3)
    assert correct.verdict.kind is not VerdictKind.ASSERTION_FAILURE
    assert correct.verdict.kind is VerdictKind.OK
    print(
        "CRITERION 2 PASS: splice fails the flawed client "
        f"({flawed.verdict.detail!r}) and is harmless against the fix"
    )


def test_criterion_03_ten_thousand_fuzz_runs_clean_on_correct_rpc():
    started = time.monotonic()
    r = fuzz_attacks("rpc-correct", count=10_000, max_len=16, seed=11)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    assert r.histogram.get("assertion-failure", 0) == 0
    assert r.counterexamples == []
    assert sum(r.histogram.values()) == 10_000
    print(
        f"CRITERION 3 PASS: 10^4 programs, 0 assertion failures, "
        f"{elapsed:.1f} s (histogram {dict(sorted(r.histogram.items()))})"
    )


def test_criterion_04_weak_secrecy_sweep_runs_and_detects():
    # sweep is wired into every fuzz run and stays empty on sound crypto
    swept = 0
    for proto in ("rpc-correct", "rpc-flawed", "otway-rees"):
        r = fuzz_attacks(proto, count=400, max_len=14, seed=23)
        assert r.secrecy_violations == [], proto
        swept += sum(r.histogram.values())
    # and the detector itself is not vacuous: a hand-built unsound log
    # (same key bytes doubling as an attacker guess) is flagged
    k, a, b = Literal(b"k"), Literal(b"A"), Literal(b"B")
    dirty = (
        Log.empty()
        .add(New(k, HmacKey(PresharedKey(a, b))))
        .add(New(k, AttackerGuess()))
    )
    hits = weak_secrecy_violations(dirty)
    assert [t for t, _ in hits] == [k]
    assert weak_secrecy_violations(Log.empty().add(New(k, HmacKey(PresharedKey(a, b))))) == []
    print(f"CRITERION 4 PASS: {swept} fuzz runs swept clean; seeded leak detected")


def test_criterion_05_engine_agrees_with_saturation_oracle():
    rng = random.Random(42)
    started = time.monotonic()
    instances, judgements = 500, 0
    for _ in range(instances):
        log, universe = random_instance(rng)
        truth = saturate(universe, log)
        for t in universe:
            for lv in (LOW, HIGH):
                assert level(lv, t, log) == ((lv, t) in truth)
                judgements += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    assert instances >= 500
    print(
        f"CRITERION 5 PASS: {instances} instances, {judgements} judgements "
        f"agree with the fixed-point oracle in {elapsed:.1f} s"
    )


def test_criterion_06_theorem_suites_hold_with_nonvacuous_witnesses():
    rng = random.Random(1234)

    # a. Low implies High
    cases = lows = 0
    for _ in range(60):
        log, universe = random_instance(rng)
        for t in universe:
            cases += 1
            if level(LOW, t, log):
                lows += 1
                assert level(HIGH, t, log)
    assert cases >= 1000 and lows >= 300
    report = [f"low->high {cases}/{lows}"]

    # b. monotonicity: derivability survives log extension
    cases = kept = gained = 0
    for _ in range(30):
        log, universe = random_instance(rng)
        bigger = random_extension(rng, log)
        assert log.leq(bigger)
        for t in universe:
            for lv in (LOW, HIGH):
                cases += 1
                before, after = level(lv, t, log), level(lv, t, bigger)
                if before:
                    kept += 1
                    assert after
                elif after:
                    gained += 1
    assert cases >= 1000 and kept >= 300 and gained >= 30
    report.append(f"monotone {cases}/{kept} (+{gained} new)")

    # c. pair level inversion, both directions
    cases = holds = fails = 0
    for _ in range(60):
        log, universe = random_instance(rng)
        for t in universe:
            if not isinstance(t, Pair):
                continue
            for lv in (LOW, HIGH):
                cases += 1
                both = level(lv, t.fst, log) and level(lv, t.snd, log)
                assert level(lv, t, log) == both
                holds += both
                fails += not both
    assert cases >= 1000 and holds >= 200 and fails >= 200
    report.append(f"pair-inversion {cases}/{holds}")

    # d. mac inversion: a derivable MAC came from a sayable payload at the
    # same level or from public key material
    cases = derivable = 0
    for _ in range(60):
        log, universe = random_instance(rng)
        for t in universe:
            if not isinstance(t, Hmac):
                continue
            for lv in (LOW, HIGH):
                cases += 1
                if level(lv, t, log):
                    derivable += 1
                    assert (
                        can_hmac(t.key, t.msg, log) and level(lv, t.msg, log)
                    ) or (
                        level(LOW, t.key, log) and level(LOW, t.msg, log)
                    )
    assert cases >= 1000 and derivable >= 200
    report.append(f"mac-inversion {cases}/{derivable}")

    # e. weak key secrecy on good logs: a Low key implies its owner fell
    cases = low_keys = 0
    for _ in range(200):
        log, universe = random_instance(rng)
        assert log.good
        for t, u in log.news:
            if isinstance(u, HmacKey):
                cases += 1
                if level(LOW, t, log):
                    low_keys += 1
                    assert Bad(u.usage.a) in log or Bad(u.usage.b) in log
            elif isinstance(u, SEncKey):
                cases += 1
                if level(LOW, t, log):
                    low_keys += 1
                    assert Bad(u.usage.principal) in log
    assert cases >= 1000 and low_keys >= 100
    report.append(f"weak-secrecy {cases}/{low_keys}")

    # f. authentication: an attacker-knowable MAC over a protocol shape
    # means the matching event was logged or a principal fell
    cases = witnessed = 0
    for _ in range(200):
        log, universe = random_instance(rng)
        events = list(log)
        keyusage = {
            e.term: e.usage.usage for e in events
            if isinstance(e, New) and isinstance(e.usage, HmacKey)
        }
        for t in universe:
            if not isinstance(t, Hmac) or t.key not in keyusage:
                continue
            cases += 1
            if not level(LOW, t, log):
                continue
            witnessed += 1
            a, b = keyusage[t.key].a, keyusage[t.key].b
            compromised = Bad(a) in log or Bad(b) in log
            m = t.msg
            if isinstance(m, Pair) and m.fst == _TAG1:
                assert Request(a, b, m.snd) in log or compromised
            elif isinstance(m, Pair) and m.fst == _TAG2:
                strict = isinstance(m.snd, Pair) and Response(
                    a, b, m.snd.fst, m.snd.snd
                ) in log
                bare = not log.convention.response_binds_request and any(
                    isinstance(e, Response) and e.a == a and e.b == b
                    and e.resp == m.snd
                    for e in events
                )
                assert strict or bare or compromised
            else:
                # unshaped payloads can only ride on public key material
                assert level(LOW, t.key, log)
    assert cases >= 1000 and witnessed >= 300
    report.append(f"authentication {cases}/{witnessed}")

    print("CRITERION 6 PASS: " + "; ".join(report))


def test_criterion_07_full_state_audit_is_always_on():
    # the audit has no off switch anywhere on the way in
    from dymon import CryptoState, initial_state

    for entry in (CryptoState, initial_state, run_attack, fuzz_attacks):
        assert "audit" not in inspect.signature(entry).parameters
    honest = run_attack(RPC_HONEST, "rpc-correct", seed=3)
    replay = run_attack(RPC_SPLICE, "rpc-flawed", seed=3)
    sample = fuzz_attacks("otway-rees", count=150, max_len=14, seed=9)
    calls = honest.state.wrapper_calls + replay.state.wrapper_calls
    assert calls > 0 and sum(sample.histogram.values()) == 150

    # the audit is a real check: a corrupted table trips it immediately
    cs = initial_state()
    cs.table[b"evil"] = Literal(b"good")
    with pytest.raises(TableAuditError):
        cs.w_to_string(b"poke")
    print(
        f"CRITERION 7 PASS: full audit on for {calls} wrapper calls plus "
        "a 150-run fuzz sample; corruption detected"
    )


def test_criterion_08_concrete_crypto_vectors_and_round_trips():
    # published HMAC-SHA1 vectors (detail coverage lives in test_backend)
    assert hmac_sha1(b"\x0b" * 20, b"Hi There").hex() == \
        "b617318655057264e28bc0b6fb378c8ef146be00"
    assert hmac_sha1(b"Jefe", b"what do ya want for nothing?").hex() == \
        "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"

    rng = random.Random(77)
    trips = rejects = 0
    for _ in range(1000):
        key = rng.randbytes(rng.randint(1, 32))
        body = rng.randbytes(rng.randint(0, 64))
        blob = senc(key, body)
        assert sdec(key, blob) == body
        trips += 1
        tampered = bytearray(blob)
        tampered[rng.randrange(len(blob))] ^= 1 + rng.randrange(255)
        try:
            sdec(key, bytes(tampered))
        except AuthFailureError:
            rejects += 1
    assert trips == 1000 and rejects == 1000
    print(f"CRITERION 8 PASS: RFC vectors plus {trips} round trips, {rejects} tamper rejects")


def test_criterion_09_key_exchange_honest_compromise_and_refusal():
    honest = run_attack(OR_HONEST, "otway-rees", seed=3)
    assert honest.verdict.kind is VerdictKind.OK
    assert honest.assertions_checked == 2

    # compromise: the long-term key comes out Low, and assertions degrade
    # to the Bad disjunct instead of failing
    compromised = run_attack(
        OR_HONEST.replace(
            "att_run_responder(s)",
            "let leak : bytespub\n"
            "leak = att_compromise_principal(s, alice)\n"
            "att_run_responder(s)",
        ),
        "otway-rees",
        seed=3,
    )
    assert compromised.verdict.kind is VerdictKind.OK
    alice = Literal(b"Alice")
    assert Bad(alice) in compromised.state.log
    leaked = [
        t for t, u in compromised.state.log.news
        if isinstance(u, SEncKey) and u.usage.principal == alice
    ]
    assert leaked and all(level(Level.LOW, t, compromised.state.log) for t in leaked)
    # predicate-level degradation
    n, k = Literal(b"n"), Literal(b"k")
    assert Responder(Literal(b"Bob"), n, k, alice) not in compromised.state.log
    from dymon.protocols import corresponds

    assert corresponds(
        compromised.state.log, Responder(Literal(b"Bob"), n, k, alice), alice, Literal(b"Bob"),
    )

    # a first message naming one principal twice is refused outright
    refusal = run_attack(
        """\
let a : string
a = "Alice"
let alice : bytespub
alice = att_toBytespub(a)
let b : string
b = "Bob"
let bob : bytespub
bob = att_toBytespub(b)
let s : session
s = att_or_setup(alice, bob)
let respC : channel
respC = att_getChannel_responder(s)
att_run_responder(s)
let n : string
n = "nonce"
let np : bytespub
np = att_toBytespub(n)
let inner : bytespub
inner = att_pair(alice, np)
let m1 : bytespub
m1 = att_pair(alice, inner)
att_channel_write(respC, m1)
let m2 : bytespub
m2 = att_channel_read(respC)
""",
        "otway-rees",
        seed=0,
    )
    assert refusal.verdict.kind is VerdictKind.DEADLOCK
    print(
        "CRITERION 9 PASS: honest ok; compromise logs Bad, reveals the "
        "long-term key, and degrades assertions; equal principals refused"
    )


def test_criterion_10_engineered_collisions_become_assumption_failures():
    # (a) a random source that repeats: the second key draw collides
    class DupSource:
        def __init__(self):
            self.counter = 0

        def draw(self, nbytes):
            self.counter += 1
            return b"\x42" * nbytes

    double_setup = """\
let a : string
a = "Alice"
let b : string
b = "Bob"
let alice : bytespub
alice = att_toBytespub(a)
let bob : bytespub
bob = att_toBytespub(b)
let s1 : session
s1 = att_setup(alice, bob)
let s2 : session
s2 = att_setup(alice, bob)
att_run_server(s2)
"""
    r = run_attack(double_setup, "rpc-correct", seed=0, rand=DupSource())
    assert r.verdict.kind is VerdictKind.ASSUMPTION_FAILURE
    assert r.verdict.detail == "collision"
    assert r.verdict.exit_code == 11
    assert r.state.failures[0].kind is AssumptionKind.COLLISION
    assert r.roles_spawned == 0  # the poisoned session never starts a role

    # (b) a 1-byte MAC: the server's second MAC lands on the client's
    # bytes, the collision is recorded, and the later (now meaningless)
    # client assertion is suppressed rather than reported
    stub = run_attack(RPC_SPLICE, "rpc-correct", seed=3, mac_fn=lambda k, m: b"\x00")
    assert stub.verdict.kind is VerdictKind.ASSUMPTION_FAILURE
    assert stub.verdict.detail == "collision"
    assert stub.state.failures[0].kind is AssumptionKind.COLLISION
    assert stub.suppressed >= 1
    assert stub.state.soundness_notes  # the unsound verify success is noted
    print(
        "CRITERION 10 PASS: duplicate draws and a truncated MAC both end "
        f"as assumption failures ({stub.suppressed} assertion(s) suppressed)"
    )
