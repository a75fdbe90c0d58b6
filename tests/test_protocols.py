"""Protocol role behavior, observed through whole attack runs."""

from dymon import (
    Bad,
    Level,
    Literal,
    OR_HONEST,
    RPC_HONEST,
    RPC_SPLICE,
    Request,
    Response,
    VerdictKind,
    level,
    run_attack,
)
from dymon.protocols import (
    initiator_assertion,
    request_correspondence,
    responder_assertion,
    response_correspondence,
)
from dymon.terms import Initiator, Log, New, Responder, AttackerGuess

A, B = Literal(b"A"), Literal(b"B")
REQ, RESP = Literal(b"q"), Literal(b"r")


# -- correspondence predicates -------------------------------------------------


def test_request_correspondence_event_or_compromise():
    log = Log.empty()
    assert not request_correspondence(log, A, B, REQ)
    assert request_correspondence(log.add(Request(A, B, REQ)), A, B, REQ)
    assert request_correspondence(log.add(Bad(A)), A, B, REQ)
    assert request_correspondence(log.add(Bad(B)), A, B, REQ)


def test_response_correspondence_event_or_compromise():
    log = Log.empty()
    assert not response_correspondence(log, A, B, REQ, RESP)
    assert response_correspondence(log.add(Response(A, B, REQ, RESP)), A, B, REQ, RESP)
    assert response_correspondence(log.add(Bad(B)), A, B, REQ, RESP)


def test_key_exchange_assertions_event_or_compromise():
    log = Log.empty()
    n, k = Literal(b"n"), Literal(b"k")
    assert not initiator_assertion(log, A, n, k, B)
    assert initiator_assertion(log.add(Initiator(A, n, k, B)), A, n, k, B)
    assert initiator_assertion(log.add(Bad(B)), A, n, k, B)
    assert not responder_assertion(log, B, n, k, A)
    assert responder_assertion(log.add(Responder(B, n, k, A)), B, n, k, A)
    assert responder_assertion(log.add(Bad(A)), B, n, k, A)


# -- RPC end to end -------------------------------------------------------------


def test_honest_rpc_run_is_ok_and_logs_both_events():
    r = run_attack(RPC_HONEST, "rpc-correct", seed=3)
    assert r.verdict.kind is VerdictKind.OK
    assert r.assertions_checked == 2
    events = [type(e).__name__ for e in r.state.log]
    assert "Request" in events and "Response" in events
    assert r.state.log.good
    assert r.state.failures == []


def test_honest_rpc_flawed_variant_is_still_ok():
    r = run_attack(RPC_HONEST, "rpc-flawed", seed=3)
    assert r.verdict.kind is VerdictKind.OK
    assert not r.state.log.convention.response_binds_request


def test_splice_breaks_flawed_rpc_at_the_client():
    r = run_attack(RPC_SPLICE, "rpc-flawed", seed=3)
    assert r.verdict.kind is VerdictKind.ASSERTION_FAILURE
    assert r.verdict.location == "rpc_client"
    assert r.verdict.exit_code == 10


def test_splice_is_harmless_against_correct_rpc():
    r = run_attack(RPC_SPLICE, "rpc-correct", seed=3)
    assert r.verdict.kind is not VerdictKind.ASSERTION_FAILURE
    assert r.verdict.kind is VerdictKind.OK


def test_rpc_setup_rejects_unknown_principals():
    # a session variable fed from a failed setup poisons later commands
    # instead of crashing the run
    script = """\
let x : string
x = ""
let p : bytespub
p = att_toBytespub(x)
let q : string
q = "Bob"
let qq : bytespub
qq = att_toBytespub(q)
let s : session
s = att_setup(p, qq)
att_run_server(s)
"""
    r = run_attack(script, "rpc-correct", seed=0)
    assert r.verdict.kind is VerdictKind.OK
    assert r.roles_spawned == 0


def test_sessions_set_up_back_to_back_get_their_own_channels():
    script = """\
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
let c2 : channel
c2 = att_getChannel_client(s2)
let x : bytespub
x = att_channel_read(c2)
"""
    r = run_attack(script, "rpc-correct", seed=0)
    assert r.verdict.kind is VerdictKind.DEADLOCK
    assert r.verdict.location == "att_channel_read[client2]"


def test_rpc_compromise_turns_failures_into_allowed_behavior():
    # compromise the server, then splice: the client assertion holds via the
    # Bad disjunct, so the run is clean
    script = RPC_SPLICE.replace(
        "att_run_client(s, arg2)",
        "let leak : bytespub\n"
        "leak = att_compromise_server(s)\n"
        "att_run_client(s, arg2)",
    )
    r = run_attack(script, "rpc-flawed", seed=3)
    assert r.verdict.kind is VerdictKind.OK
    assert any(isinstance(e, Bad) for e in r.state.log)


def test_rpc_compromised_key_is_public():
    script = """\
let a : string
a = "Alice"
let b : string
b = "Bob"
let alice : bytespub
alice = att_toBytespub(a)
let bob : bytespub
bob = att_toBytespub(b)
let s : session
s = att_setup(alice, bob)
let k : bytespub
k = att_compromise_client(s)
"""
    r = run_attack(script, "rpc-correct", seed=0)
    assert r.verdict.kind is VerdictKind.OK
    key_terms = [
        t for t, u in r.state.log.news
        if type(u).__name__ == "HmacKey"
    ]
    assert key_terms and all(level(Level.LOW, t, r.state.log) for t in key_terms)


# -- key exchange end to end -----------------------------------------------------


def test_honest_key_exchange_is_ok():
    r = run_attack(OR_HONEST, "otway-rees", seed=3)
    assert r.verdict.kind is VerdictKind.OK
    assert r.assertions_checked == 2
    events = [type(e).__name__ for e in r.state.log]
    assert "Initiator" in events and "Responder" in events


def test_session_key_stays_secret_in_honest_run():
    from dymon.terms import HmacKey, SessionKey

    r = run_attack(OR_HONEST, "otway-rees", seed=3)
    session_keys = [
        t for t, u in r.state.log.news
        if isinstance(u, HmacKey) and isinstance(u.usage, SessionKey)
    ]
    assert len(session_keys) == 1
    assert level(Level.HIGH, session_keys[0], r.state.log)
    assert not level(Level.LOW, session_keys[0], r.state.log)


def test_responder_refuses_equal_principals():
    script = """\
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
"""
    r = run_attack(script, "otway-rees", seed=0)
    # the responder aborts without answering, so the final read deadlocks
    assert r.verdict.kind is VerdictKind.DEADLOCK


def test_or_compromise_returns_long_term_key_and_logs_bad():
    script = OR_HONEST.replace(
        "att_run_responder(s)",
        "let leak : bytespub\n"
        "leak = att_compromise_principal(s, alice)\n"
        "att_run_responder(s)",
    )
    r = run_attack(script, "otway-rees", seed=3)
    assert r.verdict.kind is VerdictKind.OK
    assert Bad(Literal(b"Alice")) in r.state.log


def test_or_compromise_of_stranger_fails_quietly():
    script = OR_HONEST.replace(
        "att_run_responder(s)",
        "let c : string\n"
        'c = "Carol"\n'
        "let carol : bytespub\n"
        "carol = att_toBytespub(c)\n"
        "let leak : bytespub\n"
        "leak = att_compromise_principal(s, carol)\n"
        "att_run_responder(s)",
    )
    r = run_attack(script, "otway-rees", seed=3)
    assert r.verdict.kind is VerdictKind.OK
    assert not any(isinstance(e, Bad) for e in r.state.log)
