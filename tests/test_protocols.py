"""Protocol role behavior, observed through whole attack runs."""

import random
from collections import Counter
from itertools import product

import pytest

from dymon import (
    Bad,
    Level,
    Literal,
    OR_HONEST,
    RPC_HONEST,
    RPC_SPLICE,
    Request,
    Response,
    SessionKey,
    Verdict,
    VerdictKind,
    level,
    render_term,
    run_attack,
)
from dymon.protocols import corresponds
from dymon.terms import Initiator, Log, New, Responder, AttackerGuess
from oracles import random_instance

A, B, C = Literal(b"A"), Literal(b"B"), Literal(b"C")
REQ, RESP = Literal(b"q"), Literal(b"r")


# -- correspondence predicate ---------------------------------------------------


def test_request_correspondence_event_or_compromise():
    log = Log.empty()
    claim = Request(A, B, REQ)
    assert not corresponds(log, claim, A, B)
    assert corresponds(log.add(claim), claim, A, B)
    assert corresponds(log.add(Bad(A)), claim, A, B)
    assert corresponds(log.add(Bad(B)), claim, A, B)
    assert not corresponds(log.add(Bad(C)), claim, A, B)


def test_response_correspondence_event_or_compromise():
    log = Log.empty()
    claim = Response(A, B, REQ, RESP)
    assert not corresponds(log, claim, A, B)
    assert corresponds(log.add(claim), claim, A, B)
    assert corresponds(log.add(Bad(B)), claim, A, B)
    assert not corresponds(log.add(Bad(C)), claim, A, B)


def test_key_exchange_assertions_event_or_compromise():
    log = Log.empty()
    n, k = Literal(b"n"), Literal(b"k")
    claim = Initiator(A, n, k, B)
    assert not corresponds(log, claim, A, B)
    assert corresponds(log.add(claim), claim, A, B)
    assert corresponds(log.add(Bad(B)), claim, A, B)
    assert not corresponds(log.add(Bad(C)), claim, A, B)
    claim = Responder(B, n, k, A)
    assert not corresponds(log, claim, A, B)
    assert corresponds(log.add(claim), claim, A, B)
    assert corresponds(log.add(Bad(A)), claim, A, B)
    assert not corresponds(log.add(Bad(C)), claim, A, B)


# the parent's four predicates, one per role, kept as the reference that
# the one predicate must agree with when each role passes its claim


def _request_correspondence(log, a, b, req):
    return Request(a, b, req) in log or Bad(a) in log or Bad(b) in log


def _response_correspondence(log, a, b, req, resp):
    return Response(a, b, req, resp) in log or Bad(a) in log or Bad(b) in log


def _initiator_assertion(log, a, na, kab, b):
    return Initiator(a, na, kab, b) in log or Bad(a) in log or Bad(b) in log


def _responder_assertion(log, b, nb, kab, a):
    return Responder(b, nb, kab, a) in log or Bad(a) in log or Bad(b) in log


def test_corresponds_agrees_with_the_four_role_predicates():
    # the data of every event an instance logs, and of the same shapes over
    # its payloads, with every ordered pair of its principals in the roles
    rng = random.Random(28)
    answers = Counter()
    for _ in range(300):
        log, universe = random_instance(rng)
        keys = {e.term: e.usage.usage for e in log
                if isinstance(e, New) and not isinstance(e.usage, AttackerGuess)}
        # every field of a key usage node is a principal
        principals = sorted({p for u in keys.values() for p in u[1:]}, key=render_term)
        payloads = sorted(
            {t for t in universe if isinstance(t, Literal)} - set(principals) - set(keys),
            key=render_term,
        )
        requests = {(x,) for x in payloads}
        responses = set(product(payloads, repeat=2))
        session_keys = [k for k, u in keys.items() if isinstance(u, SessionKey)]
        sessions = set(product(payloads, sorted(session_keys, key=render_term)))
        for e in log:
            if isinstance(e, Request):
                requests.add((e.req,))
            elif isinstance(e, Response):
                responses.add((e.req, e.resp))
            elif isinstance(e, (Initiator, Responder)):
                sessions.add((e.nonce, e.key))
        for a, b in product(principals, repeat=2):
            pairs = [
                (corresponds(log, Request(a, b, req), a, b),
                 _request_correspondence(log, a, b, req))
                for req, in requests
            ] + [
                (corresponds(log, Response(a, b, req, resp), a, b),
                 _response_correspondence(log, a, b, req, resp))
                for req, resp in responses
            ] + [
                (corresponds(log, Initiator(a, n, k, b), a, b),
                 _initiator_assertion(log, a, n, k, b))
                for n, k in sessions
            ] + [
                (corresponds(log, Responder(b, n, k, a), a, b),
                 _responder_assertion(log, b, n, k, a))
                for n, k in sessions
            ]
            for new, old in pairs:
                assert new == old
                answers[new] += 1
    # both answers occur, so the comparison is not vacuous
    assert answers[True] and answers[False]


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


# -- rejected input ends the role --------------------------------------------------

_RPC_SESSION = """\
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
let clientC : channel
clientC = att_getChannel_client(s)
let serverC : channel
serverC = att_getChannel_server(s)
"""

_OR_SESSION = """\
let a : string
a = "Alice"
let b : string
b = "Bob"
let n : string
n = "nonce"
let alice : bytespub
alice = att_toBytespub(a)
let bob : bytespub
bob = att_toBytespub(b)
let np : bytespub
np = att_toBytespub(n)
let s : session
s = att_or_setup(alice, bob)
let initC : channel
initC = att_getChannel_initiator(s)
let respC : channel
respC = att_getChannel_responder(s)
let servC : channel
servC = att_getChannel_server(s)
let inner : bytespub
inner = att_pair(bob, np)
let m1 : bytespub
m1 = att_pair(alice, inner)
"""

# One program per place a role splits or decrypts what it read.  "Bob" is
# three bytes, too short for the four-byte length prefix of pair framing.
REJECTIONS = {
    "rpc-server-unframed-request": ("rpc-correct", _RPC_SESSION + """\
att_run_server(s)
att_channel_write(serverC, bob)
"""),
    "rpc-client-unframed-response": ("rpc-correct", _RPC_SESSION + """\
let r : string
r = "Request"
let arg : bytespub
arg = att_toBytespub(r)
att_run_client(s, arg)
let req : bytespub
req = att_channel_read(clientC)
att_channel_write(clientC, bob)
"""),
    # the initiator's own first message is no ticket under its key
    "initiator-echoed-message": ("otway-rees", _OR_SESSION + """\
att_run_initiator(s)
let echo : bytespub
echo = att_channel_read(initC)
att_channel_write(initC, echo)
"""),
    "responder-unframed-first-message": ("otway-rees", _OR_SESSION + """\
att_run_responder(s)
att_channel_write(respC, bob)
"""),
    # a well-formed first message, then a pair whose second half is the
    # responder's own message, not a ticket under Kb
    "responder-second-half-not-a-ticket": ("otway-rees", _OR_SESSION + """\
att_run_responder(s)
att_channel_write(respC, m1)
let m2 : bytespub
m2 = att_channel_read(respC)
let m3 : bytespub
m3 = att_pair(np, m2)
att_channel_write(respC, m3)
"""),
    # a | b | Na: the nonce is no pair of two nonces
    "key-server-three-parts": ("otway-rees", _OR_SESSION + """\
att_run_server(s)
att_channel_write(servC, m1)
"""),
}


@pytest.mark.parametrize("name", sorted(REJECTIONS))
def test_role_that_rejects_its_input_ends_without_a_verdict(name):
    protocol, script = REJECTIONS[name]
    r = run_attack(script, protocol, seed=0)
    # a role still waiting would make the run a deadlock naming it
    assert r.verdict == Verdict(VerdictKind.OK)
    assert r.roles_spawned == 1
    assert r.assertions_checked == 0
    assert r.state.failures == []
