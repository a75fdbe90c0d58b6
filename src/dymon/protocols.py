"""Protocol role machines: authenticated RPC and the key-exchange protocol.

Roles run over the wrapper surface only; they never touch the table or
the concrete crypto directly.  Each role is a generator; reads off its
channel suspend it.  A role that receives something malformed or fails a
MAC/shape check aborts silently (plain return): abort is not a verdict.

Message formats

RPC (correct):    client -> server:  req | mac(k, tag1|req)
                  server -> client:  resp | mac(k, tag2|(req|resp))
RPC (flawed):     as above, but the response MAC covers tag2|resp only,
                  so nothing ties the response to the request.

Key exchange (initiator a, responder b, key server s, pair framing nested
to the right):
                  a -> b: a | b | Na
                  b -> s: a | b | Na | Nb
                  s -> b: senc(Ka, a|b|Kab|Na) , senc(Kb, a|b|Kab|Nb)
                  b -> a: senc(Ka, a|b|Kab|Na)
The encrypted tickets carry the key *before* the nonce; the responder
refuses first messages that name the same principal twice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .backend import DEFAULT_KEY_LEN
from .errors import AuthFailureError, MalformedPairError
from .runtime import Channel, Runtime
from .state import CryptoState
from .terms import (
    Bad,
    HmacKey,
    Initiator,
    Literal,
    Log,
    PresharedKey,
    PrincipalKey,
    Request,
    Responder,
    Response,
    SEncKey,
    SessionKey,
    TAG_REQUEST,
    TAG_RESPONSE,
    Term,
)


# ---------------------------------------------------------------------------
# correspondence predicates (the exact conditions the roles assert)


def request_correspondence(log: Log, a: Term, b: Term, req: Term) -> bool:
    return Request(a, b, req) in log or Bad(a) in log or Bad(b) in log


def response_correspondence(log: Log, a: Term, b: Term, req: Term, resp: Term) -> bool:
    return Response(a, b, req, resp) in log or Bad(a) in log or Bad(b) in log


def initiator_assertion(log: Log, a: Term, na: Term, kab: Term, b: Term) -> bool:
    return Initiator(a, na, kab, b) in log or Bad(a) in log or Bad(b) in log


def responder_assertion(log: Log, b: Term, nb: Term, kab: Term, a: Term) -> bool:
    return Responder(b, nb, kab, a) in log or Bad(a) in log or Bad(b) in log


# ---------------------------------------------------------------------------
# sessions


@dataclass
class RpcSession:
    client_pub: bytes
    server_pub: bytes
    t_client: Term
    t_server: Term
    key: bytes
    client_channel: Channel
    server_channel: Channel


@dataclass
class OrSession:
    a_pub: bytes
    b_pub: bytes
    t_a: Term
    t_b: Term
    key_a: bytes           # a's long-term key with the server
    key_b: bytes
    init_channel: Channel
    resp_channel: Channel
    serv_channel: Channel


def _principal_term(cs: CryptoState, pub: bytes) -> Term | None:
    """Principals must be registered public literals."""
    t = cs.public_term(pub)
    return t if isinstance(t, Literal) else None


def setup_rpc(rt: Runtime, client_pub: bytes, server_pub: bytes) -> RpcSession | None:
    cs = rt.cs
    t_c = _principal_term(cs, client_pub)
    t_s = _principal_term(cs, server_pub)
    if t_c is None or t_s is None:
        return None
    key = cs.w_fresh(HmacKey(PresharedKey(t_c, t_s)), DEFAULT_KEY_LEN, rt.rand)
    if key is None:
        return None
    n = rt.next_session()
    return RpcSession(
        client_pub, server_pub, t_c, t_s, key,
        Channel(f"client{n}"), Channel(f"server{n}"),
    )


def setup_or(rt: Runtime, a_pub: bytes, b_pub: bytes) -> OrSession | None:
    cs = rt.cs
    t_a = _principal_term(cs, a_pub)
    t_b = _principal_term(cs, b_pub)
    if t_a is None or t_b is None:
        return None
    key_a = cs.w_fresh(SEncKey(PrincipalKey(t_a)), DEFAULT_KEY_LEN, rt.rand)
    if key_a is None:
        return None
    key_b = cs.w_fresh(SEncKey(PrincipalKey(t_b)), DEFAULT_KEY_LEN, rt.rand)
    if key_b is None:
        return None
    n = rt.next_session()
    return OrSession(
        a_pub, b_pub, t_a, t_b, key_a, key_b,
        Channel(f"initiator{n}"), Channel(f"responder{n}"), Channel(f"keyserver{n}"),
    )


# ---------------------------------------------------------------------------
# RPC roles


def _response_payload(cs: CryptoState, req: bytes, resp: bytes) -> bytes:
    # the shape `can_hmac` accepts under the log's convention, which alone
    # tells the two RPC variants apart
    if cs.log.convention.response_binds_request:
        return cs.w_pair(req, resp)
    return resp


def rpc_client(rt: Runtime, ses: RpcSession, request: bytes):
    cs = rt.cs
    t_req = cs._require_registered(request, "rpc_client")
    cs.log_event(Request(ses.t_client, ses.t_server, t_req))
    mac1 = cs.w_hmacsha1(ses.key, cs.w_pair(TAG_REQUEST, request))
    rt.role_write(ses.client_channel, cs.w_pair(request, mac1))

    msg2 = yield from rt.channel_read(ses.client_channel)
    try:
        resp, mac2 = cs.w_destruct(msg2)
    except MalformedPairError:
        return
    to_mac2 = cs.w_pair(TAG_RESPONSE, _response_payload(cs, request, resp))
    if not cs.w_hmacsha1_verify(ses.key, to_mac2, mac2):
        return
    t_resp = cs.term_of(resp)
    rt.assert_event(
        response_correspondence(cs.log, ses.t_client, ses.t_server, t_req, t_resp),
        "rpc_client",
        "Response(client,server,req,resp) logged or a principal is Bad",
    )


def rpc_server(rt: Runtime, ses: RpcSession):
    cs = rt.cs
    msg1 = yield from rt.channel_read(ses.server_channel)
    try:
        req, mac1 = cs.w_destruct(msg1)
    except MalformedPairError:
        return
    if not cs.w_hmacsha1_verify(ses.key, cs.w_pair(TAG_REQUEST, req), mac1):
        return
    t_req = cs.term_of(req)
    rt.assert_event(
        request_correspondence(cs.log, ses.t_client, ses.t_server, t_req),
        "rpc_server",
        "Request(client,server,req) logged or a principal is Bad",
    )
    resp = cs.w_to_string(b"Response")
    if resp is None:
        return
    t_resp = cs.term_of(resp)
    cs.log_event(Response(ses.t_client, ses.t_server, t_req, t_resp))
    to_mac2 = cs.w_pair(TAG_RESPONSE, _response_payload(cs, req, resp))
    mac2 = cs.w_hmacsha1(ses.key, to_mac2)
    rt.role_write(ses.server_channel, cs.w_pair(resp, mac2))


def compromise_rpc(rt: Runtime, ses: RpcSession, side: str) -> bytes:
    principal = ses.t_client if side == "client" else ses.t_server
    rt.cs.log_event(Bad(principal))
    return ses.key


# ---------------------------------------------------------------------------
# key-exchange roles


def or_initiator(rt: Runtime, ses: OrSession):
    cs = rt.cs
    na = cs.w_to_string(rt.rand.draw(DEFAULT_KEY_LEN))
    if na is None:
        return
    t_na = cs.term_of(na)
    msg1 = cs.w_pair(ses.a_pub, cs.w_pair(ses.b_pub, na))
    rt.role_write(ses.init_channel, msg1)

    ticket = yield from rt.channel_read(ses.init_channel)
    try:
        plain = cs.w_sdec(ses.key_a, ticket)
        x_a, rest = cs.w_destruct(plain)
        x_b, rest2 = cs.w_destruct(rest)
        kab, x_na = cs.w_destruct(rest2)
    except (AuthFailureError, MalformedPairError):
        return
    if not (x_a == ses.a_pub and x_b == ses.b_pub and x_na == na):
        return
    t_kab = cs.term_of(kab)
    rt.assert_event(
        initiator_assertion(cs.log, ses.t_a, t_na, t_kab, ses.t_b),
        "or_initiator",
        "Initiator(a,Na,Kab,b) logged or a principal is Bad",
    )


def or_responder(rt: Runtime, ses: OrSession):
    cs = rt.cs
    msg1 = yield from rt.channel_read(ses.resp_channel)
    try:
        x_a, rest = cs.w_destruct(msg1)
        x_b, na = cs.w_destruct(rest)
    except MalformedPairError:
        return
    # refuse sessions that name one principal on both sides
    if x_a == x_b:
        return
    if not (x_a == ses.a_pub and x_b == ses.b_pub):
        return
    nb = cs.w_to_string(rt.rand.draw(DEFAULT_KEY_LEN))
    if nb is None:
        return
    t_nb = cs.term_of(nb)
    msg2 = cs.w_pair(x_a, cs.w_pair(x_b, cs.w_pair(na, nb)))
    rt.role_write(ses.resp_channel, msg2)

    msg3 = yield from rt.channel_read(ses.resp_channel)
    try:
        ticket_a, ticket_b = cs.w_destruct(msg3)
        plain = cs.w_sdec(ses.key_b, ticket_b)
        y_a, rest = cs.w_destruct(plain)
        y_b, rest2 = cs.w_destruct(rest)
        kab, y_nb = cs.w_destruct(rest2)
    except (AuthFailureError, MalformedPairError):
        return
    if not (y_a == x_a and y_b == x_b and y_nb == nb):
        return
    t_kab = cs.term_of(kab)
    rt.assert_event(
        responder_assertion(cs.log, ses.t_b, t_nb, t_kab, ses.t_a),
        "or_responder",
        "Responder(b,Nb,Kab,a) logged or a principal is Bad",
    )
    rt.role_write(ses.resp_channel, ticket_a)


def or_server(rt: Runtime, ses: OrSession):
    cs = rt.cs
    msg2 = yield from rt.channel_read(ses.serv_channel)
    try:
        z_a, rest = cs.w_destruct(msg2)
        z_b, rest2 = cs.w_destruct(rest)
        z_na, z_nb = cs.w_destruct(rest2)
    except MalformedPairError:
        return
    if z_a == z_b:
        return
    if not (z_a == ses.a_pub and z_b == ses.b_pub):
        return
    kab = cs.w_fresh(HmacKey(SessionKey(ses.t_a, ses.t_b)), DEFAULT_KEY_LEN, rt.rand)
    if kab is None:
        return
    t_kab = cs.term_of(kab)
    t_na, t_nb = cs.term_of(z_na), cs.term_of(z_nb)
    cs.log_event(Initiator(ses.t_a, t_na, t_kab, ses.t_b))
    cs.log_event(Responder(ses.t_b, t_nb, t_kab, ses.t_a))
    plain_a = cs.w_pair(z_a, cs.w_pair(z_b, cs.w_pair(kab, z_na)))
    plain_b = cs.w_pair(z_a, cs.w_pair(z_b, cs.w_pair(kab, z_nb)))
    ticket_a = cs.w_senc(ses.key_a, plain_a)
    ticket_b = cs.w_senc(ses.key_b, plain_b)
    rt.role_write(ses.serv_channel, cs.w_pair(ticket_a, ticket_b))


def compromise_or(rt: Runtime, ses: OrSession, principal_pub: bytes) -> bytes | None:
    if principal_pub == ses.a_pub:
        rt.cs.log_event(Bad(ses.t_a))
        return ses.key_a
    if principal_pub == ses.b_pub:
        rt.cs.log_event(Bad(ses.t_b))
        return ses.key_b
    return None
