"""Symbolic term algebra, usages, protocol events, and the append-only log.

Terms are immutable trees over byte literals.  Every byte array the runtime
ever hands out is backed by one of these terms through the representation
table (see state.py); the log records which literals were created fresh,
with what usage, and which protocol events the honest roles claim happened.

A Log value is immutable.  ``add`` returns a new Log sharing nothing
observable with its input except the events themselves; each new Log gets a
globally fresh, strictly larger version number, which the level engine uses
as a memoization key.  Equality between logs compares event *sets*;
insertion order is preserved only for rendering and reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import TermSyntaxError

# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Literal(Term):
    data: bytes


@dataclass(frozen=True)
class Pair(Term):
    fst: Term
    snd: Term


@dataclass(frozen=True)
class Hmac(Term):
    key: Term
    msg: Term


@dataclass(frozen=True)
class SEnc(Term):
    key: Term
    body: Term


# ---------------------------------------------------------------------------
# usages
#
# A usage says what a freshly created literal is *for*.  AttackerGuess marks
# public data (anything the attacker could have typed in); the key usages
# carry the principals the key is shared between, which is what the
# compromise conditions and payload predicates quantify over.


class Usage:
    __slots__ = ()


@dataclass(frozen=True)
class AttackerGuess(Usage):
    pass


class HmacKeyUsage:
    __slots__ = ()


@dataclass(frozen=True)
class PresharedKey(HmacKeyUsage):
    """MAC key installed between two principals before the run (RPC)."""

    a: Term
    b: Term


@dataclass(frozen=True)
class SessionKey(HmacKeyUsage):
    """MAC key established by the key server; a is the initiator side."""

    a: Term
    b: Term


@dataclass(frozen=True)
class HmacKey(Usage):
    usage: HmacKeyUsage


class SEncKeyUsage:
    __slots__ = ()


@dataclass(frozen=True)
class PrincipalKey(SEncKeyUsage):
    """Long-term encryption key shared between a principal and the server."""

    principal: Term


@dataclass(frozen=True)
class SEncKey(Usage):
    usage: SEncKeyUsage


# ---------------------------------------------------------------------------
# events


class Event:
    __slots__ = ()


@dataclass(frozen=True)
class New(Event):
    term: Term
    usage: Usage


@dataclass(frozen=True)
class Request(Event):
    a: Term
    b: Term
    req: Term


@dataclass(frozen=True)
class Response(Event):
    a: Term
    b: Term
    req: Term
    resp: Term


@dataclass(frozen=True)
class Initiator(Event):
    principal: Term
    nonce: Term
    key: Term
    peer: Term


@dataclass(frozen=True)
class Responder(Event):
    principal: Term
    nonce: Term
    key: Term
    peer: Term


@dataclass(frozen=True)
class Bad(Event):
    principal: Term


# ---------------------------------------------------------------------------
# message format tags and payload shapes

TAG_REQUEST = b"1"
TAG_RESPONSE = b"2"

_TAG_REQ_LIT = Literal(TAG_REQUEST)
_TAG_RESP_LIT = Literal(TAG_RESPONSE)


def match_request(m: Term) -> Term | None:
    """If m has the request MAC shape Pair(tag1, req), return req."""
    if isinstance(m, Pair) and m.fst == _TAG_REQ_LIT:
        return m.snd
    return None


def match_response(m: Term) -> tuple[Term, Term] | None:
    """If m has the response MAC shape Pair(tag2, Pair(req, resp))."""
    if isinstance(m, Pair) and m.fst == _TAG_RESP_LIT and isinstance(m.snd, Pair):
        return m.snd.fst, m.snd.snd
    return None


def match_bare_response(m: Term) -> Term | None:
    """Flawed-variant response shape Pair(tag2, resp): no request binding."""
    if isinstance(m, Pair) and m.fst == _TAG_RESP_LIT:
        return m.snd
    return None


def requested(m: Term, req: Term) -> bool:
    return match_request(m) == req


def responded(m: Term, req: Term, resp: Term) -> bool:
    return match_response(m) == (req, resp)


def pair4(a: Term, b: Term, c: Term, d: Term) -> Term:
    return Pair(a, Pair(b, Pair(c, d)))


def match_pair4(m: Term) -> tuple[Term, Term, Term, Term] | None:
    if (
        isinstance(m, Pair)
        and isinstance(m.snd, Pair)
        and isinstance(m.snd.snd, Pair)
    ):
        return m.fst, m.snd.fst, m.snd.snd.fst, m.snd.snd.snd
    return None


# ---------------------------------------------------------------------------
# payload convention
#
# The level engine's "sayable" predicate for MAC payloads is protocol
# configuration: the correct RPC protocol binds the request into the
# response MAC, the known-flawed variant does not.  The flag travels on the
# log so every derivation in one run sees one convention.


@dataclass(frozen=True)
class Convention:
    response_binds_request: bool = True


STANDARD = Convention()


# ---------------------------------------------------------------------------
# log

_VERSIONS = itertools.count(1)


class Log:
    """Append-only event set with insertion order and a version stamp."""

    __slots__ = (
        "version",
        "convention",
        "good",
        "_events",
        "_set",
        "_usages",
        "_responses",
        "_memo_low",
        "_memo_high",
    )

    def __init__(self, events, eset, usages, responses, good, convention):
        self.version = next(_VERSIONS)
        self.convention = convention
        self.good = good
        self._events = events
        self._set = eset
        self._usages = usages
        self._responses = responses
        # level results per term, one dict per level (see levels.level)
        self._memo_low: dict = {}
        self._memo_high: dict = {}

    @classmethod
    def empty(cls, convention: Convention = STANDARD) -> "Log":
        return cls((), frozenset(), {}, (), True, convention)

    def add(self, e: Event) -> "Log":
        if e in self._set:
            return self
        usages = self._usages
        good = self.good
        if isinstance(e, New):
            usages = dict(usages)
            prev = usages.get(e.term, ())
            usages[e.term] = prev + (e.usage,)
            # goodness: only literals get created, one usage per literal
            if not isinstance(e.term, Literal) or prev:
                good = False
        responses = self._responses
        if isinstance(e, Response):
            responses = responses + (e,)
        return Log(
            self._events + (e,),
            self._set | {e},
            usages,
            responses,
            good,
            self.convention,
        )

    def usages_of(self, t: Term) -> tuple[Usage, ...]:
        return self._usages.get(t, ())

    @property
    def events(self) -> tuple[Event, ...]:
        return self._events

    @property
    def news(self):
        return ((e.term, e.usage) for e in self._events if isinstance(e, New))

    @property
    def responses(self) -> tuple[Response, ...]:
        return self._responses

    def leq(self, other: "Log") -> bool:
        return self._set <= other._set

    def __contains__(self, e: Event) -> bool:
        return e in self._set

    def __iter__(self):
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._set)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Log):
            return NotImplemented
        return self._set == other._set

    def __hash__(self):
        return hash(self._set)

    def __repr__(self) -> str:
        return f"<Log v{self.version} {len(self)} events>"


# ---------------------------------------------------------------------------
# canonical rendering
#
# Stable, whitespace-free, and parseable back.  Literals render as hex.


def render_term(t: Term) -> str:
    if isinstance(t, Literal):
        return f"Literal(0x{t.data.hex()})"
    if isinstance(t, Pair):
        return f"Pair({render_term(t.fst)},{render_term(t.snd)})"
    if isinstance(t, Hmac):
        return f"Hmac({render_term(t.key)},{render_term(t.msg)})"
    if isinstance(t, SEnc):
        return f"SEnc({render_term(t.key)},{render_term(t.body)})"
    raise TypeError(f"not a term: {t!r}")


def render_usage(u: Usage) -> str:
    if isinstance(u, AttackerGuess):
        return "AttackerGuess"
    if isinstance(u, HmacKey):
        inner = u.usage
        name = "PresharedKey" if isinstance(inner, PresharedKey) else "SessionKey"
        return f"HmacKey({name}({render_term(inner.a)},{render_term(inner.b)}))"
    if isinstance(u, SEncKey):
        return f"SEncKey(PrincipalKey({render_term(u.usage.principal)}))"
    raise TypeError(f"not a usage: {u!r}")


def render_event(e: Event) -> str:
    if isinstance(e, New):
        return f"New({render_term(e.term)},{render_usage(e.usage)})"
    if isinstance(e, Request):
        return f"Request({render_term(e.a)},{render_term(e.b)},{render_term(e.req)})"
    if isinstance(e, Response):
        return (
            f"Response({render_term(e.a)},{render_term(e.b)},"
            f"{render_term(e.req)},{render_term(e.resp)})"
        )
    if isinstance(e, Initiator):
        return (
            f"Initiator({render_term(e.principal)},{render_term(e.nonce)},"
            f"{render_term(e.key)},{render_term(e.peer)})"
        )
    if isinstance(e, Responder):
        return (
            f"Responder({render_term(e.principal)},{render_term(e.nonce)},"
            f"{render_term(e.key)},{render_term(e.peer)})"
        )
    if isinstance(e, Bad):
        return f"Bad({render_term(e.principal)})"
    raise TypeError(f"not an event: {e!r}")


# ---------------------------------------------------------------------------
# parsing the canonical rendering back


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, why: str):
        raise TermSyntaxError(f"{why} at offset {self.pos} in {self.text!r}")

    def eat(self, ch: str):
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def name(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self.fail("expected a name")
        return self.text[start : self.pos]

    def hex_bytes(self) -> bytes:
        if not self.text.startswith("0x", self.pos):
            self.fail("expected 0x")
        self.pos += 2
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789abcdefABCDEF":
            self.pos += 1
        digits = self.text[start : self.pos]
        if len(digits) % 2:
            self.fail("odd hex digit count")
        return bytes.fromhex(digits)

    def term(self) -> Term:
        head = self.name()
        if head == "Literal":
            self.eat("(")
            data = self.hex_bytes()
            self.eat(")")
            return Literal(data)
        ctors = {"Pair": Pair, "Hmac": Hmac, "SEnc": SEnc}
        if head not in ctors:
            self.fail(f"unknown term constructor {head!r}")
        self.eat("(")
        a = self.term()
        self.eat(",")
        b = self.term()
        self.eat(")")
        return ctors[head](a, b)

    def usage(self) -> Usage:
        head = self.name()
        if head == "AttackerGuess":
            return AttackerGuess()
        if head == "HmacKey":
            self.eat("(")
            inner = self.name()
            if inner not in ("PresharedKey", "SessionKey"):
                self.fail(f"unknown key usage {inner!r}")
            self.eat("(")
            a = self.term()
            self.eat(",")
            b = self.term()
            self.eat(")")
            self.eat(")")
            ctor = PresharedKey if inner == "PresharedKey" else SessionKey
            return HmacKey(ctor(a, b))
        if head == "SEncKey":
            self.eat("(")
            inner = self.name()
            if inner != "PrincipalKey":
                self.fail(f"unknown key usage {inner!r}")
            self.eat("(")
            p = self.term()
            self.eat(")")
            self.eat(")")
            return SEncKey(PrincipalKey(p))
        self.fail(f"unknown usage {head!r}")

    def event(self) -> Event:
        head = self.name()
        self.eat("(")
        if head == "New":
            t = self.term()
            self.eat(",")
            u = self.usage()
            self.eat(")")
            return New(t, u)
        if head == "Bad":
            p = self.term()
            self.eat(")")
            return Bad(p)
        parts = [self.term()]
        while self.pos < len(self.text) and self.text[self.pos] == ",":
            self.pos += 1
            parts.append(self.term())
        self.eat(")")
        shapes = {"Request": (Request, 3), "Response": (Response, 4),
                  "Initiator": (Initiator, 4), "Responder": (Responder, 4)}
        if head not in shapes:
            self.fail(f"unknown event {head!r}")
        ctor, arity = shapes[head]
        if len(parts) != arity:
            self.fail(f"{head} takes {arity} terms")
        return ctor(*parts)

    def finish(self):
        if self.pos != len(self.text):
            self.fail("trailing input")


def parse_term(text: str) -> Term:
    p = _Parser(text.strip())
    t = p.term()
    p.finish()
    return t


def parse_event(text: str) -> Event:
    p = _Parser(text.strip())
    e = p.event()
    p.finish()
    return e
