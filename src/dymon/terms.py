"""Symbolic term algebra, usages, protocol events, and the append-only log.

Terms are immutable trees over byte literals.  Every byte array the runtime
ever hands out is backed by one of these terms through the representation
table (see state.py); the log records which literals were created fresh,
with what usage, and which protocol events the honest roles claim happened.

A node (a term, a usage or an event) is hashed once, when it is built, and
keeps that hash; equality is still the field-by-field dataclass comparison.

A Log value is immutable.  ``add`` returns a new Log sharing nothing
observable with its input except the events themselves; each Log carries
its own level memo (see levels.level), which is sound because the Log never
changes.  Equality between logs compares event *sets*; insertion order is
preserved only for rendering and reports.

Every node renders in one canonical syntax and parses back from it: a node
is its class name followed by its fields in parentheses, a node without
fields is its bare name, and a Literal is ``Literal(0x<hex>)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import get_type_hints

from .errors import TermSyntaxError

# ---------------------------------------------------------------------------
# nodes
#
# Terms, usages and events are keys of the representation table and the
# level memo, so they are hashed far more often than they are built.  The
# generated dataclass hash rebuilds a tuple at every level of the tree, one
# Python frame per node; here each node hashes its class and its fields
# once, in __init__ (a child node answers with its own stored hash), and
# __hash__ returns the stored value.  Equal nodes have the same class and
# equal fields, hence equal hashes.


def _node(cls):
    """``@dataclass(frozen=True)`` whose __init__ also stores the hash."""
    cls = dataclass(frozen=True, init=False)(cls)
    args = "".join(f", {f.name}" for f in fields(cls))
    sets = "".join(f"    _set(self, {f.name!r}, {f.name})\n" for f in fields(cls))
    namespace = {"_set": object.__setattr__, "_cls": cls}
    exec(
        f"def __init__(self{args}):\n{sets}"
        f"    _set(self, '_hash', hash((_cls{args})))\n",
        namespace,
    )
    cls.__init__ = namespace["__init__"]

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through __init__: a stored hash is valid in one process only
        return cls, tuple(getattr(self, f.name) for f in fields(cls))

    cls.__hash__ = __hash__
    cls.__reduce__ = __reduce__
    return cls


# ---------------------------------------------------------------------------
# terms


class Term:
    __slots__ = ()


@_node
class Literal(Term):
    data: bytes


@_node
class Pair(Term):
    fst: Term
    snd: Term


@_node
class Hmac(Term):
    key: Term
    msg: Term


@_node
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


@_node
class AttackerGuess(Usage):
    pass


class HmacKeyUsage:
    __slots__ = ()


@_node
class PresharedKey(HmacKeyUsage):
    """MAC key installed between two principals before the run (RPC)."""

    a: Term
    b: Term


@_node
class SessionKey(HmacKeyUsage):
    """MAC key established by the key server; a is the initiator side."""

    a: Term
    b: Term


@_node
class HmacKey(Usage):
    usage: HmacKeyUsage


class SEncKeyUsage:
    __slots__ = ()


@_node
class PrincipalKey(SEncKeyUsage):
    """Long-term encryption key shared between a principal and the server."""

    principal: Term


@_node
class SEncKey(Usage):
    usage: SEncKeyUsage


# ---------------------------------------------------------------------------
# events


class Event:
    __slots__ = ()


@_node
class New(Event):
    term: Term
    usage: Usage


@_node
class Request(Event):
    a: Term
    b: Term
    req: Term


@_node
class Response(Event):
    a: Term
    b: Term
    req: Term
    resp: Term


@_node
class Initiator(Event):
    principal: Term
    nonce: Term
    key: Term
    peer: Term


@_node
class Responder(Event):
    principal: Term
    nonce: Term
    key: Term
    peer: Term


@_node
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
# log so every derivation and every RPC role's response MAC in one run sees
# one convention.


@dataclass(frozen=True)
class Convention:
    response_binds_request: bool = True


STANDARD = Convention()


# ---------------------------------------------------------------------------
# log


class Log:
    """Append-only event set with insertion order."""

    __slots__ = (
        "convention",
        "good",
        "_events",
        "_usages",
        "_responses",
        "_memo_low",
        "_memo_high",
    )

    def __init__(self, events, usages, responses, good, convention):
        self.convention = convention
        self.good = good
        self._events = events  # event -> None, in insertion order
        self._usages = usages
        self._responses = responses
        # level results per term, one dict per level (see levels.level)
        self._memo_low: dict = {}
        self._memo_high: dict = {}

    @classmethod
    def empty(cls, convention: Convention = STANDARD) -> "Log":
        return cls({}, {}, (), True, convention)

    def add(self, e: Event) -> "Log":
        if e in self._events:
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
        events = self._events.copy()
        events[e] = None
        return Log(events, usages, responses, good, self.convention)

    def usages_of(self, t: Term) -> tuple[Usage, ...]:
        return self._usages.get(t, ())

    @property
    def news(self):
        return ((e.term, e.usage) for e in self._events if isinstance(e, New))

    @property
    def responses(self) -> tuple[Response, ...]:
        return self._responses

    def leq(self, other: "Log") -> bool:
        return self._events.keys() <= other._events.keys()

    def __contains__(self, e: Event) -> bool:
        return e in self._events

    def __iter__(self):
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Log):
            return NotImplemented
        return self._events.keys() == other._events.keys()

    def __hash__(self):
        return hash(frozenset(self._events))

    def __repr__(self) -> str:
        return f"<Log {len(self)} events>"


# ---------------------------------------------------------------------------
# canonical syntax
#
# Stable, whitespace-free, and parseable back.  Each node class is listed
# once; the kind of each field (Term, Usage, HmacKeyUsage, SEncKeyUsage)
# comes from its annotation, so the renderer and the parser below need no
# per-constructor code except for the hex payload of a Literal.

_NODE_CLASSES = (
    Literal, Pair, Hmac, SEnc,
    AttackerGuess, HmacKey, SEncKey, PresharedKey, SessionKey, PrincipalKey,
    New, Request, Response, Initiator, Responder, Bad,
)
_FIELDS = {
    cls: tuple((f.name, get_type_hints(cls)[f.name]) for f in fields(cls))
    for cls in _NODE_CLASSES
}
_BY_NAME = {cls.__name__: cls for cls in _NODE_CLASSES}
_NAME = re.compile(r"(\w+)")
_HEX = re.compile(r"0x((?:[0-9a-fA-F]{2})*)(?![0-9a-fA-F])")


def _render(node, kind: type) -> str:
    cls = type(node)
    if cls not in _FIELDS or not issubclass(cls, kind):
        raise TypeError(f"not a {kind.__name__}: {node!r}")
    if cls is Literal:
        return f"Literal(0x{node.data.hex()})"
    if not _FIELDS[cls]:
        return cls.__name__
    args = ",".join(_render(getattr(node, name), k) for name, k in _FIELDS[cls])
    return f"{cls.__name__}({args})"


def render_term(t: Term) -> str:
    return _render(t, Term)


def render_usage(u: Usage) -> str:
    return _render(u, Usage)


def render_event(e: Event) -> str:
    return _render(e, Event)


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

    def match(self, pattern: re.Pattern, what: str) -> str:
        m = pattern.match(self.text, self.pos)
        if m is None:
            self.fail(f"expected {what}")
        self.pos = m.end()
        return m.group(1)

    def node(self, kind: type):
        head = self.match(_NAME, "a name")
        cls = _BY_NAME.get(head)
        if cls is None or not issubclass(cls, kind):
            self.fail(f"expected a {kind.__name__}, not {head!r}")
        if cls is Literal:
            self.eat("(")
            data = bytes.fromhex(self.match(_HEX, "0x and an even number of hex digits"))
            self.eat(")")
            return Literal(data)
        if not _FIELDS[cls]:
            return cls()
        args = []
        for _, k in _FIELDS[cls]:
            self.eat("," if args else "(")
            args.append(self.node(k))
        self.eat(")")
        return cls(*args)

    def finish(self):
        if self.pos != len(self.text):
            self.fail("trailing input")


def _parse(text: str, kind: type):
    p = _Parser(text.strip())
    node = p.node(kind)
    p.finish()
    return node


def parse_term(text: str) -> Term:
    return _parse(text, Term)


def parse_event(text: str) -> Event:
    return _parse(text, Event)
