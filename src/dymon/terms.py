"""Symbolic term algebra, usages, protocol events, and the append-only log.

Terms are immutable trees over byte literals.  Every byte array the runtime
ever hands out is backed by one of these terms through the representation
table (see state.py); the log records which literals were created fresh,
with what usage, and which protocol events the honest roles claim happened.

A node (a term, a usage or an event) is a tuple: its class, then its fields.
Hashing and comparing nodes is tuple hashing and comparison: it runs in C,
with no Python recursion, and costs time proportional to the term's size,
since no hash is stored.  The protocols and generated programs make terms a
few levels deep.  A straight-line chain of attacker MACs is the one way to
grow a deep term whose bytes stay small, and each wrapper call hashes the
chain again, so running such a program takes time quadratic in its depth:
0.1 s at 500 deep, 0.8 s at 1,500 and 6 s at 4,000 (CPython 3.11, one core
of a shared 2-core x86 host).  Two more limits come from CPython's tuples.
Tuple hashing has no recursion guard, so hashing a term about 200,000 deep
overflows the C stack (8 MB) and kills the process; a program of about
400,000 lines builds one.  Tuple comparison counts against the recursion
limit (on CPython 3.12+ a fixed C limit, 10,000 on 3.13): comparing two
distinct equal trees deeper raises RecursionError; ``dymon query`` exits 2.
Rendering, parsing, the level engine and ``explain`` take any depth.

A Log value is immutable.  ``add`` returns a new Log sharing nothing
observable with its input except the events themselves; each Log carries
its own level memo, one value per term (see levels), which is sound because
the Log never changes.  Equality between logs compares event *sets*;
insertion order is preserved only for rendering and reports.

Every node renders in one canonical syntax and parses back from it: a node
is its class name followed by its fields in parentheses, a node without
fields is its bare name, and a Literal is ``Literal(0x<hex>)``.
"""

from __future__ import annotations

import re
from _collections import _tuplegetter
from typing import NamedTuple

from .errors import TermSyntaxError

# ---------------------------------------------------------------------------
# nodes
#
# Terms, usages and events are keys of the representation table, the level
# memo and the log, so they are hashed and compared far more often than they
# are built.  Each node class is therefore a tuple subclass, and a node is the
# tuple (its class, *its fields): tuple hashing and equality run in C, and the
# class in slot 0 keeps nodes of different classes with equal fields apart.
# The fields are read through the C getter that collections.namedtuple uses.


def _node(cls):
    """Rebuild ``cls`` as a tuple subclass whose instances are ``(cls, *fields)``.

    The fields are the names annotated in the class body, in order; they are
    also the class's ``__match_args__``.  Instances are immutable, compare and
    hash as tuples, pickle through ``__getnewargs__`` and repr as
    ``Name(field=value, ...)``.
    """
    names = tuple(vars(cls).get("__annotations__", {}))
    params = "".join(f", {n}" for n in names)
    items = "".join(f"{n}, " for n in names)
    namespace = {"_new": tuple.__new__}
    exec(f"def __new__(_cls{params}):\n    return _new(_cls, (_cls, {items}))\n", namespace)
    body = {k: v for k, v in vars(cls).items() if k not in ("__dict__", "__weakref__")}
    body.update(
        __slots__=(),
        __match_args__=names,
        __new__=namespace["__new__"],
        __getnewargs__=_getnewargs,
        __repr__=_repr,
    )
    for i, name in enumerate(names, 1):
        body[name] = _tuplegetter(i, f"field {name!r}")
    return type(cls.__name__, cls.__bases__ + (tuple,), body)


def _getnewargs(self):
    return self[1:]


def _repr(self):
    cls = type(self)
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(cls.__match_args__, self[1:]))
    return f"{cls.__qualname__}({fields})"


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
# message format tags

TAG_REQUEST = b"1"
TAG_RESPONSE = b"2"


# ---------------------------------------------------------------------------
# payload convention
#
# The level engine's "sayable" predicate for MAC payloads is protocol
# configuration: the correct RPC protocol binds the request into the
# response MAC, the known-flawed variant does not.  The flag travels on the
# log so every derivation and every RPC role's response MAC in one run sees
# one convention.


class Convention(NamedTuple):
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
        "_memo",
    )

    def __init__(self, events, usages, responses, good, convention):
        self.convention = convention
        self.good = good
        self._events = events  # event -> None, in insertion order
        self._usages = usages
        self._responses = responses
        # term -> its level value, 2 Low, 1 High only, 0 neither (see levels)
        self._memo: dict = {}

    @classmethod
    def empty(cls, convention: Convention = STANDARD) -> "Log":
        return cls({}, {}, (), True, convention)

    def add(self, e: Event) -> "Log":
        if e in self._events:
            return self
        usages = self._usages
        good = self.good
        responses = self._responses
        cls = type(e)
        if cls is New:
            usages = dict(usages)
            prev = usages.get(e.term, ())
            usages[e.term] = prev + (e.usage,)
            # goodness: only literals get created, one usage per literal
            if not isinstance(e.term, Literal) or prev:
                good = False
        elif cls is Response:
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

    def __repr__(self) -> str:
        return f"<Log {len(self)} events>"


# ---------------------------------------------------------------------------
# canonical syntax
#
# Stable, whitespace-free, and parseable back.  Each node class is listed
# once; the kind of each field (Term, Usage, HmacKeyUsage, SEncKeyUsage)
# comes from its annotation, so the renderer and the parser below need no
# per-constructor code except for the hex payload of a Literal.  The
# annotations are strings (PEP 563), resolved here in this module's namespace.

_NODE_CLASSES = (
    Literal, Pair, Hmac, SEnc,
    AttackerGuess, HmacKey, SEncKey, PresharedKey, SessionKey, PrincipalKey,
    New, Request, Response, Initiator, Responder, Bad,
)
_FIELDS = {
    cls: tuple((name, eval(cls.__annotations__[name], globals())) for name in cls.__match_args__)
    for cls in _NODE_CLASSES
}
_BY_NAME = {cls.__name__: cls for cls in _NODE_CLASSES}
_NAME = re.compile(r"(\w+)")
_HEX = re.compile(r"0x((?:[0-9a-fA-F]{2})*)(?![0-9a-fA-F])")


def _render(node, kind: type) -> str:
    # an explicit stack, not recursion, so a term of any depth renders
    out = []
    todo = [(node, kind)]  # (node, kind) to render, or a str to emit
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, kind = item
        cls = type(node)
        if cls not in _FIELDS or not issubclass(cls, kind):
            raise TypeError(f"not a {kind.__name__}: {node!r}")
        if cls is Literal:
            out.append(f"Literal(0x{node.data.hex()})")
            continue
        out.append(cls.__name__)
        fields = _FIELDS[cls]
        if fields:
            # push "(" field "," ... field ")" so that it pops in order
            todo.append(")")
            for i in range(len(fields), 0, -1):
                todo.append((node[i], fields[i - 1][1]))
                todo.append(",")
            todo[-1] = "("
    return "".join(out)


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
        # an explicit stack, not recursion, so a term of any depth parses
        open_nodes = []  # (class, fields read so far) of each unclosed node
        while True:
            head = self.match(_NAME, "a name")
            cls = _BY_NAME.get(head)
            if cls is None or not issubclass(cls, kind):
                self.fail(f"expected a {kind.__name__}, not {head!r}")
            if cls is Literal:
                self.eat("(")
                data = bytes.fromhex(self.match(_HEX, "0x and an even number of hex digits"))
                self.eat(")")
                value = Literal(data)
            elif _FIELDS[cls]:
                self.eat("(")
                open_nodes.append((cls, []))
                kind = _FIELDS[cls][0][1]
                continue
            else:
                value = cls()
            # value is complete: it is the next field of the innermost open node
            while open_nodes:
                cls, args = open_nodes[-1]
                args.append(value)
                if len(args) < len(_FIELDS[cls]):
                    self.eat(",")
                    kind = _FIELDS[cls][len(args)][1]
                    break
                self.eat(")")
                open_nodes.pop()
                value = cls(*args)
            else:
                return value

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
