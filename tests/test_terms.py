"""Term algebra and the append-only log."""

import dataclasses
import inspect
import pickle
import random

import pytest
from hypothesis import given, strategies as st

import dymon.terms
from oracles import random_instance
from dymon import (
    AttackerGuess,
    Bad,
    Convention,
    Hmac,
    HmacKey,
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
    TermSyntaxError,
    parse_event,
    parse_term,
    render_event,
    render_term,
    render_usage,
)

A, B = Literal(b"A"), Literal(b"B")


def terms(depth=3):
    leaf = st.builds(Literal, st.binary(min_size=1, max_size=6))
    return st.recursive(
        leaf,
        lambda inner: st.one_of(
            st.builds(Pair, inner, inner),
            st.builds(Hmac, inner, inner),
            st.builds(SEnc, inner, inner),
        ),
        max_leaves=8,
    )


def usages():
    t = st.builds(Literal, st.binary(min_size=1, max_size=4))
    return st.one_of(
        st.just(AttackerGuess()),
        st.builds(lambda a, b: HmacKey(PresharedKey(a, b)), t, t),
        st.builds(lambda a, b: HmacKey(SessionKey(a, b)), t, t),
        st.builds(lambda p: SEncKey(PrincipalKey(p)), t),
    )


def events():
    t = terms()
    return st.one_of(
        st.builds(New, st.builds(Literal, st.binary(min_size=1, max_size=4)), usages()),
        st.builds(Request, t, t, t),
        st.builds(Response, t, t, t, t),
        st.builds(Initiator, t, t, t, t),
        st.builds(Responder, t, t, t, t),
        st.builds(Bad, t),
    )


# -- structural equality ------------------------------------------------------


def test_term_equality_is_structural():
    assert Pair(A, B) == Pair(A, B)
    assert Pair(A, B) != Pair(B, A)
    assert hash(Hmac(A, B)) == hash(Hmac(A, B))
    assert Literal(b"A") == A


# -- log semantics -------------------------------------------------------------


def test_log_add_is_persistent_and_deduplicating():
    l0 = Log.empty()
    l1 = l0.add(Bad(A))
    assert len(l0) == 0 and len(l1) == 1
    assert l1.add(Bad(A)) is l1
    assert Bad(A) in l1 and Bad(A) not in l0


def test_log_equality_ignores_order():
    la = Log.empty().add(Bad(A)).add(Bad(B))
    lb = Log.empty().add(Bad(B)).add(Bad(A))
    assert la == lb
    assert hash(la) == hash(lb)
    assert la.leq(lb) and lb.leq(la)
    assert Log.empty().leq(la)
    assert not la.leq(Log.empty())


def test_log_goodness():
    good = Log.empty().add(New(A, AttackerGuess())).add(Bad(B))
    assert good.good
    double = good.add(New(A, HmacKey(PresharedKey(A, B))))
    assert not double.good
    composite = Log.empty().add(New(Pair(A, B), AttackerGuess()))
    assert not composite.good


def test_usages_and_responses_indexes():
    k = Literal(b"k")
    log = (
        Log.empty()
        .add(New(k, HmacKey(PresharedKey(A, B))))
        .add(Response(A, B, Literal(b"q"), Literal(b"r")))
    )
    assert log.usages_of(k) == (HmacKey(PresharedKey(A, B)),)
    assert log.usages_of(A) == ()
    assert [type(e).__name__ for e in log.responses] == ["Response"]
    assert list(log.news) == [(k, HmacKey(PresharedKey(A, B)))]


def test_convention_travels_on_log():
    flawed = Convention(response_binds_request=False)
    assert Log.empty(flawed).add(Bad(A)).convention is flawed


# -- canonical rendering -------------------------------------------------------


@given(t=terms())
def test_render_parse_term_round_trip(t):
    assert parse_term(render_term(t)) == t


@given(e=events())
def test_render_parse_event_round_trip(e):
    assert parse_event(render_event(e)) == e


# One pinned rendering per node class; together they use every constructor.
RENDER_EXAMPLES = [
    (A, "Literal(0x41)"),
    (Pair(A, B), "Pair(Literal(0x41),Literal(0x42))"),
    (Hmac(A, B), "Hmac(Literal(0x41),Literal(0x42))"),
    (SEnc(A, B), "SEnc(Literal(0x41),Literal(0x42))"),
    (AttackerGuess(), "AttackerGuess"),
    (HmacKey(PresharedKey(A, B)), "HmacKey(PresharedKey(Literal(0x41),Literal(0x42)))"),
    (HmacKey(SessionKey(A, B)), "HmacKey(SessionKey(Literal(0x41),Literal(0x42)))"),
    (SEncKey(PrincipalKey(A)), "SEncKey(PrincipalKey(Literal(0x41)))"),
    (
        New(A, HmacKey(SessionKey(A, B))),
        "New(Literal(0x41),HmacKey(SessionKey(Literal(0x41),Literal(0x42))))",
    ),
    (
        Request(A, B, Literal(b"q")),
        "Request(Literal(0x41),Literal(0x42),Literal(0x71))",
    ),
    (
        Response(A, B, Literal(b"q"), Literal(b"r")),
        "Response(Literal(0x41),Literal(0x42),Literal(0x71),Literal(0x72))",
    ),
    (
        Initiator(A, Literal(b"n"), Literal(b"k"), B),
        "Initiator(Literal(0x41),Literal(0x6e),Literal(0x6b),Literal(0x42))",
    ),
    (
        Responder(B, Literal(b"n"), Literal(b"k"), A),
        "Responder(Literal(0x42),Literal(0x6e),Literal(0x6b),Literal(0x41))",
    ),
    (Bad(A), "Bad(Literal(0x41))"),
    (Pair(Literal(b""), SEnc(A, Hmac(B, A))),
     "Pair(Literal(0x),SEnc(Literal(0x41),Hmac(Literal(0x42),Literal(0x41))))"),
]


def _render(x):
    if isinstance(x, dymon.terms.Term):
        return render_term(x)
    if isinstance(x, dymon.terms.Usage):
        return render_usage(x)
    return render_event(x)


def _node_classes(x):
    found = {type(x)}
    for f in dataclasses.fields(x):
        child = getattr(x, f.name)
        if dataclasses.is_dataclass(child):
            found |= _node_classes(child)
    return found


def test_render_examples_are_stable():
    for value, text in RENDER_EXAMPLES:
        assert _render(value) == text
        if isinstance(value, dymon.terms.Term):
            assert parse_term(text) == value
        elif isinstance(value, dymon.terms.Event):
            assert parse_event(text) == value


def test_render_examples_cover_every_node_class():
    bases = (
        dymon.terms.Term,
        dymon.terms.Usage,
        dymon.terms.Event,
        dymon.terms.HmacKeyUsage,
        dymon.terms.SEncKeyUsage,
    )
    node_classes = {
        cls
        for _, cls in inspect.getmembers(dymon.terms, inspect.isclass)
        if dataclasses.is_dataclass(cls) and issubclass(cls, bases)
    }
    assert len(node_classes) == 16
    covered = set().union(*(_node_classes(v) for v, _ in RENDER_EXAMPLES))
    assert covered == node_classes


@pytest.mark.parametrize("bad", [
    "", "Literal", "Literal(41)", "Pair(Literal(0x41))",
    "Nope(Literal(0x41),Literal(0x42))", "Literal(0x4)",
    "Literal(0x41)x",
    "Pair(AttackerGuess,Literal(0x41))", "Literal(0x41", "Bad(Literal(0x41))",
])
def test_parse_term_rejects_garbage(bad):
    with pytest.raises(TermSyntaxError):
        parse_term(bad)


@pytest.mark.parametrize("bad", [
    "Request(Literal(0x41),Literal(0x42))",
    "New(Literal(0x41),Nonsense)",
    "Whatever(Literal(0x41))",
    "New(Literal(0x41),Literal(0x42))",
    "New(Literal(0x41),HmacKey(PrincipalKey(Literal(0x41))))",
    "New(Literal(0x41),SEncKey(SessionKey(Literal(0x41),Literal(0x42))))",
    "Bad(Literal(0x41),Literal(0x42))",
    "Response(Literal(0x41),Literal(0x42),Literal(0x43))",
    "New(Literal(0x41),AttackerGuess())",
])
def test_parse_event_rejects_garbage(bad):
    with pytest.raises(TermSyntaxError):
        parse_event(bad)


# -- stored hashes -------------------------------------------------------------
#
# Each node stores its hash when it is built.  Whatever way an equal node
# comes about (built again from fresh objects, or parsed back from its
# rendering), it must be equal, hash the same, and find the original's
# dict entries.


def _subnodes(x):
    yield x
    for f in dataclasses.fields(x):
        child = getattr(x, f.name)
        if dataclasses.is_dataclass(child):
            yield from _subnodes(child)


def _rebuilt(x):
    if isinstance(x, Literal):
        return Literal(bytes(bytearray(x.data)))  # a new bytes object, hash not cached
    return type(x)(*(_rebuilt(getattr(x, f.name)) for f in dataclasses.fields(x)))


def _parsed_back(x):
    if isinstance(x, dymon.terms.Term):
        return parse_term(render_term(x))
    if isinstance(x, dymon.terms.Event):
        return parse_event(render_event(x))
    if isinstance(x, dymon.terms.Usage):
        return _parsed_back(New(A, x)).usage
    if isinstance(x, dymon.terms.HmacKeyUsage):
        return _parsed_back(HmacKey(x)).usage
    return _parsed_back(SEncKey(x)).usage


def _agreement_nodes():
    """The RENDER_EXAMPLES and the terms and events of random oracle logs,
    with every node inside them."""
    roots = [v for v, _ in RENDER_EXAMPLES]
    rng = random.Random(8)
    for _ in range(25):
        log, universe = random_instance(rng)
        roots += sorted(universe, key=render_term) + list(log)
    return [n for root in roots for n in _subnodes(root)]


def test_equal_nodes_hash_alike_however_they_are_built():
    nodes = _agreement_nodes()
    assert {type(n) for n in nodes} == set(dymon.terms._NODE_CLASSES)
    index = {n: n for n in nodes}
    for n in nodes:
        for twin in (_rebuilt(n), _parsed_back(n)):
            assert twin is not n
            assert twin == n
            assert hash(twin) == hash(n)
            assert index[twin] == n


@given(e=events())
def test_rebuilt_events_hash_alike(e):
    twin = _rebuilt(e)
    assert twin == e and hash(twin) == hash(e)
    assert {e: 1}[twin] == 1


def test_pickled_nodes_rebuild_their_hash():
    # a stored hash holds in one process only, so it is never pickled
    for value, _ in RENDER_EXAMPLES:
        data = pickle.dumps(value)
        assert b"_hash" not in data
        twin = pickle.loads(data)
        assert twin == value and hash(twin) == hash(value)
