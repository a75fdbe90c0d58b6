"""Value records: constructors, field names, equality, frozenness and repr."""

import pytest

from dymon import (
    AssumptionFailure,
    AttackProgram,
    Convention,
    FuzzResult,
    RunResult,
    Signature,
    ValueKind,
    Verdict,
    VerdictKind,
    format_attack,
    parse_attack,
)
from dymon.dsl import AssignString, Call, Decl
from dymon.protocols import OrSession, RpcSession

_S = ValueKind.STRING

# class -> its fields in constructor order, and the defaults of the trailing ones
RECORDS = {
    Convention: (("response_binds_request",), {"response_binds_request": True}),
    Signature: (("params", "result"), {}),
    AttackProgram: (("statements",), {}),
    Decl: (("var", "kind", "line"), {"line": 0}),
    AssignString: (("var", "value", "line"), {"line": 0}),
    Call: (("fn", "args", "var", "line"), {"var": None, "line": 0}),
    AssumptionFailure: (("kind", "data", "existing", "attempted", "note"), {"note": ""}),
    Verdict: (("kind", "location", "detail"), {"location": None, "detail": None}),
    RpcSession: (("t_client", "t_server", "key", "client_channel", "server_channel"), {}),
    OrSession: ((
        "t_a", "t_b", "key_a", "key_b",
        "init_channel", "resp_channel", "serv_channel",
    ), {}),
    RunResult: ((
        "verdict", "state", "protocol", "seed", "assertions_checked", "suppressed",
        "roles_spawned",
    ), {}),
    FuzzResult: ((
        "protocol", "count", "max_len", "seed", "histogram", "counterexamples",
        "secrecy_violations", "corpus_runs", "elapsed",
    ), {"counterexamples": (), "secrecy_violations": (), "corpus_runs": 0, "elapsed": 0.0}),
}
FROZEN = (Convention, Signature, AttackProgram, Decl, AssignString, Call,
          AssumptionFailure, Verdict, FuzzResult)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_constructor_forms_and_defaults(cls):
    names, defaults = RECORDS[cls]
    values = [f"v{i}" for i in range(len(names))]
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    required = [n for n in names if n not in defaults]
    bare = cls(*values[:len(required)])
    for name, default in defaults.items():
        assert getattr(bare, name) == default


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_names_every_field(cls):
    names, _ = RECORDS[cls]
    text = repr(cls(*[i for i in range(len(names))]))
    assert text == f"{cls.__name__}({', '.join(f'{n}={i}' for i, n in enumerate(names))})"


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_records_refuse_assignment(cls):
    names, _ = RECORDS[cls]
    record = cls(*range(len(names)))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, 99)
        assert getattr(record, name) == names.index(name)


def test_verdict_defaults_location_and_detail_to_none():
    v = Verdict(VerdictKind.OK)
    assert v.location is None and v.detail is None
    assert v.exit_code == 0
    assert v.to_dict() == {"kind": "ok", "location": None, "detail": None}


def test_fuzz_results_share_no_list():
    # the defaults are immutable, so no two results can share a list
    a = FuzzResult("rpc-flawed", 1, 16, 0, {})
    assert a.counterexamples == () and a.secrecy_violations == ()
    with pytest.raises(AttributeError):
        a.corpus_runs += 1
    b = a._replace(corpus_runs=1, elapsed=2.5)
    assert b.to_report()["corpus_runs"] == 1 and b.to_report()["elapsed_seconds"] == 2.5


def test_statements_compare_and_hash_by_class_and_fields_not_line():
    pairs = (
        (Decl("x", _S, 1), Decl("x", _S, 7)),
        (AssignString("x", b"a", 2), AssignString("x", b"a")),
        (Call("f", ("a",), "x", 3), Call("f", ("a",), "x", 9)),
        (Call("f", ()), Call("f", (), None, 4)),
    )
    for a, b in pairs:
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert Decl("x", _S) != Decl("y", _S)
    assert Call("f", ("a",)) != Call("f", ("a",), "x")
    # equal fields under another class, or as a bare tuple, are not equal
    assert Decl("x", _S) != AssignString("x", _S)
    assert not Decl("x", _S) == AssignString("x", _S)
    for other in (("x", _S), ("x", _S, 0), ["x", _S, 0]):
        assert Decl("x", _S) != other and other != Decl("x", _S)
        assert not Decl("x", _S) == other and not other == Decl("x", _S)


def test_formatting_drops_line_numbers_and_parses_back_equal():
    text = (
        "# a comment\n\nlet s : string\n"
        's = "a"  # note\n'
        "let x : bytespub\nx = att_toBytespub(s)\natt_toBytespub(s)\n"
    )
    program = parse_attack(text)
    assert [st.line for st in program.statements] == [3, 4, 5, 6, 7]
    again = parse_attack(format_attack(program))
    assert [st.line for st in again.statements] == [1, 2, 3, 4, 5]
    assert again == program and hash(again) == hash(program)