"""Attack language: grammar items, round trips, interpreter semantics."""

import gc
import random
import sys
from pathlib import Path

import pytest

from dymon import (
    AssumptionKind,
    AttackSyntaxError,
    ContractViolationError,
    CryptoState,
    Hmac,
    HmacKey,
    Level,
    Literal,
    OR_HONEST,
    PresharedKey,
    RPC_HONEST,
    RPC_SPLICE,
    RandomSource,
    Runtime,
    TableAuditError,
    ValueKind,
    VerdictKind,
    format_attack,
    generate_program,
    initial_state,
    interface_for,
    level,
    parse_attack,
    render_term,
    run_attack,
    validate_attack,
)
from dymon import attacker
from dymon.attacker import _OR_INTERFACE, _RPC_INTERFACE, _as_bytespub
from dymon.dsl import AssignString, AttackProgram, Call, Decl
from dymon.scripts import CORPUS, HONEST_DRIVERS
from oracles import hmac_chain_program

ATTACKS = Path(__file__).resolve().parent.parent / "attacks"


RPC_IFACE = interface_for("rpc-correct")
OR_IFACE = interface_for("otway-rees")


# -- parsing -------------------------------------------------------------------


def test_parse_shapes_and_comments():
    p = parse_attack(
        """
        # leading comment
        let x : string
        x = "hi # not a comment"   # trailing comment
        let b : bytespub
        b = att_toBytespub(x)
        att_channel_write(c, b)
        """
    )
    assert [type(s).__name__ for s in p.statements] == [
        "Decl", "AssignString", "Decl", "Call", "Call",
    ]
    assert (p.statements[3].var, p.statements[4].var) == ("b", None)
    assert p.statements[1].value == b"hi # not a comment"


def test_hash_inside_a_string_literal_is_kept():
    p = parse_attack('let x : string\nx = "a#b"\nlet y : string\ny = "q\\"#"')
    assert p.statements[1].value == b"a#b"
    assert p.statements[3].value == b'q"#'


def test_comment_after_a_string_literal_is_dropped():
    p = parse_attack('let x : string\nx = "v"  # c "quoted" # more\nlet y : string # t')
    assert p.statements == (
        Decl("x", ValueKind.STRING), AssignString("x", b"v"), Decl("y", ValueKind.STRING),
    )


def test_string_escapes():
    p = parse_attack('let x : string\nx = "a\\x00b\\\\c\\"d"')
    assert p.statements[1].value == b'a\x00b\\c"d'


def test_line_numbers_reported():
    with pytest.raises(AttackSyntaxError) as info:
        parse_attack("let x : string\n\nlet y : nosuch")
    assert info.value.line == 3
    assert info.value.item == 1


@pytest.mark.parametrize("text,item", [
    ("let x : widget", 1),
    ("x = = 3", 2),
    ('let x : string\nx = "\\q"', 2),
    ('let x : string\nx = "dangling\\"', 2),
    ("att_setup(1x, y)", 2),
    ("?!", 2),
    # a `"` ends a type, and what follows it is no statement
    ('let v : bytespub"#"x', 2),
    ('let v : a"b #c"', 2),
    ('let x : string\nx = "abc\\', 2),
])
def test_parse_errors_carry_item_numbers(text, item):
    with pytest.raises(AttackSyntaxError) as info:
        parse_attack(text)
    assert info.value.item == item


_S = ValueKind.STRING


@pytest.mark.parametrize("text,expected", [
    ('x = "a\\"#b"  # c', [(AssignString("x", b'a"#b'), 1)]),
    ('x = "ab\\\\"', [(AssignString("x", b"ab\\"), 1)]),
    ("f( )", [(Call("f", ()), 1)]),
    ("x = f( a ,b )", [(Call("f", ("a", "b"), "x"), 1)]),
    ('let\tx\t:\tstring\t#\tt\nx\t=\t"a"\t#\tc\n\tf(\tx\t,\tx\t)',
     [(Decl("x", _S), 1), (AssignString("x", b"a"), 2), (Call("f", ("x", "x")), 3)]),
    ("let x:string # t", [(Decl("x", _S), 1)]),
    ('let x : string\r\n\r\nx = "a"\r\n', [(Decl("x", _S), 1), (AssignString("x", b"a"), 3)]),
])
def test_parse_edge_cases(text, expected):
    p = parse_attack(text)
    assert [(s, s.line) for s in p.statements] == expected


# -- validation ----------------------------------------------------------------


def _validate(text, iface=RPC_IFACE):
    validate_attack(parse_attack(text), iface)


@pytest.mark.parametrize("text,item", [
    # 3: declaration discipline
    ("let x : string\nlet x : bytespub", 3),
    ('let x : string\nx = "a"\nx = "b"', 3),
    ('x = "a"', 3),
    ("let b : bytespub\nb = att_toBytespub(zz)", 3),
    # 4: assignment before use
    ("let x : string\nlet b : bytespub\nb = att_toBytespub(x)", 4),
    # 5: interface conformance
    ('let x : string\nx = "a"\natt_nosuch(x)', 5),
    ('let x : string\nx = "a"\natt_toBytespub(x, x)', 5),
    ('let x : string\nx = "a"\nlet p : bytespub\np = att_pair(x, x)', 5),
    # 6: result typing
    ('let x : string\nx = "a"\nlet y : string\ny = att_toBytespub(x)', 6),
    ('let x : string\nx = "a"\nlet b : bytespub\nb = att_toBytespub(x)\n'
     "let y : bytespub\ny = att_hmacsha1Verify(b, b, b)", 6),
    ('let b : bytespub\nb = "text"', 6),
])
def test_validation_items(text, item):
    with pytest.raises(AttackSyntaxError) as info:
        _validate(text)
    assert info.value.item == item


def test_validation_accepts_the_bundled_scripts():
    _validate(RPC_HONEST)


def test_procedure_result_can_be_discarded():
    _validate(
        'let x : string\nx = "a"\natt_toBytespub(x)'
    )


def test_interfaces_expose_expected_names():
    shared = {
        "att_toBytespub", "att_pair", "att_fst", "att_snd",
        "att_hmacsha1", "att_hmacsha1Verify",
        "att_channel_write", "att_channel_read",
    }
    assert shared <= set(RPC_IFACE) and shared <= set(OR_IFACE)
    assert {
        "att_setup", "att_run_client", "att_run_server",
        "att_compromise_client", "att_compromise_server",
        "att_getChannel_client", "att_getChannel_server",
    } <= set(RPC_IFACE)
    assert {
        "att_or_setup", "att_run_initiator", "att_run_responder",
        "att_run_server", "att_compromise_principal",
        "att_getChannel_initiator", "att_getChannel_responder",
        "att_getChannel_server",
    } <= set(OR_IFACE)
    assert RPC_IFACE["att_hmacsha1Verify"].result is None
    assert RPC_IFACE["att_setup"].result is ValueKind.SESSION


# -- formatting ----------------------------------------------------------------


def test_format_parse_identity_on_bundled_scripts():
    texts = [RPC_HONEST, *HONEST_DRIVERS.values()]
    texts += [path.read_text() for path in sorted(ATTACKS.glob("*.dsl"))]
    texts += [prog for progs in CORPUS.values() for prog in progs]
    assert len(texts) > 4
    for text in texts:
        p = parse_attack(text)
        assert p.statements
        assert parse_attack(format_attack(p)) == p


def test_format_parse_identity_on_generated_programs():
    rng = random.Random(5)
    for protocol in ("rpc-correct", "otway-rees"):
        for _ in range(50):
            p = generate_program(rng, protocol, max_len=12)
            validate_attack(p, interface_for(protocol))
            assert parse_attack(format_attack(p)) == p


def test_bundled_program_files_match_the_scripts():
    for name, text in [
        ("rpcattack_0.dsl", RPC_HONEST),
        ("rpcattack_1.dsl", RPC_SPLICE),
        ("or_honest.dsl", OR_HONEST),
    ]:
        assert (ATTACKS / name).read_bytes() == text.encode(), name


def test_format_quotes_non_printable_bytes():
    p = parse_attack('let x : string\nx = "\\x00\\xff"')
    assert format_attack(p) == 'let x : string\nx = "\\x00\\xff"\n'


def test_every_byte_survives_format_and_parse():
    p = AttackProgram((Decl("x", ValueKind.STRING), AssignString("x", bytes(range(256)))))
    assert parse_attack(format_attack(p)) == p


def test_string_literal_characters_are_single_bytes():
    p = parse_attack('let x : string\nx = "\u00e9\u00ff"')
    assert p.statements[1].value == b"\xe9\xff"
    with pytest.raises(AttackSyntaxError, match="line 2"):
        parse_attack('let x : string\nx = "\u20ac"')


# -- interpreter ---------------------------------------------------------------


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError):
        run_attack(RPC_HONEST, "nosuch")


def test_run_accepts_text_or_parsed_program():
    a = run_attack(RPC_HONEST, "rpc-correct", seed=9)
    b = run_attack(parse_attack(RPC_HONEST), "rpc-correct", seed=9)
    assert a.verdict == b.verdict
    assert a.state.log == b.state.log


def test_a_program_parsed_by_the_run_is_freed_before_its_steps_run(monkeypatch):
    # the steps are all a run needs; the statements would only take memory
    marker = Decl("marker", ValueKind.STRING, 0)
    alive = []
    run = attacker._run

    def counting(*args):
        gc.collect()
        alive.append(sum(
            type(o) is AttackProgram and marker in o.statements for o in gc.get_objects()
        ))
        return run(*args)

    monkeypatch.setattr(attacker, "_run", counting)
    text = RPC_HONEST + 'let marker : string\nmarker = "m"\n'
    held = parse_attack(text)
    run_attack(held, "rpc-correct")  # the caller's program stays alive
    del held
    run_attack(text, "rpc-correct")
    assert alive == [1, 0]


_SESSION_OF_ALICE_AND_BOB = (
    'let a : string\na = "Alice"\nlet b : string\nb = "Bob"\n'
    "let x : bytespub\nx = att_toBytespub(a)\nlet y : bytespub\ny = att_toBytespub(b)\n"
    "let s : session\n"
)


@pytest.mark.parametrize("protocol, start, role", [
    ("rpc-correct", "s = att_setup(x, y)\natt_run_client(s, x)", "rpc_client"),
    ("rpc-correct", "s = att_setup(x, y)\natt_run_server(s)", "rpc_server"),
    ("otway-rees", "s = att_or_setup(x, y)\natt_run_initiator(s)", "or_initiator"),
    ("otway-rees", "s = att_or_setup(x, y)\natt_run_responder(s)", "or_responder"),
    ("otway-rees", "s = att_or_setup(x, y)\natt_run_server(s)", "or_server"),
])
def test_a_started_role_is_named_after_its_function(protocol, start, role):
    # a role started alone waits for a message that never comes
    v = run_attack(_SESSION_OF_ALICE_AND_BOB + start, protocol).verdict
    assert v.kind is VerdictKind.DEADLOCK
    assert v.location == f"{role}#1"


def test_runs_are_deterministic_in_seed():
    a = run_attack(RPC_HONEST, "rpc-correct", seed=4)
    b = run_attack(RPC_HONEST, "rpc-correct", seed=4)
    assert a.verdict == b.verdict
    assert [e for e in a.state.log] == [e for e in b.state.log]
    assert a.to_report() == b.to_report()


def test_empty_string_conversion_poisons_downstream():
    script = """\
let e : string
e = ""
let b : bytespub
b = att_toBytespub(e)
let c : bytespub
c = att_pair(b, b)
let d : bytespub
d = att_fst(c)
"""
    r = run_attack(script, "rpc-correct", seed=0)
    assert r.verdict.kind is VerdictKind.OK
    assert r.state.failures == []
    # nothing was registered beyond the two tags
    assert len(r.state.table) == 2


def test_attacker_destruct_of_malformed_bytes_fails_softly():
    script = """\
let x : string
x = "ab"
let b : bytespub
b = att_toBytespub(x)
let f : bytespub
f = att_fst(b)
"""
    r = run_attack(script, "rpc-correct", seed=0)
    assert r.verdict.kind is VerdictKind.OK


def test_attacker_constructions_stay_public():
    # pair, split, mac, and verify over public data never trip contracts
    script = """\
let x : string
x = "left"
let y : string
y = "right"
let bx : bytespub
bx = att_toBytespub(x)
let by : bytespub
by = att_toBytespub(y)
let p : bytespub
p = att_pair(bx, by)
let f : bytespub
f = att_fst(p)
let s : bytespub
s = att_snd(p)
let m : bytespub
m = att_hmacsha1(bx, p)
att_hmacsha1Verify(bx, p, m)
"""
    r = run_attack(script, "rpc-correct", seed=0)
    assert r.verdict.kind is VerdictKind.OK
    assert r.state.failures == []


def test_mac_chain_deeper_than_the_recursion_limit_runs_ok():
    depth = 1200
    assert depth > sys.getrecursionlimit()
    r = run_attack(hmac_chain_program(depth), "rpc-correct", seed=0)
    assert r.verdict.kind is VerdictKind.OK
    assert r.state.failures == []
    last = list(r.state.table.values())[-1]
    assert render_term(last).count("Hmac(") == depth


def test_mac_over_a_deep_chain_after_a_new_word_runs_ok():
    # the New event starts a log with an empty memo, so the last MAC judges
    # the 600-deep chain from scratch, deeper than level can recurse
    program = hmac_chain_program(600) + (
        'let w : string\nw = "w"\nlet y : bytespub\ny = att_toBytespub(w)\n'
        "let z : bytespub\nz = att_hmacsha1(x0, x600)\n"
    )
    r = run_attack(program, "rpc-correct", seed=0)
    assert r.verdict.kind is VerdictKind.OK
    z = list(r.state.table.values())[-1]
    assert isinstance(z, Hmac) and render_term(z.msg).count("Hmac(") == 600
    assert level(Level.HIGH, z, r.state.log)


def test_random_programs_never_crash_the_interpreter():
    rng = random.Random(11)
    for protocol in ("rpc-correct", "rpc-flawed", "otway-rees"):
        for i in range(60):
            p = generate_program(rng, protocol, max_len=14)
            r = run_attack(p, protocol, seed=i)
            assert r.verdict.kind in VerdictKind


def test_no_role_is_runnable_when_a_call_starts(monkeypatch):
    # roles run only inside the calls that wake them, so every interface
    # entry, and the end of the run, finds no role runnable; and the roles a
    # call wakes are exactly those a full scan of the live roles finds
    def runnable(rt):
        # the reference scan: a live role that was never stepped, or whose
        # channel holds data, can run
        return [
            t for t in rt.roles
            if not t.done and (t.waiting_on is None or t.waiting_on.from_net)
        ]

    def checked(impl):
        def entry(rt, *args):
            assert runnable(rt) == []
            return impl(rt, *args)
        return entry

    for table in (_RPC_INTERFACE, _OR_INTERFACE):
        for fn, (sig, impl) in list(table.items()):
            monkeypatch.setitem(table, fn, (sig, checked(impl)))
    finalize = Runtime.finalize

    def checked_finalize(rt):
        assert rt.verdict is not None or runnable(rt) == []
        return finalize(rt)

    monkeypatch.setattr(Runtime, "finalize", checked_finalize)
    drain, step = Runtime.drain, Runtime._step
    stepped = []

    def checked_drain(rt, ready):
        # the woken roles are the scan's, in spawn order; one pass steps each
        # of them and leaves no role runnable
        names = [t.name for t in ready]
        assert names == [t.name for t in runnable(rt)]
        stepped.clear()
        drain(rt, ready)
        assert sorted(t.name for t in stepped) == sorted(names)
        assert runnable(rt) == []

    def recorded_step(rt, task):
        stepped.append(task)
        step(rt, task)

    monkeypatch.setattr(Runtime, "drain", checked_drain)
    monkeypatch.setattr(Runtime, "_step", recorded_step)
    rng = random.Random(17)
    for protocol, corpus in CORPUS.items():
        programs = [*corpus, *(generate_program(rng, protocol, 32) for _ in range(200))]
        for i, program in enumerate(programs):
            run_attack(program, protocol, seed=i)


def test_report_shape():
    r = run_attack(RPC_HONEST, "rpc-correct", seed=1)
    doc = r.to_report()
    assert doc["protocol"] == "rpc-correct"
    assert doc["verdict"]["kind"] == "ok"
    assert doc["exit_code"] == 0
    assert isinstance(doc["events"], list)
    assert doc["assertions_checked"] == 2


def test_report_counts_only_suppressed_assertions(monkeypatch):
    # an overruled contract violation is not a suppressed assertion failure
    def collide_then_break_contract(cs, b1, b2):
        cs._record_failure(AssumptionKind.COLLISION, b1, None, None)
        raise ContractViolationError("pair", "broken on purpose")

    monkeypatch.setattr(CryptoState, "w_pair", collide_then_break_contract)
    program = """\
let a : string
a = "Alice"
let alice : bytespub
alice = att_toBytespub(a)
let x : bytespub
x = att_pair(alice, alice)
"""
    r = run_attack(program, "rpc-correct", seed=0)
    assert r.verdict.kind is VerdictKind.ASSUMPTION_FAILURE
    assert r.to_report()["suppressed_assertion_failures"] == 0
    monkeypatch.undo()
    # a 1-byte MAC makes a spliced response collide, and the client's
    # failing assertion after it is counted
    stub = run_attack(RPC_SPLICE, "rpc-correct", seed=3, mac_fn=lambda k, m: b"\x00")
    assert stub.verdict.kind is VerdictKind.ASSUMPTION_FAILURE
    assert stub.to_report()["suppressed_assertion_failures"] == stub.suppressed >= 1


def test_held_bytespub_that_is_not_public_is_an_audit_error():
    cs = initial_state()
    rt = Runtime(cs, seed=0, rand=RandomSource(0))
    held = cs.w_to_string(b"held")
    assert _as_bytespub(rt, held) == held
    # corrupt the binding so the held bytes stand for a secret key
    key = cs.w_fresh(HmacKey(PresharedKey(Literal(b"A"), Literal(b"B"))), 16, rt.rand)
    cs.table[held] = cs.term_of(key)
    with pytest.raises(TableAuditError):
        _as_bytespub(rt, held)


# each bytespub-returning core call -> (the wrapper it goes through, its
# arguments, a stand-in for that wrapper returning the given bytes)
_HELD_RESULTS = {
    "att_pair": ("w_pair", "alice, bob", lambda held: held),
    "att_fst": ("w_destruct", "alice", lambda held: (held, held)),
    "att_snd": ("w_destruct", "alice", lambda held: (held, held)),
    "att_hmacsha1": ("w_hmacsha1", "alice, bob", lambda held: held),
}


@pytest.mark.parametrize("fn", sorted(_HELD_RESULTS))
def test_every_bytespub_result_is_checked_public(fn, monkeypatch):
    wrapper, args, shape = _HELD_RESULTS[fn]

    def leak_a_secret(cs, *_):
        # the bytes of the session's preshared key, registered and not Low
        secret = next(d for d, t in cs.table.items() if not level(Level.LOW, t, cs.log))
        return shape(secret)

    monkeypatch.setattr(CryptoState, wrapper, leak_a_secret)
    program = f"""\
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
let x : bytespub
x = {fn}({args})
"""
    with pytest.raises(TableAuditError):
        run_attack(program, "rpc-correct", seed=0)
