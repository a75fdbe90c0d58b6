"""Fuzz loop: determinism, corpus handling, generation discipline."""

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from bisect import bisect
from collections import Counter
from itertools import combinations, islice
from pathlib import Path

import pytest

from dymon import (
    PROTOCOLS,
    AttackProgram,
    VerdictKind,
    format_attack,
    fuzz_attacks,
    generate_program,
    interface_for,
    level,
    parse_attack,
    run_attack,
    validate_attack,
    weak_secrecy_violations,
)
from dymon.dsl import AssignString, Call, Decl, ValueKind, program_of
from dymon.scripts import CORPUS, HONEST_DRIVERS
from oracles import HIGH, LOW, saturate

fuzz = importlib.import_module("dymon.fuzz")


def test_generated_programs_are_well_typed():
    rng = random.Random(0)
    for protocol in ("rpc-correct", "otway-rees"):
        iface = interface_for(protocol)
        for _ in range(100):
            p = generate_program(rng, protocol, max_len=10)
            assert len(validate_attack(p, iface)) <= 10


# (protocol, max_len) -> (seed, SHA-256 of the formatted text of the first
# 300 programs generated from random.Random(seed)); any change to what the
# generator draws, or in which order, changes these
PINNED_GENERATION = {
    ("rpc-correct", 8): (1, "83641c5bacf4c532fbaa1cca62db5921d3b5b91ca06be8c35836d118508425f9"),
    ("rpc-correct", 16): (2, "107fdc64139664ca9dcc9b1fa5da4aa9cf2bcc8fc32ec79afefe5c24fdef1067"),
    ("rpc-correct", 64): (3, "89e540513132ec2e0922371dd0fe433737884af243a00662299adf3ee8e6c63a"),
    ("rpc-flawed", 8): (4, "3468065116294389821bbf8a10bd5f9c6b92f40933c2e0f21d09f236b76fc05f"),
    ("rpc-flawed", 16): (5, "afb4670d072abd64aa3d93c93f9787874a59ec4c89201aa766c811646163ba02"),
    ("rpc-flawed", 64): (6, "6533424c2aaa22fccc3ebc22b13ff5d5596cf7f4696ab5bbd2904f961176cede"),
    ("otway-rees", 8): (7, "fe64bdf219abab8d4cdc279d66e73d36d81023d8b2ef7bc9ec7e1821f0338b1d"),
    ("otway-rees", 16): (8, "eae91eb0055ce4be11e4a06d2f279c4000706f9d7ac6f0f3e46ec7078c0102e0"),
    ("otway-rees", 64): (9, "7b4c33a06a26bd1a8d56038590b8ad0ffdae61ed50aabdb937c8c2a43b13bb9d"),
}


@pytest.mark.parametrize("protocol,max_len", sorted(PINNED_GENERATION))
def test_generation_matches_pinned_digest(protocol, max_len):
    seed, digest = PINNED_GENERATION[protocol, max_len]
    rng = random.Random(seed)
    h = hashlib.sha256()
    for _ in range(300):
        h.update(format_attack(generate_program(rng, protocol, max_len)).encode())
    assert h.hexdigest() == digest


# fuzz_attacks("otway-rees", 200, 64, seed=5) histogram and the SHA-256 of
# the sorted-key JSON of the fuzz_attacks("rpc-flawed", 400, 16, seed=7)
# report without elapsed_seconds
PINNED_HISTOGRAM = {"deadlock": 146, "ok": 54}
PINNED_REPORT_DIGEST = "914ef8679d1289c8ca235509e02506839ae3777e43cd1f9c8c67df2f3b5060fb"


def test_fuzz_histogram_matches_pinned_run():
    r = fuzz_attacks("otway-rees", 200, 64, seed=5).to_report()
    assert r["histogram"] == PINNED_HISTOGRAM
    assert r["counterexamples"] == [] and r["secrecy_violations"] == []


def test_fuzz_report_matches_pinned_run():
    # histogram, counterexample (program text, seed, verdict) and sweep
    r = fuzz_attacks("rpc-flawed", 400, 16, seed=7).to_report()
    del r["elapsed_seconds"]
    text = json.dumps(r, sort_keys=True)
    assert r["histogram"] == {"assertion-failure": 1, "deadlock": 230, "ok": 169}
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_DIGEST


def test_generated_runs_agree_with_run_attack(monkeypatch):
    # the fuzz loop runs each generated step as it is drawn, without
    # validating it: every such run must be the run_attack of its text, a
    # prefix of the program drawn from the same state, and shorter than
    # that program only when its last step ended the run
    draws, runs, corpus = [], [], Counter()
    draw, run, replay = fuzz._steps, fuzz._run, fuzz.run_attack

    def recording_draw(rng, protocol, max_len, ran):
        draws.append((rng, rng.getstate(), ran))
        return draw(rng, protocol, max_len, ran)

    def recording_run(steps, protocol, seed, *rest):
        taken = []
        result = run((taken.append(st) or st for st in steps), protocol, seed, *rest)
        after = draws[-1][0].getstate()
        runs.append((tuple(taken), after, seed, result.to_report()))
        return result

    def recording_replay(*args, **kwargs):
        result = replay(*args, **kwargs)
        corpus[result.verdict.kind.value] += 1
        return result

    monkeypatch.setattr(fuzz, "_steps", recording_draw)
    monkeypatch.setattr(fuzz, "_run", recording_run)
    monkeypatch.setattr(fuzz, "run_attack", recording_replay)
    for protocol in ("rpc-correct", "rpc-flawed", "otway-rees"):
        iface = interface_for(protocol)
        for max_len in (16, 64):
            draws.clear()
            runs.clear()
            corpus.clear()
            r = fuzz_attacks(protocol, 300, max_len, seed=max_len)
            assert len(draws) == len(runs) == 300 - r.corpus_runs
            verdicts = Counter(corpus)
            for (_, state, ran), (taken, after, seed, report) in zip(draws, runs):
                verdicts[report["verdict"]["kind"]] += 1
                # a counterexample is rebuilt from ran
                assert tuple(ran) == taken
                program = parse_attack(format_attack(program_of(taken, iface)))
                assert validate_attack(program, iface) == list(taken)
                assert run_attack(program, protocol, seed=seed).to_report() == report
                rng = random.Random()
                rng.setstate(state)
                full = generate_program(rng, protocol, max_len)
                steps = validate_attack(full, iface)
                assert steps[:len(taken)] == list(taken)
                if len(taken) == len(steps):
                    assert rng.getstate() == after
                else:
                    # nothing was drawn after the step that ended the run
                    rng.setstate(state)
                    assert tuple(islice(draw(rng, protocol, max_len, []), len(taken))) == taken
                    assert rng.getstate() == after
                    assert taken[-1][0] is not None  # a call, not a literal
                    whole = run_attack(full, protocol, seed=seed)
                    assert whole.to_report() == report
                    if report["verdict"]["kind"] != "assumption-failure":
                        # without its last step the run ends differently;
                        # an assumption failure would outrank either ending
                        shorter = program_of(taken[:-1], iface)
                        assert run_attack(shorter, protocol, seed=seed).to_report() != report
            assert verdicts == r.histogram


def _ready_sets():
    # every set of kinds with a non-empty pool that a draw can see (the
    # string pool is seeded before the first draw), and a few more
    others = [k for k in ValueKind if k is not ValueKind.STRING]
    for n in range(len(others) + 1):
        for extra in combinations(others, n):
            yield frozenset({ValueKind.STRING, *extra})


def test_bisect_pick_agrees_with_random_choices():
    # the generator picks fns[bisect(cum, random() * total, 0, hi)] from a
    # cached menu; random.choices over the interface and the weights must
    # pick the same function and leave the rng in the same state
    for protocol in PROTOCOLS:
        iface = interface_for(protocol)
        for ready in _ready_sets():
            fns, cum, total, hi = fuzz._menu(protocol, ready)
            names = [fn for fn, sig in iface.items() if all(p in ready for p in sig.params)]
            weights = [fuzz._WEIGHTS.get(fn, 2) for fn in names]
            assert fns == tuple((fn, iface[fn].params, iface[fn].result) for fn in names)
            for state_seed in range(300):
                fast = random.Random(state_seed)
                slow = random.Random()
                slow.setstate(fast.getstate())
                pick = fns[bisect(cum, fast.random() * total, 0, hi)][0]
                assert slow.choices(names, weights=weights) == [pick]
                assert slow.getstate() == fast.getstate()


class _NoChoice(random.Random):
    """An rng whose choice, choices and sample must not be called."""

    def choice(self, seq):
        raise AssertionError("random.choice called")

    def choices(self, *args, **kwargs):
        raise AssertionError("random.choices called")

    def sample(self, *args, **kwargs):
        raise AssertionError("random.sample called")


def test_argument_draw_agrees_with_random_choice(monkeypatch):
    # each argument is drawn inline from getrandbits; random.choice over
    # the pool must pick the same variable and leave the rng in the same
    # state.  A one-function menu that takes a bytespub and makes one
    # grows that pool by one a step, so a program of 75 commands draws
    # from pools of 1 to 70 variables
    byts = ValueKind.BYTESPUB
    make, grow = (("make", (), byts),), (("grow", (byts,), byts),)

    def one_function(protocol, ready):
        return (grow if byts in ready else make), (1,), 1.0, 0

    monkeypatch.setattr(fuzz, "_menu", one_function)
    drawn = Counter()
    for state_seed in range(300):
        fast, slow = random.Random(state_seed), random.Random()
        steps = fuzz._steps(fast, "rpc-flawed", 75, [])
        pool = []
        while True:
            slow.setstate(fast.getstate())  # steps are drawn only when asked for
            step = next(steps, None)
            if step is None:
                break
            fn, args, var = step
            if fn == "grow":
                slow.random()  # the function pick
                assert args == (slow.choice(pool),)
                assert slow.getstate() == fast.getstate()
                drawn[len(pool)] += 1
            if fn is not None:
                pool.append(var)
    assert drawn == {n: 300 for n in range(1, 71)}
    # the real menus draw no function or argument through random.py
    monkeypatch.undo()
    for protocol in PROTOCOLS:
        rng = _NoChoice(1)
        for _ in range(50):
            for _ in fuzz._steps(rng, protocol, 64, []):
                pass


def test_prelude_pick_agrees_with_random_sample():
    # the prelude draws two principal names and two words with _two, which
    # must pick what random.sample(pop, 2) picks, in the same state
    for pop in (fuzz._WORDS[:4], fuzz._WORDS):
        for state_seed in range(300):
            fast = random.Random(state_seed)
            slow = random.Random()
            slow.setstate(fast.getstate())
            assert list(fuzz._two(fast.getrandbits, pop)) == slow.sample(pop, 2)
            assert slow.getstate() == fast.getstate()


def _slow_program(rng, protocol, max_len):
    # the reference generator: one Decl and one statement object per
    # command, each function drawn by random.choices with weights=
    iface = interface_for(protocol)
    pools = {k: [] for k in ValueKind}
    statements = []
    words = rng.sample(fuzz._WORDS[:4], k=2) + rng.sample(fuzz._WORDS, k=2)
    for n in range(max_len):
        if n < len(words):
            kind = ValueKind.STRING
        else:
            fns = [
                fn for fn, sig in iface.items() if all(pools[p] for p in sig.params)
            ]
            fn = rng.choices(fns, weights=[fuzz._WEIGHTS.get(f, 2) for f in fns])[0]
            args = tuple(rng.choice(pools[p]) for p in iface[fn].params)
            kind = iface[fn].result
        var = None
        if kind is not None:
            var = f"v{sum(map(len, pools.values()))}"
            statements.append(Decl(var, kind))
            pools[kind].append(var)
        statements.append(AssignString(var, words[n]) if n < len(words) else Call(fn, args, var))
    return AttackProgram(tuple(statements))


def test_steps_rebuild_the_reference_program():
    # the steps, with each Decl re-derived from the kind of what is
    # assigned, validate back to the same steps, directly and through
    # format and parse, and give the program and rng state of the
    # reference generator
    for i, protocol in enumerate(PROTOCOLS):
        iface = interface_for(protocol)
        fast, slow = random.Random(i), random.Random(i)
        for n in range(200):
            max_len = (0, 3, 4, 5, 16, 64, 100)[n % 7]
            replay = random.Random()
            replay.setstate(fast.getstate())
            steps = []
            for _ in fuzz._steps(fast, protocol, max_len, steps):
                pass
            program = program_of(steps, iface)
            assert validate_attack(program, iface) == steps
            parsed = parse_attack(format_attack(program))
            assert validate_attack(parsed, iface) == steps
            assert parsed == program == _slow_program(slow, protocol, max_len)
            assert fast.getstate() == slow.getstate()
            assert generate_program(replay, protocol, max_len) == program
            assert replay.getstate() == fast.getstate()


def test_variable_names_have_no_cap():
    for protocol in PROTOCOLS:
        max_len = len(fuzz._NAMES) + 100  # beyond every name cached so far
        p = generate_program(random.Random(4), protocol, max_len)
        assert len(validate_attack(p, interface_for(protocol))) == max_len
        declared = [st.var for st in p.statements if isinstance(st, Decl)]
        assert declared == [f"v{i}" for i in range(len(declared))]
        assert len(declared) > max_len // 2


def _bundled_programs():
    # every program text dymon ships: the corpus, the honest drivers and
    # the loose files under attacks/
    attacks = Path(__file__).resolve().parents[1] / "attacks"
    for protocol in PROTOCOLS:
        for text in (*CORPUS.get(protocol, ()), HONEST_DRIVERS[protocol]):
            yield protocol, text
    for path in sorted(attacks.glob("*.dsl")):
        yield ("otway-rees" if path.name.startswith("or_") else "rpc-correct"), path.read_text()


def test_program_of_inverts_validate_attack():
    # statements -> steps -> statements gives back every bundled program
    seen = 0
    for protocol, text in _bundled_programs():
        iface = interface_for(protocol)
        program = parse_attack(text)
        assert program_of(validate_attack(program, iface), iface) == program
        seen += 1
    assert seen >= 11


def test_validate_attack_returns_a_fresh_list():
    iface = interface_for("rpc-correct")
    program = parse_attack(HONEST_DRIVERS["rpc-correct"])
    steps = validate_attack(program, iface)
    again = validate_attack(program, iface)
    assert steps == again and steps is not again
    steps.reverse()
    steps.append((None, b"x", "x"))
    assert validate_attack(program, iface) == again
    assert program == parse_attack(HONEST_DRIVERS["rpc-correct"])
    assert program_of(again, iface) == program


_FRESH_REPORTS = """
import json, sys
from dymon import fuzz_attacks
for args in json.loads(sys.argv[1]):
    r = fuzz_attacks(*args).to_report()
    del r["elapsed_seconds"]
    print(json.dumps(r, sort_keys=True))
"""


def _reports(calls, fresh):
    if not fresh:
        reports = [fuzz_attacks(*c).to_report() for c in calls]
        for r in reports:
            del r["elapsed_seconds"]
        return reports
    src = str(Path(fuzz.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_REPORTS, json.dumps(calls)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_fuzz_reports_do_not_depend_on_earlier_calls():
    # the name and menu caches live as long as the process: a report must
    # be the same whether earlier calls grew them or not
    calls = [["rpc-flawed", 400, 16, 7], ["otway-rees", 20, 300, 1], ["otway-rees", 200, 64, 5]]
    alone = [r for c in calls for r in _reports([c], fresh=True)]
    assert _reports(calls, fresh=True) == alone
    assert _reports(calls[::-1], fresh=True) == alone[::-1]
    assert _reports(calls, fresh=False) == alone
    text = json.dumps(alone[0], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_DIGEST
    assert alone[2]["histogram"] == PINNED_HISTOGRAM


class _RepeatingSource:
    """Random source that repeats itself: every second fresh draw collides."""

    def draw(self, nbytes):
        return b"\x42" * nbytes


def _check_sound(protocol, result, oracle):
    # broken crypto may cost a correct variant its verdict, never earn it
    # an attack: a decisive failure there is unsound, and so is an
    # assumption failure without a record or a Low key nobody leaked
    state, verdict = result.state, result.verdict
    if protocol != "rpc-flawed":
        assert verdict.kind not in (
            VerdictKind.ASSERTION_FAILURE, VerdictKind.CONTRACT_VIOLATION,
        )
    if verdict.kind is VerdictKind.ASSUMPTION_FAILURE:
        assert state.failures
        assert verdict.detail == state.failures[0].kind.value
    assert weak_secrecy_violations(state.log) == []
    if oracle:
        terms = state.table.by_term
        truth = saturate(terms, state.log)
        for t in terms:
            for lv in (LOW, HIGH):
                assert level(lv, t, state.log) == ((lv, t) in truth)


def test_run_reports_match_pinned_digest():
    # every corpus program plus 200 generated ones per protocol, each run
    # with the default primitives, a 1-byte MAC and a repeating random
    # source: ok, deadlock, assertion- and assumption-failure verdicts,
    # suppressed assertions, events, tables and failure records; every
    # run is also checked for soundness, every tenth against the oracle
    h = hashlib.sha256()
    kinds = set()
    runs = 0
    for seed, protocol in enumerate(("rpc-correct", "rpc-flawed", "otway-rees")):
        rng = random.Random(seed)
        programs = list(CORPUS[protocol])
        programs += [generate_program(rng, protocol, 32) for _ in range(200)]
        for i, program in enumerate(programs):
            for kw in ({}, {"mac_fn": lambda k, m: b"\x00"}, {"rand": _RepeatingSource()}):
                result = run_attack(program, protocol, seed=i, **kw)
                r = result.to_report()
                kinds.add(r["verdict"]["kind"])
                h.update(json.dumps(r, sort_keys=True).encode())
                _check_sound(protocol, result, oracle=runs % 10 == 0)
                runs += 1
    assert runs == 1815
    assert kinds == {"ok", "deadlock", "assertion-failure", "assumption-failure"}
    assert h.hexdigest() == (
        "d7cce2fcad5845570f8015cf5884dab2c258b493c0968f9a416589c3e63fffdb"
    )


def test_interface_is_one_read_only_mapping():
    for protocol in ("rpc-correct", "rpc-flawed", "otway-rees"):
        iface = interface_for(protocol)
        assert interface_for(protocol) is iface
        with pytest.raises(TypeError):
            iface["att_pair"] = iface["att_fst"]
        with pytest.raises(TypeError):
            del iface["att_pair"]
    assert interface_for("rpc-correct") is interface_for("rpc-flawed")
    with pytest.raises(ValueError):
        interface_for("nosuch")


def test_generation_is_deterministic():
    a = generate_program(random.Random(3), "rpc-correct", max_len=12)
    b = generate_program(random.Random(3), "rpc-correct", max_len=12)
    assert a == b


def test_fuzz_is_deterministic():
    a = fuzz_attacks("rpc-flawed", count=120, max_len=14, seed=5)
    b = fuzz_attacks("rpc-flawed", count=120, max_len=14, seed=5)
    assert a.histogram == b.histogram
    assert a.counterexamples == b.counterexamples
    assert a.secrecy_violations == b.secrecy_violations


def test_fuzz_runs_corpus_first():
    r = fuzz_attacks("rpc-correct", count=5, max_len=8, seed=1)
    assert r.corpus_runs == len(CORPUS["rpc-correct"])
    tiny = fuzz_attacks("otway-rees", count=1, max_len=8, seed=1)
    assert tiny.corpus_runs == 1


def test_fuzz_histogram_accounts_for_every_run():
    r = fuzz_attacks("rpc-correct", count=200, max_len=12, seed=2)
    assert sum(r.histogram.values()) == 200
    assert set(r.histogram) <= {k.value for k in VerdictKind}


def test_fuzz_finds_the_flawed_rpc_attack():
    # the corpus splice is a decisive counterexample against the flawed
    # variant, so at least one hit is guaranteed; generation finds more
    r = fuzz_attacks("rpc-flawed", count=300, max_len=16, seed=7)
    assert r.histogram.get("assertion-failure", 0) >= 1
    assert r.counterexamples
    cex = r.counterexamples[0]
    assert {"iteration", "seed", "verdict", "program"} <= set(cex)
    assert cex["verdict"]["kind"] == "assertion-failure"


def test_fuzz_clean_on_correct_rpc_sample():
    r = fuzz_attacks("rpc-correct", count=300, max_len=16, seed=7)
    assert r.histogram.get("assertion-failure", 0) == 0
    assert r.counterexamples == []
    assert r.secrecy_violations == []


def test_fuzz_report_shape():
    r = fuzz_attacks("otway-rees", count=10, max_len=10, seed=0)
    doc = r.to_report()
    assert doc["count"] == 10
    assert doc["protocol"] == "otway-rees"
    assert sum(doc["histogram"].values()) == 10
    assert doc["elapsed_seconds"] >= 0


@pytest.mark.parametrize("count,max_len", [(-5, 16), (10, -3), (-1, -1)])
def test_fuzz_rejects_negative_sizes(count, max_len):
    with pytest.raises(ValueError):
        fuzz_attacks("rpc-flawed", count, max_len)


@pytest.mark.parametrize("count", [0, 5])
def test_fuzz_rejects_unknown_protocol(count):
    # rejected on entry, with run_attack's error, whether or not it draws
    with pytest.raises(ValueError) as want:
        run_attack("", "nope")
    with pytest.raises(ValueError) as got:
        fuzz_attacks("nope", count)
    assert str(got.value) == str(want.value) == "unknown protocol 'nope'"
    # generate_program checks on entry too, before it draws anything
    rng = random.Random(count)
    state = rng.getstate()
    with pytest.raises(ValueError) as got:
        generate_program(rng, "nope", count)
    assert str(got.value) == str(want.value)
    assert rng.getstate() == state


def test_fuzz_accepts_zero_sizes():
    assert fuzz_attacks("rpc-flawed", 0, 16).histogram == {}
    assert sum(fuzz_attacks("otway-rees", 3, 0).histogram.values()) == 3
