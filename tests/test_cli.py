"""Command line behavior: exit codes, JSON stability, log queries."""

import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from dymon import (
    CORPUS,
    PROTOCOLS,
    Level,
    RunResult,
    VerdictKind,
    format_attack,
    interface_for,
    level,
    parse_term,
    render_term,
    run_attack,
)
from dymon import cli
from dymon.cli import _load_log, main
from dymon.dsl import program_of
from mutants import mutant
from oracles import PRIMITIVES, hmac_chain_program

ROOT = Path(__file__).resolve().parent.parent
SPLICE = str(ROOT / "attacks" / "rpcattack_1.dsl")
HONEST = str(ROOT / "attacks" / "rpcattack_0.dsl")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _readme_output(command):
    """The lines the README shows under ``$ command``, up to the fence."""
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index(f"$ {command}") + 1
    return lines[start:lines.index("```", start)]


@pytest.mark.parametrize("command", [
    "dymon run rpc-flawed attacks/rpcattack_1.dsl",
    "dymon fuzz rpc-flawed --count 200 --seed 7",
])
def test_readme_examples_print_what_the_readme_shows(capsys, monkeypatch, command):
    monkeypatch.chdir(ROOT)
    _, out, _ = run_cli(capsys, *shlex.split(command)[1:])

    def masked(lines):  # the elapsed time is the one varying figure
        return [re.sub(r" in [0-9.]+s$", " in <elapsed>", line) for line in lines]

    assert masked(out.splitlines()) == masked(_readme_output(command))


def test_readme_library_block_runs(monkeypatch):
    # the README's one python block runs as written, from the repo root
    monkeypatch.chdir(ROOT)
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```python\n(.*?)^```$", text, re.S | re.M)
    names = {}
    exec(compile(block, "README.md", "exec"), names)
    assert names["r"].verdict.kind is VerdictKind.ASSERTION_FAILURE
    assert names["f"].counterexamples == []


def test_run_honest_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "run", "rpc-correct", "--honest")
    assert code == 0
    assert "verdict: ok" in out


def test_run_splice_against_flawed_exits_ten(capsys):
    code, out, _ = run_cli(capsys, "run", "rpc-flawed", SPLICE, "--seed", "3")
    assert code == 10
    assert "assertion-failure" in out
    assert "rpc_client" in out


def test_run_splice_against_correct_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "run", "rpc-correct", SPLICE, "--seed", "3")
    assert code == 0


def test_run_json_is_byte_stable(capsys):
    code1, out1, _ = run_cli(capsys, "run", "otway-rees", "--honest", "--seed", "5", "--json")
    code2, out2, _ = run_cli(capsys, "run", "otway-rees", "--honest", "--seed", "5", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"]["kind"] == "ok"
    assert doc["seed"] == 5


def test_run_assumption_failure_names_both_terms(capsys, monkeypatch):
    # a 1-byte MAC makes the second MAC collide with the first
    monkeypatch.setattr(
        cli, "run_attack",
        lambda *a, **kw: run_attack(*a, **kw, mac_fn=lambda k, m: b"\x00"),
    )
    code, out, _ = run_cli(capsys, "run", "rpc-correct", SPLICE, "--seed", "3")
    assert code == 11
    line = next(ln for ln in out.splitlines() if ln.startswith("assumption failure: collision"))
    existing, attempted = re.fullmatch(
        r"assumption failure: collision on 0x00; existing (\S+); attempted (\S+)", line
    ).groups()
    assert existing.startswith("Hmac(") and attempted.startswith("Hmac(")
    assert parse_term(existing) != parse_term(attempted)


def _summary_of(report):
    """The plain `run` summary, rendered from the run's report."""
    v = report["verdict"]
    lines = [f"verdict: {v['kind']} (exit {report['exit_code']})"]
    if v["location"]:
        lines.append(f"  at: {v['location']}")
    if v["detail"]:
        lines.append(f"  detail: {v['detail']}")
    lines.append(f"events logged: {len(report['events'])}")
    lines.append(
        f"assertions checked: {report['assertions_checked']}"
        f" (suppressed failures: {report['suppressed_assertion_failures']})"
    )
    for f in report["assumption_failures"]:
        terms = "".join(f"; {w} {f[w]}" for w in ("existing", "attempted") if f[w] is not None)
        line = f"assumption failure: {f['kind']} on 0x{f['bytes']} {f['note']}".rstrip()
        lines.append(line + terms)
    lines += [f"soundness note: {note}" for note in report["soundness_notes"]]
    return "".join(line + "\n" for line in lines)


def test_plain_run_prints_what_the_report_says_without_building_it(tmp_path, capsys, monkeypatch):
    # a plain run reads its summary off the run, not off the report, which
    # renders every event and table term; the summary must still say what a
    # rendering of the report says, for every kind of line it can print
    to_report = RunResult.to_report

    def unwanted(self):
        raise AssertionError("a plain run built the report")

    monkeypatch.setattr(RunResult, "to_report", unwanted)
    script = tmp_path / "program.dsl"
    printed = set()
    for protocol in PROTOCOLS:
        iface = interface_for(protocol)
        programs = list(CORPUS[protocol])
        programs += [format_attack(program_of(mutant(protocol, i, 24), iface)) for i in range(12)]
        for i, program in enumerate(programs):
            script.write_text(program)
            for kw in PRIMITIVES:
                runs = []
                monkeypatch.setattr(
                    cli, "run_attack",
                    lambda *a, **k: runs.append(run_attack(*a, **k, **kw)) or runs[-1],
                )
                code, out, _ = run_cli(capsys, "run", protocol, str(script), "--seed", str(i))
                (result,) = runs
                assert out == _summary_of(to_report(result))
                assert code == result.verdict.exit_code
                printed |= {line.split(":")[0] for line in out.splitlines()}
    assert printed >= {"  at", "  detail", "assumption failure", "soundness note"}


def test_run_needs_script_or_honest_flag(capsys):
    code, _, err = run_cli(capsys, "run", "rpc-correct")
    assert code == 2 and "give exactly one" in err
    code, _, err = run_cli(capsys, "run", "rpc-correct", SPLICE, "--honest")
    assert code == 2


def test_run_missing_file_exits_two(capsys):
    code, _, err = run_cli(capsys, "run", "rpc-correct", "/nope/missing.dsl")
    assert code == 2
    assert "cannot read" in err


def test_run_bad_script_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.dsl"
    bad.write_text("let x : gremlin\n")
    code, _, err = run_cli(capsys, "run", "rpc-correct", str(bad))
    assert code == 2
    assert "grammar item 1" in err


def test_unknown_protocol_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "telnet", "--honest"])
    assert info.value.code == 2


def test_dump_and_query_round_trip(tmp_path, capsys):
    dump = tmp_path / "log.json"
    code, _, _ = run_cli(
        capsys, "run", "otway-rees", "--honest", "--seed", "5", "--dump", str(dump)
    )
    assert code == 0
    doc = json.loads(dump.read_text())

    # the session key literal is High but not Low in the final log
    key_event = next(e for e in doc["events"] if "SessionKey" in e)
    key_term = key_event[len("New("):].split(",")[0]
    code, out, _ = run_cli(capsys, "query", str(dump), "--level", "high", "--term", key_term)
    assert code == 0 and "= true" in out
    code, out, _ = run_cli(capsys, "query", str(dump), "--level", "low", "--term", key_term)
    assert code == 1 and "= false" in out


@pytest.mark.parametrize("protocol, script", [
    ("rpc-correct", HONEST),
    ("rpc-flawed", SPLICE),
    ("otway-rees", str(ROOT / "attacks" / "or_honest.dsl")),
], ids=["rpc-correct", "rpc-flawed", "otway-rees"])
def test_dump_reads_back_to_the_same_levels(protocol, script, tmp_path, capsys):
    # `run --dump` writes the `--json` report, and `query` reads its log
    # under the report's protocol's convention, as the run judged it
    dump = tmp_path / "report.json"
    _, out, _ = run_cli(
        capsys, "run", protocol, script, "--seed", "3", "--dump", str(dump), "--json"
    )
    assert dump.read_bytes() == out.encode()
    state = run_attack(Path(script).read_text(), protocol, seed=3).state
    loaded = _load_log(str(dump))
    table = json.loads(out)["table"]
    terms = state.table.values()
    assert [entry["term"] for entry in table] == list(map(render_term, terms))
    for entry in table:
        t = parse_term(entry["term"])
        for lv in (Level.LOW, Level.HIGH):
            assert level(lv, t, loaded) == level(lv, t, state.log), (lv, entry["term"])


def test_dump_of_a_deep_term_parses_back(tmp_path, capsys):
    # renderings are compared, not terms: comparing two distinct trees this
    # deep can exceed the recursion limit
    depth = 600
    program = tmp_path / "deep.dsl"
    program.write_text(hmac_chain_program(depth))
    dump = tmp_path / "log.json"
    code, _, _ = run_cli(capsys, "run", "rpc-correct", str(program), "--dump", str(dump))
    assert code == 0
    doc = json.loads(dump.read_text())
    rendered = [entry["term"] for entry in doc["table"]]
    assert max(text.count("Hmac(") for text in rendered) == depth
    for text in rendered:
        assert render_term(parse_term(text)) == text
    code, out, _ = run_cli(
        capsys, "query", str(dump), "--level", "low", "--term", "Literal(0x6b)"
    )
    assert code == 0 and "= true" in out
    deepest = max(rendered, key=len)
    code, out, _ = run_cli(capsys, "query", str(dump), "--level", "low", "--term", deepest)
    assert code == 0 and out.endswith(") = true\n")
    code, out, _ = run_cli(
        capsys, "query", str(dump), "--level", "low", "--term", deepest, "--explain"
    )
    assert code == 0 and out.count("\n") > 2 * depth


def _chain_query(tmp_path, depth, *flags):
    logfile = tmp_path / "events.txt"
    logfile.write_text("New(Literal(0x6b),AttackerGuess)\n")
    term = "Hmac(Literal(0x6b)," * depth + "Literal(0x6b)" + ")" * depth
    return main(["query", str(logfile), "--level", "low", "--term", term, *flags])


def test_query_judges_a_term_twice_the_recursion_limit_deep(tmp_path, capsys):
    assert _chain_query(tmp_path, 2 * sys.getrecursionlimit()) == 0
    assert capsys.readouterr().out.endswith(") = true\n")


def test_query_explain_of_a_term_too_deep_exits_two(tmp_path, capsys, monkeypatch):
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "explain", too_deep)
    code = _chain_query(tmp_path, 3, "--explain")
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("query: ")


def test_run_judging_a_term_deeper_than_the_recursion_limit_exits_zero(tmp_path, capsys):
    # the new word's New event starts a log with an empty memo, so the last
    # MAC judges the whole chain again, deeper than level can recurse
    depth = sys.getrecursionlimit()
    program = tmp_path / "deep.dsl"
    program.write_text(
        hmac_chain_program(depth)
        + 'let w : string\nw = "w"\nlet y : bytespub\ny = att_toBytespub(w)\n'
        + f"let z : bytespub\nz = att_hmacsha1(x0, x{depth})\n"
    )
    code, out, err = run_cli(capsys, "run", "rpc-correct", str(program))
    assert code == 0 and err == ""
    assert out.startswith("verdict: ok (exit 0)\n")


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="tuple comparison counts against CPython's fixed C recursion limit,"
    " which a query over a term that deep takes seconds to reach",
)
def test_query_comparing_trees_too_deep_exits_two(tmp_path, capsys):
    # the MAC's payload is sayable only if the Request event holds it: the
    # lookup compares the query's copy with the logged one, tuple by tuple
    depth = 3 * sys.getrecursionlimit() // 2
    chain = "Pair(" * depth + "Literal(0x41)" + ",Literal(0x41))" * depth
    names = ["Literal(0x41)", "Literal(0x42)", "Literal(0x31)"]
    events = [f"New({n},AttackerGuess)" for n in names]
    events.append("New(Literal(0x6b),HmacKey(PresharedKey(Literal(0x41),Literal(0x42))))")
    events.append(f"Request(Literal(0x41),Literal(0x42),{chain})")
    logfile = tmp_path / "events.txt"
    logfile.write_text("\n".join(events) + "\n")
    term = f"Hmac(Literal(0x6b),Pair(Literal(0x31),{chain}))"
    code, out, err = run_cli(capsys, "query", str(logfile), "--level", "low", "--term", term)
    assert code == 2 and out == ""
    assert err.startswith("query: terms too deep to compare") and err.count("\n") == 1


@pytest.mark.skipif(
    sys.version_info >= (3, 12),
    reason="tuple comparison counts against CPython's fixed C recursion limit",
)
def test_query_over_a_log_logging_one_deep_event_twice_exits_two(tmp_path, capsys):
    # the second line's event equals the first, and the log's lookup
    # compares the two trees tuple by tuple
    depth = 3 * sys.getrecursionlimit() // 2
    chain = "Pair(" * depth + "Literal(0x41)" + ",Literal(0x41))" * depth
    logfile = tmp_path / "events.txt"
    logfile.write_text(f"Request(Literal(0x41),Literal(0x42),{chain})\n" * 2)
    code, out, err = run_cli(
        capsys, "query", str(logfile), "--level", "low", "--term", "Literal(0x41)",
    )
    assert code == 2 and out == ""
    assert err.startswith("query: terms too deep to compare") and err.count("\n") == 1


def test_query_over_deeply_nested_json_is_a_malformed_log(tmp_path, capsys):
    logfile = tmp_path / "nested.json"
    logfile.write_text('{"events": ' + "[" * 100_000)
    code, out, err = run_cli(
        capsys, "query", str(logfile), "--level", "low", "--term", "Literal(0x41)",
    )
    assert code == 2 and out == ""
    assert err.startswith("query: ") and err.count("\n") == 1
    assert "terms too deep to compare" not in err


def test_query_plain_event_lines_and_explain(tmp_path, capsys):
    logfile = tmp_path / "events.txt"
    logfile.write_text(
        "New(Literal(0x6b),HmacKey(PresharedKey(Literal(0x41),Literal(0x42))))\n"
        "Bad(Literal(0x41))\n"
    )
    code, out, _ = run_cli(
        capsys, "query", str(logfile), "--level", "low",
        "--term", "Literal(0x6b)", "--explain",
    )
    assert code == 0
    assert "owner compromised: true" in out


def test_query_bad_term_exits_two(tmp_path, capsys):
    logfile = tmp_path / "events.txt"
    logfile.write_text("Bad(Literal(0x41))\n")
    code, _, err = run_cli(capsys, "query", str(logfile), "--level", "low", "--term", "wat")
    assert code == 2
    assert "query:" in err


def test_fuzz_json_and_exit_codes(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "rpc-correct", "--count", "40", "--seed", "3", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert sum(doc["histogram"].values()) == 40

    outdir = tmp_path / "cex"
    code, out, _ = run_cli(
        capsys, "fuzz", "rpc-flawed", "--count", "10", "--seed", "3",
        "--out-dir", str(outdir),
    )
    assert code == 10
    saved = list(outdir.glob("counterexample_*.dsl"))
    assert saved
    # saved programs parse back
    from dymon import parse_attack

    parse_attack(saved[0].read_text())


def test_saved_counterexamples_replay_from_their_first_line(tmp_path, capsys, monkeypatch):
    # a saved program's verdict can depend on its run seed, so each file
    # starts with the one command that replays it from the saving directory
    code, out, _ = run_cli(
        capsys, "fuzz", "rpc-flawed", "--count", "20", "--seed", "7", "--json",
        "--out-dir", str(tmp_path),
    )
    assert code == 10
    saved = sorted(tmp_path.glob("counterexample_*.dsl"))
    assert len(saved) == len(json.loads(out)["counterexamples"]) > 0
    monkeypatch.chdir(tmp_path)
    for cex in json.loads(out)["counterexamples"]:
        name = f"counterexample_{cex['iteration']}.dsl"
        first = Path(name).read_text().splitlines()[0]
        assert first == f"# dymon run rpc-flawed {name} --seed {cex['seed']}"
        assert run_cli(capsys, *shlex.split(first)[2:])[0] == 10, first


def test_fuzz_human_output(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "otway-rees", "--count", "15", "--seed", "1")
    assert code == 0
    assert "ran 15 programs against otway-rees" in out
    assert "counterexamples: 0" in out


@pytest.mark.parametrize("flag", ["--count", "--max-len"])
def test_fuzz_rejects_negative_sizes(flag, capsys):
    with pytest.raises(SystemExit) as info:
        main(["fuzz", "rpc-flawed", flag, "-5"])
    assert info.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_query_malformed_dump_exits_two(tmp_path, capsys):
    for doc in (
        {"events": [5]}, {"events": "Bad(Literal(0x41))"}, {"events": None}, {"x": 1},
    ):
        dump = tmp_path / "log.json"
        dump.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "query", str(dump), "--level", "low", "--term", "Literal(0x41)"
        )
        assert code == 2 and out == ""
        assert err.startswith("query: ")
    # the last document has no events at all
    assert err == "query: log JSON has no 'events' list\n"


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_query_json_log_takes_the_convention_of_its_protocol(protocol, tmp_path, capsys):
    # a JSON log that names no protocol, such as the dump that `run --dump`
    # wrote before it wrote the report, is not judged under a guessed
    # convention, not even when it carries the run's own convention flag
    binds = protocol != "rpc-flawed"
    log = tmp_path / "log.json"
    for doc in ({"events": []}, {"events": [], "response_binds_request": binds, "table": []}):
        log.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "query", str(log), "--level", "low", "--term", "Literal(0x41)"
        )
        _assert_input_error(code, out, err, "query")
        # the one line names the missing key and says how to mend the log
        assert err.startswith("query: log JSON names no protocol;")
        assert "`dymon run --dump`" in err
    log.write_text(json.dumps({"events": [], "protocol": protocol}))
    assert _load_log(str(log)).convention.response_binds_request is binds


def test_query_dump_convention_defaults_to_binding(tmp_path):
    # only a plain-text event log, which has nowhere to name a protocol, is
    # read under the binding convention; a JSON log takes its protocol's
    for text in ("New(Literal(0x6b),AttackerGuess)\n", ""):
        plain = tmp_path / "events.txt"
        plain.write_text(text)
        assert _load_log(str(plain)).convention.response_binds_request is True
    log = tmp_path / "log.json"
    log.write_text(json.dumps({"events": [], "protocol": "rpc-flawed"}))
    assert _load_log(str(log)).convention.response_binds_request is False


@pytest.mark.parametrize("protocol, script", [
    ("rpc-correct", HONEST),
    ("rpc-flawed", SPLICE),
    ("otway-rees", str(ROOT / "attacks" / "or_honest.dsl")),
], ids=["rpc-correct", "rpc-flawed", "otway-rees"])
def test_query_judges_a_report_like_the_dump_of_its_run(protocol, script, tmp_path, capsys):
    # the report a `run --json` prints equals the file a plain-text
    # `run --dump` writes, and `query` answers each table term on it with
    # the level the run's own log gives
    report, dump = tmp_path / "report.json", tmp_path / "dump.json"
    _, out, _ = run_cli(capsys, "run", protocol, script, "--json")
    report.write_text(out)
    _, text, _ = run_cli(capsys, "run", protocol, script, "--dump", str(dump))
    assert "verdict: " in text
    assert dump.read_text() == out
    log = run_attack(Path(script).read_text(), protocol).state.log
    for entry in json.loads(out)["table"]:
        t = parse_term(entry["term"])
        for lv in (Level.LOW, Level.HIGH):
            code, answer, _ = run_cli(
                capsys, "query", str(report), "--level", lv.value, "--term", entry["term"]
            )
            holds = level(lv, t, log)
            assert code == (0 if holds else 1), (lv, entry["term"])
            assert answer.endswith(f"= {str(holds).lower()}\n")


@pytest.mark.parametrize("protocol", ["telnet", 5, ["rpc-flawed"], None], ids=repr)
def test_query_report_naming_an_unknown_protocol_exits_two(protocol, tmp_path, capsys):
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"events": [], "protocol": protocol}))
    code, out, err = run_cli(
        capsys, "query", str(report), "--level", "low", "--term", "Literal(0x41)"
    )
    _assert_input_error(code, out, err, "query")
    assert err.startswith("query: unknown protocol ")


def _assert_input_error(code, out, err, command):
    assert code == 2
    assert err.startswith(f"{command}: ") and err.count("\n") == 1
    assert "Traceback" not in out + err


def test_run_string_literal_beyond_one_byte_exits_two(tmp_path, capsys):
    script = tmp_path / "euro.dsl"
    script.write_text('let a : string\na = "€"\n', encoding="utf-8")
    code, out, err = run_cli(capsys, "run", "rpc-correct", str(script))
    _assert_input_error(code, out, err, "run")
    assert "line 2" in err


def test_run_script_with_a_byte_order_mark_runs(tmp_path, capsys):
    script = tmp_path / "bom.dsl"
    script.write_bytes(b"\xef\xbb\xbf" + Path(HONEST).read_bytes())
    code, out, _ = run_cli(capsys, "run", "rpc-correct", str(script))
    assert code == 0 and "verdict: ok" in out


def test_run_script_that_is_not_utf8_exits_two(tmp_path, capsys):
    script = tmp_path / "latin1.dsl"
    script.write_bytes(b'let a : string\na = "\xe9"\n')
    code, out, err = run_cli(capsys, "run", "rpc-correct", str(script))
    _assert_input_error(code, out, err, "run")


def test_query_log_with_a_byte_order_mark_loads(tmp_path, capsys):
    plain = tmp_path / "bom.txt"
    plain.write_bytes(b"\xef\xbb\xbfNew(Literal(0x6b),AttackerGuess)\n")
    dump = tmp_path / "bom.json"
    dump.write_bytes(b"\xef\xbb\xbf" + json.dumps(
        {"events": ["New(Literal(0x6b),AttackerGuess)"], "protocol": "rpc-flawed"}
    ).encode())
    for logfile in (plain, dump):
        code, out, _ = run_cli(
            capsys, "query", str(logfile), "--level", "low", "--term", "Literal(0x6b)"
        )
        assert code == 0 and out == "level(low, Literal(0x6b)) = true\n"
    assert _load_log(str(dump)).convention.response_binds_request is False


def test_query_log_that_is_not_utf8_exits_two(tmp_path, capsys):
    logfile = tmp_path / "latin1.txt"
    logfile.write_bytes(b"New(Literal(0x6b),AttackerGuess)\n\xe9\n")
    code, out, err = run_cli(
        capsys, "query", str(logfile), "--level", "low", "--term", "Literal(0x6b)"
    )
    _assert_input_error(code, out, err, "query")


def test_run_dump_into_missing_directory_exits_two(tmp_path, capsys):
    dump = tmp_path / "missing" / "d.json"
    code, out, err = run_cli(capsys, "run", "rpc-correct", "--honest", "--dump", str(dump))
    _assert_input_error(code, out, err, "run")
    assert not dump.exists()


def test_fuzz_out_dir_that_is_a_file_exits_two(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("")
    code, out, err = run_cli(
        capsys, "fuzz", "rpc-flawed", "--count", "10", "--seed", "3",
        "--out-dir", str(target),
    )
    _assert_input_error(code, out, err, "fuzz")
