"""Command line behavior: exit codes, JSON stability, log queries."""

import json
import re
import shlex
from pathlib import Path

import pytest

from dymon import (
    OR_HONEST,
    RPC_HONEST,
    RPC_SPLICE,
    Level,
    level,
    parse_term,
    render_term,
    run_attack,
)
from dymon import cli
from dymon.cli import _load_log, main

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
    ("rpc-correct", RPC_HONEST),
    ("rpc-flawed", RPC_SPLICE),
    ("otway-rees", OR_HONEST),
], ids=["rpc-correct", "rpc-flawed", "otway-rees"])
def test_dump_reads_back_to_the_same_levels(tmp_path, protocol, script):
    state = run_attack(script, protocol, seed=3).state
    dump = tmp_path / "log.json"
    dump.write_text(json.dumps(state.dump()))
    loaded = _load_log(str(dump))
    for t in state.table.by_term:
        for lv in (Level.LOW, Level.HIGH):
            assert level(lv, parse_term(render_term(t)), loaded) == level(lv, t, state.log)


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
    for doc in ({"events": [5]}, {"events": "Bad(Literal(0x41))"}, {"events": None}):
        dump = tmp_path / "log.json"
        dump.write_text(json.dumps(doc))
        code, out, err = run_cli(
            capsys, "query", str(dump), "--level", "low", "--term", "Literal(0x41)"
        )
        assert code == 2 and out == ""
        assert err.startswith("query: ")


@pytest.mark.parametrize("flag", ["false", None, 0])
def test_query_dump_convention_must_be_a_boolean(flag, tmp_path, capsys):
    dump = tmp_path / "log.json"
    dump.write_text(json.dumps({"events": [], "response_binds_request": flag}))
    code, out, err = run_cli(
        capsys, "query", str(dump), "--level", "low", "--term", "Literal(0x41)"
    )
    _assert_input_error(code, out, err, "query")


def test_query_dump_convention_defaults_to_binding(tmp_path):
    for doc, binds in (
        ({"events": []}, True),
        ({"events": [], "response_binds_request": False}, False),
    ):
        dump = tmp_path / "log.json"
        dump.write_text(json.dumps(doc))
        assert _load_log(str(dump)).convention.response_binds_request is binds


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


def test_run_script_that_is_not_utf8_exits_two(tmp_path, capsys):
    script = tmp_path / "latin1.dsl"
    script.write_bytes(b'let a : string\na = "\xe9"\n')
    code, out, err = run_cli(capsys, "run", "rpc-correct", str(script))
    _assert_input_error(code, out, err, "run")


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
