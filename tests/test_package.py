"""Package-wide properties: the public names and the source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import dymon

_PUBLIC = {
    "AssumptionFailure", "AssumptionKind", "AttackProgram", "AttackSyntaxError",
    "AttackerGuess", "AuthFailureError", "Bad", "CORPUS", "Channel",
    "ContractViolationError", "Convention", "CryptoState", "DymonError", "EXIT_CODES",
    "EncodingError", "Event", "FAILED", "FuzzResult", "HONEST_DRIVERS", "Hmac",
    "HmacKey", "Initiator", "Level", "Literal", "Log", "MalformedPairError", "New",
    "OR_HONEST", "PROTOCOLS", "Pair", "PresharedKey", "PrincipalKey", "RPC_HONEST",
    "RPC_SPLICE", "RandomSource", "Request", "Responder",
    "Response", "RunResult", "Runtime", "SEnc", "SEncKey", "STANDARD", "SessionKey",
    "Signature", "TAG_REQUEST", "TAG_RESPONSE", "TableAuditError", "Term",
    "TermSyntaxError", "Usage", "ValueKind", "Verdict", "VerdictKind", "can_hmac",
    "can_senc", "explain", "format_attack", "fuzz_attacks", "generate_program",
    "hmac_sha1", "initial_state", "interface_for", "level",
    "pair_decode", "pair_encode", "parse_attack", "parse_event", "parse_term",
    "render_event", "render_term", "render_usage", "run_attack", "sdec", "senc",
    "validate_attack", "weak_secrecy_violations",
}


def test_exported_names():
    assert set(dymon.__all__) == _PUBLIC
    assert len(dymon.__all__) == len(_PUBLIC)
    assert all(hasattr(dymon, name) for name in dymon.__all__)


def test_no_bare_assert_in_the_package():
    # invariants raise a DymonError; an assert vanishes under python -O
    src = Path(dymon.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


_NEWLY_LOADED = """
import sys
before = set(sys.modules)
import dymon, dymon.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    # a cold start (dymon run, dymon query, a counterexample replay) pays for
    # every module the import loads; the records need neither of these
    src = str(Path(dymon.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _NEWLY_LOADED],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert "dymon.cli" in out
    assert not {"dataclasses", "inspect"} & set(out), out
