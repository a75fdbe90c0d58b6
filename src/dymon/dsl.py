"""Straight-line attack program syntax.

One statement per line; ``#`` starts a comment (outside string literals).
Statement forms:

    let <var> : <type>          type in {string, bytespub, channel, session}
    <var> = "text"              string literals; \\xNN, \\\\ and \\" escapes
    <var> = <fn>(<args>)        call with result
    <fn>(<args>)                call, result (if any) discarded

Validation mirrors the shim's well-formedness items and reports the item
number it found violated:

    1. declared types come from the four-type universe
    2. every statement has one of the forms above
    3. variables are declared exactly once, before any mention
    4. call arguments were assigned by an earlier statement
    5. called functions exist in the interface and argument types match
    6. assignment targets match the assigned type (string literals go to
       string variables, call results to variables of the result type)
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import AttackSyntaxError


class ValueKind(enum.Enum):
    STRING = "string"
    BYTESPUB = "bytespub"
    CHANNEL = "channel"
    SESSION = "session"


_KINDS = {k.value: k for k in ValueKind}

# line numbers ride along for error reporting but do not affect equality,
# so reformatting (which drops comments and blank lines) round-trips


@dataclass(frozen=True)
class Decl:
    var: str
    kind: ValueKind
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AssignString:
    var: str
    value: bytes
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class CallAssign:
    var: str
    fn: str
    args: tuple[str, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple[str, ...]
    line: int = field(default=0, compare=False)


Statement = Decl | AssignString | CallAssign | Call


@dataclass(frozen=True)
class Signature:
    params: tuple[ValueKind, ...]
    result: Optional[ValueKind]


@dataclass(frozen=True)
class AttackProgram:
    statements: tuple[Statement, ...]

    @property
    def commands(self) -> tuple[Statement, ...]:
        return tuple(s for s in self.statements if not isinstance(s, Decl))


# ---------------------------------------------------------------------------
# parsing

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_LET_RE = re.compile(rf"^let\s+({_IDENT})\s*:\s*(\S+)$")
_CALL_RE = re.compile(rf"^({_IDENT})\s*\(\s*(.*?)\s*\)$")
_CALL_ASSIGN_RE = re.compile(rf"^({_IDENT})\s*=\s*({_IDENT})\s*\(\s*(.*?)\s*\)$")
_STR_ASSIGN_RE = re.compile(rf"^({_IDENT})\s*=\s*(\".*\")$")


def _strip_comment(line: str) -> str:
    if '"' not in line:
        # no string literal, so the first # starts the comment
        return line.split("#", 1)[0].strip()
    out = []
    in_str = False
    i = 0
    while i < len(line):
        c = line[i]
        if in_str:
            if c == "\\" and i + 1 < len(line):
                out.append(line[i : i + 2])
                i += 2
                continue
            if c == '"':
                in_str = False
        else:
            if c == "#":
                break
            if c == '"':
                in_str = True
        out.append(c)
        i += 1
    return "".join(out).strip()


def _unquote(lineno: int, text: str) -> bytes:
    # text includes the surrounding quotes
    body = text[1:-1]
    out = bytearray()
    i = 0
    while i < len(body):
        c = body[i]
        if c == '"':
            raise AttackSyntaxError(lineno, 2, "unescaped quote inside string literal")
        if c == "\\":
            if i + 1 >= len(body):
                raise AttackSyntaxError(lineno, 2, "dangling escape")
            nxt = body[i + 1]
            if nxt == "\\":
                out.append(0x5C)
                i += 2
                continue
            if nxt == '"':
                out.append(0x22)
                i += 2
                continue
            if nxt == "x" and i + 4 <= len(body):
                hexpart = body[i + 2 : i + 4]
                if all(h in "0123456789abcdefABCDEF" for h in hexpart):
                    out.append(int(hexpart, 16))
                    i += 4
                    continue
            raise AttackSyntaxError(lineno, 2, f"unknown escape \\{nxt}")
        if ord(c) > 0xFF:
            raise AttackSyntaxError(lineno, 2, f"character {c!r} is not one byte")
        out.append(ord(c))
        i += 1
    return bytes(out)


def _split_args(lineno: int, blob: str) -> tuple[str, ...]:
    if not blob:
        return ()
    parts = [p.strip() for p in blob.split(",")]
    for p in parts:
        if not re.fullmatch(_IDENT, p):
            raise AttackSyntaxError(lineno, 2, f"argument {p!r} is not a variable name")
    return tuple(parts)


def parse_attack(text: str) -> AttackProgram:
    statements: list[Statement] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw)
        if not line:
            continue
        m = _LET_RE.match(line)
        if m:
            var, kind_name = m.groups()
            kind = _KINDS.get(kind_name)
            if kind is None:
                raise AttackSyntaxError(lineno, 1, f"unknown type {kind_name!r}")
            statements.append(Decl(var, kind, lineno))
            continue
        m = _STR_ASSIGN_RE.match(line)
        if m:
            var, lit = m.groups()
            statements.append(AssignString(var, _unquote(lineno, lit), lineno))
            continue
        m = _CALL_ASSIGN_RE.match(line)
        if m:
            var, fn, blob = m.groups()
            statements.append(CallAssign(var, fn, _split_args(lineno, blob), lineno))
            continue
        m = _CALL_RE.match(line)
        if m:
            fn, blob = m.groups()
            statements.append(Call(fn, _split_args(lineno, blob), lineno))
            continue
        raise AttackSyntaxError(lineno, 2, f"unrecognized statement {line!r}")
    return AttackProgram(tuple(statements))


# ---------------------------------------------------------------------------
# validation


def validate_attack(program: AttackProgram, interface: Mapping[str, Signature]):
    declared: dict[str, ValueKind] = {}
    assigned: set[str] = set()
    for st in program.statements:
        line = st.line
        if isinstance(st, Decl):
            if st.var in declared:
                raise AttackSyntaxError(line, 3, f"{st.var!r} declared twice")
            declared[st.var] = st.kind
            continue
        if isinstance(st, AssignString):
            kind = declared.get(st.var)
            if kind is None:
                raise AttackSyntaxError(line, 3, f"{st.var!r} not declared")
            if st.var in assigned:
                raise AttackSyntaxError(line, 3, f"{st.var!r} assigned twice")
            if kind is not ValueKind.STRING:
                raise AttackSyntaxError(
                    line, 6, f"string literal assigned to {kind.value} variable"
                )
            assigned.add(st.var)
            continue
        # calls, with or without a result binding
        fn = st.fn
        sig = interface.get(fn)
        if sig is None:
            raise AttackSyntaxError(line, 5, f"unknown function {fn!r}")
        for arg in st.args:
            if arg not in declared:
                raise AttackSyntaxError(line, 3, f"{arg!r} not declared")
            if arg not in assigned:
                raise AttackSyntaxError(line, 4, f"{arg!r} used before assignment")
        if len(st.args) != len(sig.params):
            raise AttackSyntaxError(
                line, 5, f"{fn} takes {len(sig.params)} arguments, got {len(st.args)}"
            )
        for arg, want in zip(st.args, sig.params):
            got = declared[arg]
            if got is not want:
                raise AttackSyntaxError(
                    line, 5, f"{fn} argument {arg!r} has type {got.value}, needs {want.value}"
                )
        if isinstance(st, CallAssign):
            kind = declared.get(st.var)
            if kind is None:
                raise AttackSyntaxError(line, 3, f"{st.var!r} not declared")
            if st.var in assigned:
                raise AttackSyntaxError(line, 3, f"{st.var!r} assigned twice")
            if sig.result is None:
                raise AttackSyntaxError(line, 6, f"{fn} returns nothing")
            if kind is not sig.result:
                raise AttackSyntaxError(
                    line, 6, f"{fn} returns {sig.result.value}, target is {kind.value}"
                )
            assigned.add(st.var)


# ---------------------------------------------------------------------------
# canonical formatting (parse . format == identity on programs)


def _quote(value: bytes) -> str:
    out = ['"']
    for byte in value:
        c = chr(byte)
        if c == '"':
            out.append('\\"')
        elif c == "\\":
            out.append("\\\\")
        elif 0x20 <= byte < 0x7F:
            out.append(c)
        else:
            out.append(f"\\x{byte:02x}")
    out.append('"')
    return "".join(out)


def format_attack(program: AttackProgram) -> str:
    lines = []
    for st in program.statements:
        if isinstance(st, Decl):
            lines.append(f"let {st.var} : {st.kind.value}")
        elif isinstance(st, AssignString):
            lines.append(f"{st.var} = {_quote(st.value)}")
        elif isinstance(st, CallAssign):
            lines.append(f"{st.var} = {st.fn}({', '.join(st.args)})")
        else:
            lines.append(f"{st.fn}({', '.join(st.args)})")
    return "\n".join(lines) + "\n"
