r"""Straight-line attack program syntax.

One statement per line, in one of three forms:

    let <var> : <type>          type in {string, bytespub, channel, session}
    <var> = "text"              string literal
    [<var> =] <fn>(<args>)      call: one `Call`, whose `var` is None when
                                the result (if any) is discarded

Roles run only inside the calls that wake them (att_run_*,
att_channel_write), never between two statements.  A type ends at
whitespace, `#` or `"`.  A `#` outside a string literal starts a comment
on any line.  In a string literal the escapes are `\xNN`, `\\` and `\"`,
and each character up to U+00FF is one byte; a character beyond it is a
syntax error.

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

    # members are singletons compared by identity; Enum's own __hash__ is a
    # Python-level call, and the generator hashes a kind per pool lookup
    __hash__ = object.__hash__


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
class Call:
    fn: str
    args: tuple[str, ...]
    var: Optional[str] = None
    line: int = field(default=0, compare=False)


Statement = Decl | AssignString | Call


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
# parsing: one anchored pattern per statement form, each ending in an
# optional comment; a literal is a token, so a `#` inside it is text

_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_TAIL = r"\s*(?:#.*)?$"
_TYPE = r'[^\s#"]+'
_LET = re.compile(rf"\s*let\s+({_IDENT})\s*:\s*({_TYPE}){_TAIL}")
_STRING = re.compile(rf'\s*({_IDENT})\s*=\s*"((?:[^"\\]|\\.)*)"{_TAIL}')
_ARGS = rf"(?:{_IDENT}(?:\s*,\s*{_IDENT})*)?"
_CALL = re.compile(rf"\s*(?:({_IDENT})\s*=\s*)?({_IDENT})\s*\(\s*({_ARGS})\s*\){_TAIL}")
_BLANK = re.compile(_TAIL)
_NAME = re.compile(_IDENT)

# escape -> the character it stands for; any byte may also be written \xNN
_ESCAPES = {"\\": "\\", '"': '"'}
_ESCAPE = re.compile(r"\\(x[0-9a-fA-F]{2}|.?)")
# byte -> its spelling in a literal: printable ASCII stands for itself
_QUOTED = {b: f"\\x{b:02x}" for b in range(256) if not 0x20 <= b < 0x7F}
_QUOTED.update({ord(c): "\\" + e for e, c in _ESCAPES.items()})


def _unescape(lineno: int, code: str) -> str:
    if len(code) == 3:
        return chr(int(code[1:], 16))
    if code not in _ESCAPES:
        raise AttackSyntaxError(lineno, 2, f"unknown escape \\{code}")
    return _ESCAPES[code]


def _unquote(lineno: int, body: str) -> bytes:
    text = _ESCAPE.sub(lambda m: _unescape(lineno, m[1]), body)
    try:
        return text.encode("latin-1")
    except UnicodeEncodeError as exc:
        c = exc.object[exc.start]
        raise AttackSyntaxError(lineno, 2, f"character {c!r} is not one byte") from None


def _quote(value: bytes) -> str:
    return '"' + value.decode("latin-1").translate(_QUOTED) + '"'


def parse_attack(text: str) -> AttackProgram:
    statements: list[Statement] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if m := _CALL.match(line):
            var, fn, args = m.groups()
            statements.append(Call(fn, tuple(_NAME.findall(args)), var, lineno))
        elif m := _LET.match(line):
            var, kind_name = m.groups()
            kind = _KINDS.get(kind_name)
            if kind is None:
                raise AttackSyntaxError(lineno, 1, f"unknown type {kind_name!r}")
            statements.append(Decl(var, kind, lineno))
        elif m := _STRING.match(line):
            statements.append(AssignString(m[1], _unquote(lineno, m[2]), lineno))
        elif not _BLANK.match(line):
            raise AttackSyntaxError(lineno, 2, f"unrecognized statement {line.strip()!r}")
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
            source, result = "string literal", ValueKind.STRING
        else:
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
            if st.var is None:
                continue
            source, result = fn, sig.result
        # the assignment target, for string literals and call results alike
        kind = declared.get(st.var)
        if kind is None:
            raise AttackSyntaxError(line, 3, f"{st.var!r} not declared")
        if st.var in assigned:
            raise AttackSyntaxError(line, 3, f"{st.var!r} assigned twice")
        if result is None:
            raise AttackSyntaxError(line, 6, f"{source} returns nothing")
        if kind is not result:
            raise AttackSyntaxError(
                line, 6, f"{source} gives {result.value}, target is {kind.value}"
            )
        assigned.add(st.var)


# ---------------------------------------------------------------------------
# canonical formatting (parse . format == identity on programs)


def format_attack(program: AttackProgram) -> str:
    lines = []
    for st in program.statements:
        if isinstance(st, Decl):
            lines.append(f"let {st.var} : {st.kind.value}")
        elif isinstance(st, AssignString):
            lines.append(f"{st.var} = {_quote(st.value)}")
        else:
            call = f"{st.fn}({', '.join(st.args)})"
            lines.append(call if st.var is None else f"{st.var} = {call}")
    return "\n".join(lines) + "\n"
