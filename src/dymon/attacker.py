"""Attacker interface and attack-program interpreter.

The interface is the full Dolev-Yao power the network attacker gets:
construct and split public data, MAC with public (or compromised) keys,
read and write every channel, start role instances, and compromise
principals.

One call rule decides what every attacker call gives back.  The result is
the failure value FAILED, which poisons every call that takes it, when an
argument is FAILED, when the call is refused (a malformed destruct, an
empty string, a setup over unregistered principals, ...), or when the call
records an assumption failure.  Otherwise a bytespub result must be
registered and Low: every bytespub the attacker holds is public, and one
that is not is a TableAuditError, a fault in dymon itself.

The interpreter runs steps, the compact form of a program that dsl
defines.  It applies the call rule to one step at a time and does nothing
else.  It schedules no role: the runtime runs every role that starting a
role (att_run_*) or delivering a message (att_channel_write) wakes before
the call returns, so no role is runnable between two steps.  It takes
well-typed steps from any iterable and takes none after the run has
ended, so the fuzzer's generator draws each step only when it is about to
run.  A program from outside goes through dsl's one pipeline: run_attack
parses it, and validate_attack checks it and returns the steps to run.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from .backend import RandomSource
from .errors import ContractViolationError, MalformedPairError, TableAuditError
from .runtime import Runtime, Verdict, _StopRun
from .state import CryptoState, initial_state
from .terms import STANDARD, Convention, render_event
from .dsl import AttackProgram, Signature, Step, ValueKind, parse_attack, validate_attack
from . import protocols

PROTOCOLS = ("rpc-correct", "rpc-flawed", "otway-rees")


class _Failed:
    """Failure value: poisons everything computed from it."""

    def __repr__(self):
        return "<failed>"


FAILED = _Failed()

_B = ValueKind.BYTESPUB
_S = ValueKind.STRING
_C = ValueKind.CHANNEL
_SES = ValueKind.SESSION


def _as_bytespub(rt: Runtime, data: bytes) -> bytes:
    # every bytespub the attacker holds is registered and public; this is
    # an internal invariant of the interface, not a caller obligation
    if rt.cs.public_term(data) is None:
        raise TableAuditError("attacker holds a non-public bytespub")
    return data


# An entry is (signature, impl); impl(rt, *args) returns the call's result,
# or None when the call is refused, and the interpreter applies the call
# rule.  Wrappers are looked up on rt.cs at call time, never bound here, so
# whatever wraps CryptoState's methods sees every call.


def _part(index: int):
    """att_fst / att_snd: one half of a pair; malformed framing is a refusal."""

    def impl(rt: Runtime, x: bytes):
        try:
            return rt.cs.w_destruct(x)[index]
        except MalformedPairError:
            return None

    return impl


def _start(name: str, role):
    """att_run_*: start a role instance on a session."""

    def impl(rt: Runtime, ses, *args):
        rt.spawn(name, role(rt, ses, *args))

    return impl


# the Dolev-Yao core both protocol interfaces start with
_SHARED_INTERFACE = {
    "att_toBytespub": (Signature((_S,), _B), lambda rt, s: rt.cs.w_to_string(s) if s else None),
    "att_pair": (Signature((_B, _B), _B), lambda rt, x, y: rt.cs.w_pair(x, y)),
    "att_fst": (Signature((_B,), _B), _part(0)),
    "att_snd": (Signature((_B,), _B), _part(1)),
    "att_hmacsha1": (Signature((_B, _B), _B), lambda rt, k, m: rt.cs.w_hmacsha1(k, m)),
    "att_hmacsha1Verify": (
        Signature((_B, _B, _B), None), lambda rt, k, m, mac: rt.cs.w_hmacsha1_verify(k, m, mac),
    ),
    "att_channel_write": (Signature((_C, _B), None), lambda rt, ch, x: rt.att_write(ch, x)),
    "att_channel_read": (Signature((_C,), _B), lambda rt, ch: rt.att_read(ch)),
}


# -- RPC interface ------------------------------------------------------------

_RPC_INTERFACE = {
    **_SHARED_INTERFACE,
    "att_setup": (Signature((_B, _B), _SES), protocols.setup_rpc),
    "att_run_client": (Signature((_SES, _B), None), _start("rpc_client", protocols.rpc_client)),
    "att_run_server": (Signature((_SES,), None), _start("rpc_server", protocols.rpc_server)),
    "att_compromise_client": (
        Signature((_SES,), _B), lambda rt, s: protocols.compromise_rpc(rt, s, "client"),
    ),
    "att_compromise_server": (
        Signature((_SES,), _B), lambda rt, s: protocols.compromise_rpc(rt, s, "server"),
    ),
    "att_getChannel_client": (Signature((_SES,), _C), lambda rt, s: s.client_channel),
    "att_getChannel_server": (Signature((_SES,), _C), lambda rt, s: s.server_channel),
}


# -- key-exchange interface ---------------------------------------------------

_OR_INTERFACE = {
    **_SHARED_INTERFACE,
    "att_or_setup": (Signature((_B, _B), _SES), protocols.setup_or),
    "att_run_initiator": (Signature((_SES,), None), _start("or_initiator", protocols.or_initiator)),
    "att_run_responder": (Signature((_SES,), None), _start("or_responder", protocols.or_responder)),
    "att_run_server": (Signature((_SES,), None), _start("or_server", protocols.or_server)),
    "att_compromise_principal": (Signature((_SES, _B), _B), protocols.compromise_or),
    "att_getChannel_initiator": (Signature((_SES,), _C), lambda rt, s: s.init_channel),
    "att_getChannel_responder": (Signature((_SES,), _C), lambda rt, s: s.resp_channel),
    "att_getChannel_server": (Signature((_SES,), _C), lambda rt, s: s.serv_channel),
}


def _signatures(table) -> Mapping[str, Signature]:
    return MappingProxyType({name: sig for name, (sig, _) in table.items()})


# protocol -> (implementation table, read-only signature map, log convention),
# built once; the convention alone tells the two RPC variants apart
_RPC_SIGNATURES = _signatures(_RPC_INTERFACE)
_BY_PROTOCOL = {
    "rpc-correct": (_RPC_INTERFACE, _RPC_SIGNATURES, Convention(response_binds_request=True)),
    "rpc-flawed": (_RPC_INTERFACE, _RPC_SIGNATURES, Convention(response_binds_request=False)),
    "otway-rees": (_OR_INTERFACE, _signatures(_OR_INTERFACE), STANDARD),
}


def _lookup(protocol: str):
    try:
        return _BY_PROTOCOL[protocol]
    except KeyError:
        raise ValueError(f"unknown protocol {protocol!r}") from None


def interface_for(protocol: str) -> Mapping[str, Signature]:
    """The protocol's read-only name -> signature map; the same object every call."""
    return _lookup(protocol)[1]


# ---------------------------------------------------------------------------
# interpreter


class RunResult(NamedTuple):
    verdict: Verdict
    state: CryptoState
    protocol: str
    seed: int
    assertions_checked: int
    suppressed: int
    roles_spawned: int

    def to_report(self) -> dict:
        return {
            "protocol": self.protocol,
            "seed": self.seed,
            "verdict": self.verdict.to_dict(),
            "exit_code": self.verdict.exit_code,
            "events": [render_event(e) for e in self.state.log],
            "table_size": len(self.state.table),
            "assertions_checked": self.assertions_checked,
            "suppressed_assertion_failures": self.suppressed,
            "assumption_failures": [
                {"kind": f.kind.value, "bytes": f.data.hex(), "note": f.note}
                for f in self.state.failures
            ],
            "soundness_notes": list(self.state.soundness_notes),
        }


def run_attack(
    program: AttackProgram | str,
    protocol: str,
    seed: int = 0,
    *,
    rand: Optional[RandomSource] = None,
    mac_fn=None,
) -> RunResult:
    """Execute an attack program against a protocol and judge the run."""
    interface = interface_for(protocol)
    if isinstance(program, str):
        program = parse_attack(program)
    return _run(validate_attack(program, interface), protocol, seed, rand, mac_fn)


def _run(steps: Iterable[Step], protocol: str, seed: int, rand, mac_fn) -> RunResult:
    """Run well-typed steps, taking none after the run has ended, and judge
    the run."""
    table, _, convention = _lookup(protocol)
    cs = initial_state(convention=convention, mac_fn=mac_fn)
    rt = Runtime(cs, seed=seed, rand=rand)
    env: dict[str, object] = {}
    fetch = env.__getitem__

    # the call rule (see the module docstring)
    try:
        for fn, args, var in steps:
            if fn is None:
                env[var] = args
                continue
            vals = tuple(map(fetch, args))
            value = FAILED
            if FAILED not in vals:
                sig, impl = table[fn]
                before = len(cs.failures)
                try:
                    result = impl(rt, *vals)
                except ContractViolationError as exc:
                    rt.contract_violation(exc)  # never returns
                if result is not None and len(cs.failures) == before:
                    value = _as_bytespub(rt, result) if sig.result is _B else result
            if var is not None:
                env[var] = value
    except _StopRun:
        pass

    verdict = rt.finalize()
    return RunResult(
        verdict=verdict,
        state=cs,
        protocol=protocol,
        seed=seed,
        assertions_checked=rt.assertions_checked,
        suppressed=rt.assertions_suppressed,
        roles_spawned=len(rt.roles),
    )
