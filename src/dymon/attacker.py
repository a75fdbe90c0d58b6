"""Attacker interface and attack-program interpreter.

The interface is the full Dolev-Yao power the network attacker gets:
construct and split public data, MAC with public (or compromised) keys,
read and write every channel, start role instances, and compromise
principals.  Nothing here can fault the run: malformed destructs, failed
verifications, and rejected setups produce a failure value that poisons
whatever is computed from it.

The interpreter executes one command at a time and then lets every
runnable role advance, so role scheduling interleaves with the attack
script deterministically under the run seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .backend import RandomSource
from .errors import ContractViolationError, MalformedPairError, TableAuditError
from .levels import Level, level
from .runtime import Runtime, Verdict, _StopRun
from .state import CryptoState, initial_state
from .terms import STANDARD, Convention, render_event
from .dsl import (
    AssignString,
    AttackProgram,
    CallAssign,
    Decl,
    Signature,
    ValueKind,
    parse_attack,
    validate_attack,
)
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
    t = rt.cs.term_of(data)
    if t is None or not level(Level.LOW, t, rt.cs.log):
        raise TableAuditError("attacker holds a non-public bytespub")
    return data


# -- shared constructors ------------------------------------------------------


def _to_bytespub(rt: Runtime, s: bytes):
    if len(s) == 0:
        return FAILED
    out = rt.cs.w_to_string(s)
    return FAILED if out is None else _as_bytespub(rt, out)


def _att_pair(rt: Runtime, x: bytes, y: bytes):
    return rt.cs.w_pair(x, y)


def _att_fst(rt: Runtime, x: bytes):
    try:
        a, _ = rt.cs.w_destruct(x)
    except MalformedPairError:
        return FAILED
    return a


def _att_snd(rt: Runtime, x: bytes):
    try:
        _, b = rt.cs.w_destruct(x)
    except MalformedPairError:
        return FAILED
    return b


def _att_hmac(rt: Runtime, k: bytes, m: bytes):
    return rt.cs.w_hmacsha1(k, m)


def _att_hmac_verify(rt: Runtime, k: bytes, m: bytes, mac: bytes):
    rt.cs.w_hmacsha1_verify(k, m, mac)
    return None


def _att_write(rt: Runtime, ch, data: bytes):
    rt.att_write(ch, data)
    return None


def _att_read(rt: Runtime, ch):
    return _as_bytespub(rt, rt.att_read(ch))


# the Dolev-Yao core both protocol interfaces start with
_SHARED_INTERFACE = {
    "att_toBytespub": (Signature((_S,), _B), _to_bytespub),
    "att_pair": (Signature((_B, _B), _B), _att_pair),
    "att_fst": (Signature((_B,), _B), _att_fst),
    "att_snd": (Signature((_B,), _B), _att_snd),
    "att_hmacsha1": (Signature((_B, _B), _B), _att_hmac),
    "att_hmacsha1Verify": (Signature((_B, _B, _B), None), _att_hmac_verify),
    "att_channel_write": (Signature((_C, _B), None), _att_write),
    "att_channel_read": (Signature((_C,), _B), _att_read),
}


# -- RPC interface ------------------------------------------------------------


def _rpc_setup(rt: Runtime, cpub: bytes, spub: bytes):
    ses = protocols.setup_rpc(rt, cpub, spub)
    return FAILED if ses is None else ses


def _rpc_run_client(rt: Runtime, ses, req: bytes):
    rt.spawn("rpc_client", protocols.rpc_client(rt, ses, req))
    return None


def _rpc_run_server(rt: Runtime, ses):
    rt.spawn("rpc_server", protocols.rpc_server(rt, ses))
    return None


def _rpc_compromise(side: str):
    def impl(rt: Runtime, ses):
        return _as_bytespub(rt, protocols.compromise_rpc(rt, ses, side))

    return impl


_RPC_INTERFACE = {
    **_SHARED_INTERFACE,
    "att_setup": (Signature((_B, _B), _SES), _rpc_setup),
    "att_run_client": (Signature((_SES, _B), None), _rpc_run_client),
    "att_run_server": (Signature((_SES,), None), _rpc_run_server),
    "att_compromise_client": (Signature((_SES,), _B), _rpc_compromise("client")),
    "att_compromise_server": (Signature((_SES,), _B), _rpc_compromise("server")),
    "att_getChannel_client": (Signature((_SES,), _C), lambda rt, s: s.client_channel),
    "att_getChannel_server": (Signature((_SES,), _C), lambda rt, s: s.server_channel),
}


# -- key-exchange interface ---------------------------------------------------


def _or_setup(rt: Runtime, apub: bytes, bpub: bytes):
    ses = protocols.setup_or(rt, apub, bpub)
    return FAILED if ses is None else ses


def _or_run(role: str):
    def impl(rt: Runtime, ses):
        gen = {
            "initiator": protocols.or_initiator,
            "responder": protocols.or_responder,
            "server": protocols.or_server,
        }[role]
        rt.spawn(f"or_{role}", gen(rt, ses))
        return None

    return impl


def _or_compromise(rt: Runtime, ses, principal: bytes):
    key = protocols.compromise_or(rt, ses, principal)
    return FAILED if key is None else _as_bytespub(rt, key)


_OR_INTERFACE = {
    **_SHARED_INTERFACE,
    "att_or_setup": (Signature((_B, _B), _SES), _or_setup),
    "att_run_initiator": (Signature((_SES,), None), _or_run("initiator")),
    "att_run_responder": (Signature((_SES,), None), _or_run("responder")),
    "att_run_server": (Signature((_SES,), None), _or_run("server")),
    "att_compromise_principal": (Signature((_SES, _B), _B), _or_compromise),
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


@dataclass
class RunResult:
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
    table, interface, convention = _lookup(protocol)
    if isinstance(program, str):
        program = parse_attack(program)
    validate_attack(program, interface)

    cs = initial_state(convention=convention, mac_fn=mac_fn)
    rt = Runtime(cs, seed=seed, rand=rand)
    env: dict[str, object] = {}

    try:
        for st in program.statements:
            if isinstance(st, Decl):
                continue
            if isinstance(st, AssignString):
                env[st.var] = st.value
            else:
                args = [env[a] for a in st.args]
                if any(a is FAILED for a in args):
                    value = FAILED
                else:
                    before = cs.failure_count
                    _, impl = table[st.fn]
                    try:
                        value = impl(rt, *args)
                    except ContractViolationError as exc:
                        rt.contract_violation(exc)  # never returns
                    if cs.failure_count > before:
                        value = FAILED
                if isinstance(st, CallAssign):
                    env[st.var] = value
            rt.drain()
    except _StopRun:
        pass

    verdict = rt.finalize()
    return RunResult(
        verdict=verdict,
        state=cs,
        protocol=protocol,
        seed=seed,
        assertions_checked=rt.assertions_checked,
        suppressed=len(rt.suppressed),
        roles_spawned=len(rt.roles),
    )
