"""Executable symbolic-crypto runtime.

Concrete byte arrays flow through real cryptographic operations while a
representation table tracks the symbolic term each byte string stands for.
An inductive two-point level judgement over the run's event log decides
what the attacker may know; wrapper contracts police the honest roles; a
straight-line attack language drives replays and fuzzing against the
bundled protocols.
"""

from types import ModuleType as _ModuleType

from .attacker import FAILED, PROTOCOLS, RunResult, interface_for, run_attack
from .backend import RandomSource, hmac_sha1, sdec, senc
from .dsl import (
    AttackProgram,
    Signature,
    ValueKind,
    format_attack,
    parse_attack,
    validate_attack,
)
from .errors import (
    AttackSyntaxError,
    AuthFailureError,
    ContractViolationError,
    DymonError,
    EncodingError,
    MalformedPairError,
    TableAuditError,
    TermSyntaxError,
)
from .fuzz import FuzzResult, fuzz_attacks, generate_program
from .levels import (
    Level,
    can_hmac,
    can_senc,
    explain,
    level,
    weak_secrecy_violations,
)
from .runtime import Channel, EXIT_CODES, Runtime, Verdict, VerdictKind
from .scripts import CORPUS, HONEST_DRIVERS, OR_HONEST, RPC_HONEST, RPC_SPLICE
from .state import (
    AssumptionFailure,
    AssumptionKind,
    CryptoState,
    initial_state,
)
from .terms import (
    AttackerGuess,
    Bad,
    Convention,
    Event,
    Hmac,
    HmacKey,
    Initiator,
    Literal,
    Log,
    New,
    Pair,
    PresharedKey,
    PrincipalKey,
    Request,
    Responder,
    Response,
    SEnc,
    SEncKey,
    SessionKey,
    STANDARD,
    TAG_REQUEST,
    TAG_RESPONSE,
    Term,
    Usage,
    parse_event,
    parse_term,
    render_event,
    render_term,
    render_usage,
)
from .wire import pair_decode, pair_encode

__version__ = "0.1.0"

# every public name imported above; the submodules are not part of it
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
