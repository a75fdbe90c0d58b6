"""Hybrid state: the representation table plus the event log.

Every byte array that crosses the wrapper surface is *registered*: mapped
to the symbolic term it represents.  The table is a bijection, literals
map to their own bytes, and every registered term is derivably High; the
soundness argument leans on all three, so they are audited: after every
wrapper call for the entries that call added, and once over the whole
table when the run ends.

Registration is where the symbolic fiction meets reality.  If two distinct
terms ever produce the same bytes (or one term two byte strings), the
symbolic model's injectivity assumption is broken: the wrapper records a
sticky Collision assumption failure instead of updating the table.

Wrapper preconditions guard honest role code; breaking one raises
ContractViolationError, a verdict of its own (a bug in the code under
test, not an attack and not bad luck).  During a run ``CryptoState`` is
the only caller of ``level``: the MAC and encryption contracts ask if the
term they would register is High, other modules ask ``public_term``.
"""

from __future__ import annotations

import enum
from itertools import islice
from typing import Callable, NamedTuple, Optional

from . import backend
from .errors import ContractViolationError, TableAuditError
from .levels import Level, level, unsanctioned
from .terms import (
    AttackerGuess,
    Convention,
    Event,
    Hmac,
    Literal,
    Log,
    New,
    Pair,
    SEnc,
    STANDARD,
    TAG_REQUEST,
    TAG_RESPONSE,
    Term,
    Usage,
    render_term,
)
from .wire import pair_decode, pair_encode

# bound once: looking a member up on an Enum class is a Python-level call
_LOW = Level.LOW
_HIGH = Level.HIGH

# the usage of every literal the attacker introduces; nodes are immutable
_GUESS = AttackerGuess()


class AssumptionKind(enum.Enum):
    COLLISION = "collision"
    LUCKY_GUESS = "lucky-guess"


class AssumptionFailure(NamedTuple):
    kind: AssumptionKind
    data: bytes
    existing: Optional[Term]
    attempted: Optional[Term]
    note: str = ""


class CryptoState:
    """Log + table + sticky assumption failures, with the wrapper surface.

    The only caller of ``level`` during a run.  The audit always runs, also
    after an assumption failure: after every wrapper call it checks that
    nothing shrank, that the log is good, that the table and its inverse
    have the same size, and that the entries added since the last audit are
    bijective, transparent and High; ``rescan`` repeats the entry checks
    over the whole table once a run ends.  Older entries need no re-check
    between calls because High is monotone in the log.  Registration-time
    checks (term High, literal transparency) guard soundness on their own.
    """

    def __init__(
        self,
        convention: Convention = STANDARD,
        mac_fn: Optional[Callable[[bytes, bytes], bytes]] = None,
        *,
        log: Optional[Log] = None,
    ):
        # a given log carries its own convention; initial_state passes a
        # log over the template's
        self.log = Log.empty(convention) if log is None else log
        # the representation table, bytes -> term, and its inverse
        self.table: dict[bytes, Term] = {}
        self.by_term: dict[Term, bytes] = {}
        self.mac_fn = mac_fn or backend.hmac_sha1
        self.failures: list[AssumptionFailure] = []
        self.soundness_notes: list[str] = []
        self.wrapper_calls = 0
        self._last_table_len = 0
        self._last_log_len = 0

    # -- bookkeeping ------------------------------------------------------

    @property
    def failure(self) -> Optional[AssumptionFailure]:
        return self.failures[0] if self.failures else None

    def _record_failure(self, kind, data, existing, attempted, note=""):
        self.failures.append(AssumptionFailure(kind, data, existing, attempted, note))

    def term_of(self, data: bytes) -> Optional[Term]:
        return self.table.get(data)

    def public_term(self, data: bytes) -> Optional[Term]:
        """The term registered for data if it is Low, else None."""
        t = self.table.get(data)
        return t if t is not None and level(_LOW, t, self.log) else None

    def _require_registered(self, data: bytes, location: str) -> Term:
        t = self.table.get(data)
        if t is None:
            raise ContractViolationError(location, "unregistered bytes")
        return t

    def _log_add(self, e: Event):
        self.log = self.log.add(e)

    def _register(self, data: bytes, t: Term):
        """Bind data <-> t, or record a collision and leave the table as it is."""
        if not level(_HIGH, t, self.log):
            raise TableAuditError(
                f"registration of non-High term {render_term(t)}"
            )
        if isinstance(t, Literal) and t.data != data:
            raise TableAuditError("literal registered with foreign bytes")
        existing_t = self.table.get(data)
        if existing_t is not None and existing_t != t:
            self._record_failure(AssumptionKind.COLLISION, data, existing_t, t)
            return
        existing_b = self.by_term.get(t)
        if existing_b is not None and existing_b != data:
            self._record_failure(
                AssumptionKind.COLLISION, data, t, t,
                note="term already bound to different bytes",
            )
            return
        if existing_t is None:
            self.table[data] = t
        if existing_b is None:
            self.by_term[t] = data

    def _make_literal(self, data: bytes, usage: Usage):
        """Make Literal(data): log its New event under usage and register it."""
        lit = Literal(data)
        self._log_add(New(lit, usage))
        self._register(data, lit)

    def _adopt_public(self, raw: bytes) -> bool:
        """Bind unknown bytes as a fresh attacker-guess literal.

        Reuses the existing term when the bytes are already registered Low;
        records a LuckyGuess when they are registered but not Low (the
        attacker produced secret bytes out of thin air).
        """
        t = self.table.get(raw)
        if t is None:
            self._make_literal(raw, _GUESS)
            return True
        if level(_LOW, t, self.log):
            return True
        self._record_failure(AssumptionKind.LUCKY_GUESS, raw, t, None)
        return False

    # -- wrappers ---------------------------------------------------------

    def w_to_string(self, raw: bytes) -> Optional[bytes]:
        """Introduce caller-chosen public bytes.  None signals a LuckyGuess."""
        if len(raw) == 0:
            raise ContractViolationError("to_string", "empty input")
        ok = self._adopt_public(raw)
        self._post_op()
        return raw if ok else None

    def w_fresh(self, usage: Usage, nbytes: int, src: backend.RandomSource) -> Optional[bytes]:
        """Draw fresh bytes and log their creation under the given usage."""
        if isinstance(usage, AttackerGuess):
            raise ContractViolationError("fresh", "attacker-guess usage")
        data = src.draw(nbytes)
        clash = self.table.get(data)
        if clash is not None:
            self._record_failure(
                AssumptionKind.COLLISION, data, clash, Literal(data),
                note="fresh draw repeated registered bytes",
            )
            self._post_op()
            return None
        self._make_literal(data, usage)
        self._post_op()
        return data

    def w_pair(self, b1: bytes, b2: bytes) -> bytes:
        t1 = self._require_registered(b1, "pair")
        t2 = self._require_registered(b2, "pair")
        out = pair_encode(b1, b2)
        self._register(out, Pair(t1, t2))
        self._post_op()
        return out

    def w_destruct(self, data: bytes) -> tuple[bytes, bytes]:
        """Split pair framing.  Raises MalformedPairError on bad framing."""
        t = self._require_registered(data, "destruct")
        if not isinstance(t, Pair) and not level(_LOW, t, self.log):
            raise ContractViolationError("destruct", "input neither a pair nor public")
        x, y = pair_decode(data)
        if isinstance(t, Pair):
            self._register(x, t.fst)
            self._register(y, t.snd)
        else:
            # public non-pair bytes that happen to carry framing: the split
            # parts are just more public data
            self._adopt_public(x)
            self._adopt_public(y)
        self._post_op()
        return x, y

    def _keyed(self, cons, key: bytes, body: bytes, location: str, reason: str) -> bytes:
        """The MAC and encryption contracts: register cons(key, body), an
        Hmac or an SEnc, over its bytes, refused unless that term is High."""
        tk = self._require_registered(key, location)
        tb = self._require_registered(body, location)
        t = cons(tk, tb)
        if not level(_HIGH, t, self.log):
            raise ContractViolationError(location, reason)
        out = (self.mac_fn if cons is Hmac else backend.senc)(key, body)
        self._register(out, t)
        self._post_op()
        return out

    def w_hmacsha1(self, key: bytes, msg: bytes) -> bytes:
        return self._keyed(
            Hmac, key, msg, "hmacsha1", "payload not sayable under key usage and key not public",
        )

    def w_hmacsha1_verify(self, key: bytes, msg: bytes, mac: bytes) -> bool:
        tk = self._require_registered(key, "hmacsha1_verify")
        tm = self._require_registered(msg, "hmacsha1_verify")
        self._require_registered(mac, "hmacsha1_verify")
        digest = self.mac_fn(key, msg)
        ok = digest == mac
        if ok:
            expected = Hmac(tk, tm)
            if level(_HIGH, expected, self.log):
                # registering the recomputed digest surfaces collisions
                # where the presented mac bytes were bound to another term
                self._register(digest, expected)
            else:
                # the check passed for a mac nobody could legitimately have
                # produced, so the presented bytes collide with it
                self._record_failure(
                    AssumptionKind.COLLISION, digest,
                    self.table.get(digest), expected,
                    note="verify succeeded without a sanctioned derivation",
                )
            self._note_unsanctioned(expected)
        self._post_op()
        return ok

    def _note_unsanctioned(self, t: Hmac | SEnc):
        """Note a MAC verify or decryption of t that passed, although t's
        payload is not sayable under its key's usage and no owner is Bad."""
        if unsanctioned(t, self.log):
            what = (
                "mac verified but payload neither sayable" if isinstance(t, Hmac)
                else "decryption succeeded but ticket neither well-formed"
            )
            self.soundness_notes.append(f"{what} nor key compromised: {render_term(t)}")

    def w_senc(self, key: bytes, plaintext: bytes) -> bytes:
        return self._keyed(
            SEnc, key, plaintext, "senc", "plaintext not a well-formed ticket and key not public",
        )

    def w_sdec(self, key: bytes, ciphertext: bytes) -> bytes:
        """Authenticated decryption.  Raises AuthFailureError on bad tags."""
        tk = self._require_registered(key, "sdec")
        tc = self._require_registered(ciphertext, "sdec")
        plain = backend.sdec(key, ciphertext)
        if isinstance(tc, SEnc) and tc.key == tk:
            self._register(plain, tc.body)
            self._note_unsanctioned(tc)
        else:
            # the tag verified under this key but the symbolic term was
            # built some other way: an injectivity break we can name
            self._record_failure(
                AssumptionKind.COLLISION, ciphertext, tc, None,
                note="ciphertext term does not match decryption key",
            )
        self._post_op()
        return plain

    def log_event(self, e: Event):
        """Record a protocol event.  Creation events belong to the wrappers."""
        if isinstance(e, New):
            raise ContractViolationError("log_event", "New events are wrapper-internal")
        self._log_add(e)
        self._post_op()

    # -- audit ------------------------------------------------------------

    def _post_op(self):
        self.wrapper_calls += 1
        table_len, log_len = len(self.table), len(self.log._events)
        if table_len < self._last_table_len or log_len < self._last_log_len:
            raise TableAuditError("state shrank")
        self._check(table_len - self._last_table_len)
        self._last_table_len, self._last_log_len = table_len, log_len

    def rescan(self):
        """Audit every table entry; the runtime calls this once, at the end of a run."""
        self._check(len(self.table))

    def _check(self, newest: int):
        """Check log goodness, the table sizes, and the newest table entries.

        Dicts keep insertion order and registration never deletes, so the
        entries added since the last audit are the tail of ``table``.
        """
        bb, bt = self.table, self.by_term
        if not self.log.good:
            raise TableAuditError("log lost goodness")
        if len(bb) != len(bt):
            raise TableAuditError("table sides disagree in size")
        if not newest:
            return
        for data, t in islice(reversed(bb.items()), newest):
            if bt.get(t) != data:
                raise TableAuditError("table is not a bijection")
            if isinstance(t, Literal) and t.data != data:
                raise TableAuditError("literal transparency broken")
            if not level(_HIGH, t, self.log):
                raise TableAuditError(
                    f"registered term not High: {render_term(t)}"
                )


# one two-tag state per convention; initial_state copies it for every run
_TEMPLATES: dict[Convention, CryptoState] = {}


def initial_state(
    convention: Convention = STANDARD,
    mac_fn: Optional[Callable[[bytes, bytes], bytes]] = None,
) -> CryptoState:
    """Fresh state with the two message-format tags pre-registered.

    The tags are registered and audited once per convention, in a template.
    Every state made from it gets its own Log over the template's event and
    usage containers, which ``Log.add`` never mutates, with a copy of the
    template's level memo (the two tags), so what a run memoizes stays with
    that run; its own copies of the table and its inverse; and its own
    ``mac_fn``.  The wrapper-call count and the audit snapshot start where
    the template's ended.
    """
    template = _TEMPLATES.get(convention)
    if template is None:
        template = _TEMPLATES[convention] = CryptoState(convention)
        for tag in (TAG_REQUEST, TAG_RESPONSE):
            template._make_literal(tag, _GUESS)
        template._post_op()
    tl = template.log
    log = Log(tl._events, tl._usages, tl._responses, tl.good, tl.convention)
    log._memo = tl._memo.copy()
    cs = CryptoState(mac_fn=mac_fn, log=log)
    cs.table, cs.by_term = template.table.copy(), template.by_term.copy()
    cs.wrapper_calls = template.wrapper_calls
    cs._last_table_len, cs._last_log_len = template._last_table_len, template._last_log_len
    return cs
