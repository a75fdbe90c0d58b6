"""Single-threaded run coordination: channels, role tasks, verdicts.

Roles are generators.  A role that wants input yields the channel it is
waiting on; the scheduler resumes it when the attacker has written
something there.  The runtime owns the wake rule: ``spawn`` runs the new
role, and ``att_write`` runs the live roles parked on the channel it
wrote, so between two of the runtime's calls no role is runnable.  All
scheduling is deterministic under the run seed; the order of the roles
one write wakes is the run's only scheduling choice, drawn from an RNG
seeded on the first write that wakes two or more.  ``_step`` alone
decides how a role ends; it ends a role whose split or decryption fails,
as if the role had returned: rejected input is no verdict.

Verdict discipline (the safety semantics):
  * an assertion failure or a contract violation decides the run, and ends
    it, when it happens,
  * an attacker read on an empty channel with no role able to make progress
    is a deadlock, and so is a role still waiting when the script ends,
  * otherwise the run is Ok.
One rule takes precedence over all of these, and ``Runtime._judge`` alone
applies it: once an assumption failure is recorded, the run's verdict is
an assumption failure named after the first one recorded.  An assertion
that fails after it is suppressed: its role stops, and the run goes on.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from typing import Iterator, NamedTuple, NoReturn, Optional

from .backend import RandomSource
from .errors import AuthFailureError, ContractViolationError, MalformedPairError
from .state import CryptoState


class VerdictKind(enum.Enum):
    OK = "ok"
    ASSERTION_FAILURE = "assertion-failure"
    ASSUMPTION_FAILURE = "assumption-failure"
    DEADLOCK = "deadlock"
    CONTRACT_VIOLATION = "contract-violation"


EXIT_CODES = {
    VerdictKind.OK: 0,
    VerdictKind.ASSERTION_FAILURE: 10,
    VerdictKind.ASSUMPTION_FAILURE: 11,
    VerdictKind.DEADLOCK: 12,
    VerdictKind.CONTRACT_VIOLATION: 13,
}


class Verdict(NamedTuple):
    kind: VerdictKind
    location: Optional[str] = None
    detail: Optional[str] = None

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.kind]

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "location": self.location, "detail": self.detail}


class _StopRun(Exception):
    """Internal: the verdict is decided, unwind to the run loop."""


class _RoleAbort(Exception):
    """Internal: this role stops (suppressed assertion), run continues."""


class Channel:
    """Byte pipe between one role and the attacker-controlled network.

    Two FIFOs, one per direction, so a role never consumes its own writes:
    to_net holds what the role sent (the attacker reads it), from_net holds
    what the attacker delivered (the role reads it).
    """

    __slots__ = ("name", "to_net", "from_net")

    def __init__(self, name: str):
        self.name = name
        self.to_net: deque[bytes] = deque()
        self.from_net: deque[bytes] = deque()

    def __repr__(self) -> str:
        return f"<Channel {self.name}>"


class RoleTask:
    __slots__ = ("name", "gen", "done", "waiting_on")

    def __init__(self, name: str, gen: Iterator):
        self.name = name
        self.gen = gen
        self.done = False
        self.waiting_on: Optional[Channel] = None


class Runtime:
    def __init__(self, cs: CryptoState, seed: int, rand: Optional[RandomSource] = None):
        self.cs = cs
        self.rand = rand if rand is not None else RandomSource(seed)
        self.roles: list[RoleTask] = []  # every role spawned, in spawn order
        self._live: list[RoleTask] = []  # the roles not yet done, in spawn order
        self.verdict: Optional[Verdict] = None
        self.assertions_checked = 0
        self.assertions_suppressed = 0
        # every overruled failure: suppressed assertions, then at most one
        # contract violation, which still ends the run
        self.suppressed: list[tuple[str, str]] = []
        self._seed = seed
        self._sched: Optional[random.Random] = None
        self._sessions = 0

    # -- roles --------------------------------------------------------------

    def next_session(self) -> int:
        """Number naming a new session's channels, unique within the run."""
        self._sessions += 1
        return self._sessions

    def spawn(self, name: str, gen: Iterator) -> RoleTask:
        """Start a role, numbered in spawn order, and run it until it parks or ends."""
        task = RoleTask(f"{name}#{len(self.roles) + 1}", gen)
        self.roles.append(task)
        self._live.append(task)
        self.drain([task])
        return task

    def channel_read(self, ch: Channel):
        """Role-side read; used as ``yield from`` inside role generators."""
        while not ch.from_net:
            yield ch
        return ch.from_net.popleft()

    def role_write(self, ch: Channel, data: bytes):
        self._check_public(data, f"channel_write[{ch.name}]")
        ch.to_net.append(data)

    # -- attacker-side channel access ----------------------------------------

    def att_write(self, ch: Channel, data: bytes):
        """Deliver a message and run the roles it wakes."""
        self._check_public(data, f"att_channel_write[{ch.name}]")
        ch.from_net.append(data)
        self._live = [t for t in self._live if not t.done]
        self.drain([t for t in self._live if t.waiting_on is ch])

    def att_read(self, ch: Channel) -> bytes:
        if not ch.to_net:
            self.verdict = self._judge(
                VerdictKind.DEADLOCK, f"att_channel_read[{ch.name}]",
                "read on empty channel with no runnable role",
            )
            raise _StopRun()
        return ch.to_net.popleft()

    def _check_public(self, data: bytes, location: str):
        if self.cs.public_term(data) is None:
            if self.cs.term_of(data) is None:
                raise ContractViolationError(location, "unregistered bytes")
            raise ContractViolationError(location, "attempt to send a non-public value")

    # -- verdicts ------------------------------------------------------------

    def _judge(
        self, kind: VerdictKind, location: Optional[str] = None, detail: Optional[str] = None,
    ) -> Verdict:
        """The run's verdict in place of a candidate: the first recorded
        assumption failure, if there is one, outranks every other verdict."""
        f = self.cs.failure
        if f is None:
            return Verdict(kind, location, detail)
        return Verdict(VerdictKind.ASSUMPTION_FAILURE, None, f.kind.value)

    def assert_event(self, holds: bool, location: str, description: str):
        self.assertions_checked += 1
        if holds:
            return
        verdict = self._judge(VerdictKind.ASSERTION_FAILURE, location, description)
        if verdict.kind is VerdictKind.ASSUMPTION_FAILURE:
            self.assertions_suppressed += 1
            self.suppressed.append((location, description))
            raise _RoleAbort()
        self.verdict = verdict
        raise _StopRun()

    def contract_violation(self, exc: ContractViolationError) -> NoReturn:
        self.verdict = self._judge(VerdictKind.CONTRACT_VIOLATION, exc.location, exc.reason)
        if self.verdict.kind is VerdictKind.ASSUMPTION_FAILURE:
            self.suppressed.append((exc.location, exc.reason))
        raise _StopRun()

    # -- scheduling -----------------------------------------------------------

    def drain(self, ready: list[RoleTask]):
        """Step each role the last call woke once, in one seeded order.

        ``spawn`` wakes the new role and ``att_write`` the live roles parked
        on its channel, in spawn order; the order of two or more is the
        run's only scheduling choice.  One pass leaves no role runnable: a
        step ends with the role done or parked on an empty channel, a role
        only fills ``to_net``, and only ``att_write`` fills ``from_net``, so
        no role can wake another.  The scheduler's RNG is seeded at the
        first shuffle of two or more roles; one ready role draws nothing.
        """
        if len(ready) > 1:
            if self._sched is None:
                self._sched = random.Random(self._seed ^ 0x5EED)
            self._sched.shuffle(ready)
        for task in ready:
            self._step(task)

    def _step(self, task: RoleTask):
        # a role yields only from channel_read, and only on an empty channel;
        # bad framing (w_destruct) or a bad tag (w_sdec) ends it like a return
        try:
            task.waiting_on = task.gen.send(None)
        except (StopIteration, _RoleAbort, MalformedPairError, AuthFailureError):
            task.done = True
        except ContractViolationError as exc:
            task.done = True
            self.contract_violation(exc)

    # -- end of run -------------------------------------------------------------

    def finalize(self) -> Verdict:
        self.cs.rescan()
        if self.verdict is None:
            stuck = ", ".join(t.name for t in self.roles if not t.done)
            if stuck:
                self.verdict = self._judge(
                    VerdictKind.DEADLOCK, stuck, "roles still waiting at end of run"
                )
            else:
                self.verdict = self._judge(VerdictKind.OK)
        return self.verdict
