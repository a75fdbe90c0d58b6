"""Scheduler, channels, and the verdict discipline."""

import random

import pytest

from dymon import (
    AssumptionKind,
    Channel,
    ContractViolationError,
    EXIT_CODES,
    HmacKey,
    Literal,
    PresharedKey,
    RandomSource,
    Runtime,
    Verdict,
    VerdictKind,
    initial_state,
)
from dymon.runtime import _StopRun


def make_rt(seed=0, cs=None):
    cs = cs or initial_state()
    return Runtime(cs, seed=seed, rand=RandomSource(seed))


def test_exit_codes_table():
    assert EXIT_CODES[VerdictKind.OK] == 0
    assert EXIT_CODES[VerdictKind.ASSERTION_FAILURE] == 10
    assert EXIT_CODES[VerdictKind.ASSUMPTION_FAILURE] == 11
    assert EXIT_CODES[VerdictKind.DEADLOCK] == 12
    assert EXIT_CODES[VerdictKind.CONTRACT_VIOLATION] == 13


def test_channels_are_directional():
    rt = make_rt()
    ch = Channel("c")
    data = rt.cs.w_to_string(b"ping")

    def echo():
        got = yield from rt.channel_read(ch)
        rt.role_write(ch, got)

    rt.spawn("echo", echo())
    rt.drain()
    # role is parked: its own pending writes never satisfy its read
    assert not ch.to_net
    rt.att_write(ch, data)
    rt.drain()
    assert rt.att_read(ch) == b"ping"


def test_role_cannot_send_secret_data():
    rt = make_rt()
    ch = Channel("c")
    a = rt.cs.w_to_string(b"A")
    b = rt.cs.w_to_string(b"B")
    key = rt.cs.w_fresh(
        HmacKey(PresharedKey(Literal(b"A"), Literal(b"B"))), 16, rt.rand
    )

    def leaky():
        rt.role_write(ch, key)
        yield ch

    with pytest.raises(_StopRun):
        rt.spawn("leaky", leaky())
    assert rt.finalize().kind is VerdictKind.CONTRACT_VIOLATION
    assert rt.finalize().exit_code == 13


def test_attacker_cannot_send_unregistered_data():
    rt = make_rt()
    with pytest.raises(ContractViolationError):
        rt.att_write(Channel("c"), b"madeup")


def test_att_read_empty_channel_is_deadlock():
    rt = make_rt()
    ch = Channel("c")
    with pytest.raises(_StopRun):
        rt.att_read(ch)
    v = rt.finalize()
    assert v.kind is VerdictKind.DEADLOCK
    assert "c" in v.location


def test_spawn_runs_the_role_before_returning():
    rt = make_rt()
    ch = Channel("c")

    def talker():
        rt.role_write(ch, rt.cs.w_to_string(b"hi"))
        return
        yield  # makes this a generator

    rt.spawn("talker", talker())
    assert rt.att_read(ch) == b"hi"


def test_assert_event_failure_decides_run():
    rt = make_rt()

    def liar():
        rt.assert_event(False, "liar", "always fails")
        yield

    with pytest.raises(_StopRun):
        rt.spawn("liar", liar())
    v = rt.finalize()
    assert v.kind is VerdictKind.ASSERTION_FAILURE
    assert v.location == "liar"
    assert rt.assertions_checked == 1


def test_assert_event_suppressed_after_assumption_failure():
    cs = initial_state()
    rt = Runtime(cs, seed=0, rand=RandomSource(0))
    cs._record_failure(AssumptionKind.COLLISION, b"x", None, None)

    def liar():
        rt.assert_event(False, "liar", "always fails")
        yield

    rt.spawn("liar", liar())
    rt.drain()  # no _StopRun: the failure suppresses the assertion
    v = rt.finalize()
    assert v.kind is VerdictKind.ASSUMPTION_FAILURE
    assert v.detail == "collision"
    assert rt.suppressed == [("liar", "always fails")]


def test_finalize_reports_assumption_failure_over_deadlock():
    cs = initial_state()
    rt = Runtime(cs, seed=0, rand=RandomSource(0))

    def waiter():
        yield from rt.channel_read(Channel("never"))

    rt.spawn("waiter", waiter())
    cs._record_failure(AssumptionKind.LUCKY_GUESS, b"x", None, None)
    v = rt.finalize()
    assert v.kind is VerdictKind.ASSUMPTION_FAILURE
    assert v.detail == "lucky-guess"


def test_finalize_flags_parked_roles_as_deadlock():
    rt = make_rt()

    def waiter():
        yield from rt.channel_read(Channel("never"))

    rt.spawn("waiter", waiter())
    v = rt.finalize()
    assert v.kind is VerdictKind.DEADLOCK
    assert "waiter#1" in v.location


def test_finalize_ok_when_everyone_finished():
    rt = make_rt()

    def worker():
        return
        yield

    rt.spawn("worker", worker())
    assert rt.finalize().kind is VerdictKind.OK


def _parked(ch, order, name):
    # parks on ch and records its name when a write there wakes it
    yield ch
    order.append(name)


def test_scheduling_is_deterministic_in_seed():
    def run_once(seed):
        rt = make_rt(seed=seed)
        ch = Channel("c")
        order = []
        for name in ("a", "b", "c", "d", "e"):
            rt.spawn(name, _parked(ch, order, name))
        rt.att_write(ch, rt.cs.w_to_string(b"go"))
        return order

    assert run_once(3) == run_once(3)
    runs = {tuple(run_once(s)) for s in range(20)}
    assert len(runs) > 1  # the order really is schedule-dependent


def test_schedule_is_one_seeded_shuffle_per_drain_of_several_roles():
    for seed in range(10):
        rt = make_rt(seed=seed)
        ch = Channel("c")
        order = []

        def talker(name):
            order.append(name)
            return
            yield

        # a drain with one runnable role draws nothing from the scheduler
        rt.spawn("alone", talker("alone"))
        names = ["a", "b", "c", "d"]
        for name in names:
            rt.spawn(name, _parked(ch, order, name))
        rt.att_write(ch, rt.cs.w_to_string(b"go"))
        expected = list(names)
        random.Random(seed ^ 0x5EED).shuffle(expected)
        assert order == ["alone"] + expected


def test_finished_roles_leave_the_schedule_and_stay_counted():
    rt = make_rt()
    channels = [Channel(f"c{i}") for i in range(3)]

    def quick():
        return
        yield

    def waiter(ch):
        yield from rt.channel_read(ch)

    for ch in channels:
        rt.spawn("quick", quick())
        rt.spawn("wait", waiter(ch))
    rt.drain()
    rt.att_write(channels[1], rt.cs.w_to_string(b"go"))
    rt.drain()
    assert [t.name for t in rt.roles] == [
        "quick#1", "wait#2", "quick#3", "wait#4", "quick#5", "wait#6",
    ]
    assert rt.finalize() == Verdict(
        VerdictKind.DEADLOCK, "wait#2, wait#6", "roles still waiting at end of run",
    )


def test_verdict_to_dict():
    rt = make_rt()
    v = rt.finalize()
    assert v.to_dict() == {"kind": "ok", "location": None, "detail": None}


# -- one precedence rule -------------------------------------------------------


def _read_empty_channel(rt):
    rt.att_read(Channel("c"))


def _role_sends_secret(rt):
    key = rt.cs.w_fresh(HmacKey(PresharedKey(Literal(b"A"), Literal(b"B"))), 16, rt.rand)

    def leaky():
        rt.role_write(Channel("c"), key)
        yield

    rt.spawn("leaky", leaky())
    rt.drain()


def _role_fails_assertion(rt):
    def liar():
        rt.assert_event(False, "liar", "always fails")
        yield

    rt.spawn("liar", liar())
    rt.drain()


def _role_parks(rt):
    def waiter():
        yield from rt.channel_read(Channel("never"))

    rt.spawn("waiter", waiter())


def _role_finishes(rt):
    def worker():
        return
        yield

    rt.spawn("worker", worker())


# how a run ends -> (what it does, its verdict when no assumption failed)
RUN_ENDINGS = {
    "deadlocked-att-read": (_read_empty_channel, VerdictKind.DEADLOCK),
    "role-contract-violation": (_role_sends_secret, VerdictKind.CONTRACT_VIOLATION),
    "failed-assertion": (_role_fails_assertion, VerdictKind.ASSERTION_FAILURE),
    "parked-role": (_role_parks, VerdictKind.DEADLOCK),
    "all-finished": (_role_finishes, VerdictKind.OK),
}


@pytest.mark.parametrize("ending", sorted(RUN_ENDINGS))
@pytest.mark.parametrize("recorded", [
    (),
    (AssumptionKind.COLLISION, AssumptionKind.LUCKY_GUESS),
    (AssumptionKind.LUCKY_GUESS, AssumptionKind.COLLISION),
], ids=["none", "collision-first", "lucky-guess-first"])
def test_first_assumption_failure_outranks_every_verdict(ending, recorded):
    rt = make_rt()
    for kind in recorded:
        rt.cs._record_failure(kind, kind.value.encode(), None, None)
    act, kind = RUN_ENDINGS[ending]
    try:
        act(rt)
    except _StopRun:
        pass
    v = rt.finalize()
    if not recorded:
        assert v.kind is kind
        assert rt.suppressed == []
        return
    assert v == Verdict(VerdictKind.ASSUMPTION_FAILURE, None, recorded[0].value)
    assert v.exit_code == 11
    # a failed assertion or contract violation is kept as suppressed
    overruled = kind in (VerdictKind.ASSERTION_FAILURE, VerdictKind.CONTRACT_VIOLATION)
    assert len(rt.suppressed) == overruled
