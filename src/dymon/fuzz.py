"""Type-directed random generation of attack programs, plus the fuzz loop.

Programs are generated straight against the typed attacker interface, so
every generated command is well formed by construction.  The loop runs
the embedded corpus first (known-interesting programs, validated like any
program from outside), then generated ones, and buckets runs by verdict.
A generated command is drawn as a step, the interpreter's compact
(fn, args, var) form (see attacker), only when the interpreter asks for
it: it runs once, as it is drawn, without being validated again, and none
is drawn after the run has ended.  No statement object is built on this
path.  Statements, with each declaration re-derived from the kind of what
is assigned, are built only by generate_program and for a kept
counterexample.  Runs whose verdict is a decisive assertion failure are
kept as counterexamples: the corpus text, or exactly the generated steps
that ran.  Every run is also swept for weak-secrecy violations in its
final log.

Everything is deterministic in (protocol, count, max_len, seed).
"""
from __future__ import annotations

import random
import time
from bisect import bisect
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator

from .attacker import Step, _run, interface_for, run_attack
from .dsl import (
    AssignString,
    AttackProgram,
    Call,
    Decl,
    Statement,
    ValueKind,
    format_attack,
)
from .levels import weak_secrecy_violations
from .runtime import VerdictKind
from .scripts import CORPUS
from .terms import render_term, render_usage

_WORDS = (
    b"Alice", b"Bob", b"Carol", b"Dave",
    b"Request", b"Response", b"Transfer", b"Hello",
    b"payload", b"x", b"0", b"\x00\x01", b"",
)

# relative pick weights; functions not listed default to 2
_WEIGHTS = {
    "att_setup": 10,
    "att_or_setup": 10,
    "att_getChannel_client": 6,
    "att_getChannel_server": 6,
    "att_getChannel_initiator": 6,
    "att_getChannel_responder": 6,
    "att_run_client": 6,
    "att_run_server": 6,
    "att_run_initiator": 6,
    "att_run_responder": 6,
    "att_channel_read": 5,
    "att_channel_write": 5,
    "att_toBytespub": 1,
    "att_hmacsha1Verify": 1,
}


# (protocol, kinds with a non-empty pool) -> the callable (fn, params,
# result) entries in interface order, their cumulative pick weights, the
# total weight as a float and the last index; built on first use, at most
# 2**len(ValueKind) entries per protocol
_Menu = tuple[tuple, tuple[int, ...], float, int]
_MENUS: dict[tuple[str, frozenset[ValueKind]], _Menu] = {}

# variable names v0, v1, ...; grown on demand, one name at a time
_NAMES: list[str] = []


def _new_name() -> str:
    name = f"v{len(_NAMES)}"
    _NAMES.append(name)
    return name


def _menu(protocol: str, ready: frozenset[ValueKind]) -> _Menu:
    key = (protocol, ready)
    menu = _MENUS.get(key)
    if menu is None:
        fns = tuple(
            (fn, sig.params, sig.result) for fn, sig in interface_for(protocol).items()
            if all(p in ready for p in sig.params)
        )
        cum = tuple(accumulate(_WEIGHTS.get(fn, 2) for fn, _, _ in fns))
        menu = _MENUS[key] = (fns, cum, cum[-1] + 0.0, len(cum) - 1)
    return menu


def _steps(rng: random.Random, protocol: str, max_len: int, ran: list[Step]) -> Iterator[Step]:
    """Yield the steps of a random well-typed program of at most max_len
    commands, drawing each from rng only when it is asked for and
    appending it to ran as it is yielded."""
    interface_for(protocol)  # unknown protocols fail at the first draw
    pools: dict[ValueKind, list[str]] = {k: [] for k in ValueKind}
    # seed the pools: a couple of principal names and payload words, so the
    # setup and conversion functions are callable from the start
    words = rng.sample(_WORDS[:4], k=2) + rng.sample(_WORDS, k=2)
    strings = pools[ValueKind.STRING]
    for n, word in enumerate(words[:max_len]):
        var = _NAMES[n] if n < len(_NAMES) else _new_name()
        strings.append(var)
        step = (None, word, var)
        ran.append(step)
        yield step
    names = len(strings)
    ready = frozenset({ValueKind.STRING})  # kinds with a non-empty pool
    menu = None  # the menu for ready, fetched by the next draw
    choice, rand, pool_of = rng.choice, rng.random, pools.__getitem__
    for _ in range(max_len - names):
        if menu is None:
            fns, cum, total, hi = menu = _menu(protocol, ready)
        # random.choices(fns, cum_weights=cum) draws the same random() and
        # picks the same entry (CPython 3.10-3.13; tests/test_fuzz.py checks)
        fn, params, kind = fns[bisect(cum, rand() * total, 0, hi)]
        args = tuple(map(choice, map(pool_of, params)))
        var = None
        if kind is not None:
            var = _NAMES[names] if names < len(_NAMES) else _new_name()
            names += 1
            pool = pools[kind]
            if not pool:
                ready |= {kind}
                menu = None
            pool.append(var)
        step = (fn, args, var)
        ran.append(step)
        yield step


def _program(steps: Iterable[Step], protocol: str) -> AttackProgram:
    """The program whose commands are the steps, each variable declared
    just before its assignment with the type of what is assigned."""
    interface = interface_for(protocol)
    statements: list[Statement] = []
    for fn, args, var in steps:
        if fn is None:
            statements += (Decl(var, ValueKind.STRING), AssignString(var, args))
            continue
        if var is not None:
            statements.append(Decl(var, interface[fn].result))
        statements.append(Call(fn, args, var))
    return AttackProgram(tuple(statements))


def generate_program(rng: random.Random, protocol: str, max_len: int) -> AttackProgram:
    """Random well-typed straight-line program with at most max_len commands."""
    steps: list[Step] = []
    for _ in _steps(rng, protocol, max_len, steps):
        pass
    return _program(steps, protocol)


@dataclass
class FuzzResult:
    protocol: str
    count: int
    max_len: int
    seed: int
    histogram: dict[str, int]
    counterexamples: list[dict] = field(default_factory=list)
    secrecy_violations: list[dict] = field(default_factory=list)
    corpus_runs: int = 0
    elapsed: float = 0.0

    def to_report(self) -> dict:
        return {
            "protocol": self.protocol,
            "count": self.count,
            "max_len": self.max_len,
            "seed": self.seed,
            "histogram": dict(sorted(self.histogram.items())),
            "counterexamples": self.counterexamples,
            "secrecy_violations": self.secrecy_violations,
            "corpus_runs": self.corpus_runs,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def fuzz_attacks(
    protocol: str,
    count: int,
    max_len: int = 16,
    seed: int = 0,
) -> FuzzResult:
    """Run count attack programs against the protocol; corpus first."""
    if count < 0 or max_len < 0:
        raise ValueError(f"count and max_len must be >= 0, got {count} and {max_len}")
    interface_for(protocol)  # an unknown protocol fails here, not at the first draw
    rng = random.Random(seed)
    corpus = CORPUS.get(protocol, ())
    histogram: Counter[str] = Counter()
    out = FuzzResult(protocol, count, max_len, seed, histogram)
    started = time.monotonic()

    for i in range(count):
        run_seed = rng.getrandbits(32)
        if i < len(corpus):
            program = corpus[i]
            out.corpus_runs += 1
            result = run_attack(program, protocol, seed=run_seed)
        else:
            ran: list[Step] = []  # the steps as they run, for a counterexample
            result = _run(_steps(rng, protocol, max_len, ran), protocol, run_seed, None, None)
        histogram[result.verdict.kind.value] += 1

        if result.verdict.kind is VerdictKind.ASSERTION_FAILURE:
            if i >= len(corpus):
                program = format_attack(_program(ran, protocol))
            out.counterexamples.append({
                "iteration": i,
                "seed": run_seed,
                "verdict": result.verdict.to_dict(),
                "program": program,
            })
        for lit, usage in weak_secrecy_violations(result.state.log):
            out.secrecy_violations.append({
                "iteration": i,
                "seed": run_seed,
                "term": render_term(lit),
                "usage": render_usage(usage),
            })

    out.elapsed = time.monotonic() - started
    return out
