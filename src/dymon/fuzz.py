"""Type-directed random generation of attack programs, plus the fuzz loop.

Programs are generated straight against the typed attacker interface, so
every generated statement is well formed by construction.  The loop runs
the embedded corpus first (known-interesting programs, validated like any
program from outside), then generated ones, and buckets runs by verdict.
A generated statement is drawn only when the interpreter asks for it: it
runs once, as it is drawn, without being validated again, and none is
drawn after the run has ended.  Runs whose verdict is a decisive assertion
failure are kept as counterexamples: the corpus text, or exactly the
generated statements that ran.  Every run is also swept for weak-secrecy
violations in its final log.

Everything is deterministic in (protocol, count, max_len, seed).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator

from .attacker import _run, interface_for, run_attack
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


# (protocol, kinds with a non-empty pool) -> the callable (fn, sig) entries
# in interface order and their cumulative pick weights; built on first use,
# at most 2**len(ValueKind) entries per protocol
_MENUS: dict[tuple[str, frozenset[ValueKind]], tuple[tuple, tuple[int, ...]]] = {}


def _menu(protocol: str, ready: frozenset[ValueKind]) -> tuple[tuple, tuple[int, ...]]:
    key = (protocol, ready)
    menu = _MENUS.get(key)
    if menu is None:
        fns = tuple(
            (fn, sig) for fn, sig in interface_for(protocol).items()
            if all(p in ready for p in sig.params)
        )
        menu = _MENUS[key] = (fns, tuple(accumulate(_WEIGHTS.get(fn, 2) for fn, _ in fns)))
    return menu


def _statements(rng: random.Random, protocol: str, max_len: int) -> Iterator[Statement]:
    """Yield a random well-typed program of at most max_len commands,
    drawing each statement from rng only when it is asked for."""
    interface_for(protocol)  # unknown protocols fail at the first draw
    pools: dict[ValueKind, list[str]] = {k: [] for k in ValueKind}
    ready: frozenset[ValueKind] = frozenset()  # kinds with a non-empty pool
    names = 0
    # seed the pools: a couple of principal names and payload words, so the
    # setup and conversion functions are callable from the start
    words = rng.sample(_WORDS[:4], k=2) + rng.sample(_WORDS, k=2)
    for n in range(max_len):
        if n < len(words):
            kind = ValueKind.STRING
        else:
            # cum_weights draws the same random() and picks the same entry
            # as weights= over the same list would
            fns, cum = _menu(protocol, ready)
            fn, sig = rng.choices(fns, cum_weights=cum)[0]
            args = tuple(rng.choice(pools[p]) for p in sig.params)
            kind = sig.result
        var = None
        if kind is not None:
            var = f"v{names}"
            names += 1
            yield Decl(var, kind)
            pool = pools[kind]
            if not pool:
                ready |= {kind}
            pool.append(var)
        yield AssignString(var, words[n]) if n < len(words) else Call(fn, args, var)


def generate_program(rng: random.Random, protocol: str, max_len: int) -> AttackProgram:
    """Random well-typed straight-line program with at most max_len commands."""
    return AttackProgram(tuple(_statements(rng, protocol, max_len)))


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
            # ran records the statements as they run, for a counterexample
            ran: list[Statement] = []
            drawn = _statements(rng, protocol, max_len)
            result = _run((ran.append(st) or st for st in drawn), protocol, run_seed, None, None)
        histogram[result.verdict.kind.value] += 1

        if result.verdict.kind is VerdictKind.ASSERTION_FAILURE:
            if i >= len(corpus):
                program = format_attack(AttackProgram(tuple(ran)))
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
