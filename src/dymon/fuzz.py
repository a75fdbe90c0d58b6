"""Type-directed random generation of attack programs, plus the fuzz loop.

Programs are generated straight against the typed attacker interface, so
every generated program is well formed by construction.  The loop replays
the embedded corpus first (known-interesting programs), then generated
ones, and buckets runs by verdict.  Runs whose verdict is a decisive
assertion failure are kept verbatim as counterexamples; every run is also
swept for weak-secrecy violations in its final log.

Everything is deterministic in (protocol, count, max_len, seed).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from .attacker import interface_for, run_attack
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


class _Builder:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.statements: list[Statement] = []
        self.pools: dict[ValueKind, list[str]] = {k: [] for k in ValueKind}
        self.ready: frozenset[ValueKind] = frozenset()  # kinds with a non-empty pool
        self._next = 0
        self.commands = 0

    def _fresh(self, kind: ValueKind) -> str:
        name = f"v{self._next}"
        self._next += 1
        self.statements.append(Decl(name, kind))
        pool = self.pools[kind]
        if not pool:
            self.ready |= {kind}
        pool.append(name)
        return name

    def emit_string(self, value: bytes) -> str:
        name = self._fresh(ValueKind.STRING)
        self.statements.append(AssignString(name, value))
        self.commands += 1
        return name

    def emit_call(self, fn: str, params, result) -> None:
        args = tuple(self.rng.choice(self.pools[p]) for p in params)
        var = None if result is None else self._fresh(result)
        self.statements.append(Call(fn, args, var))
        self.commands += 1


def generate_program(rng: random.Random, protocol: str, max_len: int) -> AttackProgram:
    """Random well-typed straight-line program with at most max_len commands."""
    interface_for(protocol)  # unknown protocols fail here, not at the first call
    b = _Builder(rng)

    # seed the pools: a couple of principal names and payload words, so the
    # setup and conversion functions are callable from the start
    for word in rng.sample(_WORDS[:4], k=2) + list(rng.sample(_WORDS, k=2)):
        if b.commands >= max_len:
            break
        b.emit_string(word)

    while b.commands < max_len:
        # cum_weights draws the same random() and picks the same entry as
        # weights= over the same list would
        fns, cum = _menu(protocol, b.ready)
        fn, sig = rng.choices(fns, cum_weights=cum)[0]
        b.emit_call(fn, sig.params, sig.result)
    return AttackProgram(tuple(b.statements))


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
        else:
            program = generate_program(rng, protocol, max_len)
        result = run_attack(program, protocol, seed=run_seed)
        histogram[result.verdict.kind.value] += 1

        if result.verdict.kind is VerdictKind.ASSERTION_FAILURE:
            text = program if isinstance(program, str) else format_attack(program)
            out.counterexamples.append({
                "iteration": i,
                "seed": run_seed,
                "verdict": result.verdict.to_dict(),
                "program": text,
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
