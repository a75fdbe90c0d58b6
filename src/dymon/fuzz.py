"""Type-directed random generation of attack programs, plus the fuzz loop.

Programs are generated straight against the typed attacker interface, so
every generated command is well formed by construction.  The loop runs
the embedded corpus first (known-interesting programs, which run_attack
parses and validates like any program from outside), then generated ones,
and buckets runs by verdict.  A generated command is drawn as a step (see
dsl) only when the interpreter asks for it: it runs once, as it is drawn,
without being validated again, and none is drawn after the run has
ended.  Only generate_program and a kept counterexample turn steps back
into a program, with dsl.program_of.  Draws come straight from the rng's
getrandbits and random(), restating random.py's own algorithms: the
prelude words as random.sample(pop, 2) draws them, each function as
random.choices draws it (picked by bisect over cached weights), and each
argument as random.choice draws it, so a program is the one those methods
would draw, without their Python frames.  tests/test_fuzz.py checks each
draw against the method it restates
(test_prelude_pick_agrees_with_random_sample,
test_bisect_pick_agrees_with_random_choices,
test_argument_draw_agrees_with_random_choice), and the pinned generation
digests check whole programs.  Runs whose verdict is a decisive
assertion failure are kept as counterexamples: the corpus text, or
exactly the generated steps that ran.  Every run is also swept for
weak-secrecy violations in its final log.

Everything is deterministic in (protocol, count, max_len, seed).
"""
from __future__ import annotations

import random
import time
from bisect import bisect
from collections import Counter
from itertools import accumulate
from typing import Iterator, Optional

from .attacker import _run, interface_for, run_attack
from .dsl import AttackProgram, Step, ValueKind, format_attack, program_of
from .levels import weak_secrecy_violations
from .runtime import VerdictKind
from .scripts import CORPUS
from .terms import render_term, render_usage

_WORDS = (
    b"Alice", b"Bob", b"Carol", b"Dave",
    b"Request", b"Response", b"Transfer", b"Hello",
    b"payload", b"x", b"0", b"\x00\x01", b"",
)
_PRINCIPALS = _WORDS[:4]

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

# bound once: iterating an Enum class and reading a member's .value are
# Python-level calls
_KINDS = tuple(ValueKind)
_STRING = ValueKind.STRING
_VERDICT_NAMES = {kind: kind.value for kind in VerdictKind}
_ASSERTION_FAILURE = VerdictKind.ASSERTION_FAILURE


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


def _two(getrandbits, pop: tuple) -> tuple:
    """rng.sample(pop, 2) for a pool of 2 to 21 items, drawn as random.sample
    draws it: an index below n, then one below n - 1 over the pool with its
    last item moved into the first pick's place."""
    n = len(pop)
    k = n.bit_length()
    i = getrandbits(k)
    while i >= n:
        i = getrandbits(k)
    n -= 1
    k = n.bit_length()
    j = getrandbits(k)
    while j >= n:
        j = getrandbits(k)
    return pop[i], pop[n] if j == i else pop[j]


def _steps(rng: random.Random, protocol: str, max_len: int, ran: list[Step]) -> Iterator[Step]:
    """Yield the steps of a random well-typed program of at most max_len
    commands, drawing each from rng only when it is asked for and
    appending it to ran as it is yielded; the caller has checked that the
    protocol exists."""
    pools: dict[ValueKind, list[str]] = {k: [] for k in _KINDS}
    getrandbits = rng.getrandbits
    # seed the pools: a couple of principal names and payload words, so the
    # setup and conversion functions are callable from the start
    words = _two(getrandbits, _PRINCIPALS) + _two(getrandbits, _WORDS)
    strings = pools[_STRING]
    for n, word in enumerate(words[:max_len]):
        var = _NAMES[n] if n < len(_NAMES) else _new_name()
        strings.append(var)
        step = (None, word, var)
        ran.append(step)
        yield step
    names = len(strings)
    ready = frozenset({_STRING})  # kinds with a non-empty pool
    menu = None  # the menu for ready, fetched by the next draw
    rand = rng.random
    for _ in range(max_len - names):
        if menu is None:
            fns, cum, total, hi = menu = _menu(protocol, ready)
        # random.choices(fns, cum_weights=cum) draws the same random() and
        # picks the same entry (CPython 3.10-3.13; tests/test_fuzz.py checks)
        fn, params, kind = fns[bisect(cum, rand() * total, 0, hi)]
        # each argument as random.choice(pool) draws it; the menu offers
        # only functions whose parameter pools are non-empty
        args = ()
        for p in params:
            pool = pools[p]
            n = len(pool)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            args += (pool[r],)
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


def generate_program(rng: random.Random, protocol: str, max_len: int) -> AttackProgram:
    """Random well-typed straight-line program with at most max_len commands."""
    interface = interface_for(protocol)  # an unknown protocol fails before any draw
    steps: list[Step] = []
    for _ in _steps(rng, protocol, max_len, steps):
        pass
    return program_of(steps, interface)


class FuzzResult:
    """The outcome of fuzz_attacks; a run fills it in as it goes."""

    def __init__(
        self,
        protocol: str,
        count: int,
        max_len: int,
        seed: int,
        histogram: dict[str, int],
        counterexamples: Optional[list[dict]] = None,
        secrecy_violations: Optional[list[dict]] = None,
        corpus_runs: int = 0,
        elapsed: float = 0.0,
    ):
        self.protocol = protocol
        self.count = count
        self.max_len = max_len
        self.seed = seed
        self.histogram = histogram
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.secrecy_violations = [] if secrecy_violations is None else secrecy_violations
        self.corpus_runs = corpus_runs
        self.elapsed = elapsed

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"FuzzResult({fields})"

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
    interface = interface_for(protocol)  # an unknown protocol fails here, not at the first draw
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
        kind = result.verdict.kind
        histogram[_VERDICT_NAMES[kind]] += 1

        if kind is _ASSERTION_FAILURE:
            if i >= len(corpus):
                program = format_attack(program_of(ran, interface))
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
