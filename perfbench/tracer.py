"""Outside-in tracer: wraps dymon's layer entry points from benchmark code.

A function is wrapped wherever it is *bound*, not only where it is
defined: ``from .levels import level`` copies the name into ``state``,
``runtime``, ``protocols`` and ``attacker``, and each of those bindings is
what the caller actually looks up.  Methods are wrapped on their class.
``CryptoState.mac_fn`` captures ``backend.hmac_sha1`` when a state is
built, so the tracer must be installed before any state exists.

Each wrapped call is a span.  Self time is the span's duration minus the
duration of its direct child spans, which also handles recursive calls
such as ``level``.  Per-name totals are always exact; individual span
records are kept in memory up to a cap and written out at the end.
"""

from __future__ import annotations

import json
import sys
import types
from dataclasses import dataclass
from time import perf_counter_ns

# (metric prefix, owner module, attribute path) for every traced entry point
TARGETS = (
    ("fuzz.fuzz_attacks", "dymon.fuzz", "fuzz_attacks"),
    ("fuzz.generate_program", "dymon.fuzz", "generate_program"),
    ("dsl.parse_attack", "dymon.dsl", "parse_attack"),
    ("dsl.validate_attack", "dymon.dsl", "validate_attack"),
    ("dsl.format_attack", "dymon.dsl", "format_attack"),
    ("attacker.run_attack", "dymon.attacker", "run_attack"),
    ("runtime.Runtime.drain", "dymon.runtime", "Runtime.drain"),
    ("state.w_to_string", "dymon.state", "CryptoState.w_to_string"),
    ("state.w_fresh", "dymon.state", "CryptoState.w_fresh"),
    ("state.w_pair", "dymon.state", "CryptoState.w_pair"),
    ("state.w_destruct", "dymon.state", "CryptoState.w_destruct"),
    ("state.w_hmacsha1", "dymon.state", "CryptoState.w_hmacsha1"),
    ("state.w_hmacsha1_verify", "dymon.state", "CryptoState.w_hmacsha1_verify"),
    ("state.w_senc", "dymon.state", "CryptoState.w_senc"),
    ("state.w_sdec", "dymon.state", "CryptoState.w_sdec"),
    ("state.log_event", "dymon.state", "CryptoState.log_event"),
    ("state.audit", "dymon.state", "CryptoState._post_op"),
    ("levels.level", "dymon.levels", "level"),
    ("levels.can_hmac", "dymon.levels", "can_hmac"),
    ("levels.can_senc", "dymon.levels", "can_senc"),
    ("levels.weak_secrecy_violations", "dymon.levels", "weak_secrecy_violations"),
    ("terms.Log.add", "dymon.terms", "Log.add"),
    ("backend.hmac_sha1", "dymon.backend", "hmac_sha1"),
    ("backend.senc", "dymon.backend", "senc"),
    ("backend.sdec", "dymon.backend", "sdec"),
    ("wire.pair_encode", "dymon.wire", "pair_encode"),
    ("wire.pair_decode", "dymon.wire", "pair_decode"),
)

# counted but not timed: a call into the decision step is a level-memo miss
COUNTERS = (("levels.decide", "dymon.levels", "_decide"),)

SPAN_CAP = 100_000


@dataclass
class Stat:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0


def _dymon_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dymon" or name.startswith("dymon."))]


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def bindings(original) -> list[tuple[object, str]]:
    """Every (owner, attribute) in dymon through which original is reached."""
    found = []
    for mod in _dymon_modules():
        for attr, value in vars(mod).items():
            if value is original:
                found.append((mod, attr))
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [(value, a) for a, v in vars(value).items() if v is original]
    return found


class Tracer:
    """Install with ``with Tracer() as tr:``; leaving the block restores dymon."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.op = 0  # set by the caller; spans of one operation share it
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.dropped = 0
        # (program was generated, verdict kind, final log length) per run_attack
        self.runs: list[tuple[bool, str, int]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 1

    # -- install / restore ----------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for name, module, path in TARGETS:
                self._patch(module, path, self._timed(name, *_resolve(module, path)))
            for name, module, path in COUNTERS:
                self._patch(module, path, self._counted(name, *_resolve(module, path)))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, module: str, path: str, wrapper) -> None:
        owner, attr = _resolve(module, path)
        original = vars(owner)[attr]
        for where, name in bindings(original):
            self._patched.append((where, name, original))
            setattr(where, name, wrapper)

    def restore(self) -> None:
        while self._patched:
            where, name, original = self._patched.pop()
            setattr(where, name, original)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, owner, attr: str):
        fn = vars(owner)[attr]
        stat = self.stats.setdefault(name, Stat())
        stack, spans = self._stack, self.spans
        keep_result = name == "attacker.run_attack"

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                stat.calls += 1
                stat.self_ns += dur - frame[1]
                stat.total_ns += dur
                if stack:
                    stack[-1][1] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((self.op, span_id, parent, name, start, end))
                else:
                    self.dropped += 1
            if keep_result:
                self.runs.append((not isinstance(args[0], str),
                                  out.verdict.kind.value, len(out.state.log)))
            return out

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name: str, owner, attr: str):
        fn = vars(owner)[attr]
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- output ----------------------------------------------------------------

    def write_spans(self, path) -> None:
        """One JSON object per span; a last line says how many were dropped."""
        with open(path, "w") as out:
            for op, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({"op": op, "id": span_id, "parent": parent, "name": name,
                                      "start_ns": start, "end_ns": end}) + "\n")
            out.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
