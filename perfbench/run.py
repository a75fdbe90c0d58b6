#!/usr/bin/env python3
"""The dymon benchmark: fuzz throughput, time to first attack, long replays.

    python3 perfbench/run.py --workload fuzz-rpc16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one thread, dymon's public API imported from ./src of the
checkout.  With --trace 0 it measures end to end; with --trace 1 it runs
every operation twice, untraced and traced on the same inputs, and reports
per-layer numbers from the traced copy (see tracer.py).  Every output is
checked; an operation whose output is wrong, or from which an exception
escapes dymon, counts as failed.  The last line of standard output is a
JSON object with the metrics BENCHMARK.json declares for the mode; the
lines before it report every metric by name and unit.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import programs  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

SETUP_RUNS = 15
SPAN_DIR = ROOT / ".bench_out"


@dataclass(frozen=True)
class FuzzSpec:
    """One operation is one fuzz_attacks(protocol, count, max_len, seed) call."""

    protocol: str
    max_len: int
    count: int
    # calls made however long they take; the first-attack metrics use only
    # these, so they are the same for the same seed
    fixed_calls: int
    # the corpus holds a known attack that every call must find
    known_attack: bool


@dataclass(frozen=True)
class ReplaySpec:
    """One operation is one run_attack of a long honest program."""

    programs: tuple[tuple[str, str, int], ...]  # (name, protocol, k)
    # (metric suffix, name at small k, name at large k) for log-log slopes
    slopes: tuple[tuple[str, str, str], ...]


WORKLOADS = {
    "fuzz-rpc16": FuzzSpec("rpc-flawed", 16, count=2000, fixed_calls=10, known_attack=True),
    "fuzz-or64": FuzzSpec("otway-rees", 64, count=1000, fixed_calls=2, known_attack=False),
    "replay-long": ReplaySpec(
        programs=(("rpc_k50", "rpc-correct", 50), ("rpc_k200", "rpc-correct", 200),
                  ("or_k100", "otway-rees", 100)),
        slopes=(("rpc", "rpc_k50", "rpc_k200"),),
    ),
}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def _spread(values: list[float]) -> str:
    if len(values) < 4:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, quartiles {q1:.6g}..{q3:.6g}"


def _loop(seconds: float, min_ops: int, op, between=None) -> None:
    """Run op at least min_ops times, and while that ends nearer to the time.

    Stopping once another op would end further past the time than this one
    is short of it keeps whole ops and a run length within half an op.
    between(share), if given, runs before each op and once at the end with
    the share of the time used so far; its own time is not counted.
    """
    started = time.perf_counter()
    paused = 0.0
    done = 0
    while True:
        elapsed = time.perf_counter() - started - paused
        if done >= min_ops and elapsed + elapsed / max(done, 1) / 2 > seconds:
            break
        if between is not None:
            pause = time.perf_counter()
            between(elapsed / seconds if seconds > 0 else 1.0)
            paused += time.perf_counter() - pause
        op()
        done += 1
    if between is not None:
        between(1.0)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# fuzz workloads


def check_fuzz(dymon, spec: FuzzSpec, res) -> list[str]:
    problems = []
    if sum(res.histogram.values()) != spec.count:
        problems.append(f"histogram sums to {sum(res.histogram.values())}, not {spec.count}")
    if res.secrecy_violations:
        problems.append(f"{len(res.secrecy_violations)} weak-secrecy violations")
    if spec.known_attack:
        splice = dymon.CORPUS[spec.protocol].index(dymon.RPC_SPLICE)
        if not any(c["iteration"] == splice for c in res.counterexamples):
            problems.append("corpus response splice not found")
    elif res.counterexamples or res.histogram.get("assertion-failure"):
        problems.append("assertion failure on a protocol with no known attack")
    for c in res.counterexamples:
        again = dymon.run_attack(c["program"], spec.protocol, seed=c["seed"]).verdict
        if (again.kind.value, again.location) != (c["verdict"]["kind"], c["verdict"]["location"]):
            problems.append(f"counterexample at iteration {c['iteration']} replays to "
                            f"{again.kind.value} at {again.location}")
    return problems


def _fuzz_fingerprint(res) -> tuple:
    return (dict(res.histogram), [(c["iteration"], c["seed"], c["verdict"]) for c in
                                  res.counterexamples], len(res.secrecy_violations))


def first_attack(fixed: list) -> tuple[int, int, bool]:
    """(generated counterexamples, generated programs up to the first one, censored).

    The fixed calls are read as one stream of generated programs; corpus
    programs do not count.  Without a generated counterexample the count is
    censored at the number of generated programs.
    """
    found, budget, first = 0, 0, None
    for res in fixed:
        generated = [c for c in res.counterexamples if c["iteration"] >= res.corpus_runs]
        found += len(generated)
        if first is None and generated:
            first = budget + generated[0]["iteration"] - res.corpus_runs + 1
        budget += res.count - res.corpus_runs
    return found, (budget if first is None else first), first is None


def run_fuzz(dymon, spec: FuzzSpec, seed: int, seconds: float, tracer: Tracer | None,
             between=None) -> tuple[Outcome, list[float], list[float]]:
    out = Outcome()
    rng = random.Random(seed)
    rates, plain_s, traced_s, fixed = [], [], [], []

    def call(call_seed: int):
        t0 = time.perf_counter()
        res = dymon.fuzz_attacks(spec.protocol, count=spec.count, max_len=spec.max_len,
                                 seed=call_seed)
        return res, time.perf_counter() - t0

    def op():
        call_seed = rng.getrandbits(32)
        out.attempted += 1
        try:
            res, dt = call(call_seed)
            if out.attempted <= spec.fixed_calls:
                fixed.append(res)
            if tracer is not None:
                tracer.op = out.attempted
                with tracer:
                    traced, tdt = call(call_seed)
                if _fuzz_fingerprint(traced) != _fuzz_fingerprint(res):
                    out.fail(f"seed {call_seed}: traced verdicts differ from untraced")
                    return
                plain_s.append(dt)
                traced_s.append(tdt)
            problems = check_fuzz(dymon, spec, res)
        except Exception as exc:  # anything escaping dymon is a failed operation
            out.fail(f"fuzz_attacks seed {call_seed}: {_describe(exc)}")
            return
        if problems:
            out.fail(f"fuzz_attacks seed {call_seed}: " + "; ".join(problems))
        rates.append(spec.count / dt)

    _loop(seconds, 1 if tracer is not None else spec.fixed_calls, op, between)

    for kind in sorted({kind for res in fixed for kind in res.histogram}):
        out.metrics[f"verdicts.{kind}"] = (float(sum(r.histogram.get(kind, 0) for r in fixed)),
                                          "count")
    out.report.append(f"verdicts.* and first_cex_* cover the first {len(fixed)} calls")
    if rates:
        out.metrics["programs_per_s"] = (statistics.median(rates), "1/s")
        out.report.append(f"programs_per_s over calls of {spec.count}: {_spread(rates)}")
    if spec.known_attack and tracer is None:
        found, first, censored = first_attack(fixed)
        out.metrics["cex_generated"] = (float(found), "count")
        out.metrics["first_cex_programs"] = (float(first), "programs")
        if rates:
            out.metrics["first_cex_s"] = (first / statistics.median(rates), "s")
        if censored:
            out.report.append(f"no generated counterexample in {first} generated programs: "
                              "first_cex_* are censored at the budget")
    return out, plain_s, traced_s


# ---------------------------------------------------------------------------
# long replays


def check_replay(r, k: int) -> list[str]:
    problems = []
    if r.verdict.kind.value != "ok":
        problems.append(f"verdict {r.verdict.kind.value} at {r.verdict.location}")
    if r.assertions_checked != 2 * k:
        problems.append(f"{r.assertions_checked} assertions checked, not {2 * k}")
    if r.state.failures or r.suppressed:
        problems.append("assumption failures recorded")
    return problems


def _replay_fingerprint(r) -> tuple:
    return (r.verdict, r.assertions_checked, len(r.state.log), len(r.state.table))


def run_replay(dymon, spec: ReplaySpec, seed: int, seconds: float, tracer: Tracer | None,
               between=None) -> tuple[Outcome, list[float], list[float]]:
    out = Outcome()
    rng = random.Random(seed)
    texts = {name: programs.BUILDERS[proto](k, rng) for name, proto, k in spec.programs}
    times: dict[str, list[float]] = {name: [] for name, _, _ in spec.programs}
    plain_s, traced_s = [], []

    def call(name: str, proto: str, run_seed: int):
        t0 = time.perf_counter()
        r = dymon.run_attack(texts[name], proto, seed=run_seed)
        return r, time.perf_counter() - t0

    def cycle():
        for name, proto, k in spec.programs:
            run_seed = rng.getrandbits(32)
            out.attempted += 1
            try:
                r, dt = call(name, proto, run_seed)
                if tracer is not None:
                    tracer.op = out.attempted
                    with tracer:
                        traced, tdt = call(name, proto, run_seed)
                    if _replay_fingerprint(traced) != _replay_fingerprint(r):
                        out.fail(f"{name} seed {run_seed}: traced run differs from untraced")
                        continue
                    plain_s.append(dt)
                    traced_s.append(tdt)
                problems = check_replay(r, k)
            except Exception as exc:  # anything escaping dymon is a failed operation
                out.fail(f"{name} seed {run_seed}: {_describe(exc)}")
                continue
            del r  # the next program's peak memory should not include this state
            if problems:
                out.fail(f"{name} seed {run_seed}: " + "; ".join(problems))
            times[name].append(dt)

    _loop(seconds, 1, cycle, between)

    if all(times.values()):
        med = {name: statistics.median(ts) for name, ts in times.items()}
        for name, ts in times.items():
            out.metrics[f"replay_s.{name}"] = (med[name], "s")
            out.report.append(f"replay_s.{name}: {_spread(ts)}")
        total = sum(med.values())
        out.metrics["programs_per_s"] = (len(med) / total, "1/s")
        out.metrics["exchanges_per_s"] = (sum(k for _, _, k in spec.programs) / total, "1/s")
        ks = {name: k for name, _, k in spec.programs}
        for suffix, small, large in spec.slopes:
            slope = math.log(med[large] / med[small]) / math.log(ks[large] / ks[small])
            out.metrics[f"scaling.{suffix}"] = (slope, "slope")
    return out, plain_s, traced_s


# ---------------------------------------------------------------------------
# set-up, memory, layers


class SetupProbes:
    """Seconds to import dymon and run a first program, in fresh interpreters.

    Called with the share of the run's time used so far, it takes that
    share of its SETUP_RUNS samples.  Spreading them over the run means a
    short burst of load from elsewhere on the host hits few of them.
    """

    def __init__(self, protocol: str):
        self.protocol = protocol
        self.samples: list[float] = []

    def __call__(self, share: float) -> None:
        while len(self.samples) < math.ceil(SETUP_RUNS * min(share, 1.0)):
            done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), self.protocol],
                                  capture_output=True, text=True, timeout=120, cwd=ROOT)
            if done.returncode != 0:
                raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
            self.samples.append(float(done.stdout.strip().splitlines()[-1]))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def layer_metrics(tracer: Tracer, ops: int, plain_s: list[float],
                  traced_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer numbers, per traced operation."""
    m: dict[str, tuple[float, str]] = {}
    for name, _, _ in TARGETS:
        stat = tracer.stats[name]
        m[f"{name}.calls"] = (stat.calls / ops, "count/op")
        m[f"{name}.self_ms"] = (stat.self_ns / 1e6 / ops, "ms/op")
    generated = [verdict for gen, verdict, _ in tracer.runs if gen]
    m["fuzz.useful_ratio"] = (
        sum(v != "deadlock" for v in generated) / len(generated) if generated else 0.0, "ratio")
    level_calls = tracer.stats["levels.level"].calls
    m["levels.memo_hit_ratio"] = (
        1 - tracer.counts["levels.decide"] / level_calls if level_calls else 0.0, "ratio")
    m["state.audit.share"] = (tracer.stats["state.audit"].total_ns / 1e9 / sum(traced_s), "ratio")
    m["terms.log_len.final"] = (
        float(statistics.mean(n for _, _, n in tracer.runs)) if tracer.runs else 0.0, "events")
    m["trace.overhead_ratio"] = (sum(traced_s) / sum(plain_s), "ratio")
    return m


# ---------------------------------------------------------------------------
# entry point


def import_dymon():
    if not (SRC / "dymon" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dymon sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dymon

    if Path(dymon.__file__).resolve().parent != (SRC / "dymon").resolve():
        raise SystemExit(f"perfbench: imported dymon from {dymon.__file__}, not {SRC}")
    return dymon


def run_workload(dymon, name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = WORKLOADS[name]
    tracer = Tracer() if trace else None
    runner = run_fuzz if isinstance(spec, FuzzSpec) else run_replay
    protocol = spec.protocol if isinstance(spec, FuzzSpec) else spec.programs[0][1]
    setup = None if trace else SetupProbes(protocol)
    out, plain_s, traced_s = runner(dymon, spec, seed, seconds, tracer, setup)
    if setup is not None:
        out.metrics["setup_s"] = (statistics.median(setup.samples), "s")
        out.report.append(f"setup_s: {_spread(setup.samples)}")
    out.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    out.metrics["failed_ops_share"] = (out.failed / max(out.attempted, 1), "ratio")
    if tracer is not None and traced_s:
        out.metrics.update(layer_metrics(tracer, len(traced_s), plain_s, traced_s))
        SPAN_DIR.mkdir(exist_ok=True)
        spans = SPAN_DIR / f"{name}-seed{seed}.spans.jsonl"
        tracer.write_spans(spans)
        out.report.append(f"{len(tracer.spans)} spans written to {spans.relative_to(ROOT)}, "
                          f"{tracer.dropped} beyond the cap dropped")
    return out


def declared_metrics(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_report(name: str, out: Outcome) -> None:
    print(f"== {name}: {out.attempted} operations, {out.failed} failed")
    for metric, (value, unit) in sorted(out.metrics.items()):
        print(f"  {metric} = {value:.6g} {unit}")
    for line in out.report:
        print(f"  # {line}")
    for problem in out.problems:
        print(f"  ! {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dymon = import_dymon()
    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = {n: run_workload(dymon, n, args.seed, args.seconds, trace) for n in names}
    declared = declared_metrics(trace)
    complete = True
    for out in outcomes.values():
        missing = [m for m in declared if m not in out.metrics]
        if missing:
            complete = False
            out.problems.append("no value for " + ", ".join(missing))
    for n, out in outcomes.items():
        print_report(n, out)

    if args.workload == "all":
        # every metric of every workload, prefixed with the workload name
        metrics = {f"{n}.{m}": vu for n, out in outcomes.items() for m, vu in out.metrics.items()}
    else:
        out = outcomes[args.workload]
        metrics = {m: out.metrics.get(m, (0.0, "none")) for m in declared}
    print(json.dumps({
        "correct": complete and all(out.correct for out in outcomes.values()),
        "attempted": sum(out.attempted for out in outcomes.values()),
        "failed": sum(out.failed for out in outcomes.values()),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
