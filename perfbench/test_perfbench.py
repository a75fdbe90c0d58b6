"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import re

import pytest

import run
import tracer
from programs import BUILDERS

dymon = run.import_dymon()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# the real workloads, cut down to a second or so each
SMALL = {
    "fuzz-rpc16": dataclasses.replace(run.WORKLOADS["fuzz-rpc16"], count=60, fixed_calls=2),
    "fuzz-or64": dataclasses.replace(run.WORKLOADS["fuzz-or64"], count=30, fixed_calls=1),
    "replay-long": dataclasses.replace(
        run.WORKLOADS["replay-long"],
        programs=(("rpc_k50", "rpc-correct", 2), ("rpc_k200", "rpc-correct", 5),
                  ("or_k100", "otway-rees", 2)),
    ),
}


def _benchmark_json() -> dict:
    with open(run.ROOT / "BENCHMARK.json") as f:
        return json.load(f)


@pytest.mark.parametrize("protocol", sorted(BUILDERS))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_long_program_builders_run_ok(protocol, k):
    text = BUILDERS[protocol](k, random.Random(k))
    program = dymon.parse_attack(text)
    dymon.validate_attack(program, dymon.interface_for(protocol))
    r = dymon.run_attack(text, protocol, seed=k)
    assert run.check_replay(r, k) == []
    assert r.assertions_checked == 2 * k


def test_benchmark_json_follows_the_contract():
    spec = _benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_emitted_name_is_well_formed_and_declared(monkeypatch, workload):
    monkeypatch.setitem(run.WORKLOADS, workload, SMALL[workload])
    spec = _benchmark_json()
    untraced = run.run_workload(dymon, workload, seed=3, seconds=0, trace=False)
    traced = run.run_workload(dymon, workload, seed=3, seconds=0, trace=True)
    for out, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert out.correct, out.problems
        for name, (value, unit) in out.metrics.items():
            assert NAME.fullmatch(name) and UNIT.fullmatch(unit), name
            assert isinstance(value, float) and value == value, name
        units = {m["name"]: m["unit"] for m in spec[section]}
        assert {n: out.metrics[n][1] for n in units} == units
    # every layer number the trace adds is declared
    assert set(traced.metrics) - set(untraced.metrics) == {m["name"] for m in spec["per_layer"]}


def test_tracer_wraps_every_binding_and_restores_all():
    def snapshot():
        seen = {}
        for mod in tracer._dymon_modules():
            for attr, value in vars(mod).items():
                seen[(mod.__name__, attr)] = value
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for a, v in vars(value).items():
                        seen[(mod.__name__, attr, a)] = v
        return seen

    before = snapshot()
    originals = {name: vars(owner)[attr] for name, module, path in tracer.TARGETS
                 for owner, attr in [tracer._resolve(module, path)]}
    with tracer.Tracer() as tr:
        for name, fn in originals.items():
            assert tracer.bindings(fn) == [], f"{name} still reachable unwrapped"
        assert dymon.state.level is not originals["levels.level"]
        r = dymon.run_attack(dymon.OR_HONEST, "otway-rees", seed=1)
    assert r.verdict.kind is dymon.VerdictKind.OK
    after = snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    for name in ("attacker.run_attack", "dsl.parse_attack", "state.w_senc", "state.w_sdec",
                 "backend.hmac_sha1", "wire.pair_decode", "terms.Log.add", "state.audit"):
        assert tr.stats[name].calls > 0, name
    # recursive level calls: self time never exceeds total time
    assert all(0 <= s.self_ns <= s.total_ns for s in tr.stats.values())
    assert tr.counts["levels.decide"] <= tr.stats["levels.level"].calls


def test_same_seed_gives_the_same_attack_metrics():
    spec = dataclasses.replace(SMALL["fuzz-rpc16"], count=200, fixed_calls=3)

    def deterministic(seed):
        out, _, _ = run.run_fuzz(dymon, spec, seed, seconds=0, tracer=None)
        assert out.correct, out.problems
        return {n: v for n, (v, _) in out.metrics.items()
                if n in ("cex_generated", "first_cex_programs") or n.startswith("verdicts.")}

    first = deterministic(5)
    assert sum(v for n, v in first.items() if n.startswith("verdicts.")) == 3 * 200
    assert deterministic(5) == first


def test_wrong_outputs_are_flagged():
    spec = run.WORKLOADS["fuzz-rpc16"]
    res = dymon.fuzz_attacks(spec.protocol, count=spec.count // 100, max_len=spec.max_len, seed=1)
    assert run.check_fuzz(dymon, dataclasses.replace(spec, count=res.count), res) == []
    res.counterexamples.clear()
    assert "corpus response splice not found" in run.check_fuzz(
        dymon, dataclasses.replace(spec, count=res.count), res)
    r = dymon.run_attack(BUILDERS["rpc-correct"](2, random.Random(0)), "rpc-correct")
    assert run.check_replay(r, 3) == ["4 assertions checked, not 6"]


def test_first_attack_counts_generated_programs_only():
    def res(count, corpus_runs, iterations):
        return dymon.FuzzResult("rpc-flawed", count, 16, 0, {}, corpus_runs=corpus_runs,
                                counterexamples=[{"iteration": i} for i in iterations])

    assert run.first_attack([res(10, 2, [1]), res(10, 2, [1])]) == (0, 16, True)
    assert run.first_attack([res(10, 2, [1]), res(10, 2, [1, 4, 7])]) == (2, 11, False)
