"""Command line front end.

Three subcommands:

    run    execute one attack program against a protocol and report the
           verdict; the process exit code encodes the verdict
    fuzz   generate and run many attack programs, bucket the verdicts,
           and save decisive counterexamples
    query  decide the level judgement for a term over a saved run report
           (`run --json` or `run --dump`) or plain event log

Exit codes: 0 ok, 10 assertion failure, 11 assumption failure, 12
deadlock, 13 contract violation, 2 usage or input errors.  ``fuzz`` exits
10 on a counterexample; ``query`` exits 1 when the judgement does not
hold, and also 2 when two distinct equal terms are too deep to compare
(see terms).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .attacker import PROTOCOLS, _lookup, run_attack
from .errors import AttackSyntaxError, TermSyntaxError
from .fuzz import fuzz_attacks
from .levels import Level, explain, level
from .scripts import HONEST_DRIVERS
from .terms import Convention, Log, parse_event, parse_term, render_term


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dymon",
        description="symbolic-crypto runtime: replay and fuzz attack programs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one attack program")
    run.add_argument("protocol", choices=PROTOCOLS)
    run.add_argument("script", nargs="?", help="attack program file")
    run.add_argument("--honest", action="store_true",
                     help="use the built-in honest relay instead of a file")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--json", action="store_true", help="machine-readable report")
    run.add_argument("--dump", metavar="PATH", help="write the --json report to PATH")

    fz = sub.add_parser("fuzz", help="fuzz a protocol with generated programs")
    fz.add_argument("protocol", choices=PROTOCOLS)
    fz.add_argument("--count", type=_non_negative, default=1000)
    fz.add_argument("--max-len", type=_non_negative, default=16, dest="max_len")
    fz.add_argument("--seed", type=int, default=0)
    fz.add_argument("--out-dir", metavar="DIR",
                    help="directory for counterexample programs")
    fz.add_argument("--json", action="store_true")

    q = sub.add_parser("query", help="decide a level judgement over a log")
    q.add_argument("logfile", help="run report from `run --json` or `run --dump`, judged under"
                   " its protocol's convention, or one rendered event per line")
    q.add_argument("--level", choices=("low", "high"), required=True)
    q.add_argument("--term", required=True, help="term in canonical rendering")
    q.add_argument("--explain", action="store_true",
                   help="print the derivation attempt")
    return p


def _load_log(path: str) -> Log:
    text = Path(path).read_text(encoding="utf-8-sig")
    if text.lstrip().startswith("{"):
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("log JSON nested too deeply") from None
        if "events" not in doc:
            raise ValueError("log JSON has no 'events' list")
        lines = doc["events"]
        if not isinstance(lines, list) or not all(isinstance(ln, str) for ln in lines):
            raise ValueError("'events' must be a list of rendered events")
        # a run report is judged under its protocol's convention, never a guessed one
        if "protocol" not in doc:
            raise ValueError("log JSON names no protocol; a dump from before --dump wrote the"
                             " run report must be written again with `dymon run --dump`")
        _, _, convention = _lookup(doc["protocol"])
    else:
        convention = Convention()
        lines = [ln for ln in text.splitlines() if ln.strip()]
    log = Log.empty(convention)
    for ln in lines:
        log = log.add(parse_event(ln))
    return log


def _cmd_run(args) -> int:
    if args.honest == bool(args.script):
        print("run: give exactly one of a script file or --honest", file=sys.stderr)
        return 2
    if args.honest:
        text = HONEST_DRIVERS[args.protocol]
    else:
        try:
            text = Path(args.script).read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"run: cannot read {args.script}: {exc}", file=sys.stderr)
            return 2
    try:
        result = run_attack(text, args.protocol, seed=args.seed)
    except AttackSyntaxError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2

    # one document, so --dump and --json cannot disagree; it renders every
    # event and table term, which a plain run does not print
    if args.json or args.dump:
        text = json.dumps(result.to_report(), indent=2, sort_keys=True) + "\n"
    if args.dump:
        try:
            Path(args.dump).write_text(text)
        except OSError as exc:
            print(f"run: cannot write {args.dump}: {exc}", file=sys.stderr)
            return 2
    v, cs = result.verdict, result.state
    if args.json:
        print(text, end="")
    else:
        print(f"verdict: {v.kind.value} (exit {v.exit_code})")
        if v.location:
            print(f"  at: {v.location}")
        if v.detail:
            print(f"  detail: {v.detail}")
        print(f"events logged: {len(cs.log)}")
        print(
            f"assertions checked: {result.assertions_checked}"
            f" (suppressed failures: {result.suppressed})"
        )
        for f in cs.failures:
            line = f"assumption failure: {f.kind.value} on 0x{f.data.hex()} {f.note}".rstrip()
            for w, t in (("existing", f.existing), ("attempted", f.attempted)):
                if t is not None:
                    line += f"; {w} {render_term(t)}"
            print(line)
        for note in cs.soundness_notes:
            print(f"soundness note: {note}")
    return v.exit_code


def _cmd_fuzz(args) -> int:
    out = Path(args.out_dir) if args.out_dir else None
    try:
        if out:  # before the run, so a bad directory fails fast
            out.mkdir(parents=True, exist_ok=True)
        result = fuzz_attacks(
            args.protocol, count=args.count, max_len=args.max_len, seed=args.seed
        )
        if out:
            for cex in result.counterexamples:
                name = f"counterexample_{cex['iteration']}.dsl"
                replay = f"# dymon run {result.protocol} {name} --seed {cex['seed']}\n"
                (out / name).write_text(replay + cex["program"])
    except OSError as exc:
        print(f"fuzz: cannot write to {args.out_dir}: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(result.to_report(), indent=2, sort_keys=True))
    else:
        print(
            f"ran {result.count} programs against {result.protocol}"
            f" (seed {result.seed}, max-len {result.max_len})"
            f" in {result.elapsed:.1f}s"
        )
        for kind, n in sorted(result.histogram.items()):
            print(f"  {kind}: {n}")
        where = f" (saved to {args.out_dir})" if args.out_dir else ""
        print(f"counterexamples: {len(result.counterexamples)}{where}")
        print(f"secrecy violations: {len(result.secrecy_violations)}")
    return 10 if result.counterexamples else 0


def _cmd_query(args) -> int:
    lv = Level.LOW if args.level == "low" else Level.HIGH
    try:
        try:
            log = _load_log(args.logfile)
            term = parse_term(args.term)
        except (OSError, ValueError, TermSyntaxError) as exc:
            print(f"query: {exc}", file=sys.stderr)
            return 2
        holds = level(lv, term, log)
        out = (
            "\n".join(explain(lv, term, log)) if args.explain
            else f"level({args.level}, {args.term}) = {str(holds).lower()}"
        )
    except RecursionError as exc:
        # the log's lookups and the level memo compare trees parsed apart,
        # and equal ones deeper than the recursion limit cannot be compared
        print(f"query: terms too deep to compare: {exc}", file=sys.stderr)
        return 2
    print(out)
    return 0 if holds else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = {"run": _cmd_run, "fuzz": _cmd_fuzz, "query": _cmd_query}[args.command]
    return command(args)


if __name__ == "__main__":
    sys.exit(main())
