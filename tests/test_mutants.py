"""The mutant soundness net: honest-driver mutants reach the assertions.

None of the generated programs in the pinned run-report test gets past a
MAC verify, so no generated run there reaches a correspondence assertion or
a soundness note.  Mutants of the honest drivers (see mutants.py) do, and
here each runs under the same three primitive sets and the same soundness
check.  Under the default primitives the same mutants also check three
metamorphic relations: a run's verdict does not depend on its seed when
no write woke two roles, on steps that only make public data, or on the
driver's choice of words.
"""

import hashlib
import json
import random
from collections import Counter

from dymon import Literal, Runtime, ValueKind, VerdictKind, interface_for, run_attack
from dymon.dsl import program_of
from mutants import _pools, mutant
from oracles import PRIMITIVES, check_sound

COUNT = 200
MAX_LEN = {"rpc-correct": 24, "rpc-flawed": 24, "otway-rees": 32}

# default-primitive runs that checked an assertion, per protocol, as
# measured when the net landed; a change that lowers one has cut the net
REACH_FLOOR = {"rpc-correct": 139, "rpc-flawed": 144, "otway-rees": 92}


def test_mutant_reports_match_pinned_digest():
    # every mutant under every primitive set, checked for soundness, every
    # tenth run also against the saturation oracle
    h = hashlib.sha256()
    reach, kinds = Counter(), Counter()
    runs = 0
    for protocol, max_len in MAX_LEN.items():
        iface = interface_for(protocol)
        for i in range(COUNT):
            program = program_of(mutant(protocol, i, max_len), iface)
            for kw in PRIMITIVES:
                result = run_attack(program, protocol, seed=i, **kw)
                h.update(json.dumps(result.to_report(), sort_keys=True).encode())
                check_sound(protocol, result, oracle=runs % 10 == 0)
                runs += 1
                if not kw:
                    reach[protocol] += result.assertions_checked > 0
                    kinds[protocol, result.verdict.kind] += 1
    assert runs == 3 * len(MAX_LEN) * COUNT
    for protocol, floor in REACH_FLOOR.items():
        assert reach[protocol] >= floor, (protocol, reach[protocol])
    assert kinds["rpc-flawed", VerdictKind.ASSERTION_FAILURE] >= 1
    assert kinds["rpc-correct", VerdictKind.ASSERTION_FAILURE] == 0
    assert kinds["otway-rees", VerdictKind.ASSERTION_FAILURE] == 0
    assert h.hexdigest() == (
        "043852c71072be3e3bc8c7535a6e45c016ee34f8913e9add1367d791aeb72f92"
    )


def _mutants():
    """(protocol, index, steps) for every mutant of the net."""
    for protocol, max_len in MAX_LEN.items():
        for i in range(COUNT):
            yield protocol, i, mutant(protocol, i, max_len)


def _verdict(protocol, steps, seed):
    return run_attack(program_of(steps, interface_for(protocol)), protocol, seed).verdict


def test_every_literal_is_made_with_its_new_event():
    # the table's literals are exactly the created ones, in creation order:
    # no literal is registered without its New event, and no created
    # literal is left out of the table, whatever the primitives
    for protocol, i, steps in _mutants():
        program = program_of(steps, interface_for(protocol))
        for kw in PRIMITIVES:
            state = run_attack(program, protocol, seed=i, **kw).state
            made = [t for t, _ in state.log.news]
            assert made == [t for t in state.table.values() if type(t) is Literal]


def test_run_seed_changes_no_verdict_without_a_wake_choice(monkeypatch):
    # the seed draws the fresh bytes and the order of the roles one write
    # wakes; with no such order to draw, the verdict is the seed's no more
    woke = []
    drain = Runtime.drain

    def counting(self, ready):
        woke.append(len(ready))
        drain(self, ready)

    monkeypatch.setattr(Runtime, "drain", counting)
    compared = Counter()
    for protocol, i, steps in _mutants():
        verdicts = []
        for seed in (i, i + COUNT):
            woke.clear()
            verdicts.append(_verdict(protocol, steps, seed))
            if max(woke, default=0) > 1:
                break
        else:
            assert verdicts[0] == verdicts[1], (protocol, i)
            compared[protocol] += 1
    # seed pairs compared, as measured when the relation landed
    for protocol, floor in {"rpc-correct": 163, "rpc-flawed": 168, "otway-rees": 167}.items():
        assert compared[protocol] >= floor, (protocol, compared[protocol])


def test_steps_that_only_make_public_data_change_no_verdict():
    # a new word, its bytespub, a pair of it with a held bytespub and that
    # pair's first half, inserted at a drawn point
    for protocol, i, steps in _mutants():
        iface = interface_for(protocol)
        rng = random.Random(f"{protocol}/{i}/pure")
        pos = rng.randint(0, len(steps))
        held = _pools(steps, iface, pos).get(ValueKind.BYTESPUB, [])
        pure = [
            (None, f"pure{i}".encode(), "pure_w"),
            ("att_toBytespub", ("pure_w",), "pure_x"),
            ("att_pair", ("pure_x", rng.choice(held + ["pure_x"])), "pure_p"),
            ("att_fst", ("pure_p",), "pure_f"),
        ]
        grown = steps[:pos] + pure + steps[pos:]
        assert _verdict(protocol, grown, i) == _verdict(protocol, steps, i), (protocol, i, pos)


def test_renaming_the_drivers_words_changes_no_verdict():
    # a bijection of the words onto unused ones; "Response" is the word
    # the RPC server answers with, so a word renamed to it is not new
    for protocol, i, steps in _mutants():
        rng = random.Random(f"{protocol}/{i}/rename")
        words = {value for fn, value, _ in steps if fn is None}
        taken = words | {b"Response"}
        renamed = {}
        for word in sorted(words):
            new = word
            while new in taken:
                new = bytes(rng.choices(b"abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 9)))
            taken.add(new)
            renamed[word] = new
        moved = [(fn, renamed[value], var) if fn is None else (fn, value, var)
                 for fn, value, var in steps]
        before, after = _verdict(protocol, steps, i), _verdict(protocol, moved, i)
        assert (after.kind, after.location) == (before.kind, before.location), (protocol, i)
