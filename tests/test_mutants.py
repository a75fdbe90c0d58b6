"""The mutant soundness net: honest-driver mutants reach the assertions.

None of the generated programs in the pinned run-report test gets past a
MAC verify, so no generated run there reaches a correspondence assertion or
a soundness note.  Mutants of the honest drivers (see mutants.py) do, and
here each runs under the same three primitive sets and the same soundness
check.
"""

import hashlib
import json
from collections import Counter

from dymon import VerdictKind, interface_for, run_attack
from dymon.dsl import program_of
from mutants import mutant
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
