"""Cold start, timed from inside a fresh interpreter.

    python3 perfbench/setup_probe.py PROTOCOL

Prints the seconds taken to import dymon from the checkout's src/ and run
the protocol's honest driver once: what a user waits for before the first
verdict.  Interpreter start-up is outside the measurement.
"""

import sys
import time
from pathlib import Path

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dymon  # noqa: E402

protocol = sys.argv[1]
verdict = dymon.run_attack(dymon.HONEST_DRIVERS[protocol], protocol, seed=0).verdict
elapsed = time.perf_counter() - started
if verdict.kind is not dymon.VerdictKind.OK:
    sys.exit(f"honest {protocol} driver ended {verdict.kind.value}")
print(repr(elapsed))
