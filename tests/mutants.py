"""Typed mutants of the honest drivers: runs that reach the assertions.

A blind generated program almost never completes a MAC verify or a
decryption, so it never reaches a correspondence assertion.  A mutant
starts from the steps of a protocol's honest driver (``validate_attack``
output), which completes every exchange, and gets one to three typed edits
(seed traces with typed mutations, as in Ammann, Hirschi and Kremer, "DY
Fuzzing: Formal Dolev-Yao Models Meet Cryptographic Protocol Fuzz
Testing", IEEE S&P 2024).  An edit is one of six kinds:

  0. give an ``att_channel_write`` an earlier bytespub as its message;
  1. insert a role start;
  2. insert a compromise;
  3. insert a write of a held message to a held channel;
  4. insert a read;
  5. insert one of ``att_pair``, ``att_fst``, ``att_snd`` and
     ``att_hmacsha1``.

Every argument of an edited or inserted call is a variable of the right
kind that an earlier step defines, so every mutant is well typed.  A
mutant longer than ``max_len`` steps is drawn again with one edit fewer.
``mutant`` is deterministic in its arguments, whatever the hash seed.
"""

from __future__ import annotations

import random

from dymon import HONEST_DRIVERS, ValueKind, interface_for, parse_attack, validate_attack

# the functions an insertion of each kind draws from, by name
_INSERTS = {
    1: lambda fn: fn.startswith("att_run_"),
    2: lambda fn: fn.startswith("att_compromise_"),
    3: lambda fn: fn == "att_channel_write",
    4: lambda fn: fn == "att_channel_read",
    5: lambda fn: fn in ("att_pair", "att_fst", "att_snd", "att_hmacsha1"),
}


def _pools(steps, iface, end: int) -> dict[ValueKind, list[str]]:
    """The variables that steps[:end] define, by kind, in definition order."""
    pools: dict[ValueKind, list[str]] = {}
    for fn, _, var in steps[:end]:
        if var is not None:
            kind = ValueKind.STRING if fn is None else iface[fn].result
            pools.setdefault(kind, []).append(var)
    return pools


def _edit(rng: random.Random, steps: list, iface, var: str) -> bool:
    """Apply one edit of a drawn kind to steps in place, naming a new variable
    var; False, with steps unchanged, when no edit of that kind fits."""
    kind = rng.randrange(6)
    if kind == 0:
        writes = [i for i, (fn, _, _) in enumerate(steps) if fn == "att_channel_write"]
        if not writes:
            return False
        i = rng.choice(writes)
        held = _pools(steps, iface, i).get(ValueKind.BYTESPUB)
        if not held:
            return False
        steps[i] = ("att_channel_write", (steps[i][1][0], rng.choice(held)), None)
        return True
    fn = rng.choice([fn for fn in iface if _INSERTS[kind](fn)])
    pos = rng.randint(0, len(steps))
    pools = _pools(steps, iface, pos)
    params, result = iface[fn]
    if not all(p in pools for p in params):
        return False
    args = tuple(rng.choice(pools[p]) for p in params)
    steps.insert(pos, (fn, args, None if result is None else var))
    return True


def mutant(protocol: str, index: int, max_len: int, seed: int = 0) -> list:
    """The steps of mutant number index of the protocol's honest driver."""
    iface = interface_for(protocol)
    driver = validate_attack(parse_attack(HONEST_DRIVERS[protocol]), iface)
    # a string seed is hashed with SHA-512, not with the process's hash seed
    rng = random.Random(f"{protocol}/{index}/{max_len}/{seed}")
    edits = rng.randint(1, 3)
    while True:
        steps = list(driver)
        done = 0
        while done < edits:
            done += _edit(rng, steps, iface, f"mut{done}")
        if len(steps) <= max_len or edits == 0:
            return steps
        edits -= 1
