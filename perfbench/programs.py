"""Honest attack programs of adjustable length for the replay-long workload.

Each builder returns DSL text, so the benchmark exercises the parser as a
user's `dymon run` would.  The attacker only relays, so every run ends ok
and checks exactly two correspondence assertions per exchange or session.
"""

from __future__ import annotations

import random


def _request_words(rng: random.Random, k: int) -> list[str]:
    # fixed length, so the seed changes the bytes but not the amount of work
    return [f"Req{i:04d}-{rng.getrandbits(32):08x}" for i in range(k)]


def rpc_exchanges(k: int, rng: random.Random) -> str:
    """k request/response exchanges, each with fresh roles, on one session."""
    lines = [
        f"# {k} honest RPC exchanges on one session",
        "let a : string",
        'a = "Alice"',
        "let b : string",
        'b = "Bob"',
        "let alice : bytespub",
        "alice = att_toBytespub(a)",
        "let bob : bytespub",
        "bob = att_toBytespub(b)",
        "let s : session",
        "s = att_setup(alice, bob)",
        "let clientC : channel",
        "clientC = att_getChannel_client(s)",
        "let serverC : channel",
        "serverC = att_getChannel_server(s)",
    ]
    for i, word in enumerate(_request_words(rng, k)):
        lines += [
            f"let r{i} : string",
            f'r{i} = "{word}"',
            f"let arg{i} : bytespub",
            f"arg{i} = att_toBytespub(r{i})",
            "att_run_server(s)",
            f"att_run_client(s, arg{i})",
            f"let req{i} : bytespub",
            f"req{i} = att_channel_read(clientC)",
            f"att_channel_write(serverC, req{i})",
            f"let resp{i} : bytespub",
            f"resp{i} = att_channel_read(serverC)",
            f"att_channel_write(clientC, resp{i})",
        ]
    return "\n".join(lines) + "\n"


def or_sessions(k: int, rng: random.Random) -> str:
    """k complete key exchanges, each on a session of its own."""
    lines = [
        f"# {k} honest key exchanges, one session each",
        "let a : string",
        'a = "Alice"',
        "let b : string",
        'b = "Bob"',
        "let alice : bytespub",
        "alice = att_toBytespub(a)",
        "let bob : bytespub",
        "bob = att_toBytespub(b)",
    ]
    # the seed orders the role start-up differently per session
    starts = ["att_run_responder", "att_run_server", "att_run_initiator"]
    for i in range(k):
        rng.shuffle(starts)
        lines += [
            f"let s{i} : session",
            f"s{i} = att_or_setup(alice, bob)",
            f"let initC{i} : channel",
            f"initC{i} = att_getChannel_initiator(s{i})",
            f"let respC{i} : channel",
            f"respC{i} = att_getChannel_responder(s{i})",
            f"let servC{i} : channel",
            f"servC{i} = att_getChannel_server(s{i})",
            *(f"{fn}(s{i})" for fn in starts),
        ]
        hops = [("initC", "respC"), ("respC", "servC"), ("servC", "respC"), ("respC", "initC")]
        for j, (src, dst) in enumerate(hops, 1):
            lines += [
                f"let m{i}_{j} : bytespub",
                f"m{i}_{j} = att_channel_read({src}{i})",
                f"att_channel_write({dst}{i}, m{i}_{j})",
            ]
    return "\n".join(lines) + "\n"


BUILDERS = {"rpc-correct": rpc_exchanges, "otway-rees": or_sessions}
