"""Stateless stdio token bot for `cotforge eval --backend stdio`.

Speaks the harness protocol: one request line ``{"tokens": [...]}``, one
reply line ``{"next": id}``. Like the harness's reference backends it
splits the prefix at the last ``inp_end`` and replays a canned completion
from the suffix, so every reply depends only on the request:

  * after a forced ``ans_start``: ans_start, q[C-1], ans_end, eos
  * otherwise: think_start, q[0] .. q[C-2], think_end, ans_start, q[C-1],
    ans_end, eos

where q[i] is the query's i-th input token (cycled) and C is the chain
length read off the first thinking example in the prompt. `canned` is the
single definition of that completion; the benchmark imports it to check
every eval record.

On exit (end of input or SIGTERM) the bot writes ``{"calls", "busy_s"}`` to
the ``--stats`` file: busy time covers decode, reply and write of each
request, not the wait for the next one.

Usage: python3 bench/bot.py --stats STATS.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

# Delimiter ids, in cotforge.vocab.SPECIAL_ROLES order.
EOS, INP_START, INP_END, THINK_START, THINK_END, ANS_START, ANS_END = 2, 3, 4, 5, 6, 7, 8


def canned(query: list[int], chain_len: int, answer_first: bool) -> list[int]:
    """The full completion the bot replays for a query's input tokens."""
    chain = [query[i % len(query)] for i in range(chain_len)]
    if answer_first:
        return [ANS_START, chain[-1], ANS_END, EOS]
    return [THINK_START, *chain[:-1], THINK_END, ANS_START, chain[-1], ANS_END, EOS]


def chain_length(tokens: list[int]) -> int:
    """C of the first thinking example in the prompt (1 when none thinks)."""
    try:
        start = tokens.index(THINK_START)
        return tokens.index(THINK_END, start) - start
    except ValueError:
        return 1


def next_token(tokens: list[int]) -> int:
    split = len(tokens) - tokens[::-1].index(INP_END)
    query_start = len(tokens) - tokens[::-1].index(INP_START)
    suffix = tokens[split:]
    completion = canned(
        tokens[query_start : split - 1],
        chain_length(tokens[:query_start]),
        answer_first=bool(suffix) and suffix[0] == ANS_START,
    )
    return completion[len(suffix)] if len(suffix) < len(completion) else EOS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="where to write call count and busy time on exit")
    args = parser.parse_args()
    stats = {"calls": 0, "busy_s": 0.0}

    def dump() -> None:
        with open(args.stats, "w") as fh:
            json.dump(stats, fh)

    def on_sigterm(signum, frame):
        # The harness closes stdin and sends SIGTERM at once, so this may
        # interrupt the final dump below; writing here and leaving at once
        # means the file is complete either way.
        dump()
        os._exit(0)

    signal.signal(signal.SIGTERM, on_sigterm)
    clock = time.perf_counter
    for line in sys.stdin:
        started = clock()
        reply = next_token(json.loads(line)["tokens"])
        stats["calls"] += 1  # before replying: the harness may stop the bot as soon as it reads the reply
        sys.stdout.write(f'{{"next": {reply}}}\n')
        sys.stdout.flush()
        stats["busy_s"] += clock() - started
    dump()
    return 0


if __name__ == "__main__":
    sys.exit(main())
