#!/usr/bin/env python3
"""Agreement experiment: compiled numeric transducers versus the
brute-force run oracle on a generated family of reset machines.

For every machine in the family and every word up to the length bound,
the compiled transducer's output must be nonzero exactly when the word
names a valid run from the initial state to the zero vector ending in
an accepting state.  Exits nonzero on any disagreement.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from dataclasses import dataclass

from polyzero.vass import (compile_to_transducer, normalize, run_endpoint,
                           run_is_valid, small_family, word_of_run)


@dataclass(frozen=True)
class Config:
    count: int = 40
    seed: int = 0
    max_dim: int = 2
    max_states: int = 2
    max_transitions: int = 3
    max_len: int = 5


def run_experiment(cfg: Config) -> tuple[int, int, list[tuple[str, tuple]]]:
    machines = 0
    words = 0
    mismatches: list[tuple[str, tuple]] = []
    for v in small_family(cfg.count, cfg.seed, cfg.max_dim, cfg.max_states,
                          cfg.max_transitions):
        machines += 1
        acc = compile_to_transducer(normalize(v))
        for n in range(cfg.max_len + 1):
            for run in itertools.product(range(len(v.transitions)), repeat=n):
                words += 1
                word = word_of_run(v, run)
                state, vec = run_endpoint(v, run)
                hit = (run_is_valid(v, run) and state in v.accepting
                       and not any(vec))
                if acc.run(word).is_zero() == hit:
                    mismatches.append((v.name or "?", word))
    return machines, words, mismatches


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=40)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-dim", type=int, default=2)
    ap.add_argument("--max-states", type=int, default=2)
    ap.add_argument("--max-transitions", type=int, default=3)
    ap.add_argument("--max-len", type=int, default=5)
    a = ap.parse_args(argv)
    cfg = Config(a.count, a.seed, a.max_dim, a.max_states,
                 a.max_transitions, a.max_len)
    machines, words, mismatches = run_experiment(cfg)
    print(f"machines: {machines}   words checked: {words}   "
          f"mismatches: {len(mismatches)}")
    for name, word in mismatches[:20]:
        print(f"  MISMATCH {name} on {''.join(word) or '<empty>'}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
