#!/usr/bin/env python3
"""Round-by-round invariant search profile.

Takes a grammar file, or two transducer files (their difference grammar
is searched).  Prints, per closure round, the candidate's generator
counts, the candidate generation time, the verification time, and
whether the candidate is inductively closed.  A round printed as "no
candidate" proposed nothing, or proposed a candidate that failed at a
fresh value of the next derivation size and so never reached the
exact check; its generation time includes that rejection.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from polyzero.dsl import parse_grammar, parse_transducer
from polyzero.grammar import ValueTable, check_certificate, closure_rounds
from polyzero.transducer import to_difference_grammar


def load_grammar(paths: list[str], letters: tuple[str, ...] | None):
    if len(paths) == 1:
        p = Path(paths[0])
        return parse_grammar(p.read_text(), name=p.stem)
    if len(paths) == 2:
        ts = [parse_transducer(Path(p).read_text(), name=Path(p).stem)
              for p in paths]
        comp = to_difference_grammar(ts[0], ts[1], letters)
        if comp.grammar is None:
            raise SystemExit("the pair differs already on acceptance")
        return comp.grammar
    raise SystemExit("give one grammar file or two transducer files")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("inputs", nargs="+", metavar="FILE")
    ap.add_argument("--alphabet", metavar="LETTERS",
                    help="input letters for a transducer pair")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--deadline", type=float, default=300.0,
                    help="stop profiling after this many seconds")
    a = ap.parse_args(argv)
    letters = tuple(a.alphabet.split(",")) if a.alphabet else None
    g = load_grammar(a.inputs, letters)
    print(f"grammar {g.name or '<anonymous>'}: "
          f"{len(g.nonterminals)} nonterminals, "
          f"{len(g.productions)} productions")

    it = closure_rounds(ValueTable(g))
    start = time.monotonic()
    for rnd in range(a.rounds):
        t0 = time.monotonic()
        cand = next(it)
        gen_dt = time.monotonic() - t0
        if cand is None:
            print(f"round {rnd:2d}: no candidate            ({gen_dt:6.1f}s)")
        else:
            sizes = {nt: len(i.gens) for nt, i in sorted(cand.ideals.items())}
            t0 = time.monotonic()
            ok = check_certificate(g, cand, require_conclusion=False).proved()
            chk_dt = time.monotonic() - t0
            word = "closed" if ok else "open"
            print(f"round {rnd:2d}: {word:6s} gens={sizes} "
                  f"(gen {gen_dt:.1f}s, check {chk_dt:.1f}s)")
            if ok:
                return 0
        if time.monotonic() - start > a.deadline:
            print("deadline reached")
            return 2
    print("no closed invariant within the round budget")
    return 2


if __name__ == "__main__":
    sys.exit(main())
