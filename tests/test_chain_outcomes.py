"""The backward chain's outcomes, pinned in tests/golden/chain-outcomes.json.

Each entry is the certificate or the witness of one decision, as the
reports serialize it: ``_backward_chain`` on the seeded unary grammars,
the twisted pair, ``twist_demo.pg`` and both ambient cases, and
``indep_zeroness`` on the seeded pairs, unary and non-unary.  A change
to the exact core must reproduce the file exactly.  To record it afresh
at some commit, run ``python tests/test_chain_outcomes.py`` there.
"""

import json
import sys
import time
from pathlib import Path

from polyzero import grammar
from polyzero.dsl import parse_grammar
from polyzero.grammar import Budgets, Witness, indep_zeroness, to_field_view
from polyzero.reports import certificate_to_obj, dump_json, witness_to_obj

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_grammar import (  # noqa: E402
    INPUTS, ambient_grammar, random_indep_pair, random_unary_grammar,
    twisted_pair_grammar,
)

GOLDEN = Path(__file__).resolve().parent / "golden" / "chain-outcomes.json"

# Far above any run time, so no outcome depends on machine speed.
SECONDS = 3600.0


def chain_outcome(g) -> dict:
    found = grammar._backward_chain(g, time.monotonic() + SECONDS)
    if isinstance(found, Witness):
        return {"witness": witness_to_obj(g, found)}
    return {"certificate": certificate_to_obj(g, found)}


def indep_outcome(outer, inner) -> dict:
    r = indep_zeroness(outer, inner, Budgets(size=1, iters=6, seconds=SECONDS))
    view = to_field_view(inner)
    if r.verdict == "zero":
        return {"invariant": certificate_to_obj(view, r.invariant)}
    wo, wi = r.witness_pair
    return {"verdict": r.verdict,
            "witness_pair": [witness_to_obj(outer, wo), witness_to_obj(view, wi)]}


def chain_outcomes() -> dict:
    demo = parse_grammar((INPUTS / "twist_demo.pg").read_text(),
                         name="twist_demo")
    out = {f"unary-{seed}": chain_outcome(random_unary_grammar(seed))
           for seed in range(40)}
    out["twisted-pair"] = chain_outcome(twisted_pair_grammar())
    out["twist-demo"] = chain_outcome(demo)
    out["ambient-x-1"] = chain_outcome(ambient_grammar("x - 1"))
    out["ambient-x"] = chain_outcome(ambient_grammar("x"))
    for seed in range(40):
        out[f"indep-{seed}"] = indep_outcome(*random_indep_pair(seed))
    for seed in range(20):
        out[f"indep-nonunary-{seed}"] = indep_outcome(
            *random_indep_pair(seed, nonunary=True))
    return out


def test_chain_outcomes_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = chain_outcomes()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    GOLDEN.write_text(dump_json(chain_outcomes()))
