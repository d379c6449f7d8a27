"""Equivalence outcomes of the general fragment, pinned in
tests/golden/general-outcomes.json.

Each entry is the verdict, classification, witness word, outputs and
detail of ``equivalence_check`` on one seeded general pair
(``random_general_pair``) at size 8.  A change to the equivalence
driver must reproduce the file exactly.  To record it afresh at some
commit, run ``python tests/test_general_outcomes.py`` there.
"""

import json
import sys
from pathlib import Path

from polyzero.grammar import Budgets
from polyzero.reports import dump_json
from polyzero.transducer import equivalence_check

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_transducer import random_general_pair  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden" / "general-outcomes.json"

# Far above any run time, so no outcome depends on machine speed.
BUDGETS = Budgets(size=8, seconds=3600.0)
SEEDS = range(240)


def _text(word):
    return None if word is None else "".join(word)


def general_outcomes() -> dict:
    out = {}
    for seed in SEEDS:
        v = equivalence_check(*random_general_pair(seed), BUDGETS)
        out[f"general-{seed}"] = {
            "verdict": v.verdict, "classification": v.classification,
            "witness": _text(v.witness_word),
            "outputs": None if v.outputs is None else [
                _text(o) for o in v.outputs],
            "detail": v.detail}
    return out


def test_general_outcomes_match_golden():
    want = json.loads(GOLDEN.read_text())
    got = general_outcomes()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name] == want[name], name


if __name__ == "__main__":
    GOLDEN.write_text(dump_json(general_outcomes()))
