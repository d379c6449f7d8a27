#!/usr/bin/env python3
"""Walk the bundled transducer pairs through the equivalence driver and
print one line per case: verdict, classification, and the witness or
the certificate.  Every certificate is checked again against the
pair's difference grammar and marked ``checked``; the exit status is 1
if one fails that check.  The output holds no timing, so reruns print
the same bytes."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from polyzero.dsl import parse_transducer
from polyzero.grammar import Budgets, check_certificate
from polyzero.reports import certificate_from_obj, read_json
from polyzero.transducer import equivalence_check, to_difference_grammar

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"


def load(name: str):
    return parse_transducer((INPUTS / name).read_text(), name=name[:-3])


def show(tag: str, left: str, right: str, budgets: Budgets,
         letters: tuple[str, ...] | None = None,
         cert_file: str | None = None) -> bool:
    """Print the case's line; False if its certificate fails the check."""
    t1, t2 = load(left), load(right)
    comp = to_difference_grammar(t1, t2, letters)
    g = comp.grammar
    certs = []
    if cert_file is not None:
        certs = [certificate_from_obj(g, read_json(INPUTS / cert_file))]
    v = equivalence_check(t1, t2, budgets, letters, certs, comp)
    extra, ok = "", True
    if v.witness_word is not None:
        extra = f"  witness={''.join(v.witness_word) or '<empty>'}"
    if v.certificate is not None:
        gsize = sum(len(i.gens) for i in v.certificate.ideals.values())
        verdict = check_certificate(g, v.certificate)
        ok = verdict.proved()
        extra = (f"  certificate gens={gsize} "
                 f"{'checked' if ok else 'REFUSED: ' + verdict.detail}")
    print(f"{tag:28s} {v.verdict:16s} [{v.classification}]{extra}")
    return ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget-size", type=int, default=12)
    ap.add_argument("--budget-iters", type=int, default=8)
    ap.add_argument("--budget-seconds", type=float, default=60.0)
    a = ap.parse_args(argv)
    budgets = Budgets(a.budget_size, a.budget_iters, a.budget_seconds)

    ok = [show("rev vs id over {a}", "rev.tr", "id.tr", budgets, ("a",)),
          show("rev vs id over {a,b}", "rev.tr", "id.tr", budgets, ("a", "b")),
          show("sqrev1 vs sqrev2 (cert)", "sqrev1.tr", "sqrev2.tr",
               Budgets(3, 2, budgets.seconds), None, "sqrev_cert.json")]
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
