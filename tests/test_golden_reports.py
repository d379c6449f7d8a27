"""Golden reports: the exact stdout and exit code of a fixed set of
command lines, compared byte for byte with the files in tests/golden/.

The commands are the bundled corpus (every automatic search, the
sqrev pair over Q(params) and a pair in the general fragment), the
substitution commands that run the exact linear algebra, and a VASS
compilation.  A refactor of the exact core must leave every one of them
unchanged.  To record the files
afresh at some commit, run ``python tests/test_golden_reports.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from polyzero.dsl import parse_grammar, parse_transducer
from polyzero.grammar import check_certificate, to_field_view
from polyzero.reports import certificate_from_obj
from polyzero.transducer import to_difference_grammar

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# Far above any run time, so no report depends on machine speed.
_SECONDS = ("--budget-seconds", "3600")

COMMANDS = {
    "equiv-rev-id-a": ("equiv", "inputs/rev.tr", "inputs/id.tr",
                       "--alphabet", "a", *_SECONDS),
    "equiv-rev-id-ab": ("equiv", "inputs/rev.tr", "inputs/id.tr",
                        "--alphabet", "a,b", *_SECONDS),
    "indep-pow": ("indep-zeroness", "inputs/pow_outer.pg",
                  "inputs/pow_inner.pg", *_SECONDS),
    "chain": ("chain-zeroness", "inputs/chain_head.pg",
              "inputs/chain_tail.pg", *_SECONDS),
    "eqsat-squares": ("eqsat", "inputs/squares_eq.pg",
                      "inputs/squares_vals.pg", "--budget-iters", "10",
                      *_SECONDS),
    "zeroness-twist": ("zeroness", "inputs/twist_demo.pg", *_SECONDS),
    "equiv-sqrev-cert": ("equiv", "inputs/sqrev1.tr", "inputs/sqrev2.tr",
                         "--check-certificate", "inputs/sqrev_cert.json",
                         *_SECONDS),
    "equiv-sqrev-bounded": ("equiv", "inputs/sqrev1.tr", "inputs/sqrev2.tr",
                            "--budget-iters", "1", "--budget-size", "5",
                            *_SECONDS),
    "equiv-marks": ("equiv", "inputs/marks1.tr", "inputs/marks2.tr",
                    *_SECONDS),
    "zeroness-twist-starved": ("zeroness", "inputs/twist_demo.pg",
                               "--budget-size", "2", "--budget-iters", "0",
                               *_SECONDS),
    "cominj": ("cominj", "a -> ab; b -> babb"),
    "invert-subst": ("invert-subst", "a -> ab; b -> babb"),
    "vass-compile": ("vass-compile", "inputs/pump_reset.vass"),
}


def run(argv: tuple[str, ...]) -> str:
    """The golden text of a command: its exit code line, then stdout."""
    p = subprocess.run([sys.executable, "-m", "polyzero.cli", *argv],
                       capture_output=True, text=True, cwd=ROOT)
    return f"exit {p.returncode}\n{p.stdout}"


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_golden(name):
    want = (GOLDEN / f"{name}.txt").read_text()
    assert run(COMMANDS[name]) == want


# Reports whose certificate the backward chain found; each must still
# prove its difference grammar after the round trip through the file.
CERTIFIED = {
    "equiv-rev-id-a": ("rev", "id", ("a",)),
    "equiv-sqrev-bounded": ("sqrev1", "sqrev2", None),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED))
def test_golden_certificate_proves(name):
    first, second, letters = CERTIFIED[name]
    t1, t2 = (parse_transducer((ROOT / "inputs" / f"{n}.tr").read_text(),
                               name=n) for n in (first, second))
    g = to_difference_grammar(t1, t2, letters).grammar
    cert = certificate_from_obj(g, _report(name)["certificate"])
    assert check_certificate(g, cert).proved()


def test_golden_inner_invariant_proves():
    # found by the two-stage chain: an inductive invariant of the inner
    # grammar's field view, with no conclusion to reach
    inner = to_field_view(parse_grammar(
        (ROOT / "inputs" / "pow_inner.pg").read_text(), name="pow_inner"))
    cert = certificate_from_obj(inner, _report("indep-pow")["invariant"])
    assert check_certificate(inner, cert, require_conclusion=False).proved()


def _report(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.txt").read_text().split("\n", 1)[1])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        (GOLDEN / f"{name}.txt").write_text(run(argv))
