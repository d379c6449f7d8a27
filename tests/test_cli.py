"""Command line end to end: exit codes, schema-valid reports,
byte-identical reruns, and certificates that re-validate in a fresh
process."""

import json
import subprocess
import sys
from pathlib import Path

from jsonschema import Draft202012Validator

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"
_SCHEMA = Draft202012Validator(
    json.loads((ROOT / "schema" / "report.schema.json").read_text()))


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "polyzero.cli", *args],
                          capture_output=True, text=True, cwd=ROOT)


def report_of(proc: subprocess.CompletedProcess) -> dict:
    rep = json.loads(proc.stdout)
    _SCHEMA.validate(rep)
    return rep


def _inp(name: str) -> str:
    return str(INPUTS / name)


# ---------------------------------------------------------------------------
# verdict exit codes


def test_equiv_unary_alphabet_is_equivalent():
    p = cli("equiv", _inp("rev.tr"), _inp("id.tr"), "--alphabet", "a")
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["verdict"] == "equivalent"
    assert rep["certificate"] is not None


def test_equiv_binary_alphabet_finds_short_witness():
    p = cli("equiv", _inp("rev.tr"), _inp("id.tr"), "--alphabet", "a,b")
    rep = report_of(p)
    assert p.returncode == 1
    assert rep["verdict"] == "not-equivalent"
    w = rep["witness"]
    assert len(w["word"]) <= 2
    assert w["outputs"][0] != w["outputs"][1]


def test_equiv_with_starved_budgets_is_unknown():
    # --budget-iters 0 allows no invariant round at all
    for args in (("equiv", _inp("sqrev1.tr"), _inp("sqrev2.tr")),
                 ("zeroness", _inp("twist_demo.pg"))):
        p = cli(*args, "--budget-size", "2", "--budget-iters", "0",
                "--budget-seconds", "20")
        rep = report_of(p)
        assert p.returncode == 2
        assert rep["verdict"] == "unknown"


def test_schedule_parallel_is_an_alias_of_rr():
    reps = {}
    for schedule in ("rr", "parallel"):
        p = cli("zeroness", _inp("twist_demo.pg"), "--schedule", schedule)
        assert p.returncode == 0
        reps[schedule] = report_of(p)
        assert reps[schedule]["budgets"].pop("schedule") == schedule
    assert reps["rr"] == reps["parallel"]


def test_cominj_verdicts_and_matrix():
    p = cli("cominj", "a -> ab; b -> babb")
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["matrix"] == [["1", "1"], ["1", "3"]]
    assert rep["det"] == "2"
    p = cli("cominj", "a -> bbc")
    rep = report_of(p)
    assert p.returncode == 1
    assert rep["det"] == "0"


def test_invert_subst_doubling_letter():
    p = cli("invert-subst", "a -> aa")
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["inverse"]["ab"] == "ab^(1/2)"
    assert rep["inverse"]["at"] == "((at)/(ab^(1/2) + 1))"
    assert rep["roundtrip"] is True
    p = cli("invert-subst", "a -> bbc")
    rep = report_of(p)
    assert p.returncode == 1
    assert rep["verdict"] == "not-com-injective"


def test_vass_reach_exit_codes():
    p = cli("vass-reach", _inp("two_counter.vass"), "--max-len", "4")
    rep = report_of(p)
    assert p.returncode == 0 and rep["reachable"] is True
    p = cli("vass-reach", _inp("pump_reset.vass"), "--max-len", "0",
            "--min-steps", "1")
    rep = report_of(p)
    assert p.returncode == 1 and rep["reachable"] is False
    p = cli("vass-reach", _inp("pump_reset.vass"), "--max-len", "3",
            "--min-steps", "2")
    assert p.returncode == 3


def test_eqsat_satisfied_and_refuted(tmp_path):
    p = cli("eqsat", _inp("squares_eq.pg"), _inp("squares_vals.pg"),
            "--budget-iters", "10")
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["verdict"] == "satisfied"
    assert rep["invariant"]["ideals"] == {"B": ["_v0_0^2 - _v0_1"]}
    wrong = tmp_path / "claim_diag.pg"
    wrong.write_text("vars x1 x2;\nnonterminal E dim 2;\nE -> (x1, x2);\n")
    p = cli("eqsat", str(wrong), _inp("squares_vals.pg"))
    rep = report_of(p)
    assert p.returncode == 1
    assert rep["verdict"] == "refuted"
    assert rep["witness"]["value"]["value"] == ["2", "4"]


def test_chain_zeroness_cli():
    p = cli("chain-zeroness", _inp("chain_head.pg"), _inp("chain_tail.pg"))
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["verdict"] == "zero"
    assert rep["invariant_gens"] == ["_t0 - _t1"]


# ---------------------------------------------------------------------------
# plain output kinds


def test_encode_report():
    p = cli("encode", "abbab", "--alphabet", "a,b")
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["bar"] == "ab^2*bb^3"
    assert rep["tilde"].count("+") == 4  # five letters, five summands


def test_encode_empty_word():
    p = cli("encode", "", "--alphabet", "a")
    rep = report_of(p)
    assert rep["tilde"] == "0" and rep["bar"] == "1"


def test_run_accepting_and_letter_check():
    p = cli("run", _inp("sqrev1.tr"), "ab")
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["accepted"] is True and rep["output"] == "#ba#ba"
    p = cli("run", _inp("rev.tr"), "ax")
    assert p.returncode == 3


def test_vass_compile_prints_transducer_text():
    p = cli("vass-compile", _inp("pump_reset.vass"))
    assert p.returncode == 0
    assert p.stdout.startswith("transducer {")
    assert "output q0 = R1[x := S1] * R2;" in p.stdout


# ---------------------------------------------------------------------------
# input errors: exit status 3 with a located message


def test_parse_error_reports_position(tmp_path):
    bad = tmp_path / "bad.tr"
    bad.write_text("transducer {\nalphabet a\n}\n")
    p = cli("run", str(bad), "a")
    assert p.returncode == 3
    assert "line" in p.stderr and "bad.tr" in p.stderr


def test_missing_file_is_input_error():
    p = cli("zeroness", "no_such_file.pg")
    assert p.returncode == 3


def test_unknown_flag_is_input_error():
    p = cli("equiv", _inp("rev.tr"), _inp("id.tr"), "--frobnicate")
    assert p.returncode == 3
    assert "usage error" in p.stderr
    p = cli("zeroness", _inp("twist_demo.pg"), "--budget-iters", "-1")
    assert p.returncode == 3
    assert ("budget size and seconds must be positive, budget iters "
            "nonnegative") in p.stderr


def test_certificate_for_wrong_grammar_is_input_error(tmp_path):
    cert = tmp_path / "c.json"
    p = cli("zeroness", _inp("twist_demo.pg"), "--emit-certificate", str(cert))
    assert p.returncode == 0
    p = cli("indep-zeroness", _inp("pow_outer.pg"), _inp("pow_inner.pg"),
            "--check-certificate", str(cert))
    assert p.returncode == 3


# ---------------------------------------------------------------------------
# certificates re-validate in a fresh process


def test_equiv_emitted_certificate_revalidates(tmp_path):
    cert = tmp_path / "cert.json"
    p = cli("equiv", _inp("rev.tr"), _inp("id.tr"), "--alphabet", "a",
            "--emit-certificate", str(cert))
    assert p.returncode == 0 and cert.exists()
    p = cli("equiv", _inp("rev.tr"), _inp("id.tr"), "--alphabet", "a",
            "--check-certificate", str(cert))
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["detail"] == "supplied certificate verified"


def test_zeroness_emitted_certificate_revalidates(tmp_path):
    cert = tmp_path / "cert.json"
    p = cli("zeroness", _inp("twist_demo.pg"), "--emit-certificate", str(cert))
    assert p.returncode == 0 and cert.exists()
    p = cli("zeroness", _inp("twist_demo.pg"),
            "--check-certificate", str(cert))
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["detail"] == "supplied certificate verified"


def test_indep_emitted_invariant_revalidates(tmp_path):
    cert = tmp_path / "inv.json"
    p = cli("indep-zeroness", _inp("pow_outer.pg"), _inp("pow_inner.pg"),
            "--emit-certificate", str(cert))
    assert p.returncode == 0 and cert.exists()
    p = cli("indep-zeroness", _inp("pow_outer.pg"), _inp("pow_inner.pg"),
            "--check-certificate", str(cert))
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["detail"] == "supplied certificate verified"


def test_bundled_sqrev_certificate_revalidates():
    p = cli("equiv", _inp("sqrev1.tr"), _inp("sqrev2.tr"),
            "--check-certificate", _inp("sqrev_cert.json"),
            "--budget-size", "3", "--budget-iters", "2")
    rep = report_of(p)
    assert p.returncode == 0
    assert rep["verdict"] == "equivalent"
    assert rep["detail"] == "supplied certificate verified"


# ---------------------------------------------------------------------------
# determinism


def test_reruns_are_byte_identical():
    cmds = [
        ("equiv", _inp("rev.tr"), _inp("id.tr"), "--alphabet", "a,b"),
        ("zeroness", _inp("twist_demo.pg")),
        ("indep-zeroness", _inp("pow_outer.pg"), _inp("pow_inner.pg")),
    ]
    for cmd in cmds:
        first = cli(*cmd)
        second = cli(*cmd)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
