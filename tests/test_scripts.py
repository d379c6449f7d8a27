"""Smoke tests of the scripts under ``scripts/``, imported by path and
run in-process."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", [[], ["--seed", "3", "--max-states", "3"]])
def test_vass_agreement_finds_no_mismatch(argv, monkeypatch, capsys):
    # the compiled machines against the brute-force run oracle; the
    # output holds no timing, so a second run prints the same bytes
    script = load("vass_agreement", monkeypatch)
    assert script.main(argv) == 0
    out = capsys.readouterr().out
    assert "machines: 40" in out and "mismatches: 0" in out
    assert "MISMATCH" not in out
    assert script.main(argv) == 0
    assert capsys.readouterr().out == out


def test_mul_bench_runs(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["mul_bench.py", "--repeat", "1"])
    load("mul_bench", monkeypatch).main()
    full, one_term, reduction, twist, build = capsys.readouterr().out.splitlines()
    assert full.endswith("(median of 1, 900 result terms)")
    assert one_term.startswith("Poly.__mul__ 1x1 terms over Q(6 params): ")
    assert one_term.endswith(" us (median of 1 batches of 1000)")
    assert reduction.startswith(
        "normal_form of 8 terms mod 3 GrevLex basis polys over Q(6 params): ")
    assert reduction.endswith(" us (median of 1, 7 remainder terms)")
    assert twist.startswith("invert_substitution # -> #a: ")
    assert " ms over 3 letters, " in twist
    assert twist.endswith(" ms over 8 letters (median of 1)")
    assert build.startswith("compile_to_transducer of small_family(40, 0) "
                            "from cleared caches: ")
    assert build.endswith(" ms (median of 1)")


def test_equiv_demo_checks_every_certificate(monkeypatch, capsys):
    # the output holds no timing, so a second run prints the same bytes
    script = load("equiv_demo", monkeypatch)
    assert script.main([]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert [line.split()[-1] for line in lines] == \
        ["checked", "witness=ba", "checked"]
    assert [line[29:].split()[0] for line in lines] == \
        ["equivalent", "not-equivalent", "equivalent"]
    assert script.main([]) == 0
    assert capsys.readouterr().out == out


def traffic(workload: str) -> dict[str, str]:
    """``scripts/traffic.py``'s status of each function after one pass
    of the workload, by qualified name.  A subprocess: the script traces
    lines and imports polyzero afresh."""
    p = subprocess.run([sys.executable, str(SCRIPTS / "traffic.py"),
                        "--workload", workload],
                       capture_output=True, text=True, check=True)
    return dict(line.split(" ", 1)[1].split(": ", 1)
                for line in p.stdout.splitlines())


def test_traffic_lists_the_statements_a_search_pass_never_ran():
    status = traffic("search")
    assert status["closure_rounds"] == "never run"
    assert status["_chain"].startswith("run")
    assert status["buchberger"].startswith("run")


def test_traffic_shows_a_vass_pass_running_the_generated_kernels():
    status = traffic("vass")
    # a fresh pass builds its first machines on cache misses
    assert status["_kernel"] == "run"
    assert status["_emit"].startswith("run")
    # the typing gets each (register, expression) pair once, and a
    # compiled machine has one update of R1, the one register dropped:
    # no pair of a dropped register is left to skip
    assert status["_int_registers"].startswith("run")
    assert not_run(status["_int_registers"]) == \
        branch_lines("vass", "_int_registers", "r not in ints")
    # only step's DomainError for an unknown letter is left unrun
    assert status["NumericTransducer.step"].startswith("run")
    # the trie walk runs whole: the branch that reads a node already
    # reached and the one that steps to a new node
    assert status["NumericTransducer._walk"] == "run"
    assert branch_lines("vass", "_walk", "letter in kids")
    # R1's products all take _mul's two-coefficient branch, every
    # statement of it; the general convolution is left unrun
    assert not branch_lines("vass", "_mul", "len(b) == 2") & not_run(status["_mul"])


def test_traffic_shows_a_qfield_pass_running_the_one_term_merge():
    status = traffic("qfield")
    # every statement of RatFunc.of's one-term-over-one-term path runs,
    # the merge of nm and dm and both of its returns
    merge = branch_lines("poly", "of", "len(num.terms) == 1")
    assert len(merge) > 10
    assert not merge & not_run(status["RatFunc.of"])
    assert status["normal_form"].startswith("run")


def branch_lines(module: str, function: str, test: str) -> set[int]:
    """The lines of the statements in the branch of the function named
    ``function`` in ``polyzero/<module>.py`` whose test starts with
    ``test``."""
    import ast
    src = SCRIPTS.parent / "src" / "polyzero" / f"{module}.py"
    fn = next(f for f in ast.walk(ast.parse(src.read_text()))
              if isinstance(f, ast.FunctionDef) and f.name == function)
    branch = next(n for n in ast.walk(fn) if isinstance(n, ast.If)
                  and ast.unparse(n.test).startswith(test))
    return {n.lineno for stmt in branch.body for n in ast.walk(stmt)
            if isinstance(n, ast.stmt)}


def not_run(status: str) -> set[int]:
    """The lines that a ``traffic.py`` status lists as not run."""
    _, _, spans = status.partition("not run: ")
    lines: set[int] = set()
    for span in filter(None, spans.split(", ")):
        first, _, last = span.partition("-")
        lines.update(range(int(first), int(last or first) + 1))
    return lines
