#!/usr/bin/env python3
"""Self-test of the benchmark itself (about a minute):

    python3 perfbench/selftest.py

1. A short traced run of each workload must be correct and must record
   calls at every boundary the workload is meant to exercise; a zero
   means an import site of that function was missed by the wrapping.
2. The answer checks must catch a flipped expected verdict, a tampered
   witness, a corrupted certificate, a tampered chain invariant, a
   wrong VASS output on one-state and two-state machines, a crash, and
   a pass whose outcome differs from the first.
3. In a directory holding only BENCHMARK.json and this directory, the
   benchmark must exit nonzero without printing a result.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import run
import workloads

ROOT = workloads.ROOT

# Boundaries (or counters) each workload must reach, from the layer
# table in README.md.
GROEBNER = ["groebner.buchberger", "groebner.normal_form",
            "groebner.Ideal.member", "groebner.Ideal.radical_member",
            "groebner.ideal_intersect", "groebner.image_closure"]
EXPECTED = {
    "search": GROEBNER + [
        "transducer.equivalence_check", "grammar.zeroness",
        "grammar.indep_zeroness", "grammar.chain_zeroness",
        "grammar.check_certificate", "poly.RatFunc.of", "poly.Poly.__mul__",
        "poly.Poly.substitute", "grammar.ValueTable.grow_to",
        "grammar.collect_samples", "grammar.low_degree_vanishing",
        "linalg.kernel_basis", "transducer.to_difference_grammar",
        "dsl.parse_transducer", "dsl.parse_grammar",
        "reports.certificate_to_obj", "reports.dump_json"],
    "qfield": [
        "transducer.equivalence_check", "grammar.zeroness",
        "grammar.check_certificate", "groebner.normal_form",
        "groebner.Ideal.member", "groebner.Ideal.radical_member",
        "poly.RatFunc.of", "poly.Poly.__mul__", "poly.Poly.substitute",
        "grammar.ValueTable.grow_to", "transducer.to_difference_grammar",
        "dsl.parse_transducer", "reports.certificate_from_obj",
        "reports.certificate_to_obj", "reports.dump_json"],
    "vass": [
        "vass.compile_to_transducer", "vass.NumericTransducer.run",
        "poly.Poly.__mul__", "poly.Poly.substitute", "dsl.parse_vass",
        "reports.dump_json"],
}
EXPECTED_COUNTS = {"search": ["grammar.Grammar.produce.calls",
                              "grammar.values", "linalg.kernel_basis.cells",
                              "groebner.buchberger.basis_len.max"],
                   "qfield": ["grammar.Grammar.produce.calls",
                              "grammar.values"]}


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def traced_runs(report) -> None:
    for wl, names in EXPECTED.items():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", wl, "--seed", "1", "--seconds", "1",
             "--trace", "1"], cwd=ROOT, capture_output=True, text=True,
            timeout=300)
        res = last_json(proc.stdout)
        report(f"{wl}: traced run correct", proc.returncode == 0
               and res["correct"] and res["failed"] == 0)
        m = res["metrics"]
        missing = [n for n in names if m[f"{n}.calls"]["value"] == 0]
        missing += [n for n in EXPECTED_COUNTS.get(wl, [])
                    if m[n]["value"] == 0]
        report(f"{wl}: calls recorded at every expected boundary"
               + (f" (none at {missing})" if missing else ""), not missing)
        report(f"{wl}: tracing overhead reported",
               "trace.overhead_s" in m)


def outcome(work, name):
    p = next(p for p in work.problems if p.name == name)
    return p, workloads.run_problem(work.lib, p)


def with_report(out, edit):
    rep = json.loads(out[1])
    edit(rep)
    return (out[0], json.dumps(rep))


def tampering(report) -> None:
    work = workloads.setup("search", 0)
    p, out = outcome(work, "equiv-rev-id-a")
    report("search: true answers pass the checks",
           not workloads.check(work, p, out))
    flipped = dataclasses.replace(p, expect="not-equivalent")
    report("flipped expected verdict is caught",
           bool(workloads.check(work, flipped, out)))

    p, out = outcome(work, "equiv-rev-id-ab")
    report("true witness passes", not workloads.check(work, p, out))
    bad = with_report(out, lambda r: r["witness"].update(word="aa"))
    report("tampered witness word is caught",
           bool(workloads.check(work, p, bad)))
    bad = with_report(out, lambda r: r["witness"].update(
        outputs=["ab", "ab"]))
    report("tampered witness outputs are caught",
           bool(workloads.check(work, p, bad)))

    p, out = outcome(work, "zeroness-twist")

    def corrupt(rep):
        ideals = rep["certificate"]["ideals"]
        for nt in ideals:
            ideals[nt] = [g + " + 1" for g in ideals[nt]]
    report("corrupted certificate is caught",
           bool(workloads.check(work, p, with_report(out, corrupt))))
    bad = with_report(out, lambda r: r.update(certificate=None))
    report("missing certificate is caught",
           bool(workloads.check(work, p, bad)))

    p, out = outcome(work, "chain")
    report("true chain invariant passes", not workloads.check(work, p, out))
    bad = with_report(out, lambda r: r.update(invariant_gens=["_t0 + _t1"]))
    report("tampered chain invariant is caught",
           bool(workloads.check(work, p, bad)))
    report("crash is caught", bool(workloads.check(
        work, p, workloads.Crash("RuntimeError: boom"))))

    ps = [run.Pass(0.0, 0.0, [], [workloads.run_problem(work.lib, q)
                                  for q in work.problems])
          for _ in range(2)]
    report("repeated passes reproduce their outcomes",
           run.count_failures(work, ps, lambda line: None) == 0)
    i = work.problems.index(p)
    ps[1].outcomes[i] = (ps[1].outcomes[i][0], ps[1].outcomes[i][1] + " ")
    report("a pass differing from the first is caught",
           run.count_failures(work, ps, lambda line: None) == 1)

    work = workloads.setup("vass", 0)
    for graph in ("one3", "loop3", "cycle3"):
        p = next(q for q in work.problems
                 if q.name.startswith(f"{graph}-"))
        out = workloads.run_problem(work.lib, p)
        report(f"vass {graph}: true outputs pass, some nonzero",
               not workloads.check(work, p, out) and any(out))
        hit = out.index(True)
        report(f"vass {graph}: flipped output is caught",
               bool(workloads.check(work, p, out[:hit] + (False,)
                                    + out[hit + 1:])))
    p, out = outcome(work, "reach-two-counter")
    bad = with_report(out, lambda r: r.update(run=[0]))
    report("invalid reachability run is caught",
           bool(workloads.check(work, p, bad)))


def bare_checkout(report) -> None:
    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    report("bare directory: nonzero exit and no result",
           proc.returncode != 0 and '"metrics"' not in proc.stdout)


def main() -> int:
    failures = []

    def report(what: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    tampering(report)
    bare_checkout(report)
    traced_runs(report)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
