#!/usr/bin/env python3
"""Benchmark of the polyzero decision engine: one workload per run.

    python3 perfbench/run.py --workload search --seed 0 --seconds 30 --trace 0

Sets the workload up several times (import plus input parsing or
generation) and reports the median, then runs whole passes over the
workload's problems, one after another in this one process, for about
``--seconds`` seconds.  Every answer is checked (see workloads.py).
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` untraced and traced passes alternate, the metrics
are the per-layer ones (see layers.py), and the spans are written to
``.bench_out/`` under the checkout.  The exit status is 0 when every
answer was correct, 1 when one was wrong, 2 when the checkout cannot
be set up.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import layers
import workloads

SETUP_REPEATS = 5
SPAN_DIR = workloads.ROOT / ".bench_out"

# Host-speed scaling.  On a shared host, other tenants slow every
# process down by 20-40% for seconds to minutes at a time.  Between
# timed calls, never inside one and never inside a traced span, the
# benchmark times a fixed pure-Python loop; each call's time is scaled
# to the host speed at which that loop takes PROBE_NOMINAL_S, using the
# mean speed of the probes just before and just after it.  The package
# runs no code while the loop runs, so only other processes' load can
# change the scale.
PROBE_LOOPS = 10_000
PROBE_REPEATS = 5
PROBE_NOMINAL_S = 0.001


def host_speed() -> float:
    """PROBE_NOMINAL_S over the median time of the probe loop."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i % 7
        times.append(perf_counter() - t0)
    return PROBE_NOMINAL_S / statistics.median(times)


class Clock:
    """Timed calls, each bracketed by host-speed probes."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self._speed = host_speed()

    def call(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        t = perf_counter() - t0
        speed = host_speed()
        self.raw.append(t)
        self.scaled.append(t * (self._speed + speed) / 2)
        self._speed = speed
        return out


@dataclass
class Pass:
    raw_wall: float
    wall: float  # the sum of the problems' scaled times
    times: list[float]  # scaled time of each problem
    outcomes: list


def run_pass(work: workloads.Workload,
             tracer: layers.Tracer | None = None) -> Pass:
    def solve(p):
        if tracer is None:
            return workloads.run_problem(work.lib, p)
        tracer.problem = p.name
        with tracer.span("bench.problem"):
            return workloads.run_problem(work.lib, p)

    gc.collect()
    clock = Clock()
    outcomes = [clock.call(solve, p) for p in work.problems]
    return Pass(sum(clock.raw), sum(clock.scaled), clock.scaled, outcomes)


def measure(work: workloads.Workload, seconds: float, traced: bool):
    """Untraced passes, each followed by a traced one when ``traced``,
    until the next round would end after ``seconds``."""
    plain, traced_passes, tracers = [], [], []
    start = perf_counter()
    while True:
        plain.append(run_pass(work))
        if traced:
            tracer = layers.Tracer(work.lib)
            tracer.patch()
            try:
                traced_passes.append(run_pass(work, tracer))
            finally:
                tracer.unpatch()
            tracers.append(tracer)
        elapsed = perf_counter() - start
        if elapsed * (1 + 1 / len(plain)) > seconds:
            return plain, traced_passes, tracers


def count_failures(work, passes: list[Pass], log) -> int:
    """Check the first pass in full; every later pass must reproduce
    its outcomes exactly."""
    first = passes[0].outcomes
    failed = 0
    for i, p in enumerate(work.problems):
        reasons = workloads.check(work, p, first[i])
        for n, ps in enumerate(passes):
            why = reasons if ps.outcomes[i] == first[i] else \
                ["outcome differs from the first pass"]
            if why:
                failed += 1
                log(f"FAILED {p.name} (pass {n}): {'; '.join(why)}")
    return failed


def med(xs) -> float:
    return statistics.median(xs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    setup = Clock()
    try:
        for _ in range(SETUP_REPEATS):
            work = setup.call(workloads.setup, args.workload, args.seed)
    except (workloads.SetupError, OSError) as e:
        print(f"perfbench: cannot set up: {e}", file=sys.stderr)
        return 2

    plain, traced, tracers = measure(work, args.seconds, bool(args.trace))
    lines: list[str] = []
    failed = count_failures(work, plain + traced, lines.append)
    passes = plain + traced
    attempted = len(passes) * len(work.problems)
    decided = sum(workloads.decided(p, o)
                  for ps in passes for p, o in zip(work.problems, ps.outcomes))

    if args.trace:
        per_pass = [t.pass_metrics() for t in tracers]
        metrics = {name: {"value": med(m[name] for m in per_pass),
                          "unit": unit}
                   for name, unit in layers.metric_names()
                   if not name.startswith("trace.")}
        traced_wall = med(p.wall for p in traced)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - med(p.wall for p in plain), "unit": "s"}
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        span_file.write_text("")
        for n, t in enumerate(tracers):
            t.write_spans(span_file, n)
        lines.append(f"spans written to {span_file}")
    else:
        geo = [statistics.geometric_mean(p.times) for p in plain]
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": med(setup.scaled), "unit": "s"},
            "wall_s": {"value": med(p.wall for p in plain), "unit": "s"},
            "solve_s.geomean": {"value": med(geo), "unit": "s"},
            "decided_ratio": {"value": decided / attempted, "unit": "ratio"},
            "correct_ratio": {"value": 1 - failed / attempted,
                              "unit": "ratio"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }

    print(f"perfbench {args.workload} seed {args.seed}: {len(plain)} "
          f"untraced + {len(traced)} traced passes x {len(work.problems)} "
          f"problems; {failed} of {attempted} failed "
          f"(failed_ratio {failed / attempted:.4f}), {decided} decided")
    for label, ps in (("untraced", plain), ("traced", traced)):
        if ps:
            print(f"  {label} pass walls, unscaled: "
                  + " ".join(f"{p.raw_wall:.3f}" for p in ps) + " s")
    unscaled = {"setup_s": med(setup.raw),
                "wall_s": med(p.raw_wall for p in plain)}
    print("  unscaled medians: " + json.dumps(unscaled))
    machines = 0.0
    for i, p in enumerate(work.problems):
        t = med(ps.times[i] for ps in plain)
        if isinstance(p, workloads.VassProblem):
            machines += t
            continue
        verdict = workloads.verdict_of(p, plain[0].outcomes[i])
        print(f"  {p.name:24s} {verdict:15s} {t:9.4f} s")
    if machines:
        print(f"  {'generated machines':24s} {'computed':15s} "
              f"{machines:9.4f} s")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:14.6g} {m['unit']}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
