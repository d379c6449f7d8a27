#!/usr/bin/env python3
"""Summarise a span file written by ``run.py --trace 1``.

    python3 perfbench/spans.py .bench_out/spans-search-seed0.jsonl

One block per problem of the first traced pass: the problem's traced
time, the TOP boundaries with the most self time (folded leaf calls
included) with each one's time counted once per outermost call, and
how much of the problem went to certificate checks that were rejected.
"""

from __future__ import annotations

import argparse
import json
from collections import defaultdict

TOP = 8


def summarise(spans: list[dict]) -> list[str]:
    by_id = {s["id"]: s for s in spans}
    problems = [s for s in spans if s["name"] == "bench.problem"]
    lines = []
    for prob in problems:
        inside = [s for s in spans if s["problem"] == prob["problem"]]
        wall = prob["end"] - prob["start"]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        outer_s: dict[str, float] = defaultdict(float)
        rejected = 0.0
        for s in inside:
            for name, (n, _, leaf_self) in s["leaves"].items():
                calls[name] += n
                self_s[name] += leaf_self
            if s is prob:
                continue
            calls[s["name"]] += 1
            self_s[s["name"]] += s["self_s"]
            up, nested = s["parent"], False
            while up is not None:
                nested = nested or by_id[up]["name"] == s["name"]
                up = by_id[up]["parent"]
            if not nested:
                outer_s[s["name"]] += s["end"] - s["start"]
            if s.get("proved") is False:
                rejected += s["end"] - s["start"]
        lines.append(f"{prob['problem']}: {wall:.4f} s traced; rejected "
                     f"certificate checks {rejected:.4f} s "
                     f"({rejected / wall:.1%})")
        for name in sorted(self_s, key=self_s.get, reverse=True)[:TOP]:
            total = (f"{outer_s[name]:9.4f} s total"
                     if name in outer_s else " " * 17)
            lines.append(f"  {name:34s} {calls[name]:8d} calls "
                         f"{self_s[name]:9.4f} s self {total}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("file")
    args = ap.parse_args(argv)
    with open(args.file) as f:
        spans = [s for s in map(json.loads, f) if s["pass"] == 0]
    print("\n".join(summarise(spans)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
