#!/usr/bin/env python3
"""Microbenchmark of ``Poly.__mul__``: two seeded 30-term polynomials in
8 ordinary variables with small rational coefficients, multiplied
repeatedly; prints the median time of one product in milliseconds.

    PYTHONPATH=src python3 scripts/mul_bench.py [--seed N] [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from fractions import Fraction

from polyzero.poly import Monomial, ordinary_ring

NVARS, NTERMS = 8, 30


def operands(seed: int):
    rng = random.Random(seed)
    ring = ordinary_ring([f"v{i}" for i in range(NVARS)])

    def poly():
        terms = {}
        while len(terms) < NTERMS:
            m = Monomial((i, rng.randint(0, 3)) for i in range(NVARS))
            terms[m] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                                rng.randint(1, 4))
        return ring.from_terms(terms)

    return poly(), poly()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=50)
    args = ap.parse_args()
    p, q = operands(args.seed)
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        p * q
        times.append(time.perf_counter() - t0)
    print(f"Poly.__mul__ {NTERMS}x{NTERMS} terms, {NVARS} vars: "
          f"{1000 * statistics.median(times):.3f} ms "
          f"(median of {args.repeat}, {len((p * q).terms)} result terms)")


if __name__ == "__main__":
    main()
