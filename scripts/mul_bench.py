#!/usr/bin/env python3
"""Microbenchmark of ``Poly.__mul__`` on two shapes and of one Groebner
reduction, each printed on its own line:

* two seeded 30-term polynomials in 8 ordinary variables with small
  rational coefficients: the median time of one product in
  milliseconds;
* two seeded one-term polynomials in two coordinates over Q(params), the
  six letter variables of the sqrev pair, whose coefficients are
  quotients of monomials (the shape of most products of the twisted
  backward chain): the median over batches of the time of one product
  in microseconds;
* one ``normal_form`` of a seeded polynomial in three coordinates over
  the same Q(params), modulo the reduced GrevLex basis of two seeded
  generators with such coefficients (the reductions of the backward
  chain and of ``check_certificate``): the median time of one
  reduction in microseconds;
* ``invert_substitution`` of the twist ``# -> #a`` of the sqrev pair,
  over its three letters and over eight, as the difference grammar
  inverts it at each simultaneous site: the median time of one
  inversion in milliseconds;
* ``compile_to_transducer(normalize(v))`` for every machine ``v`` of
  ``small_family(40, 0)``, with every cache of ``polyzero.vass``
  cleared before the first, so the family builds each of its
  distinct updates, typings and kernels once: the median time of the
  whole family in milliseconds.

    PYTHONPATH=src python3 scripts/mul_bench.py [--seed N] [--repeat N]
"""

from __future__ import annotations

import argparse
import random
import statistics
import time
from fractions import Fraction

from polyzero import vass
from polyzero.encoding import WordSubst, encode_ring, invert_substitution
from polyzero.groebner import GrevLex, buchberger, leading, normal_form, order_key
from polyzero.poly import FractionField, Monomial, RatFunc, VarKind, ordinary_ring

NVARS, NTERMS = 8, 30
BATCH = 1000
TWIST_LETTERS = (("a", "b", "#"), ("a", "b", "c", "d", "e", "f", "g", "#"))


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


def quotient_coefficients(rng: random.Random, params):
    """A function drawing quotients of two monomials in the parameters,
    with half-integral exponents on the bar variables, over Q(params)."""
    def mono():
        return Monomial((i, rng.randint(0, 2) if kind is VarKind.ORDINARY
                         else Fraction(rng.randint(0, 4), 2))
                        for i, kind in enumerate(params.vartable.kinds))

    return lambda: RatFunc.of(params.from_monomial(mono(), rng.randint(1, 9)),
                              params.from_monomial(mono()))


def one_term_operands(seed: int):
    rng = random.Random(seed)
    params = encode_ring(["a", "b", "#"])
    ring = ordinary_ring(["y0", "y1"], FractionField(params))
    coeff = quotient_coefficients(rng, params)

    def poly(i):
        c = coeff()
        return ring.from_terms({Monomial(((i, rng.randint(1, 3)),)): c})

    return len(params.vartable), poly(0), poly(1)


def reduction_operands(seed: int):
    """(nparams, f, basis triples, key): an 8-term f of degree up to 3
    and the reduced GrevLex basis of two two-term generators of degree
    up to 2, in three coordinates over Q(params)."""
    rng = random.Random(seed)
    params = encode_ring(["a", "b", "#"])
    ring = ordinary_ring(["y0", "y1", "y2"], FractionField(params))
    coeff = quotient_coefficients(rng, params)

    def poly(nterms, deg):
        return ring.from_terms({Monomial((i, rng.randint(0, deg)) for i in range(3)):
                                coeff() for _ in range(nterms)})

    key = order_key(GrevLex(), ring)
    gens = [poly(2, 2), poly(2, 2)]
    basis = [(*leading(b, key), b) for b in buchberger(gens, GrevLex())]
    return len(params.vartable), poly(8, 3), basis, key


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
    nparams, p, q = one_term_operands(args.seed)
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        for _ in range(BATCH):
            p * q
        times.append(time.perf_counter() - t0)
    print(f"Poly.__mul__ 1x1 terms over Q({nparams} params): "
          f"{1e6 * statistics.median(times) / BATCH:.3f} us "
          f"(median of {args.repeat} batches of {BATCH})")
    nparams, f, basis, key = reduction_operands(args.seed)
    remainder = normal_form(f, basis, key)
    times = []
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        normal_form(f, basis, key)
        times.append(time.perf_counter() - t0)
    print(f"normal_form of {len(f.terms)} terms mod {len(basis)} GrevLex basis "
          f"polys over Q({nparams} params): {1e6 * statistics.median(times):.1f} us "
          f"(median of {args.repeat}, {len(remainder.terms)} remainder terms)")
    twist = WordSubst({"#": "#a"})
    medians = []
    for letters in TWIST_LETTERS:
        ring = encode_ring(letters)
        times = []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            invert_substitution(twist, letters, ring)
            times.append(time.perf_counter() - t0)
        medians.append(f"{1000 * statistics.median(times):.3f} ms over "
                       f"{len(letters)} letters")
    print(f"invert_substitution # -> #a: {', '.join(medians)} "
          f"(median of {args.repeat})")
    family = vass.small_family(40, 0)
    times = []
    for _ in range(args.repeat):
        for cache in vass._CACHES:
            cache.cache_clear()
        t0 = time.perf_counter()
        for v in family:
            vass.compile_to_transducer(vass.normalize(v))
        times.append(time.perf_counter() - t0)
    print(f"compile_to_transducer of small_family(40, 0) from cleared caches: "
          f"{1000 * statistics.median(times):.3f} ms (median of {args.repeat})")


if __name__ == "__main__":
    main()
