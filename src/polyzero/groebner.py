"""Groebner bases and the geometric ideal operations built on them.

Buchberger's algorithm with the coprime-leading-term and chain criteria
and sugar-based pair selection.  Coefficients may come from any of the
package's fields (rationals or rational functions).  Exponents are taken
as :mod:`poly` stores them: ``int``, or ``Fraction`` on bar variables.
Every exponent inside one computation lies in (1/L)·N, where L is the
lcm of the denominators of its inputs; multiplying every exponent by
the same L maps that set onto N^n and preserves the Lex, GrevLex and
BlockElim orders, so the algorithms run unchanged on the stored
exponents.

Every basis is computed by :func:`buchberger`.  An :class:`Ideal`
keeps one cache of reduced bases keyed by the monomial order; its
basis, unit test, normal form, membership and equality tests all read
that cache, so a basis is computed once per ideal and order.

On top of the basis computation: ideal membership, radical membership
(adjoining an inverse variable), intersection (one-tag-variable trick),
elimination by block orders, images of varieties under polynomial maps
with an optional coefficient-field automorphism twist, and vanishing
ideals of finite point sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Callable, Iterable, Sequence

from .errors import DomainError, StructureError
from .poly import (
    Coeff, Exponent, Monomial, Poly, PolyMap, PolyRing, VarKind, lex_walk,
    map_ring_over, ordinary_ring,
)

# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class Lex:
    names: tuple[str, ...] | None = None


@dataclass(frozen=True)
class GrevLex:
    names: tuple[str, ...] | None = None


@dataclass(frozen=True)
class BlockElim:
    """Elimination order: the front block dominates, grevlex inside blocks."""

    front: tuple[str, ...]


Order = Lex | GrevLex | BlockElim

KeyFn = Callable[[Monomial], tuple]


def _grev_key(indices: Sequence[int]) -> KeyFn:
    """Total degree of the given variables, then their negated
    exponents from the last variable back."""
    n = len(indices)
    place = {i: n - 1 - k for k, i in enumerate(indices)}

    def key(m: Monomial) -> tuple:
        total: Exponent = 0
        neg: list[Exponent] = [0] * n
        for i, e in m:
            k = place.get(i)
            if k is not None:
                total += e
                neg[k] = -e
        return total, tuple(neg)

    return key


def _block_key(front: Sequence[int], back: Sequence[int]) -> KeyFn:
    """The grevlex keys of the front and of the back variables."""
    sizes = (len(front), len(back))
    place = {i: (0, sizes[0] - 1 - k) for k, i in enumerate(front)}
    place.update((i, (1, sizes[1] - 1 - k)) for k, i in enumerate(back))

    def key(m: Monomial) -> tuple:
        totals: list[Exponent] = [0, 0]
        negs = ([0] * sizes[0], [0] * sizes[1])
        for i, e in m:
            b, k = place[i]
            totals[b] += e
            negs[b][k] = -e
        return (totals[0], tuple(negs[0])), (totals[1], tuple(negs[1]))

    return key


def order_key(order: Order, ring: PolyRing) -> KeyFn:
    """Sort key of the order; only an order that names every variable
    of the ring once, or a front of distinct ones, is total."""
    vt = ring.vartable
    if isinstance(order, (Lex, GrevLex)):
        names = order.names if order.names is not None else vt.names
        if sorted(names) != sorted(vt.names):
            raise StructureError(f"{order!r} must name each ring variable once")
        indices = tuple(vt.index(n) for n in names)
        return (lex_walk if isinstance(order, Lex) else _grev_key)(indices)
    if isinstance(order, BlockElim):
        front = tuple(vt.index(n) for n in order.front)
        front_set = set(front)
        if len(front_set) != len(front):
            raise StructureError(f"{order!r} names a variable twice")
        back = tuple(i for i in range(len(vt)) if i not in front_set)
        return _block_key(front, back)
    raise StructureError(f"unknown monomial order {order!r}")


def leading(p: Poly, key: KeyFn) -> tuple[Monomial, Coeff]:
    if p.is_zero():
        raise DomainError("leading term of the zero polynomial")
    m = max(p.terms, key=key)
    return m, p.terms[m]


# ---------------------------------------------------------------------------
# Buchberger


def _require_nonnegative(polys: Iterable[Poly]) -> None:
    if any(e < 0 for p in polys for m in p.terms for _, e in m):
        raise DomainError("Groebner computation with negative exponents")


def _monic(p: Poly, key: KeyFn) -> Poly:
    """``p`` over its leading coefficient, ``field.one()`` at its monomial."""
    lm, lc = leading(p, key)
    field = p.ring.field
    one = field.one()
    if lc is one or lc == one:
        return p
    inv = field.div(one, lc)
    return Poly._raw(p.ring, {m: one if m is lm else c * inv
                              for m, c in p.terms.items()})


def _lead_triple(p: Poly, key: KeyFn) -> tuple[Monomial, Coeff, Poly]:
    """(leading monomial, leading coefficient, p), as normal_form takes it."""
    lm, lc = leading(p, key)
    return lm, lc, p


def _reversed_key(k: tuple) -> tuple:
    """Elementwise negation: reverses the comparison of order keys."""
    return tuple(_reversed_key(x) if isinstance(x, tuple) else -x for x in k)


def normal_form(f: Poly, basis: Sequence[tuple[Monomial, Coeff, Poly]],
                key: KeyFn) -> Poly:
    """Fully reduced remainder of f modulo the basis (deterministic).

    The remainder is one mutable term dict.  Its leading term comes off
    a heap of reversed order keys, each computed once per call; a
    monomial that cancels leaves a stale heap entry, skipped when
    popped.  A leading term divisible by the leading monomial of a
    basis entry (the first one, in basis order) is reduced by
    subtracting ``q * t * b`` term by term, ``work[m] + (-(c * q))``;
    the leading term itself cancels exactly in both fields, so it is
    dropped.  Any other leading term moves to the output.
    """
    ring = f.ring
    div = ring.field.div
    work = dict(f.terms)
    rkeys: dict[Monomial, tuple] = {}
    monos: dict[tuple, Monomial] = {}

    def rkey(m: Monomial) -> tuple:
        k = rkeys.get(m)
        if k is None:
            k = rkeys[m] = _reversed_key(key(m))
            monos[k] = m
        return k

    heap = [rkey(m) for m in work]
    heapify(heap)
    out: dict[Monomial, Coeff] = {}
    while heap:
        lm = monos[heappop(heap)]
        lc = work.pop(lm, None)
        if lc is None:
            continue
        for bm, bc, b in basis:
            if bm.divides(lm):
                t = lm.div(bm)
                q = div(lc, bc)
                for m, c in b.terms.items():
                    if m == bm:
                        continue
                    m = m.mul(t)
                    c = -(c * q)
                    if m in work:
                        c = work[m] + c
                        if c:
                            work[m] = c
                        else:
                            del work[m]
                    else:
                        work[m] = c
                        heappush(heap, rkey(m))
                break
        else:
            out[lm] = lc
    return Poly(ring, out)


def s_polynomial(f: tuple[Monomial, Coeff, Poly], g: tuple[Monomial, Coeff, Poly],
                 ring: PolyRing) -> Poly:
    l = f[0].lcm(g[0])
    field = ring.field
    tf = ring.from_monomial(l.div(f[0]), field.div(field.one(), f[1]))
    tg = ring.from_monomial(l.div(g[0]), field.div(field.one(), g[1]))
    return f[2] * tf - g[2] * tg


def buchberger(gens: Iterable[Poly], order: Order) -> tuple[Poly, ...]:
    """Unique reduced monic Groebner basis of the given generators.

    Exponents may be fractions: with L the lcm of the generators'
    exponent denominators, every monomial met here lies in (1/L)·N^n,
    which scaling by L maps onto N^n preserving the order, so the
    algorithm terminates with the reduced basis of the order it names.
    That basis is also a Groebner basis of the ideal the generators span
    over any finer exponent set, so polynomials with other denominators
    reduce against it correctly.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise StructureError("generators over different rings")
    _require_nonnegative(gens)
    key = order_key(order, ring)
    entries: list[tuple[Monomial, Coeff, Poly]] = []
    sugars: list[Exponent] = []
    pending: dict[tuple[int, int], tuple] = {}

    def push(p: Poly) -> None:
        p = _monic(p, key)
        entries.append(_lead_triple(p, key))
        sugars.append(p.total_degree())
        k = len(entries) - 1
        for i in range(k):
            l = entries[i][0].lcm(entries[k][0])
            deg_l = l.total_degree()
            sugar = max(sugars[i] + deg_l - entries[i][0].total_degree(),
                        sugars[k] + deg_l - entries[k][0].total_degree())
            pending[(i, k)] = (sugar, key(l), i, k)

    for g in gens:
        push(g)

    while pending:
        (i, j) = min(pending, key=lambda ij: pending[ij])
        del pending[(i, j)]
        lm_i, lm_j = entries[i][0], entries[j][0]
        l = lm_i.lcm(lm_j)
        if l == lm_i.mul(lm_j):
            continue  # coprime leading terms
        skip = False
        for k in range(len(entries)):
            if k in (i, j) or not entries[k][0].divides(l):
                continue
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        h = normal_form(s_polynomial(entries[i], entries[j], ring), entries, key)
        if not h.is_zero():
            push(h)

    # inter-reduce to the unique reduced basis; only the triple of the
    # polynomial that changed is rebuilt
    triples: list[tuple[Monomial, Coeff, Poly] | None] = list(entries)
    changed = True
    while changed:
        changed = False
        for idx, own in enumerate(triples):
            if own is None:
                continue
            others = [t for k2, t in enumerate(triples)
                      if t is not None and k2 != idx]
            r = normal_form(own[2], others, key)
            if r.is_zero():
                triples[idx] = None
                changed = True
            elif r != own[2]:
                triples[idx] = _lead_triple(_monic(r, key), key)
                changed = True
    final = sorted((t for t in triples if t is not None),
                   key=lambda t: key(t[0]), reverse=True)
    return tuple(p for _, _, p in final)


# ---------------------------------------------------------------------------
# ideals


class Ideal:
    """Finitely generated ideal with cached reduced Groebner bases."""

    def __init__(self, ring: PolyRing, gens: Iterable[Poly]):
        self.ring = ring
        gens = tuple(g for g in gens if not g.is_zero())
        for g in gens:
            if g.ring != ring:
                raise StructureError("ideal generator over a different ring")
        self.gens = gens
        self._bases: dict[Order, tuple[tuple[Monomial, Coeff, Poly], ...]] = {}

    def __repr__(self) -> str:
        return f"Ideal({', '.join(str(g) for g in self.gens)})"

    def _basis(self, order: Order) -> tuple[tuple[Monomial, Coeff, Poly], ...]:
        """Reduced basis of the generators as the (lm, lc, p) triples
        that normal_form takes; every basis of the ideal is computed
        here, once per order."""
        if order not in self._bases:
            key = order_key(order, self.ring)
            self._bases[order] = tuple(_lead_triple(b, key)
                                       for b in buchberger(self.gens, order))
        return self._bases[order]

    def groebner(self, order: Order | None = None) -> tuple[Poly, ...]:
        return tuple(b for _, _, b in self._basis(order or GrevLex()))

    def is_trivial(self) -> bool:
        """Whether this is the unit ideal."""
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def reduce(self, f: Poly) -> Poly:
        """Normal form of f modulo a Groebner basis of the ideal."""
        if f.is_zero() or not self.gens:
            return f
        _require_nonnegative([f])
        order = GrevLex()
        return normal_form(f, self._basis(order), order_key(order, self.ring))

    def member(self, f: Poly) -> bool:
        return self.reduce(f).is_zero()

    def radical_member(self, f: Poly) -> bool:
        """Membership in the radical via an adjoined inverse variable."""
        if self.member(f):
            return True
        if not self.gens:
            return False
        ext = self.ring.extended([("_rad", VarKind.ORDINARY)])
        t = ext.var("_rad")
        gens = [g.convert(ext) for g in self.gens]
        gens.append(ext.one() - t * f.convert(ext))
        return Ideal(ext, gens).is_trivial()

    def converted(self, target_ring: PolyRing,
                  rename: dict[str, str] | None = None) -> "Ideal":
        return Ideal(target_ring, [g.convert(target_ring, rename) for g in self.gens])

    def equal(self, other: "Ideal") -> bool:
        if other.ring != self.ring:
            raise StructureError("comparing ideals over different rings")
        return self._basis(GrevLex()) == other._basis(GrevLex())


def ideal_intersect(a: Ideal, b: Ideal) -> Ideal:
    """Intersection via the tag variable: t*a + (1-t)*b, eliminate t."""
    if a.ring != b.ring:
        raise StructureError("intersecting ideals over different rings")
    ring = a.ring
    if not a.gens or not b.gens:
        return Ideal(ring, [])
    ext = map_ring_over(ring, [("_mix", VarKind.ORDINARY)])
    t = ext.var("_mix")
    gens = [t * g.convert(ext) for g in a.gens]
    gens += [(ext.one() - t) * g.convert(ext) for g in b.gens]
    gb = buchberger(gens, BlockElim(("_mix",)))
    out = Ideal(ring, [g.convert(ring) for g in gb
                       if "_mix" not in g.vars_used()])
    # the _mix-free part of the reduced block basis is the reduced
    # grevlex basis of the intersection, in the same order
    key = order_key(GrevLex(), ring)
    out._bases[GrevLex()] = tuple(_lead_triple(g, key) for g in out.gens)
    return out


def eliminate(I: Ideal, drop: Iterable[str]) -> Ideal:
    """Intersection with the subring avoiding the dropped variables."""
    drop = tuple(drop)
    if not drop:
        return I
    gb = I.groebner(BlockElim(drop))
    dropset = set(drop)
    return Ideal(I.ring, [g for g in gb if not (g.vars_used() & dropset)])


def image_closure(I: Ideal, f: PolyMap, out_names: Sequence[str],
                  alpha=None) -> Ideal:
    """Zariski closure of f(alpha(V(I))) as an ideal over the output ring.

    ``alpha`` is an optional automorphism of the coefficient field; it is
    applied to the coefficients of I's generators, which presents the
    ideal of the pointwise image alpha(V(I)).  The map's slots must
    exactly cover I's variables and there must be no ambient variables.
    """
    ring = I.ring
    if f.ambient_names():
        raise StructureError("image closure with ambient variables")
    if f.n_inputs != len(ring.vartable):
        raise StructureError("map arity does not match the ideal's variables")
    out_names = tuple(out_names)
    if len(out_names) != f.n_outputs:
        raise StructureError("output name count does not match the map")
    combined = ring.extended((n, VarKind.ORDINARY) for n in out_names)
    gens = []
    for g in I.gens:
        if alpha is not None:
            g = g.map_coefficients(alpha.apply)
        gens.append(g.convert(combined))
    rename = dict(zip(f.slots, ring.vartable.names))
    for yname, out in zip(out_names, f.outputs):
        gens.append(combined.var(yname) - out.convert(combined, rename))
    big = Ideal(combined, gens)
    elim = eliminate(big, ring.vartable.names)
    out_ring = ordinary_ring(out_names, ring.field, ring.mode)
    return elim.converted(out_ring)


def vanishing_ideal_of_points(ring: PolyRing,
                              points: Iterable[tuple[Coeff, ...]]) -> Ideal:
    """Radical ideal of a finite set of rational points (intersection of
    maximal ideals); the unit ideal for the empty set."""
    points = list(points)
    if not points:
        return Ideal(ring, [ring.one()])
    result: Ideal | None = None
    names = ring.vartable.names
    for pt in points:
        if len(pt) != len(names):
            raise StructureError("point dimension does not match the ring")
        pt_ideal = Ideal(ring, [ring.var(n) - ring.const(v)
                                for n, v in zip(names, pt)])
        result = pt_ideal if result is None else ideal_intersect(result, pt_ideal)
    return result

