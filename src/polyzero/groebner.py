"""Groebner bases and the geometric ideal operations built on them.

Buchberger's algorithm with the coprime-leading-term and chain criteria
and sugar-based pair selection.  Coefficients may come from any of the
package's fields (rationals or rational functions); monomials with
fractional bar exponents are handled by rescaling every exponent with
the lcm of its denominators first, which is a ring isomorphism onto an
ordinary polynomial ring, and scaling back afterwards.

Every basis is computed by :func:`buchberger`.  An :class:`Ideal`
keeps one cache of reduced bases keyed by the monomial order and the
exponent scaling; its basis, unit test, normal form, membership and
equality tests all read that cache, so a basis is computed once per
ideal, order and scaling.

On top of the basis computation: ideal membership, radical membership
(adjoining an inverse variable), intersection (one-tag-variable trick),
elimination by block orders, images of varieties under polynomial maps
with an optional coefficient-field automorphism twist, and vanishing
ideals of finite point sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Sequence

from .errors import DomainError, StructureError
from .poly import (
    Coeff, Monomial, Poly, PolyMap, PolyRing, VarKind, map_ring_over,
    ordinary_ring,
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
    rev = tuple(reversed(indices))

    def key(m: Monomial) -> tuple:
        exps = [m.exp(i) for i in indices]
        return (sum(exps), tuple(-m.exp(i) for i in rev))

    return key


def order_key(order: Order, ring: PolyRing) -> KeyFn:
    vt = ring.vartable
    if isinstance(order, Lex):
        names = order.names if order.names is not None else vt.names
        idx = tuple(vt.index(n) for n in names)
        return lambda m: tuple(m.exp(i) for i in idx)
    if isinstance(order, GrevLex):
        names = order.names if order.names is not None else vt.names
        return _grev_key(tuple(vt.index(n) for n in names))
    if isinstance(order, BlockElim):
        front = tuple(vt.index(n) for n in order.front)
        front_set = set(front)
        back = tuple(i for i in range(len(vt)) if i not in front_set)
        kf, kb = _grev_key(front), _grev_key(back)
        return lambda m: (kf(m), kb(m))
    raise StructureError(f"unknown monomial order {order!r}")


def leading(p: Poly, key: KeyFn) -> tuple[Monomial, Coeff]:
    if p.is_zero():
        raise DomainError("leading term of the zero polynomial")
    m = max(p.terms, key=key)
    return m, p.terms[m]


# ---------------------------------------------------------------------------
# exponent rescaling (fractional bar exponents -> integers)


def _joint_scales(polys: Iterable[Poly]) -> dict[int, int]:
    scales: dict[int, int] = {}
    for p in polys:
        for m in p.terms:
            for i, e in m.exps:
                if e < 0:
                    raise DomainError(
                        "Groebner computation with negative exponents")
                if isinstance(e, Fraction):
                    scales[i] = lcm(scales.get(i, 1), e.denominator)
    return scales


def _apply_scales(p: Poly, scales: dict[int, int]) -> Poly:
    if not scales:
        return p
    terms = {}
    for m, c in p.terms.items():
        terms[Monomial((i, e * scales.get(i, 1)) for i, e in m.exps)] = c
    return Poly(p.ring, terms)


def _unapply_scales(p: Poly, scales: dict[int, int]) -> Poly:
    if not scales:
        return p
    terms = {}
    for m, c in p.terms.items():
        terms[Monomial((i, Fraction(e, scales.get(i, 1))) for i, e in m.exps)] = c
    return Poly(p.ring, terms)


# ---------------------------------------------------------------------------
# Buchberger


def _monic(p: Poly, key: KeyFn) -> Poly:
    _, lc = leading(p, key)
    one = p.ring.field.one()
    if lc == one:
        return p
    return p.scale(one / lc)


def _lead_triple(p: Poly, key: KeyFn) -> tuple[Monomial, Coeff, Poly]:
    """(leading monomial, leading coefficient, p), as normal_form takes it."""
    lm, lc = leading(p, key)
    return lm, lc, p


def normal_form(f: Poly, basis: Sequence[tuple[Monomial, Coeff, Poly]],
                key: KeyFn) -> Poly:
    """Fully reduced remainder of f modulo the basis (deterministic)."""
    ring = f.ring
    out: dict[Monomial, Coeff] = {}
    work = f
    while not work.is_zero():
        lm, lc = leading(work, key)
        for bm, bc, b in basis:
            if bm.divides(lm):
                t = lm.div(bm)
                work = work - b * ring.from_monomial(t, lc / bc)
                break
        else:
            out[lm] = lc
            work = work - ring.from_monomial(lm, lc)
    return Poly(ring, out)


def s_polynomial(f: tuple[Monomial, Coeff, Poly], g: tuple[Monomial, Coeff, Poly],
                 ring: PolyRing) -> Poly:
    l = f[0].lcm(g[0])
    one = ring.field.one()
    tf = ring.from_monomial(l.div(f[0]), one / f[1])
    tg = ring.from_monomial(l.div(g[0]), one / g[1])
    return f[2] * tf - g[2] * tg


def buchberger(gens: Iterable[Poly], order: Order) -> tuple[Poly, ...]:
    """Unique reduced monic Groebner basis of the given generators."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise StructureError("generators over different rings")
    scales = _joint_scales(gens)
    key = order_key(order, ring)
    entries: list[tuple[Monomial, Coeff, Poly]] = []
    sugars: list[int] = []
    pending: dict[tuple[int, int], tuple] = {}

    def push(p: Poly) -> None:
        p = _monic(p, key)
        entries.append(_lead_triple(p, key))
        sugars.append(int(p.total_degree() or 0))
        k = len(entries) - 1
        for i in range(k):
            l = entries[i][0].lcm(entries[k][0])
            deg_l = int(l.total_degree())
            sugar = max(sugars[i] + deg_l - int(entries[i][0].total_degree()),
                        sugars[k] + deg_l - int(entries[k][0].total_degree()))
            pending[(i, k)] = (sugar, key(l), i, k)

    for g in gens:
        push(_apply_scales(g, scales))

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

    # inter-reduce to the unique reduced basis
    polys = [e[2] for e in entries]
    changed = True
    while changed:
        changed = False
        for idx in range(len(polys)):
            if polys[idx] is None:
                continue
            others = [_lead_triple(q, key)
                      for k2, q in enumerate(polys) if q is not None and k2 != idx]
            r = normal_form(polys[idx], others, key)
            if r.is_zero():
                polys[idx] = None
                changed = True
            elif r != polys[idx]:
                polys[idx] = _monic(r, key)
                changed = True
    final = [p for p in polys if p is not None]
    final.sort(key=lambda p: key(leading(p, key)[0]), reverse=True)
    return tuple(_unapply_scales(p, scales) for p in final)


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
        self._bases: dict[tuple, tuple[Poly, ...]] = {}

    def __repr__(self) -> str:
        return f"Ideal({', '.join(str(g) for g in self.gens)})"

    def _basis(self, order: Order, scales: dict[int, int]) -> tuple[Poly, ...]:
        """Reduced basis of the generators with their exponents scaled;
        every basis of the ideal is computed here, once per order and
        scaling."""
        cache_key = (order, tuple(sorted(scales.items())))
        if cache_key not in self._bases:
            self._bases[cache_key] = buchberger(
                [_apply_scales(g, scales) for g in self.gens], order)
        return self._bases[cache_key]

    def groebner(self, order: Order | None = None) -> tuple[Poly, ...]:
        if order is None:
            order = GrevLex()
        scales = _joint_scales(self.gens)
        return tuple(_unapply_scales(b, scales)
                     for b in self._basis(order, scales))

    def is_trivial(self) -> bool:
        """Whether this is the unit ideal."""
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def reduce(self, f: Poly) -> Poly:
        """Normal form of f modulo a Groebner basis of the ideal."""
        if f.is_zero() or not self.gens:
            return f
        order = GrevLex()
        scales = _joint_scales(self.gens + (f,))
        key = order_key(order, self.ring)
        basis = [_lead_triple(b, key) for b in self._basis(order, scales)]
        nf = normal_form(_apply_scales(f, scales), basis, key)
        return _unapply_scales(nf, scales)

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

    def join(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise StructureError("joining ideals over different rings")
        return Ideal(self.ring, self.gens + other.gens)

    def converted(self, target_ring: PolyRing,
                  rename: dict[str, str] | None = None) -> "Ideal":
        return Ideal(target_ring, [g.convert(target_ring, rename) for g in self.gens])

    def equal(self, other: "Ideal") -> bool:
        if other.ring != self.ring:
            raise StructureError("comparing ideals over different rings")
        scales = _joint_scales(self.gens + other.gens)
        return (self._basis(GrevLex(), scales)
                == other._basis(GrevLex(), scales))


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
    keep = [g.convert(ring) for g in gb if "_mix" not in g.vars_used()]
    return Ideal(ring, keep)


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

