"""Groebner engine: bases, membership, radical, intersection, images."""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polyzero.errors import DomainError, StructureError
from polyzero.groebner import (
    BlockElim, GrevLex, Ideal, Lex, _monic, buchberger, eliminate,
    ideal_intersect, image_closure, leading, normal_form, order_key,
)
from polyzero.poly import (
    FractionField, Mode, Monomial, Poly, PolyMap, PolyRing, RatFunc, VarKind,
    VarTable, ordinary_ring,
)

XYZ = ordinary_ring(["x", "y", "z"])
Xv, Yv, Zv = XYZ.var("x"), XYZ.var("y"), XYZ.var("z")


def test_twisted_cubic_lex_basis():
    I = [Yv - Xv**2, Zv - Xv**3]
    gb = buchberger(I, Lex(("x", "y", "z")))
    # independent check: every basis element vanishes on the curve (t, t^2, t^3)
    ext = ordinary_ring(["t", "x", "y", "z"])
    t = ext.var("t")
    for g in gb:
        lifted = g.convert(ext)
        assert lifted.substitute({"x": t, "y": t**2, "z": t**3}).is_zero()
    # the classical degree-3 relation is implied
    assert Ideal(XYZ, I).member(Yv**3 - Zv**2)
    assert not Ideal(XYZ, I).member(Yv**3 - Zv**2 + 1)


def test_basis_trivial_cases():
    assert buchberger([Xv], GrevLex()) == (Xv,)
    gb = buchberger([Xv, Xv - 1], GrevLex())
    assert len(gb) == 1 and gb[0] == XYZ.one()
    assert buchberger([], GrevLex()) == ()


def test_basis_canonical_under_generator_order():
    a = [Yv - Xv**2, Zv - Xv**3]
    b = [Zv - Xv**3, Yv - Xv**2]
    assert buchberger(a, GrevLex()) == buchberger(b, GrevLex())
    assert Ideal(XYZ, a).equal(Ideal(XYZ, b))


def test_membership():
    I = Ideal(XYZ, [Xv])
    assert I.member(Xv**2 * Yv)
    assert I.member(XYZ.zero())
    assert not I.member(Xv + 1)
    assert not I.member(Yv)


def test_radical_membership():
    I = Ideal(XYZ, [Xv**2, Yv**2])
    assert I.radical_member(Xv + Yv)
    assert not I.member(Xv + Yv)
    # constructive cross-check: (x+y)^3 is a plain member
    assert I.member((Xv + Yv) ** 3)
    assert not I.radical_member(Xv + 1)
    assert Ideal(XYZ, [Xv - 1]).radical_member(Xv - 1)


def test_intersection():
    I = ideal_intersect(Ideal(XYZ, [Xv]), Ideal(XYZ, [Yv]))
    assert I.equal(Ideal(XYZ, [Xv * Yv]))
    J = ideal_intersect(Ideal(XYZ, [Xv - 1]), Ideal(XYZ, [Xv - 2]))
    assert J.equal(Ideal(XYZ, [(Xv - 1) * (Xv - 2)]))
    Z = ideal_intersect(Ideal(XYZ, []), Ideal(XYZ, [Xv]))
    assert not Z.gens


def test_intersection_keeps_its_grevlex_basis(monkeypatch):
    from polyzero import groebner
    ring = PolyRing(VarTable.make([("y", VarKind.ORDINARY),
                                   ("ab", VarKind.BAR)]))
    y, ab, half = ring.var("y"), ring.var("ab"), ring.var("ab", Fraction(1, 2))
    cases = [
        (Ideal(XYZ, [Yv - Xv**2, Zv - Xv**3]), Ideal(XYZ, [Xv * Yv - Zv])),
        (Ideal(XYZ, [Xv - 1]), Ideal(XYZ, [Xv - 2, Yv])),
        (Ideal(ring, [ab - y * ab]), Ideal(ring, [y * half - ab * half])),
    ]
    for a, b in cases:
        r = ideal_intersect(a, b)
        assert r.groebner() == buchberger(r.gens, GrevLex())
    calls = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda gens, order: calls.append(order)
                        or real(gens, order))
    for a, b in cases:
        r = ideal_intersect(a, b)
        calls.clear()
        assert r.equal(r)
        assert calls == []


def test_eliminate_parabola():
    ring = ordinary_ring(["t", "x1", "x2"])
    I = Ideal(ring, [ring.var("x1") - ring.var("t"),
                     ring.var("x2") - ring.var("t") ** 2])
    E = eliminate(I, ["t"])
    assert len(E.gens) == 1
    assert E.gens[0] == ring.var("x1") ** 2 - ring.var("x2")


def test_image_closure_parabola():
    line = ordinary_ring(["t"])
    f = PolyMap(line, ("t",), (line.var("t"), line.var("t") ** 2))
    img = image_closure(Ideal(line, []), f, ("y1", "y2"))
    ring = img.ring
    assert img.equal(Ideal(ring, [ring.var("y1") ** 2 - ring.var("y2")]))


def test_image_closure_identity_on_point():
    ring = ordinary_ring(["t"])
    f = PolyMap(ring, ("t",), (ring.var("t"),))
    I = Ideal(ring, [ring.var("t") - 5])
    img = image_closure(I, f, ("y1",))
    assert img.equal(Ideal(img.ring, [img.ring.var("y1") - 5]))


def test_image_closure_with_automorphism():
    from polyzero.encoding import Automorphism, PolySubst
    from polyzero.poly import RatFunc

    params = ordinary_ring(["c"])
    ff = FractionField(params)
    ring = PolyRing(VarTable.make([("x1", VarKind.ORDINARY)]), ff)
    c = ff.coerce(params.var("c"))
    alpha = Automorphism(
        PolySubst(params, {"c": params.var("c") + 1}),
        {"c": RatFunc.of(params.var("c") - 1, params.one())},
    )
    f = PolyMap(ring, ("x1",), (ring.var("x1"),))
    I = Ideal(ring, [ring.var("x1") - ring.const(c)])
    img = image_closure(I, f, ("y1",), alpha=alpha)
    want = Ideal(img.ring, [img.ring.var("y1") - img.ring.const(c + 1)])
    assert img.equal(want)


def test_image_soundness_random_points():
    # points on V(x2 - x1^2) map through f; image generators vanish there
    ring = ordinary_ring(["x1", "x2"])
    I = Ideal(ring, [ring.var("x2") - ring.var("x1") ** 2])
    f = PolyMap(ring, ("x1", "x2"),
                (ring.var("x1") + ring.var("x2"), ring.var("x1") * ring.var("x2")))
    img = image_closure(I, f, ("y1", "y2"))
    rng = random.Random(5)
    for _ in range(100):
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
        v = (t, t * t)
        w = f.eval_at(v)
        for g in img.gens:
            assert g.evaluate({"y1": w[0], "y2": w[1]}) == 0


def test_quotient_zero_test():
    I = Ideal(XYZ, [Xv - Yv])
    assert I.member(Xv**2 - Yv**2)
    assert not I.member(Xv + Yv)


def test_fractional_exponent_membership():
    ring = PolyRing(VarTable.make([("y", VarKind.ORDINARY), ("ab", VarKind.BAR)]))
    half = ring.var("ab", Fraction(1, 2))
    I = Ideal(ring, [ring.var("y") - half])
    assert I.member(ring.var("y") ** 2 - ring.var("ab"))
    assert not I.member(ring.var("y") + ring.one())


def test_fractional_grevlex_basis_is_reduced():
    ring = PolyRing(VarTable.make([("y", VarKind.ORDINARY), ("ab", VarKind.BAR)]))
    y, ab32 = ring.var("y"), ring.var("ab", Fraction(3, 2))
    I = Ideal(ring, [y**2 - ab32])
    key = order_key(GrevLex(), ring)
    gb = I.groebner()
    assert gb == (y**2 - ab32,)
    assert all(leading(g, key)[1] == 1 for g in gb)
    r = I.reduce(y**3)
    assert r == y * ab32
    assert not any(leading(g, key)[0].divides(m) for g in gb for m in r.terms)


FRAC_RING = PolyRing(VarTable.make([("y", VarKind.ORDINARY),
                                    ("ab", VarKind.BAR), ("bb", VarKind.BAR)]))


@st.composite
def frac_polys(draw, max_terms):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        mono = Monomial([(0, draw(st.integers(0, 2)))] + [
            (i, Fraction(draw(st.integers(0, 3)), draw(st.integers(1, 3))))
            for i in (1, 2)])
        terms[mono] = Fraction(draw(st.integers(-2, 2)))
    return FRAC_RING.from_terms(terms)


def _scaled(p: Poly, L: int) -> Poly:
    return p.ring.from_terms({Monomial((i, e * L) for i, e in m): c
                              for m, c in p.terms.items()})


@settings(max_examples=40, deadline=None)
@given(st.lists(frac_polys(2), min_size=1, max_size=2), frac_polys(2),
       frac_polys(3), st.booleans())
def test_fractional_membership_matches_scaled_copy(gens, mult, extra, member):
    # x^e -> x^(6e) is a ring isomorphism onto integer exponents (every
    # denominator divides 6) preserving grevlex, so membership and
    # normal forms must agree on both sides
    f = gens[0] * mult + (FRAC_RING.zero() if member else extra)
    L = 6
    I = Ideal(FRAC_RING, gens)
    J = Ideal(FRAC_RING, [_scaled(g, L) for g in gens])
    assert I.member(f) == J.member(_scaled(f, L))
    assert _scaled(I.reduce(f), L) == J.reduce(_scaled(f, L))
    if member:
        assert I.member(f)


def test_groebner_rejects_negative_exponents():
    from polyzero.poly import Mode

    ring = PolyRing(VarTable.make([("ab", VarKind.BAR)]), mode=Mode.FIELD)
    p = ring.var("ab", -1)
    with pytest.raises(DomainError):
        buchberger([p], GrevLex())
    with pytest.raises(DomainError):
        Ideal(ring, [ring.var("ab") - 1]).member(p)
    with pytest.raises(DomainError):
        Ideal(ring, [p - 1]).member(ring.var("ab"))


def test_fraction_field_coefficients():
    params = ordinary_ring(["at", "ab"])
    ff = FractionField(params)
    ring = PolyRing(VarTable.make([("y1", VarKind.ORDINARY),
                                   ("y2", VarKind.ORDINARY)]), ff)
    at = ff.coerce(params.var("at"))
    ab = ff.coerce(params.var("ab"))
    line = ring.var("y1").scale(ab - 1) - (ring.var("y2") - 1).scale(at)
    I = Ideal(ring, [line])
    assert I.member(line.scale(at * ab + 3))
    assert not I.member(ring.var("y1"))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
                min_size=2, max_size=2))
def test_block_order_elimination_property(pairs):
    key = order_key(BlockElim(("x",)), XYZ)
    (a1, a2, a3), (b1, b2, b3) = pairs
    m = Monomial(((0, a1 + 1), (1, a2), (2, a3)))   # mentions x
    n = Monomial(((1, b2), (2, b3)))                # avoids x
    assert key(m) > key(n)


@settings(max_examples=25, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 2), st.integers(0, 2))
def test_membership_of_random_combinations(c1, c2, e1, e2):
    I = Ideal(XYZ, [Xv * Yv - 1, Zv**2 - Xv])
    f = I.gens[0] * (Xv**e1).scale(Fraction(c1)) + I.gens[1] * (Yv**e2).scale(Fraction(c2))
    assert I.member(f)


def test_each_ideal_computes_its_basis_once(monkeypatch):
    from polyzero import groebner
    calls = []
    real = groebner.buchberger

    def counting(gens, order):
        gens = tuple(gens)
        calls.append(gens)
        return real(gens, order)

    monkeypatch.setattr(groebner, "buchberger", counting)
    I = Ideal(XYZ, [Yv - Xv**2, Zv - Xv**3])
    J = Ideal(XYZ, [Zv - Xv**3, Yv - Xv**2, Yv * Zv - Xv**5])
    assert I.member(Yv**3 - Zv**2)
    assert I.equal(J) and J.equal(I)
    assert not I.is_trivial()
    assert sorted(calls, key=len) == [I.gens, J.gens]


# ---------------------------------------------------------------------------
# normal forms against the rebuild-per-step reference

C_RING = ordinary_ring(["c"])
Y12 = PolyRing(VarTable.make([("y1", VarKind.ORDINARY), ("y2", VarKind.ORDINARY)]),
               FractionField(C_RING))
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def c_polys(draw, nonzero=False):
    p = C_RING.from_terms({Monomial([(0, draw(st.integers(0, 1)))]):
                           draw(small_rationals) for _ in range(draw(st.integers(1, 2)))})
    return p + 1 if nonzero and p.is_zero() else p


@st.composite
def nf_polys(draw, ring, max_terms, max_deg):
    n = len(ring.vartable)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = Monomial([(i, draw(st.integers(0, max_deg))) for i in range(n)])
        if ring is Y12:
            terms[mono] = RatFunc.of(draw(c_polys()), draw(c_polys(nonzero=True)))
        else:
            terms[mono] = draw(small_rationals)
    return ring.from_terms(terms)


@st.composite
def nf_cases(draw):
    ring = draw(st.sampled_from([XYZ, Y12]))
    gens = draw(st.lists(nf_polys(ring, 3, 2), min_size=1, max_size=2))
    order = draw(st.sampled_from([GrevLex(), Lex()]))
    return draw(nf_polys(ring, 5, 3)), gens, order


def rebuild_normal_form(f: Poly, basis, key) -> Poly:
    """Normal form that rebuilds the remainder polynomial at every step
    and finds its leading term by scanning every term."""
    ring = f.ring
    out = {}
    work = f
    while not work.is_zero():
        lm, lc = leading(work, key)
        for bm, bc, b in basis:
            if bm.divides(lm):
                t = lm.div(bm)
                work = work - b * ring.from_monomial(t, ring.field.div(lc, bc))
                break
        else:
            out[lm] = lc
            work = work - ring.from_monomial(lm, lc)
    return Poly(ring, out)


@settings(max_examples=80, deadline=None)
@given(nf_cases())
def test_normal_form_matches_rebuild_reference(case):
    f, gens, order = case
    ring = f.ring
    key = order_key(order, ring)
    basis = [(*leading(b, key), b) for b in buchberger(gens, order)]
    nf = normal_form(f, basis, key)
    expected = rebuild_normal_form(f, basis, key)
    assert nf == expected
    # the same coefficients as printed, RatFunc numerators and denominators too
    assert str(nf) == str(expected)
    assert all(not bm.divides(m) for m in nf.terms for bm, _, _ in basis)
    assert Ideal(ring, gens).member(f - nf)


# ---------------------------------------------------------------------------
# order keys and monomial operations against exp-based formulas

# ordinary and bar variables in field mode: fractional and negative exponents
KEYS = PolyRing(VarTable.make([("u", VarKind.ORDINARY), ("a", VarKind.BAR),
                               ("v", VarKind.ORDINARY), ("b", VarKind.BAR),
                               ("w", VarKind.ORDINARY)]), mode=Mode.FIELD)
key_exps = st.one_of(st.integers(-2, 3),
                     st.integers(-4, 6).map(lambda k: Fraction(k, 2)))
key_monomials = st.dictionaries(st.integers(0, 4), key_exps, max_size=5).map(
    lambda d: Monomial(d.items()))
# Lex and GrevLex name every variable; a BlockElim front is any prefix
key_perms = st.permutations(KEYS.vartable.names).map(tuple)
key_fronts = key_perms.flatmap(
    lambda names: st.integers(1, len(names)).map(lambda k: names[:k]))
key_orders = st.one_of(st.just(Lex()), key_perms.map(Lex), st.just(GrevLex()),
                       key_perms.map(GrevLex), key_fronts.map(BlockElim))


def formula_key(order, ring):
    """The order's key read one exponent at a time through ``Monomial.exp``."""
    vt = ring.vartable

    def grev(indices):
        rev = tuple(reversed(indices))
        return lambda m: (sum(m.exp(i) for i in indices),
                          tuple(-m.exp(i) for i in rev))

    if isinstance(order, BlockElim):
        front = tuple(vt.index(n) for n in order.front)
        back = tuple(i for i in range(len(vt)) if i not in front)
        kf, kb = grev(front), grev(back)
        return lambda m: (kf(m), kb(m))
    idx = tuple(vt.index(n) for n in (order.names or vt.names))
    if isinstance(order, Lex):
        return lambda m: tuple(m.exp(i) for i in idx)
    return grev(idx)


def _reversed_key(k: tuple) -> tuple:
    """Elementwise negation: reverses the comparison of order keys."""
    return tuple(_reversed_key(x) if isinstance(x, tuple) else -x for x in k)


def _typed(k):
    """A key with the type of every entry, so that 1 and Fraction(1) differ."""
    if isinstance(k, tuple):
        return tuple(_typed(x) for x in k)
    return type(k), k


@settings(max_examples=150, deadline=None)
@given(st.lists(key_monomials, min_size=1, max_size=8), key_orders)
def test_order_keys_match_their_formulas(monos, order):
    key, formula = order_key(order, KEYS), formula_key(order, KEYS)
    for m in monos:
        assert _typed(key(m)) == _typed(formula(m))
        # the descending heap key is the formula's, every entry negated
        assert _typed(key.heap(m)) == _typed(_reversed_key(formula(m)))
    assert sorted(monos, key=key) == sorted(monos, key=formula)


@settings(max_examples=200, deadline=None)
@given(key_monomials, key_monomials)
def test_divides_and_gcd_match_exp_formulas(a, b):
    assert a.divides(b) == all(e <= b.exp(i) for i, e in a)
    g = a.gcd(b)
    want = Monomial((i, min(e, b.exp(i))) for i, e in a)
    assert g == want
    assert [type(e) for _, e in g] == [type(e) for _, e in want]
    assert a.divides(a) and g.divides(a)


def test_order_key_rejects_orders_that_are_not_total():
    # names that miss, repeat or add a variable would key distinct
    # monomials alike: normal_form would drop y, buchberger give (1,)
    R = ordinary_ring(["x", "y"])
    x, y = R.var("x"), R.var("y")
    with pytest.raises(StructureError):
        normal_form(y + y**2 + x, [], order_key(GrevLex(("x",)), R))
    with pytest.raises(StructureError):
        buchberger([y**2 - y, x * y - 1], GrevLex(("x",)))
    for order in (Lex(("x",)), GrevLex(("y", "y")), Lex(("x", "y", "z")),
                  GrevLex(("x", "z")), BlockElim(("z",)), BlockElim(("x", "x"))):
        with pytest.raises(StructureError):
            order_key(order, R)
    assert set(buchberger([y**2 - y, x * y - 1], GrevLex(("y", "x")))) == \
        {x - 1, y - 1}


# ---------------------------------------------------------------------------
# _monic against scaling by the inverse leading coefficient, and the
# entry it returns

AB_RING = ordinary_ring(["a", "b"])
Y_AB = ordinary_ring(["y1", "y2"], FractionField(AB_RING))


@st.composite
def ab_polys(draw, nonzero=False):
    terms = {Monomial([(0, draw(st.integers(0, 1))), (1, draw(st.integers(0, 1)))]):
             draw(small_rationals) for _ in range(draw(st.integers(1, 2)))}
    p = AB_RING.from_terms(terms)
    return p + 1 if nonzero and p.is_zero() else p


@st.composite
def monic_cases(draw):
    ring = draw(st.sampled_from([XYZ, Y_AB]))
    n = len(ring.vartable)
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        mono = Monomial([(i, draw(st.integers(0, 3))) for i in range(n)])
        if ring is Y_AB:
            terms[mono] = RatFunc.of(draw(ab_polys()), draw(ab_polys(nonzero=True)))
        else:
            terms[mono] = draw(small_rationals)
    p = ring.from_terms(terms)
    assume(not p.is_zero())
    return p, draw(st.sampled_from([GrevLex(), Lex()]))


def _same_or_int_for_fraction(got, want) -> bool:
    """Equal with the same type, or an integral Fraction given as int."""
    if isinstance(want, RatFunc):
        return all(list(g.terms) == list(w.terms) and all(
            _same_or_int_for_fraction(a, b)
            for a, b in zip(g.terms.values(), w.terms.values()))
            for g, w in ((got.num, want.num), (got.den, want.den)))
    return got == want and (type(got) is type(want) or (
        type(got) is int and type(want) is Fraction))


@settings(max_examples=120, deadline=None)
@given(monic_cases())
def test_monic_matches_scaling_by_the_inverse(case):
    p, order = case
    key = order_key(order, p.ring)
    field = p.ring.field
    lm, lc = leading(p, key)
    (got_lm, got_lc, got), want = _monic(p, key), p.scale(field.div(field.one(), lc))
    assert got_lm == lm and got_lc == field.one() and got.terms[lm] is got_lc
    assert list(got.terms) == list(want.terms)
    for c, w in zip(got.terms.values(), want.terms.values()):
        assert _same_or_int_for_fraction(c, w)


# ---------------------------------------------------------------------------
# the one-pass reduced basis against the fixpoint inter-reduction


def fixpoint_buchberger(gens, order):
    """Buchberger's algorithm whose inter-reduction reruns normal_form
    over every basis element until a whole pass changes nothing."""
    from polyzero.groebner import _lead_triple, s_polynomial

    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring
    key = order_key(order, ring)
    entries, sugars, pending = [], [], {}

    def push(p):
        p = _monic(p, key)[2]
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
            continue
        if any(k not in (i, j) and entries[k][0].divides(l)
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k in range(len(entries))):
            continue
        h = normal_form(s_polynomial(entries[i], entries[j], ring), entries, key)
        if not h.is_zero():
            push(h)
    triples = list(entries)
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
                triples[idx] = _lead_triple(_monic(r, key)[2], key)
                changed = True
    final = sorted((t for t in triples if t is not None),
                   key=lambda t: key(t[0]), reverse=True)
    return tuple(p for _, _, p in final)


# y and z ordinary, ab a bar variable with fractional exponents
YZ_AB = [("y", VarKind.ORDINARY), ("z", VarKind.ORDINARY), ("ab", VarKind.BAR)]
BASIS_RINGS = [PolyRing(VarTable.make(YZ_AB)),
               PolyRing(VarTable.make(YZ_AB), FractionField(AB_RING))]
basis_exps = st.tuples(st.integers(0, 2), st.integers(0, 1),
                       st.integers(0, 3).map(lambda k: Fraction(k, 2)))


@st.composite
def basis_cases(draw):
    """Generators with redundant ones: a generator rescaled (an equal
    leading monomial) or times a monomial (a leading monomial it
    divides), plus a rational multiple of a generator, so that it is
    mostly no plain multiple.  The extras lie in the ideal of the first
    generators, so the ideal is proper whenever theirs is."""
    ring = draw(st.sampled_from(BASIS_RINGS))
    order = draw(st.sampled_from([Lex(), GrevLex(), BlockElim(("y",))]))

    def coeff():
        """A nonzero coefficient."""
        if ring is BASIS_RINGS[0]:
            return draw(small_rationals.filter(bool))
        return RatFunc.of(draw(ab_polys(nonzero=True)), draw(ab_polys(nonzero=True)))

    def mono():
        return Monomial(enumerate(draw(basis_exps)))

    # distinct monomials with nonzero coefficients: no generator is zero.
    # Over Q(a, b) a generator has at most two terms: with three, some
    # drawn bases took tens of seconds, in fixpoint_buchberger too.
    most = 3 if ring is BASIS_RINGS[0] else 2
    base = [ring.from_terms({mono(): coeff() for _ in range(draw(st.integers(1, most)))})
            for _ in range(draw(st.integers(1, 2)))]
    gens = list(base)
    for _ in range(draw(st.integers(1, 2))):
        g = draw(st.sampled_from(base))
        if draw(st.booleans()):
            extra = g.scale(coeff())
        else:
            extra = g * ring.from_monomial(mono(), coeff())
        extra = extra + draw(st.sampled_from(base)).scale(draw(small_rationals))
        if not extra.is_zero():
            gens.insert(draw(st.integers(0, len(gens))), extra)
    return gens, order


@settings(max_examples=100, deadline=None)
@given(basis_cases())
def test_one_pass_basis_matches_the_fixpoint_reference(case):
    gens, order = case
    got, want = buchberger(gens, order), fixpoint_buchberger(gens, order)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w


# ---------------------------------------------------------------------------
# normal_form against the heap loop it had before descending heap keys


def reversed_key_normal_form(f: Poly, basis, key) -> Poly:
    """``normal_form`` with the order key of each monomial negated
    afterwards, memoised per call, and each term of ``q * t * b``
    subtracted as ``-(c * q)``."""
    ring = f.ring
    div = ring.field.div
    work = dict(f.terms)
    rkeys, monos = {}, {}

    def rkey(m):
        k = rkeys.get(m)
        if k is None:
            k = rkeys[m] = _reversed_key(key(m))
            monos[k] = m
        return k

    heap = [rkey(m) for m in work]
    heapify(heap)
    out = {}
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
    return Poly._raw(ring, out)


def typed_terms(p: Poly) -> list:
    """Terms in dict order with the type of every exponent and
    coefficient, a RatFunc's numerator and denominator terms too."""
    def coeff(c):
        if isinstance(c, RatFunc):
            return typed_terms(c.num), typed_terms(c.den)
        return type(c), c
    return [(tuple((i, type(e), e) for i, e in m), coeff(c))
            for m, c in p.terms.items()]


@st.composite
def reduction_cases(draw):
    """A polynomial and one or two basis entries, over QQ or Q(a, b),
    with half-integral exponents on the bar variable.  The entries need
    not form a Groebner basis: ``normal_form`` reduces by any list, and
    no ``buchberger`` run keeps the Q(a, b) draws slow.  Sizes are small
    for the same reason: a reduction over Q(a, b) multiplies RatFunc
    coefficients at every step."""
    ring = draw(st.sampled_from(BASIS_RINGS))
    order = draw(st.sampled_from([Lex(), Lex(("ab", "z", "y")), GrevLex(),
                                  GrevLex(("z", "ab", "y")), BlockElim(("y",)),
                                  BlockElim(("ab", "z"))]))

    def poly(most):
        terms = {}
        for _ in range(draw(st.integers(1, most))):
            if ring is BASIS_RINGS[0]:
                c = draw(small_rationals.filter(bool))
            else:
                c = RatFunc.of(draw(ab_polys(nonzero=True)),
                               draw(ab_polys(nonzero=True)))
            terms[Monomial(enumerate(draw(basis_exps)))] = c
        return ring.from_terms(terms)

    return poly(5), [poly(3) for _ in range(draw(st.integers(1, 2)))], order


@settings(max_examples=120, deadline=None)
@given(reduction_cases())
def test_normal_form_matches_the_reversed_key_loop(case):
    f, polys, order = case
    key = order_key(order, f.ring)
    basis = [(*leading(b, key), b) for b in polys]
    got = normal_form(f, basis, key)
    assert typed_terms(got) == typed_terms(reversed_key_normal_form(f, basis, key))


def test_reduce_refuses_a_polynomial_over_another_ring():
    # the order key names the ideal's variables only, so z has no place
    # in it; an ideal without generators refuses f all the same
    R = ordinary_ring(["x", "y"])
    f = Yv + Zv + Zv**2
    for I in (Ideal(R, [R.var("x")]), Ideal(R, [])):
        with pytest.raises(StructureError, match="different ring"):
            I.reduce(f)
        with pytest.raises(StructureError, match="different ring"):
            I.member(f)


def test_order_key_is_built_once_per_order_and_ring():
    assert order_key(GrevLex(), XYZ) is order_key(GrevLex(), XYZ)
    assert order_key(Lex(), XYZ) is not order_key(GrevLex(), XYZ)


def test_intersection_reduces_against_its_seeded_basis():
    # ideal_intersect seeds the grevlex basis; reduce keys it by the order
    I = ideal_intersect(Ideal(XYZ, [Xv]), Ideal(XYZ, [Yv]))
    assert I.reduce(Xv * Yv * Zv + Zv) == Zv
    assert I.member(Xv**2 * Yv) and not I.member(Xv)
