"""Polynomial core: exact arithmetic, substitution, rational functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyzero.errors import DomainError, ParseError, StructureError
from polyzero.poly import (
    QQ, UNIT_MONOMIAL, FractionField, Mode, Monomial, Poly, PolyMap, PolyRing,
    RatFunc, VarKind, VarTable, _poly_content, _poly_div_mono, flatten_poly,
    map_ring_over, ordinary_ring, poly_exact_div, rational_pow, structure_poly,
)

XY = ordinary_ring(["x", "y"])
X, Y = XY.var("x"), XY.var("y")
BAR2 = PolyRing(VarTable.make([("ab", VarKind.BAR), ("bb", VarKind.BAR)]))


def rand_poly(rng: random.Random, ring: PolyRing, nterms: int = 4) -> Poly:
    p = ring.zero()
    for _ in range(rng.randint(0, nterms)):
        mono = ring.one()
        for name in ring.vartable.names:
            mono = mono * ring.var(name) ** rng.randint(0, 3)
        p = p + mono.scale(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return p


def test_product_difference_of_squares():
    assert (X + 1) * (X - 1) == X**2 - 1


def test_half_bar_exponents_multiply():
    a = BAR2.var("ab", Fraction(1, 2))
    assert a * a == BAR2.var("ab")


def test_add_zero_is_identity():
    rng = random.Random(103)
    for _ in range(50):
        p = rand_poly(rng, XY)
        assert p + XY.zero() == p
        assert p - p == XY.zero()


def test_substitute_simple():
    p = X**2 + Y
    q = p.substitute({"x": Y + 1})
    assert q == Y**2 + 3 * Y + 1


def test_substitute_fractional_exponent_needs_monomial():
    a = BAR2.var("ab", Fraction(1, 2))
    b = BAR2.var("bb")
    assert a.substitute({"ab": b**2}) == b
    with pytest.raises(DomainError):
        a.substitute({"ab": b + 1})


def test_evaluate_with_roots():
    ring = PolyRing(VarTable.make([("at", VarKind.ORDINARY), ("ab", VarKind.BAR)]))
    p = ring.var("at") * ring.var("ab", Fraction(1, 2))
    assert p.evaluate({"at": Fraction(3), "ab": Fraction(4)}) == 6
    assert p.evaluate({"at": Fraction(1), "ab": Fraction(4, 9)}) == Fraction(2, 3)
    with pytest.raises(DomainError):
        p.evaluate({"at": Fraction(1), "ab": Fraction(2)})


def test_rational_pow():
    assert rational_pow(Fraction(-8), Fraction(1, 3)) == -2
    assert rational_pow(Fraction(4, 9), Fraction(1, 2)) == Fraction(2, 3)
    assert rational_pow(Fraction(8), Fraction(-2, 3)) == Fraction(1, 4)
    with pytest.raises(DomainError):
        rational_pow(Fraction(2), Fraction(1, 2))
    with pytest.raises(DomainError):
        rational_pow(Fraction(-4), Fraction(1, 2))


def test_mode_validation():
    with pytest.raises(DomainError):
        BAR2.var("ab", Fraction(-1, 2))
    field_ring = BAR2.with_mode(Mode.FIELD)
    p = field_ring.var("ab", Fraction(-1, 2))
    assert p * field_ring.var("ab", Fraction(1, 2)) == field_ring.one()
    with pytest.raises(DomainError):
        XY.var("x", Fraction(1, 2))
    with pytest.raises(DomainError):
        XY.var("x", -1)


def test_mixed_rings_rejected():
    other = ordinary_ring(["x", "z"])
    with pytest.raises(StructureError):
        X + other.var("z")


def test_parse_examples():
    ring = PolyRing(VarTable.make([("at", VarKind.ORDINARY), ("ab", VarKind.BAR)]))
    p = ring.parse("3/2*at^2*ab^(1/2) - 1")
    assert p == ring.var("at", 2) * ring.var("ab", Fraction(1, 2)).scale(
        Fraction(3, 2)) - 1
    assert str(p) == "3/2*at^2*ab^(1/2) - 1"
    with pytest.raises(ParseError):
        ring.parse("at +")
    with pytest.raises(ParseError):
        ring.parse("zz + 1")


def test_print_parse_roundtrip_random():
    rng = random.Random(7)
    ring = PolyRing(VarTable.make(
        [("x", VarKind.ORDINARY), ("ab", VarKind.BAR)]))
    for _ in range(40):
        p = rand_poly(rng, ring)
        assert ring.parse(str(p)) == p


def test_exact_division():
    q = poly_exact_div(X**2 - 1, X - 1)
    assert q == X + 1
    assert poly_exact_div(X**2 + 1, X - 1) is None


def test_ratfunc_equality_and_arith():
    num, den = X**2 - 1, X - 1
    r = RatFunc.of(num, den)
    assert r == RatFunc.of(X + 1, XY.one())
    s = RatFunc.of(XY.one(), X + 1)
    assert r * s == RatFunc.of(XY.one(), XY.one())
    assert (r + s) * (X + 1) == (X + 1) ** 2 + 1
    with pytest.raises(TypeError):
        hash(r)


def test_ratfunc_cross_equality_nonreduced():
    # equal values with genuinely different stored representations
    a = RatFunc((X * Y + X), (Y + 1))   # bypass normal form on purpose
    b = RatFunc.of(X, XY.one())
    assert a == b
    assert not (a == RatFunc.of(Y, XY.one()))


def test_ratfunc_fractional_power():
    ring = BAR2
    r = RatFunc.of(ring.var("ab", 3), ring.var("bb"))
    s = r.pow_frac(Fraction(1, 2))
    assert s == RatFunc.of(ring.var("ab", Fraction(3, 2)),
                           ring.var("bb", Fraction(1, 2)))
    with pytest.raises(DomainError):
        RatFunc.of(ring.var("ab") + 1, ring.one()).pow_frac(Fraction(1, 2))


def test_ratfunc_evaluation_agreement():
    rng = random.Random(11)
    r = RatFunc.of(X**2 - Y**2, X - Y)
    s = RatFunc.of(X + Y, XY.one())
    for _ in range(20):
        pt = {"x": Fraction(rng.randint(-9, 9)), "y": Fraction(rng.randint(-9, 9))}
        if pt["x"] == pt["y"]:
            continue
        assert r.evaluate(pt) == s.evaluate(pt)


def test_polymap_compose_square():
    ring = ordinary_ring(["x1"])
    sq = PolyMap(ring, ("x1",), (ring.var("x1") ** 2,))
    fourth = sq.compose(sq)
    assert fourth.outputs[0] == ring.var("x1") ** 4
    assert fourth.eval_at((Fraction(2),)) == (Fraction(16),)


def test_polymap_apply_with_ambient():
    value_ring = ordinary_ring(["c"])
    mring = map_ring_over(value_ring, [("s1", VarKind.ORDINARY)])
    f = PolyMap(mring, ("s1",), (mring.var("s1") * mring.var("c") + 1,))
    (out,) = f.apply((value_ring.var("c") ** 2,))
    assert out == value_ring.var("c") ** 3 + 1


def test_flatten_structure_roundtrip():
    params = ordinary_ring(["at", "ab"])
    ff = FractionField(params)
    vring = PolyRing(VarTable.make([("y1", VarKind.ORDINARY)]), ff)
    at = ff.coerce(params.var("at"))
    ab = ff.coerce(params.var("ab"))
    p = vring.var("y1").scale(ab - 1) - vring.const(at)
    flat_ring = ordinary_ring(["at", "ab", "y1"])
    flat = flatten_poly(p, flat_ring)
    assert flat == (flat_ring.var("ab") - 1) * flat_ring.var("y1") - flat_ring.var("at")
    back = structure_poly(flat, vring)
    assert back == p


coeffs = st.integers(min_value=-4, max_value=4).map(Fraction)
exps = st.integers(min_value=0, max_value=3)


@st.composite
def polys(draw):
    p = XY.zero()
    for _ in range(draw(st.integers(0, 3))):
        c = draw(coeffs)
        p = p + (XY.var("x") ** draw(exps) * XY.var("y") ** draw(exps)).scale(c)
    return p


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_substitution_evaluation_homomorphism(p, q):
    # substituting then evaluating equals evaluating the image first
    pt = {"x": Fraction(3), "y": Fraction(-2)}
    lhs = p.substitute({"x": q}).evaluate(pt)
    rhs = p.evaluate({"x": q.evaluate(pt), "y": pt["y"]})
    assert lhs == rhs


# ---------------------------------------------------------------------------
# trusted construction and exact rational coefficients

# x ordinary, ab bar: exercises integer and fractional exponents
XAB = PolyRing(VarTable.make([("x", VarKind.ORDINARY), ("ab", VarKind.BAR)]))
PRING = ordinary_ring(["p"])
QP = FractionField(PRING)
XQP = PolyRing(VarTable.make([("x", VarKind.ORDINARY)]), QP)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)
halves = st.integers(min_value=0, max_value=3).map(lambda k: Fraction(k, 2))


@st.composite
def qq_polys(draw):
    terms = {Monomial([(0, draw(exps)), (1, draw(halves))]): draw(rationals)
             for _ in range(draw(st.integers(0, 4)))}
    return XAB.from_terms(terms)


@st.composite
def p_polys(draw, nonzero=False):
    p = PRING.from_terms({Monomial([(0, draw(exps))]): draw(rationals)
                          for _ in range(draw(st.integers(1, 3)))})
    return p + 1 if nonzero and p.is_zero() else p


@st.composite
def qp_polys(draw):
    terms = {Monomial([(0, draw(exps))]):
             RatFunc.of(draw(p_polys()), draw(p_polys(nonzero=True)))
             for _ in range(draw(st.integers(0, 3)))}
    return XQP.from_terms(terms)


poly_pairs = st.one_of(st.tuples(qq_polys(), qq_polys()),
                       st.tuples(qp_polys(), qp_polys()))


def _rational(c) -> bool:
    return type(c) in (int, Fraction)


def _exact(p: Poly) -> bool:
    """Every coefficient is an int or a Fraction, inside RatFuncs too."""
    if isinstance(p.ring.field, FractionField):
        return all(_exact(c.num) and _exact(c.den) for c in p.terms.values())
    return all(_rational(c) for c in p.terms.values())


def _arithmetic(p: Poly, q: Poly, c: Fraction) -> list[Poly]:
    return [p + q, p - q, p * q, -p, p.scale(c), p ** 2,
            p.substitute({"x": q})]


@settings(max_examples=60, deadline=None)
@given(poly_pairs, rationals)
def test_arithmetic_keeps_coefficients_exact(pq, c):
    p, q = pq
    assert all(_exact(r) for r in _arithmetic(p, q, c))
    field = p.ring.field
    for a, b in zip(p.terms.values(), q.terms.values()):
        d = field.div(a, b)
        assert d * b == a
        if field is QQ:
            assert _rational(d)
            assert type(d) is int or d.denominator != 1
        else:
            assert _exact(d.num) and _exact(d.den)
    if p.ring is XAB and not q.is_zero():
        r = RatFunc.of(p, q)
        assert _exact(r.num) and _exact(r.den)
        assert r * q == p


@settings(max_examples=60, deadline=None)
@given(poly_pairs, rationals)
def test_trusted_results_pass_validation(pq, c):
    p, q = pq
    for r in _arithmetic(p, q, c):
        checked = Poly(r.ring, r.terms)
        assert checked == r and checked.terms == r.terms
        assert hash(checked) == hash(r)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), rationals), max_size=4),
       st.lists(st.tuples(st.integers(0, 3), rationals), max_size=4))
def test_monomial_product_is_the_normalised_exponent_sum(a, b):
    m1, m2 = Monomial(dict(a).items()), Monomial(dict(b).items())
    sums = dict(m1.exps)
    for i, e in m2.exps:
        sums[i] = sums.get(i, 0) + e
    prod = m1.mul(m2)
    assert prod == Monomial(sums.items())
    assert [type(e) for _, e in prod.exps] == [
        type(e) for _, e in Monomial(sums.items()).exps]
    assert all(e != 0 for _, e in prod.exps)


def test_validating_constructor_rejects_bad_ordinary_exponents():
    for bad in (-1, Fraction(1, 2), Fraction(-3, 2)):
        with pytest.raises(DomainError):
            Poly(XY, {Monomial([(0, bad)]): 1})
        with pytest.raises(DomainError):
            XY.from_terms({Monomial([(1, bad)]): 2})
    with pytest.raises(DomainError):
        Poly(XAB, {Monomial([(1, Fraction(-1, 2))]): 1})


def test_rational_field_prefers_int():
    assert type(QQ.coerce(Fraction(6, 3))) is int
    assert type(QQ.zero()) is int and type(QQ.one()) is int
    assert type(QQ.div(6, 3)) is int
    assert QQ.div(1, 3) == Fraction(1, 3)


def _assert_identical(got: Poly, want: Poly) -> None:
    """Same terms, same coefficient types, same hash."""
    assert got.ring == want.ring
    assert got.terms == want.terms
    assert {m: type(c) for m, c in got.terms.items()} == \
        {m: type(c) for m, c in want.terms.items()}
    assert hash(got) == hash(want)


@settings(max_examples=100, deadline=None)
@given(st.one_of(qq_polys(), qp_polys()), st.integers(-4, 4), st.booleans())
def test_int_operands_match_constant_polys(p, k, cancel):
    ring = p.ring
    if cancel:  # make the constant term -k, so that p + k has none
        p = p - ring.const(p.coeff_of(UNIT_MONOMIAL)) - ring.const(k)
    for j in (k, 0):
        c = ring.const(j)
        for got, want in ((p + j, p + c), (j + p, c + p),
                          (p * j, p * c), (j * p, c * p)):
            _assert_identical(got, want)
            assert all(not ring.field.is_zero(v) for v in got.terms.values())
            if isinstance(ring.field, FractionField):
                assert all(isinstance(v, RatFunc) for v in got.terms.values())
    if cancel:
        assert UNIT_MONOMIAL not in (p + k).terms
    assert (p * 0).is_zero() and (0 * p).is_zero()


def _general_of(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """``RatFunc.of`` without its constant-denominator path."""
    ring = num.ring
    if num.is_zero():
        return ring.zero(), ring.one()
    content = _poly_content(num).gcd(_poly_content(den))
    if not content.is_unit():
        num = _poly_div_mono(num, content)
        den = _poly_div_mono(den, content)
    q = poly_exact_div(num, den)
    if q is not None:
        num, den = q, ring.one()
    lc = den.leading_coeff_lex()
    if lc != ring.field.one():
        inv = ring.field.div(ring.field.one(), lc)
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


@settings(max_examples=80, deadline=None)
@given(qq_polys(), rationals.filter(bool))
def test_constant_denominator_matches_general_path(num, c):
    r = RatFunc.of(num, XAB.const(c))
    gnum, gden = _general_of(num, XAB.const(c))
    assert r.num.terms == gnum.terms and r.den.terms == gden.terms
    assert str(r) == str(RatFunc(gnum, gden))


def test_one_parameter_ratfunc_cancels_common_factors():
    p = PRING.var("p")
    r = RatFunc.of((p - 1) * (p + 2), (2 * p - 2) * (p + 3))
    assert r.num == (p + 2).scale(Fraction(1, 2)) and r.den == p + 3
    assert str(r) == "((1/2*p + 1)/(p + 3))"
    # sums keep denominators reduced instead of multiplying them out
    s = RatFunc.of(PRING.one(), p**2 - 1) + RatFunc.of(PRING.one(), p + 1)
    assert s.num == p and s.den == p**2 - 1


def one_param_polys(max_deg=3):
    return st.lists(rationals, min_size=1, max_size=max_deg + 1).map(
        lambda cs: sum((PRING.var("p") ** k * PRING.const(c)
                        for k, c in enumerate(cs)), PRING.zero()))


@settings(max_examples=80, deadline=None)
@given(one_param_polys(), one_param_polys().filter(lambda q: not q.is_zero()),
       one_param_polys(2).filter(lambda g: not g.is_constant()))
def test_one_parameter_ratfunc_is_canonical(a, b, g):
    # a quotient and the same quotient times g/g are stored identically:
    # coprime parts, monic denominator
    r, s = RatFunc.of(a, b), RatFunc.of(a * g, b * g)
    assert r.num.terms == s.num.terms and r.den.terms == s.den.terms
    assert r.den.leading_coeff_lex() == 1
    assert r.num * b == a * r.den


# ---------------------------------------------------------------------------
# substitution against a naive reference

# x, y ordinary and ab bar; the target ring drops x and adds z
SUB = PolyRing(VarTable.make([("x", VarKind.ORDINARY), ("y", VarKind.ORDINARY),
                              ("ab", VarKind.BAR)]))
SUB_TARGET = PolyRing(VarTable.make([("y", VarKind.ORDINARY),
                                     ("z", VarKind.ORDINARY),
                                     ("ab", VarKind.BAR)]))


@st.composite
def sub_polys(draw, ring, max_terms=5):
    """Few exponents per variable, so terms repeat a power of x."""
    names = ring.vartable.names
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = [(i, draw(halves) if ring.vartable.kind_of(i) is VarKind.BAR
                 else draw(st.integers(0, 4)))
                for i in range(len(names))]
        terms[Monomial(mono)] = draw(rationals)
    return ring.from_terms(terms)


@st.composite
def sub_cases(draw):
    target = draw(st.sampled_from([None, SUB_TARGET]))
    ring = SUB if target is None else target
    # the target ring has no x, so x is always mapped there
    mapping = {"x": draw(sub_polys(ring, 3))}
    ab = draw(st.sampled_from(["unmapped", "monomial", "general"]))
    if ab == "monomial":
        mono = Monomial([(ring.vartable.index("ab"), draw(halves)),
                         (ring.vartable.index("y"), draw(st.integers(0, 2)))])
        mapping["ab"] = ring.from_monomial(mono)
    elif ab == "general":
        mapping["ab"] = draw(sub_polys(ring, 3))
    return draw(sub_polys(SUB)), mapping, target


def naive_substitute(p: Poly, mapping: dict, target) -> Poly:
    """Sum over terms of c * prod img**e, with repeated products for
    integer exponents and scaled monomial exponents otherwise."""
    ring = target if target is not None else p.ring
    names = p.ring.vartable.names
    out = ring.zero()
    for m, c in p.terms.items():
        acc = ring.const(c)
        for i, e in m.exps:
            img = mapping.get(names[i])
            if img is None:
                acc = acc * ring.from_monomial(
                    Monomial([(ring.vartable.index(names[i]), e)]))
            elif Fraction(e).denominator == 1:
                for _ in range(e):
                    acc = acc * img
            else:
                if list(img.terms.values()) != [1]:
                    raise DomainError("fractional power of a non-monomial")
                (mono,) = img.terms
                acc = acc * ring.from_monomial(
                    Monomial([(j, f * e) for j, f in mono.exps]))
        out = out + acc
    return out


@settings(max_examples=150, deadline=None)
@given(sub_cases())
def test_substitute_matches_naive_reference(case):
    p, mapping, target = case
    try:
        expected = naive_substitute(p, mapping, target)
    except DomainError:
        with pytest.raises(DomainError):
            p.substitute(mapping, target)
        return
    got = p.substitute(mapping, target)
    assert got == expected
    assert got.ring == expected.ring
    # the trusted result passes the validating constructor unchanged
    assert Poly(got.ring, got.terms).terms == got.terms


def test_substitute_reference_cases():
    """The property test's corner cases, each pinned once."""
    x, y, ab = SUB.var("x"), SUB.var("y"), SUB.var("ab", Fraction(1, 2))
    z, y_target = SUB_TARGET.var("z"), SUB_TARGET.var("y")
    # repeated exponents of x, and an unmapped y kept in the target ring
    p = x**3 + 2 * x**3 * y + x**2 - y
    img = z + 1
    assert p.substitute({"x": img}, SUB_TARGET) == (
        img**3 * (1 + 2 * y_target) + img**2 - y_target)
    # a fractional bar exponent bound to a monomial
    q = ab * x
    assert q.substitute({"ab": SUB.var("ab") ** 2 * y**2, "x": y}) \
        == SUB.var("ab") * y**2
    # a non-monomial image of a fractional power
    with pytest.raises(DomainError):
        q.substitute({"ab": y + 1})


# ---------------------------------------------------------------------------
# rational-function substitution against the term-by-term reference

# x, y ordinary and ab, bb bar; field mode lets bar exponents be negative
FRAC = PolyRing(VarTable.make([("x", VarKind.ORDINARY), ("y", VarKind.ORDINARY),
                               ("ab", VarKind.BAR), ("bb", VarKind.BAR)]),
                mode=Mode.FIELD)


@st.composite
def frac_polys(draw, max_terms=4, negative=True):
    """x to 0..3, y to 0..1, ab to a half and bb to an integer, both
    negative too unless ``negative`` is false."""
    low = -3 if negative else 0
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = [(0, draw(st.integers(0, 3))), (1, draw(st.integers(0, 1))),
                (2, Fraction(draw(st.integers(low, 3)), 2)),
                (3, draw(st.integers(max(low, -2), 2)))]
        terms[Monomial(mono)] = draw(rationals)
    return FRAC.from_terms(terms)


@st.composite
def frac_images(draw):
    """A quotient of two small polynomials over ``FRAC``."""
    num = draw(frac_polys(2, negative=False))
    den = draw(frac_polys(2, negative=False))
    return RatFunc.of(num, den if not den.is_zero() else FRAC.var("y") + 1)


@st.composite
def frac_cases(draw):
    mapping = {"x": draw(frac_images())}
    bb = draw(st.sampled_from(["unmapped", "general", "zero"]))
    if bb == "general":
        mapping["bb"] = draw(frac_images())
    elif bb == "zero":
        mapping["bb"] = RatFunc.of(FRAC.zero(), FRAC.one())
    ab = draw(st.sampled_from(["unmapped", "monomial", "general"]))
    if ab == "monomial":
        pos = Monomial([(1, draw(st.integers(0, 2))),
                        (2, Fraction(draw(st.integers(0, 3)), 2))])
        neg = Monomial([(3, draw(st.integers(0, 2)))])
        mapping["ab"] = RatFunc(FRAC.from_monomial(pos), FRAC.from_monomial(neg))
    elif ab == "general":
        mapping["ab"] = draw(frac_images())
    return draw(frac_polys()), mapping


def stepwise_substitute_frac(p: Poly, mapping: dict) -> RatFunc:
    """Sum over terms of c * prod img**e, each product and sum
    normalised by ``RatFunc.of`` as it is formed."""
    ring = p.ring
    out = RatFunc.of(ring.zero(), ring.one())
    names = ring.vartable.names
    for m, c in p.terms.items():
        acc = RatFunc.of(ring.const(c), ring.one())
        for i, e in m.exps:
            img = mapping.get(names[i])
            if img is None:
                img = RatFunc.of(ring.var(names[i]), ring.one())
            acc = acc * (img ** e if isinstance(e, int) else img.pow_frac(e))
        out = out + acc
    return out


def _assert_same_substitution(p: Poly, mapping: dict) -> None:
    try:
        expected = stepwise_substitute_frac(p, mapping)
    except DomainError:
        with pytest.raises(DomainError):
            p.substitute_frac(mapping)
        return
    got = p.substitute_frac(mapping)
    assert got == expected
    if expected.den == p.ring.one():
        # a polynomial value: reports print this pair as it stands
        assert got.num.terms == expected.num.terms
        assert got.den.terms == expected.den.terms


@settings(max_examples=150, deadline=None)
@given(frac_cases())
def test_substitute_frac_matches_stepwise_reference(case):
    _assert_same_substitution(*case)


def test_substitute_frac_reference_cases():
    """The property test's corner cases, each pinned once."""
    x, y, bb = FRAC.var("x"), FRAC.var("y"), FRAC.var("bb")
    ab_half = FRAC.var("ab", Fraction(1, 2))
    x_img = RatFunc.of(x + 1, y + 2)
    # non-constant denominators, with a polynomial value
    p = (x**2 - x * bb) * (y + 2) ** 2
    images = {"x": x_img, "bb": RatFunc.of(y, y + 2)}
    assert p.substitute_frac(images) == (x + 1) ** 2 - (x + 1) * y
    _assert_same_substitution(p, images)
    _assert_same_substitution(x * (y + 2) - bb, images)
    # negative integer exponents of a general and of an unmapped image
    q = FRAC.var("bb", -2) + x * FRAC.var("bb", -1)
    got = q.substitute_frac({"bb": x_img})
    assert got == RatFunc.of((y + 2) ** 2 + x * (y + 2) * (x + 1), (x + 1) ** 2)
    _assert_same_substitution(q, {"bb": x_img})
    _assert_same_substitution(q, {"x": x_img})
    # fractional exponents of a quotient of monomials
    r = ab_half * x + FRAC.var("ab", Fraction(-3, 2))
    ab_img = RatFunc(FRAC.var("ab") * y**2, bb**2)
    assert r.substitute_frac({"ab": ab_img}) == RatFunc.of(
        x * FRAC.var("ab") ** 2 * y**4 + bb**4,
        FRAC.var("ab", Fraction(3, 2)) * y**3 * bb)
    _assert_same_substitution(r, {"ab": ab_img, "x": x_img})
    # a fractional power of a non-monomial image
    with pytest.raises(DomainError):
        r.substitute_frac({"ab": x_img})
    # a negative power of a zero image
    with pytest.raises(DomainError):
        q.substitute_frac({"bb": RatFunc.of(FRAC.zero(), FRAC.one())})
    assert (x * bb).substitute_frac({"bb": RatFunc.of(FRAC.zero(), FRAC.one())}) \
        == RatFunc.of(FRAC.zero(), FRAC.one())
    # an image over another ring
    with pytest.raises(StructureError):
        x.substitute_frac({"x": RatFunc.of(X, XY.one())})
