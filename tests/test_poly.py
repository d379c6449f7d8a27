"""Polynomial core: exact arithmetic, substitution, rational functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyzero.errors import DomainError, ParseError, StructureError
from polyzero.poly import (
    QQ, UNIT_MONOMIAL, FractionField, Mode, Monomial, Poly, PolyMap, PolyRing,
    RatFunc, VarKind, VarTable, _cancel_univariate, _is_one, _poly_content,
    _poly_div_mono, flatten_poly, map_ring_over, ordinary_ring, poly_exact_div,
    rational_pow, structure_poly,
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
    sums = dict(m1)
    for i, e in m2:
        sums[i] = sums.get(i, 0) + e
    prod = m1.mul(m2)
    assert prod == Monomial(sums.items())
    assert [type(e) for _, e in prod] == [
        type(e) for _, e in Monomial(sums.items())]
    assert all(e != 0 for _, e in prod)


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
@example(XAB.parse("2*x + 4*ab"), 2)
def test_constant_denominator_matches_general_path(num, c):
    r = RatFunc.of(num, XAB.const(c))
    gnum, gden = _general_of(num, XAB.const(c))
    assert r.num.terms == gnum.terms and r.den.terms == gden.terms
    assert {m: type(k) for m, k in r.num.terms.items()} == \
        {m: type(k) for m, k in gnum.terms.items()}
    assert str(r) == str(RatFunc(gnum, gden))


def test_constant_denominator_keeps_integral_coefficients_int():
    r = RatFunc.of(XY.parse("2*x + 4*y"), XY.const(2))
    assert [(m, type(c), c) for m, c in r.num.terms.items()] == [
        (Monomial([(0, 1)]), int, 1), (Monomial([(1, 1)]), int, 2)]
    assert [type(c) for c in RatFunc.of(X + Y, XY.const(2)).num.terms.values()] \
        == [Fraction, Fraction]


XAB_FIELD = XAB.with_mode(Mode.FIELD)


def _term_list(p: Poly) -> list:
    """Terms in dict order, with each coefficient's type."""
    return [(m, type(c), c) for m, c in p.terms.items()]


@st.composite
def constant_quotients(draw):
    """a, a nonzero constant c and a monomial m that is not the unit, on
    XAB in ring mode and in field mode (negative bar exponents);
    integral coefficients are ints or Fractions."""
    ring = draw(st.sampled_from([XAB, XAB_FIELD]))
    lo = -3 if ring.mode is Mode.FIELD else 0
    bar = st.integers(lo, 3).map(lambda k: Fraction(k, 2))

    def mono():
        return Monomial([(0, draw(exps)), (1, draw(bar))])

    def coeff():
        c = draw(rationals)
        return c if draw(st.booleans()) else QQ.coerce(c)

    a = Poly(ring, {mono(): coeff() for _ in range(draw(st.integers(0, 4)))})
    m = mono()
    assume(not m.is_unit())
    return a, coeff() or 1, m


def _division_loop(a: Poly, b: Poly) -> Poly | None:
    """``poly_exact_div`` without its shortcuts: the division loop alone."""
    if b.is_zero():
        raise DomainError("division by the zero polynomial")
    ring = a.ring
    n = len(ring.vartable)

    def key(m):
        return tuple(m.exp(i) for i in range(n))

    bm = max(b.terms, key=key)
    bc = b.terms[bm]
    q_terms = {}
    rem = a
    guard = 0
    while not rem.is_zero():
        guard += 1
        if guard > 10000:
            return None
        am = max(rem.terms, key=key)
        t = am.div(bm)
        if any(e < 0 for _, e in t):
            return None
        try:
            for i, e in t:
                ring.validate_exponent(i, e)
        except DomainError:
            return None
        c = ring.field.div(rem.terms[am], bc)
        q_terms[t] = q_terms.get(t, ring.field.zero()) + c
        rem = rem - ring.from_monomial(t, c) * b
    return Poly(ring, q_terms)


def _assert_same_division(got: Poly | None, want: Poly | None) -> None:
    """Both None, or the same terms, types and term order."""
    assert (got is None) == (want is None)
    if want is not None:
        assert _term_list(got) == _term_list(want)


@settings(max_examples=150, deadline=None)
@given(constant_quotients())
@example((XAB_FIELD.parse("1 + ab^(-1)"), 2, Monomial([(0, 1)])))
def test_constant_divisor_matches_division_loop(case):
    # a / c and a*m / c*m: the quotient the loop builds for a*m / c*m,
    # with its terms, types and term order, or None for both
    a, c, m = case
    ring = a.ring
    shift = ring.from_monomial(m)
    loop = _division_loop(a * shift, ring.const(c) * shift)
    _assert_same_division(poly_exact_div(a, ring.const(c)), loop)
    _assert_same_division(poly_exact_div(a * shift, ring.const(c) * shift), loop)


@st.composite
def xab_divisions(draw, dividend_terms, divisor_terms):
    """a and b on XAB in ring mode or in field mode (negative bar
    exponents), with fractional bar exponents and int or Fraction
    integral coefficients; the term counts are drawn from the given
    strategies, b has at least one term."""
    ring = draw(st.sampled_from([XAB, XAB_FIELD]))
    lo = -3 if ring.mode is Mode.FIELD else 0
    bar = st.integers(lo, 3).map(lambda k: Fraction(k, 2))

    def poly(n):
        terms = {}
        for _ in range(n):
            c = draw(rationals.filter(bool))
            terms[Monomial([(0, draw(exps)), (1, draw(bar))])] = \
                c if draw(st.booleans()) else QQ.coerce(c)
        return Poly._raw(ring, terms)

    a = poly(draw(dividend_terms))
    b = poly(draw(divisor_terms))
    assume(not b.is_zero())
    return a, b


@settings(max_examples=200, deadline=None)
@given(xab_divisions(st.integers(0, 5), st.just(1)))
@example((XAB_FIELD.parse("x*ab^(1/2) + ab^(-1)"), XAB_FIELD.parse("3*ab^(-1)")))
@example((XAB.parse("x^2*ab^(1/2) + ab^(3/2)"), XAB.parse("2*ab^(1/2)")))
def test_one_term_divisor_matches_division_loop(ab):
    # term by term against the loop, on valid polynomials: the second
    # example divides fractional bar exponents down to ints and zero
    a, b = ab
    assert len(b.terms) == 1
    _assert_same_division(poly_exact_div(a, b), _division_loop(a, b))


@settings(max_examples=200, deadline=None)
@given(xab_divisions(st.just(1), st.integers(2, 4)))
@example((XAB.parse("x^3"), XAB.parse("x + 1")))
def test_one_term_dividend_over_longer_divisor_is_none(ab):
    a, b = ab
    assume(len(b.terms) >= 2)
    assert poly_exact_div(a, b) is None
    assert _division_loop(a, b) is None


def _assert_same_ratfunc(got: RatFunc, want: RatFunc) -> None:
    _assert_identical(got.num, want.num)
    _assert_identical(got.den, want.den)


def _assert_same_coefficients(got: Poly, want: Poly) -> None:
    """_assert_identical, and over a fraction field the same numerator
    and denominator terms in every coefficient."""
    _assert_identical(got, want)
    if isinstance(got.ring.field, FractionField):
        for m, c in got.terms.items():
            _assert_same_ratfunc(c, want.terms[m])


def _loop_product(p: Poly, q: Poly) -> Poly:
    """The general double loop of ``Poly.__mul__``, then the zero filter
    that ``Poly._raw`` applied to every dict it was given."""
    terms = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m, c = m1.mul(m2), c1 * c2
            terms[m] = terms[m] + c if m in terms else c
    return Poly._raw(p.ring, {m: c for m, c in terms.items() if c})


qp_consts = st.builds(RatFunc.of, p_polys(), p_polys(nonzero=True))


@st.composite
def one_term_or_zero(draw, ring):
    """Zero or one term over XAB or XQP: a constant when the drawn
    monomial is the unit, a coefficient of several terms over Q(p)."""
    if not draw(st.integers(0, 3)):
        return ring.zero()
    if ring is XAB:
        m = Monomial([(0, draw(exps)), (1, draw(halves))])
        c = draw(rationals.filter(bool))
    else:
        m = Monomial([(0, draw(exps))])
        c = draw(qp_consts)
    return ring.from_terms({m: c})


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(one_term_or_zero(XAB), one_term_or_zero(XAB)),
                 st.tuples(one_term_or_zero(XQP), one_term_or_zero(XQP))))
@example((XQP.from_terms({Monomial([(0, 1)]): RatFunc.of(PRING.parse("p + 2"),
                                                          PRING.parse("p - 1"))}),
          XQP.from_terms({Monomial([(0, 2)]): RatFunc.of(PRING.parse("3*p^2 - p"),
                                                          PRING.parse("p + 1"))})))
@example((XQP.from_terms({Monomial([(0, 1)]): RatFunc.of(PRING.parse("p + 1"),
                                                          PRING.one())}),
          XQP.from_terms({Monomial([(0, 2)]): RatFunc.of(PRING.parse("p^2 + 1"),
                                                          PRING.one())})))
def test_one_term_product_matches_loop_product(pq):
    # terms, term order and coefficient types, inside Q(p) coefficients too
    p, q = pq
    assert _ordered(p * q) == _ordered(_loop_product(p, q))
    assert _ordered(q * p) == _ordered(_loop_product(q, p))


def _ordered(p: Poly) -> list:
    """Terms in dict order with coefficient types; a Q(p) coefficient as
    its numerator's and denominator's terms, in order, with types."""
    return [(m, type(c), _ordered(c.num) + ["/"] + _ordered(c.den))
            if isinstance(c, RatFunc) else (m, type(c), c)
            for m, c in p.terms.items()]


def _no_zero_coefficient(p: Poly) -> bool:
    return all(p.terms.values())


@settings(max_examples=100, deadline=None)
@given(poly_pairs, rationals)
@example((XAB.parse("x + ab"), XAB.parse("x - ab")), Fraction(0))
@example((XAB.parse("x^2 - ab"), XAB.parse("ab - x^2")), Fraction(1, 2))
@example((XAB.parse("x - ab"), XAB.parse("ab")), Fraction(-1))
def test_results_hold_no_zero_coefficient(pq, c):
    # _raw keeps zeros, so every loop that can cancel must drop them
    p, q = pq
    ring = p.ring
    got = [p + q, q + p, p - q, p - p, p + (-p), p * q, (p + q) * (p - q),
           p.scale(c), p.scale(0), q.scale(c), ring.const(c), ring.const(0),
           p.substitute({"x": q}), (p - q).substitute({"x": q})]
    if ring is XAB:
        ab = RatFunc.of(XAB.var("ab"), XAB.one())
        for r in (p.substitute_frac({"x": ab}),
                  (p - q).substitute_frac({"x": RatFunc.of(q, XAB.one())})):
            got += [r.num, r.den]
    assert all(_no_zero_coefficient(r) for r in got)


def test_var_at_exponent_one_is_built_once_per_ring():
    ring = ordinary_ring(["x", "y"])
    assert ring.var("x") is ring.var("x") is ring.var("x", 1)
    assert ring.var("x") == Poly(ring, {Monomial([(0, 1)]): 1})
    assert ring.var("x", 2) == ring.var("x") ** 2
    # rings are interned, so an equal ring is this one, with its variables
    assert ring.var("y") is ordinary_ring(["x", "y"]).var("y")
    with pytest.raises(StructureError):
        ring.var("z")


def test_equal_rings_are_one_object():
    # every constructor returns the one live ring for its variable
    # table, field and mode
    from polyzero.dsl import parse_grammar
    from polyzero.encoding import encode_ring, letter_pairs
    from polyzero.poly import flat_ring_for
    lring = encode_ring(["a", "b"])
    assert PolyRing(VarTable.make(letter_pairs(["a", "b"]))) is lring
    assert lring.extended([("y", VarKind.ORDINARY)]) is PolyRing(
        VarTable.make(letter_pairs(["a", "b"]) + [("y", VarKind.ORDINARY)]))
    assert ordinary_ring(["x"]).extended([("y", VarKind.ORDINARY)]) \
        is ordinary_ring(["x", "y"])
    assert ordinary_ring(["x"], QQ, Mode.FIELD) is not ordinary_ring(["x"])
    field = lring.fraction_field
    assert field is lring.fraction_field and FractionField(lring) == field
    over = ordinary_ring(["y"], field)
    assert over is ordinary_ring(["y"], FractionField(lring))
    flat = flat_ring_for(over)
    assert flat is PolyRing(VarTable.make(
        [("y", VarKind.ORDINARY)] + letter_pairs(["a", "b"])))
    assert flat_ring_for(flat) is flat
    g = parse_grammar("params b;\nnonterminal S dim 1;\nS -> q(S);\n"
                      "S -> (b);\npolymap q(f) = (f + b);\n")
    assert g.cert_ring("S") is g.ring.extended(
        (n, VarKind.ORDINARY) for n in g.coord_names("S"))
    assert g.cert_ring("S") is PolyRing(
        g.ring.vartable.extended([("_v0_0", VarKind.ORDINARY)]),
        g.ring.field, g.ring.mode)


def test_rings_are_held_weakly():
    import gc
    import weakref
    ring = ordinary_ring(["only_here"])
    ring.var("only_here")  # a cache that refers back to the ring
    gone = weakref.ref(ring)
    del ring
    gc.collect()
    assert gone() is None


@settings(max_examples=80, deadline=None)
@given(st.one_of(st.tuples(qq_polys(), rationals),
                 st.tuples(qp_polys(), st.one_of(rationals, qp_consts))))
def test_constant_operand_matches_loop_product(pc):
    p, c = pc
    for k in (p.ring.const(c), p.ring.zero(), p.ring.const(0)):
        _assert_same_coefficients(p * k, _loop_product(p, k))
        _assert_same_coefficients(k * p, _loop_product(k, p))


# polynomials (denominator 1) and general quotients
ratfuncs = st.one_of(p_polys().map(lambda p: RatFunc.of(p, PRING.one())),
                     qp_consts)


@settings(max_examples=100, deadline=None)
@given(ratfuncs, ratfuncs)
def test_unit_denominator_paths_match_of(a, b):
    # a den that equals 1 as a Fraction is not the int 1 that of gives,
    # and a product with it makes every coefficient a Fraction
    c = RatFunc(a.num, Poly._raw(PRING, {UNIT_MONOMIAL: Fraction(1)}))
    for x, y in ((a, b), (b, a), (a, -a), (a, c), (c, a)):
        ny = -y
        _assert_same_ratfunc(x + y, RatFunc.of(x.num * y.den + y.num * x.den,
                                               x.den * y.den))
        _assert_same_ratfunc(x - y, RatFunc.of(x.num * ny.den + ny.num * x.den,
                                               x.den * ny.den))
        _assert_same_ratfunc(x * y, RatFunc.of(x.num * y.num, x.den * y.den))
    assert QP.div(a, QP.one()) is a


def test_ring_and_field_constants_are_shared():
    assert PRING.one() is PRING.one() and XQP.one() is XQP.one()
    assert QP.one() is QP.one() and QP.zero() is QP.zero()
    assert XQP.one().terms == {UNIT_MONOMIAL: QP.one()}
    assert QP.zero().num.is_zero() and QP.one().num == PRING.one()


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
        for i, e in m:
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
                    Monomial([(j, f * e) for j, f in mono]))
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
        for i, e in m:
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


# ---------------------------------------------------------------------------
# tuple-backed monomials


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 5), st.integers(-3, 3), max_size=6),
       st.randoms(use_true_random=False), st.data())
def test_equal_exponent_lists_give_equal_monomials(exps, rnd, data):
    # whatever the input order, and whether an exponent is 2 or Fraction(2, 1)
    pairs = list(exps.items())
    rnd.shuffle(pairs)
    as_fractions = [(i, Fraction(e) if data.draw(st.booleans()) else e)
                    for i, e in pairs]
    a, b = Monomial(exps.items()), Monomial(as_fractions)
    assert a == b and hash(a) == hash(b)
    want = tuple(sorted((i, e) for i, e in exps.items() if e != 0))
    assert tuple(a) == tuple(b) == want
    assert [type(e) for _, e in b] == [int] * len(want)
    assert Monomial._of(want) == a and hash(Monomial._of(want)) == hash(a)
    assert a.is_unit() == (not want)


def test_monomial_is_an_immutable_sorted_tuple():
    m = Monomial([(2, 3), (0, 0), (1, Fraction(1, 2)), (4, Fraction(0))])
    assert isinstance(m, tuple) and tuple(m) == ((1, Fraction(1, 2)), (2, 3))
    assert repr(m) == "Monomial(((1, Fraction(1, 2)), (2, 3)))"
    for name in ("exps", "_hash", "anything"):
        with pytest.raises(AttributeError):
            setattr(m, name, ())
    assert UNIT_MONOMIAL == Monomial(()) == Monomial([(3, 0)]) == ()
    assert UNIT_MONOMIAL.is_unit() and len(UNIT_MONOMIAL) == 0
    assert {Monomial([(0, 1)]): 1}[Monomial([(0, Fraction(2, 2))])] == 1


# ---------------------------------------------------------------------------
# RatFunc.of against the general path it had before its one-term path

OF_RING = PolyRing(VarTable.make([("x", VarKind.ORDINARY), ("y", VarKind.ORDINARY),
                                  ("ab", VarKind.BAR)]))
OF_FIELD = OF_RING.with_mode(Mode.FIELD)


def _up(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num and den with every negative exponent of a one-term den moved
    up into num (both multiplied by the inverse of that part of den)."""
    if len(den.terms) != 1:
        return num, den
    (dm, _), = den.terms.items()
    up = Monomial([(i, -e) for i, e in dm if e < 0])
    if up.is_unit():
        return num, den
    return (Poly(num.ring, {m.mul(up): c for m, c in num.terms.items()}),
            Poly(den.ring, {m.mul(up): c for m, c in den.terms.items()}))


def _reference_of(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """``RatFunc.of`` as it was before the one-term path and the
    unchecked monomial quotients, with ``_division_loop`` for
    ``poly_exact_div`` (the same results on valid polynomials), after
    :func:`_up`."""
    ring = num.ring
    if num.is_zero():
        return ring.zero(), ring.one()
    if den.is_constant():
        c = den.terms[UNIT_MONOMIAL]
        if c != 1:
            num = Poly._raw(ring, {m: QQ.div(k, c) for m, k in num.terms.items()})
        return num, ring.one()
    num, den = _up(num, den)
    content = _poly_content(num).gcd(_poly_content(den))
    if not content.is_unit():
        num = Poly(ring, {t.div(content): c for t, c in num.terms.items()})
        den = Poly(ring, {t.div(content): c for t, c in den.terms.items()})
    q = _division_loop(num, den)
    if q is not None:
        num, den = q, ring.one()
    elif ring.vartable.kinds == (VarKind.ORDINARY,):
        num, den = _cancel_univariate(num, den)
    n = len(ring.vartable)
    lc = den.terms[max(den.terms, key=lambda m: tuple(m.exp(i) for i in range(n)))]
    if lc != 1:
        inv = QQ.div(1, lc)
        num = num.scale(inv)
        den = den.scale(inv)
    return num, den


def _typed_terms(p: Poly) -> list:
    """Terms in dict order, with the type of every exponent and coefficient."""
    return [(tuple((i, type(e), e) for i, e in m), type(c), c)
            for m, c in p.terms.items()]


@st.composite
def of_pairs(draw):
    """(num, den) over two ordinary variables and one bar variable, in
    ring or field mode (negative bar exponents), with fractional bar
    exponents and int or integral Fraction coefficients: one term over
    one term, over a constant, or over a longer denominator, both sides
    sometimes multiplied by a shared monomial."""
    ring = draw(st.sampled_from([OF_RING, OF_FIELD]))
    lo = -3 if ring.mode is Mode.FIELD else 0
    bar = st.integers(lo, 4).map(lambda k: Fraction(k, 2))

    def mono():
        return Monomial([(0, draw(st.integers(0, 2))), (1, draw(st.integers(0, 2))),
                         (2, draw(bar))])

    def poly(n):
        terms = {}
        for _ in range(n):
            c = draw(rationals.filter(bool))
            terms[mono()] = c if draw(st.booleans()) else QQ.coerce(c)
        return Poly(ring, terms)

    num = poly(draw(st.integers(0, 3)))
    shape = draw(st.sampled_from(["one", "constant", "longer"]))
    if shape == "constant":
        den = ring.const(draw(rationals.filter(bool)))
    else:
        den = poly(1 if shape == "one" else draw(st.integers(2, 3)))
    assume(not den.is_zero())
    if draw(st.booleans()):
        shared = ring.from_monomial(mono())
        num, den = num * shared, den * shared
    return num, den


@settings(max_examples=300, deadline=None)
@given(of_pairs())
@example((OF_RING.parse("2*x*y^2*ab^(1/2)"), OF_RING.parse("4*x^2*y*ab^(3/2)")))
@example((OF_RING.parse("3*x^2*ab"), OF_RING.parse("3/2*x*ab^(1/2)")))
@example((OF_FIELD.parse("ab^(-1)*y"), OF_FIELD.parse("2*ab^(-1/2)*x")))
@example((OF_RING.parse("x*y + ab"), OF_RING.parse("x*y*ab")))
def test_of_matches_reference_general_path(nd):
    num, den = nd
    got = RatFunc.of(num, den)
    want_num, want_den = _reference_of(num, den)
    _assert_same_up_to_int(got.num, want_num)
    _assert_same_up_to_int(got.den, want_den)


@settings(max_examples=300, deadline=None)
@given(of_pairs())
@example((OF_RING.parse("x"), OF_RING.parse("2*y")))
@example((OF_RING.parse("x*y + ab"), OF_RING.parse("2*x + 4*y")))
@example((OF_RING.parse("x + y"), OF_RING.const(2)))
@example((OF_RING.parse("3*x"), OF_RING.parse("3/2*y*ab")))
def test_of_keeps_integral_coefficients_int(nd):
    # constant, one-term and longer denominators alike, on inputs whose
    # integral coefficients are ints
    num, den = (Poly(p.ring, {m: QQ.coerce(c) for m, c in p.terms.items()})
                for p in nd)
    r = RatFunc.of(num, den)
    for p in (r.num, r.den):
        assert all(type(c) is int for c in p.terms.values()
                   if Fraction(c).denominator == 1)


def _assert_same_up_to_int(got: Poly, want: Poly) -> None:
    """got has want's terms, in want's order and with want's types,
    except that an integral Fraction of want may be the equal int in
    got: the reference makes a denominator monic by multiplying with the
    inverse leading coefficient, ``of`` divides through ``field.div``."""
    g, w = _typed_terms(got), _typed_terms(want)
    assert [(m, c) for m, _, c in g] == [(m, c) for m, _, c in w]
    for (_, gt, _), (_, wt, _) in zip(g, w):
        assert gt is wt or (gt, wt) == (int, Fraction)


def _gcd_path_of(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """``RatFunc.of`` on one term over one non-constant term as it was
    before the merge: the gcd of the two monomials cancelled from each,
    then the quotient of what is left, each through ``Monomial.div``,
    after :func:`_up`."""
    ring, field = num.ring, num.ring.field
    num, den = _up(num, den)
    (nm, nc), = num.terms.items()
    (dm, dc), = den.terms.items()
    content = nm.gcd(dm)
    if not content.is_unit():
        nm, dm = nm.div(content), dm.div(content)
    q = nm.div(dm) if dm else nm
    if all(e >= 0 for _, e in q):
        return Poly._raw(ring, {q: field.div(nc, dc)}), ring.one()
    if dc != 1:
        nc, dc = field.div(nc, dc), 1
    return Poly._raw(ring, {nm: nc}), Poly._raw(ring, {dm: dc})


@st.composite
def one_term_pairs(draw):
    """One term over one non-constant term, in ring or field mode, with
    half-integral bar exponents (negative in field mode), int or
    Fraction coefficients, and the denominator often a divisor or a
    multiple of the numerator's monomial."""
    ring = draw(st.sampled_from([OF_RING, OF_FIELD]))
    lo = -3 if ring.mode is Mode.FIELD else 0
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2),
                     st.integers(lo, 4).map(lambda k: Fraction(k, 2)))
    nm = Monomial(enumerate(draw(exps)))
    dm = Monomial(enumerate(draw(exps)))
    shape = draw(st.sampled_from(["any", "divides", "divided"]))
    if shape == "divides":
        nm = nm.mul(dm)
    elif shape == "divided":
        dm = dm.mul(nm)
    assume(not dm.is_unit())
    nc, dc = draw(rationals.filter(bool)), draw(rationals.filter(bool))
    return (Poly(ring, {nm: QQ.coerce(nc)}), Poly(ring, {dm: QQ.coerce(dc)}))


@settings(max_examples=300, deadline=None)
@given(one_term_pairs())
@example((OF_RING.parse("3*ab^(3/2)*x"), OF_RING.parse("2*ab^(1/2)*y")))
@example((OF_RING.parse("5"), OF_RING.parse("x*ab^(1/2)")))
@example((OF_RING.parse("6*x^2*y*ab"), OF_RING.parse("3*x*ab^(1/2)")))
@example((OF_RING.parse("x^2"), OF_RING.parse("y*ab^(1/2)")))
@example((OF_RING.parse("x"), OF_RING.parse("2/3*y")))
@example((OF_FIELD.parse("y"), OF_FIELD.parse("4*x*ab^(-1/2)")))
@example((OF_FIELD.parse("x"), OF_FIELD.parse("ab^(-1)")))
def test_one_term_of_matches_the_gcd_path(nd):
    # exact terms and types: integral coefficients stay int
    got = RatFunc.of(*nd)
    want_num, want_den = _gcd_path_of(*nd)
    assert _typed_terms(got.num) == _typed_terms(want_num)
    assert _typed_terms(got.den) == _typed_terms(want_den)


def test_one_term_denominator_keeps_no_negative_exponent():
    # every negative exponent of a one-term denominator moves up, whether
    # or not another exponent of the quotient lands down
    for num, den, want_num, want_den in [
            ("y", "4*x*ab^(-1/2)", "1/4*y*ab^(1/2)", "x"),
            ("x", "ab^(-1)", "x*ab", "1"),
            ("x + y", "x*ab^(-1)", "x*ab + y*ab", "x")]:
        r = RatFunc.of(OF_FIELD.parse(num), OF_FIELD.parse(den))
        assert (r.num, r.den) == (OF_FIELD.parse(want_num), OF_FIELD.parse(want_den))
        assert all(e > 0 for m in r.den.terms for _, e in m)
    # the bar variable first: its exponent in the denominator alone is
    # met before the numerator's variable in the merge
    bx = PolyRing(VarTable.make([("ab", VarKind.BAR), ("x", VarKind.ORDINARY)]),
                  QQ, Mode.FIELD)
    r = RatFunc.of(bx.parse("x"), bx.parse("2*ab^(-1)*x^2"))
    assert (r.num, r.den) == (bx.parse("1/2*ab"), bx.parse("x"))


@settings(max_examples=300, deadline=None)
@given(one_term_pairs())
@example((OF_FIELD.parse("y"), OF_FIELD.parse("4*x*ab^(-1/2)")))
@example((OF_FIELD.parse("x"), OF_FIELD.parse("ab^(-1)")))
@example((OF_FIELD.parse("y*ab^(-1)"), OF_FIELD.parse("x*ab^(-1/2)")))
def test_one_term_path_matches_the_general_path(nd):
    # the merge of one term over one term against the reference general
    # path, which cancels the content and divides: the same terms and
    # types, and a denominator with no negative exponent
    got = RatFunc.of(*nd)
    want_num, want_den = _reference_of(*nd)
    _assert_same_up_to_int(got.num, want_num)
    _assert_same_up_to_int(got.den, want_den)
    assert all(e > 0 for m in got.den.terms for _, e in m)


def test_map_coefficients_drops_a_term_mapped_to_zero():
    p = X**2 + 2 * X * Y + 3 * Y + 4
    got = p.map_coefficients(lambda c: 0 if c == 2 else c * Fraction(1, 2))
    assert list(got.terms.items()) == [(m, c) for m, c in
                                       [(Monomial([(0, 2)]), Fraction(1, 2)),
                                        (Monomial([(1, 1)]), Fraction(3, 2)),
                                        (UNIT_MONOMIAL, 2)]]
    assert [type(c) for c in got.terms.values()] == [Fraction, Fraction, int]
    assert p.map_coefficients(lambda c: 0).is_zero()


def test_is_one_holds_for_a_unit_that_is_not_the_shared_one():
    unit = Poly(XY, {UNIT_MONOMIAL: 1})
    assert unit is not XY.one() and _is_one(unit) and _is_one(XY.one())
    assert not _is_one(Poly(XY, {UNIT_MONOMIAL: Fraction(1)}))
    assert not _is_one(XY.const(2)) and not _is_one(X)


def test_convert_adds_exponents_of_variables_renamed_together():
    z = ordinary_ring(["z"])
    p = (X * Y).convert(z, {"x": "z", "y": "z"})
    assert p == z.var("z") ** 2 and str(p) == "z^2"
    assert p.terms == {Monomial([(0, 2)]): 1}
    q = (X * Y + X**2 - Y**2).convert(z, {"x": "z", "y": "z"})
    assert q == z.var("z") ** 2 and q.terms == {Monomial([(0, 2)]): 1}


RENAME_SRC = PolyRing(VarTable.make([("x", VarKind.ORDINARY), ("y", VarKind.ORDINARY),
                                     ("w", VarKind.ORDINARY), ("ab", VarKind.BAR),
                                     ("bb", VarKind.BAR)]))
RENAME_DST = PolyRing(VarTable.make([("u", VarKind.ORDINARY), ("v", VarKind.ORDINARY),
                                     ("cb", VarKind.BAR)]))


@st.composite
def rename_cases(draw):
    """Two polynomials over RENAME_SRC and a rename that sends its
    ordinary variables to u or v (often two of them to one) and both
    bar variables to cb."""
    def poly():
        return RENAME_SRC.from_terms({
            Monomial([(0, draw(exps)), (1, draw(exps)), (2, draw(exps)),
                      (3, draw(halves)), (4, draw(halves))]): draw(rationals)
            for _ in range(draw(st.integers(0, 3)))})
    rename = {n: draw(st.sampled_from(["u", "v"])) for n in ("x", "y", "w")}
    return poly(), poly(), {**rename, "ab": "cb", "bb": "cb"}


@settings(max_examples=100, deadline=None)
@given(rename_cases())
def test_convert_is_a_ring_homomorphism_under_any_rename(case):
    p, q, rename = case

    def conv(f):
        return f.convert(RENAME_DST, rename)
    assert conv(p * q) == conv(p) * conv(q)
    assert conv(p + q) == conv(p) + conv(q)
    assert conv(RENAME_SRC.one()) == RENAME_DST.one()
    assert all(len({i for i, _ in m}) == len(m) for m in conv(p * q).terms)
