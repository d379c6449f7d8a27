"""Polynomial core: exact arithmetic, substitution, rational functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyzero.errors import DomainError, ParseError, StructureError
from polyzero.poly import (
    FractionField, Mode, Poly, PolyMap, PolyRing, RatFunc, VarKind, VarTable,
    flatten_poly, map_ring_over, ordinary_ring, poly_exact_div, rational_pow,
    structure_poly,
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
