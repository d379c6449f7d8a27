"""Groebner engine: bases, membership, radical, intersection, images."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyzero.errors import DomainError
from polyzero.groebner import (
    BlockElim, GrevLex, Ideal, Lex, buchberger, eliminate, ideal_intersect,
    image_closure, order_key, vanishing_ideal_of_points,
)
from polyzero.poly import (
    FractionField, Monomial, PolyMap, PolyRing, VarKind, VarTable,
    ordinary_ring,
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


def test_vanishing_ideal_of_points():
    ring = ordinary_ring(["x", "y"])
    V = vanishing_ideal_of_points(ring, [(Fraction(0), Fraction(0)),
                                         (Fraction(1), Fraction(1))])
    assert V.member(ring.var("x") - ring.var("y"))
    assert V.member(ring.var("x") ** 2 - ring.var("x"))
    assert not V.member(ring.var("x"))
    empty = vanishing_ideal_of_points(ring, [])
    assert empty.is_trivial()


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


def test_groebner_rejects_negative_exponents():
    from polyzero.poly import Mode

    ring = PolyRing(VarTable.make([("ab", VarKind.BAR)]), mode=Mode.FIELD)
    p = ring.var("ab", -1)
    with pytest.raises(DomainError):
        buchberger([p], GrevLex())


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
