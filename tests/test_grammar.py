"""Grammar model, enumeration, certificates, and the zeroness drivers."""

import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyzero import grammar
from polyzero.dsl import parse_grammar, parse_transducer
from polyzero.encoding import (
    Automorphism, PolySubst, WordSubst, encode_ring, invert_substitution,
)
from polyzero.errors import (
    CertificateError, DimensionError, DomainError, StructureError,
)
from polyzero.groebner import Ideal
from polyzero.linalg import kernel_basis
from polyzero.grammar import (
    Budgets, ChainResult, Derivation, Grammar, InvariantCertificate,
    Production, ValueTable, Witness, attach_polymap, chain_zeroness, check_certificate,
    closure_rounds, collect_samples, enumerate_values,
    indep_zeroness, low_degree_vanishing, nonzero_search,
    productive_nonterminals, to_field_view, vanishes_at,
    zeroness, _monomials_upto,
)
from polyzero.poly import (
    EMPTY_VARTABLE, UNIT_MONOMIAL, FractionField, Mode, Monomial, Poly, PolyMap,
    PolyRing, QQ, RatFunc, VarKind, VarTable, map_ring_over, ordinary_ring,
    scalar_ring,
)
from polyzero.reports import certificate_from_obj, read_json
from polyzero.transducer import to_difference_grammar

INPUTS = Path(__file__).resolve().parent.parent / "inputs"

SMALL = Budgets(size=6, iters=6, seconds=30.0)


def const_map(vring, values):
    return PolyMap(vring, (), tuple(values))


def slot_ring(vring, names):
    return map_ring_over(vring, [(n, VarKind.ORDINARY) for n in names])


def fc(vring, p):
    """Lift a parameter-ring polynomial to a scalar coefficient."""
    return vring.const(vring.field.coerce(p))


# --- small scalar grammars -------------------------------------------------


def counter_grammar(step):
    """Z -> 0; Z -> Z + step, values {0, step, 2*step, ...}."""
    vring = scalar_ring(QQ)
    m = slot_ring(vring, ["z"])
    return Grammar(
        {"Z": 1}, "Z",
        [Production("Z", (), const_map(vring, [vring.zero()])),
         Production("Z", ("Z",), PolyMap(m, ("z",), (m.var("z") + step,)))],
        vring)


def test_productive_fixpoint():
    vring = scalar_ring(QQ)
    m = slot_ring(vring, ["z"])
    g = Grammar(
        {"Z": 1, "W": 1, "U": 1}, "Z",
        [Production("Z", (), const_map(vring, [vring.one()])),
         Production("W", ("W",), PolyMap(m, ("z",), (m.var("z"),))),
         Production("U", ("Z",), PolyMap(m, ("z",), (m.var("z"),)))],
        vring)
    assert productive_nonterminals(g) == {"Z", "U"}


def test_enumeration_sizes_and_order():
    vring = scalar_ring(QQ)
    m = slot_ring(vring, ["u", "v"])
    g = Grammar(
        {"L": 1}, "L",
        [Production("L", (), const_map(vring, [vring.const(2)])),
         Production("L", ("L", "L"),
                    PolyMap(m, ("u", "v"), (m.var("u") * m.var("v"),)))],
        vring)
    vals = [v[0].constant_value() for v, _ in enumerate_values(g, 7)]
    assert vals == [2, 4, 8, 8, 16, 16, 16, 16, 16]
    sizes = [d.size() for _, d in enumerate_values(g, 7)]
    assert sizes == [1, 3, 5, 5, 7, 7, 7, 7, 7]


def test_nonzero_witness_counter():
    g = counter_grammar(1)
    r = zeroness(g, SMALL)
    assert r.verdict == "nonzero"
    assert r.witness is not None
    assert r.witness.value[0].constant_value() == 1
    assert r.witness.derivation.size() == 2


def test_zeroness_scaling_stays_zero():
    """Z -> 0; Z -> 2Z: the only value is 0, proved by the backward chain."""
    vring = scalar_ring(QQ)
    m = slot_ring(vring, ["z"])
    g = Grammar(
        {"Z": 1}, "Z",
        [Production("Z", (), const_map(vring, [vring.zero()])),
         Production("Z", ("Z",), PolyMap(m, ("z",), (2 * m.var("z"),)))],
        vring)
    r = zeroness(g, SMALL)
    assert r.verdict == "zero"
    assert r.certificate is not None
    assert check_certificate(g, r.certificate).proved()


def plusminus_grammar():
    """N -> 1; N -> -N, value set exactly {1, -1}."""
    vring = scalar_ring(QQ)
    m = slot_ring(vring, ["y"])
    return Grammar(
        {"N": 1}, "N",
        [Production("N", (), const_map(vring, [vring.one()])),
         Production("N", ("N",), PolyMap(m, ("y",), (-m.var("y"),)))],
        vring)


def test_forward_closure_stabilizes():
    g = plusminus_grammar()
    rounds = itertools.islice(closure_rounds(ValueTable(g)), 6)
    cert = next((c for c in rounds if c is not None and
                 check_certificate(g, c, require_conclusion=False).proved()),
                None)
    assert cert is not None
    I = cert.ideal_for("N")
    y = I.ring.var("_v0_0")
    # exactly the ideal of the two points {1, -1}
    assert I.equal(Ideal(I.ring, [y * y - 1]))


def test_attach_polymap_closes_the_loop():
    g = plusminus_grammar()
    cring = ordinary_ring(["s"])
    f = PolyMap(cring, ("s",), (cring.var("s") ** 2 - 1,))
    g2 = attach_polymap(f, g)
    assert g2.initial == "_q0"
    vals = [v[0].constant_value() for v, _ in enumerate_values(g2, 3)]
    assert vals == [0, 0]
    r = zeroness(g2, SMALL)
    assert r.verdict == "zero"


def test_attach_polymap_dimension_mismatch():
    g = plusminus_grammar()
    cring = ordinary_ring(["s", "t"])
    f = PolyMap(cring, ("s", "t"), (cring.var("s") - cring.var("t"),))
    with pytest.raises(DimensionError):
        attach_polymap(f, g)


# --- reverse vs identity, scalar field view --------------------------------


def reverse_vs_identity_grammar(letters):
    """Y tracks (rev(w)~, rev(w)bar, w~, wbar); S is the encoding gap.

    Reading a letter prepends it to the reversed track and appends it to
    the plain track, per the suffix-product concatenation law.
    """
    lring = encode_ring(letters)
    field = FractionField(lring)
    vring = PolyRing(EMPTY_VARTABLE, field, Mode.FIELD)
    names = ["y1", "y2", "y3", "y4"]
    m4 = slot_ring(vring, names)
    y1, y2, y3, y4 = (m4.var(n) for n in names)
    prods = [Production("Y", (), const_map(
        vring, [vring.zero(), vring.one(), vring.zero(), vring.one()]))]
    for a in letters:
        at = fc(m4, lring.var(a + "t"))
        ab = fc(m4, lring.var(a + "b"))
        prods.append(Production("Y", ("Y",), PolyMap(
            m4, tuple(names),
            (at * y2 + y1, ab * y2, y3 * ab + at, y4 * ab)), label=a))
    m1 = slot_ring(vring, names)
    prods.append(Production("S", ("Y",), PolyMap(
        m1, tuple(names), (m1.var("y1") - m1.var("y3"),))))
    return Grammar({"S": 1, "Y": 4}, "S", prods, vring)


def unary_reverse_certificate(g):
    lring = g.ring.field.param_ring
    cring = g.cert_ring("Y")
    y1, y2, y3, y4 = (cring.var(n) for n in g.coord_names("Y"))
    at = fc(cring, lring.var("at"))
    ab = fc(cring, lring.var("ab"))
    I_y = Ideal(cring, [y1 - y3, y2 - y4, (ab - 1) * y1 - at * (y2 - 1)])
    sring = g.cert_ring("S")
    I_s = Ideal(sring, [sring.var("_v0_0")])
    return InvariantCertificate({"S": I_s, "Y": I_y})


def test_unary_reverse_certificate_checks():
    g = reverse_vs_identity_grammar(["a"])
    cert = unary_reverse_certificate(g)
    assert check_certificate(g, cert).proved()


def test_unary_reverse_dropping_generator_breaks_closure():
    g = reverse_vs_identity_grammar(["a"])
    cert = unary_reverse_certificate(g)
    I_y = cert.ideal_for("Y")
    # without the length-coupling generator the equalities alone are not
    # inductive: prepending to one track and appending to the other
    # moves off the plane
    weak = InvariantCertificate({
        "S": cert.ideal_for("S"),
        "Y": Ideal(I_y.ring, I_y.gens[:2])})
    v = check_certificate(g, weak)
    assert v.kind == "closure-violation"


def test_unary_reverse_conclusion_violation():
    g = reverse_vs_identity_grammar(["a"])
    cert = unary_reverse_certificate(g)
    loose = InvariantCertificate({
        "S": Ideal(g.cert_ring("S"), []),
        "Y": cert.ideal_for("Y")})
    v = check_certificate(g, loose)
    assert v.kind == "conclusion-violation"
    assert check_certificate(g, loose, require_conclusion=False).proved()


def test_unary_reverse_auto_zero():
    g = reverse_vs_identity_grammar(["a"])
    r = zeroness(g, SMALL)
    assert r.verdict == "zero"
    assert r.certificate is not None
    assert check_certificate(g, r.certificate).proved()


def test_binary_reverse_witness():
    g = reverse_vs_identity_grammar(["a", "b"])
    r = zeroness(g, SMALL)
    assert r.verdict == "nonzero"
    lring = g.ring.field.param_ring
    expected = g.ring.field.coerce(lring.parse("at*bb + bt - bt*ab - at"))
    assert r.witness.value[0].constant_value() == expected
    # the derivation spells the separating word inside out
    assert r.witness.derivation.labels_inside_out(g) == ["b", "a"]


def test_derivation_replay_detects_tampering():
    g = counter_grammar(1)
    w = nonzero_search(g, 3)
    bad = Derivation(w.derivation.prod_index, w.derivation.children,
                     (g.ring.const(7),))
    with pytest.raises(StructureError):
        bad.replay(g)


def test_zeroness_deterministic_repeat():
    g = reverse_vs_identity_grammar(["a"])
    r1 = zeroness(g, SMALL)
    r2 = zeroness(g, SMALL)
    assert (r1.verdict, r1.detail) == (r2.verdict, r2.detail)
    gens1 = [str(f) for nt in g.nonterminals
             for f in r1.certificate.ideal_for(nt).gens]
    gens2 = [str(f) for nt in g.nonterminals
             for f in r2.certificate.ideal_for(nt).gens]
    assert gens1 == gens2


# --- twisted productions ----------------------------------------------------


def shift_automorphism(pring):
    forward = PolySubst(pring, {"c": pring.parse("c + 1")})
    inverse = {"c": RatFunc.of(pring.parse("c - 1"), pring.one())}
    alpha = Automorphism(forward, inverse)
    assert alpha.verify_roundtrip()
    return alpha


# the twists of the sqrev difference grammar: # -> #a and # -> #b
SQREV = encode_ring(["a", "b", "#"])
SQREV_TWISTS = [invert_substitution(WordSubst({"#": "#" + s}),
                                    ["a", "b", "#"], SQREV) for s in "ab"]
SHIFT = shift_automorphism(ordinary_ring(["c"]))


def _representation(c: RatFunc) -> tuple[list, list]:
    """Numerator and denominator terms in order, with coefficient types."""
    return tuple([(m, type(k), k) for m, k in p.terms.items()]
                 for p in (c.num, c.den))


def _retyped(c: RatFunc) -> RatFunc:
    """c with each integral coefficient's type swapped (int, Fraction)."""
    def swap(k):
        if type(k) is int:
            return Fraction(k)
        return int(k) if k.denominator == 1 else k
    return RatFunc(*(Poly._raw(p.ring, {m: swap(k) for m, k in p.terms.items()})
                     for p in (c.num, c.den)))


@st.composite
def twist_coefficients(draw):
    """A twist and raw quotients over its ring, each followed by its
    retyped twin; bar variables get half-integer exponents."""
    alpha = draw(st.sampled_from(SQREV_TWISTS + [SHIFT]))
    ring = alpha.ring
    kinds = ring.vartable.kinds

    def poly(min_terms):
        terms = {}
        for _ in range(draw(st.integers(min_terms, 3))):
            m = Monomial([(i, draw(st.integers(0, 2)) if kind is VarKind.ORDINARY
                           else Fraction(draw(st.integers(0, 4)), 2))
                          for i, kind in enumerate(kinds) if draw(st.booleans())])
            terms[m] = draw(st.fractions(-3, 3, max_denominator=2)
                            .filter(bool))
        return Poly._raw(ring, terms)
    coeffs = []
    for _ in range(draw(st.integers(1, 3))):
        den = poly(1)
        c = RatFunc(poly(0), den if not den.is_zero() else ring.one())
        coeffs += [c, _retyped(c)]
    return alpha, coeffs


@settings(max_examples=60, deadline=None)
@given(twist_coefficients())
def test_twist_memo_returns_the_substitution(case):
    # apply and apply_inverse equal a fresh substitution term for term,
    # with the same coefficient types, on the first call and on a memo
    # hit; the retyped twins never share an entry
    alpha, coeffs = case
    ring = alpha.ring
    forward = {n: RatFunc.of(img, ring.one())
               for n, img in alpha.forward.images.items()}
    want = [(_representation(c.substitute(forward)),
             _representation(c.substitute(dict(alpha.inverse))))
            for c in coeffs]
    for _ in range(2):
        got = [(_representation(alpha.apply(c)),
                _representation(alpha.apply_inverse(c))) for c in coeffs]
        assert got == want


def test_twist_memo_keeps_a_wrong_inverse_wrong():
    pring = ordinary_ring(["c"])
    wrong = Automorphism(PolySubst(pring, {"c": pring.parse("c + 1")}),
                         {"c": RatFunc.of(pring.parse("c - 2"), pring.one())})
    assert not wrong.verify_roundtrip()
    coeffs = [RatFunc.of(pring.parse(t), pring.one())
              for t in ("c", "c + 1", "c - 1", "c - 2")]
    for c in coeffs:
        wrong.apply(c), wrong.apply_inverse(c)
    assert not wrong.verify_roundtrip()
    right = shift_automorphism(pring)
    for c in coeffs:
        right.apply(c), right.apply_inverse(c)
    assert not wrong.verify_roundtrip()
    assert right.verify_roundtrip()


def _divided_substitute(c: RatFunc, mapping) -> RatFunc:
    """``RatFunc.substitute`` without its unit-denominator path: the
    numerator's and the denominator's images, divided."""
    num = c.num.substitute_frac(mapping)
    den = c.den.substitute_frac(mapping)
    if den.num.is_zero():
        raise DomainError("substitution produced a zero denominator")
    return num / den


@settings(max_examples=60, deadline=None)
@given(twist_coefficients())
def test_unit_denominator_substitute_matches_dividing(case):
    # over the denominator exactly 1 the numerator's image is returned as
    # it is; an equal constant (Fraction 1) or another one is divided by
    alpha, coeffs = case
    ring = alpha.ring
    forward = {n: RatFunc.of(img, ring.one())
               for n, img in alpha.forward.images.items()}
    fraction_one = Poly._raw(ring, {UNIT_MONOMIAL: Fraction(1)})
    for c in coeffs:
        for den in (ring.one(), fraction_one, ring.const(2)):
            p = RatFunc(c.num, den)
            for mapping in (forward, dict(alpha.inverse)):
                assert _representation(p.substitute(mapping)) == \
                    _representation(_divided_substitute(p, mapping))


def test_roundtrip_skips_only_variables_both_maps_fix():
    pring = ordinary_ring(["c", "d"])
    c, d = pring.var("c"), pring.var("d")

    def auto(inverse):
        return Automorphism(PolySubst(pring, {"c": c + 1}),
                            {n: RatFunc.of(pring.parse(t), pring.one())
                             for n, t in inverse.items()})
    assert auto({"c": "c - 1"}).verify_roundtrip()
    assert auto({"c": "c - 1", "d": "d"}).verify_roundtrip()
    # a moved variable whose inverse image is itself, or is wrong
    assert not auto({}).verify_roundtrip()
    assert not auto({"c": "c"}).verify_roundtrip()
    assert not auto({"c": "c - 2"}).verify_roundtrip()
    # a fixed variable whose inverse image is not itself
    assert not auto({"c": "c - 1", "d": "2*d"}).verify_roundtrip()
    assert not auto({"c": "c - 1", "d": "d + c"}).verify_roundtrip()
    for alpha in SQREV_TWISTS:
        assert alpha.verify_roundtrip()
        fixed = [n for n in alpha.ring.names() if n not in alpha.forward.images]
        assert len(fixed) == 4
        for n in fixed:
            twice = RatFunc.of(alpha.ring.parse(f"2*{n}"), alpha.ring.one())
            wrong = Automorphism(alpha.forward, {**alpha.inverse, n: twice})
            assert not wrong.verify_roundtrip()


def test_twist_memo_keeps_the_coefficient_ring():
    # ring.one() has the same terms over every ring
    for ring in (SHIFT.ring, ordinary_ring(["d"])):
        one = RatFunc.of(ring.one(), ring.one())
        assert SHIFT.apply(one).ring == ring
        assert SHIFT.apply_inverse(one).ring == ring


def twisted_pair_grammar():
    """M -> (c, c); M -> alpha(M) with alpha: c -> c+1; S -> m1 - m2."""
    pring = ordinary_ring(["c"])
    field = FractionField(pring)
    vring = PolyRing(EMPTY_VARTABLE, field, Mode.FIELD)
    m2 = slot_ring(vring, ["m1", "m2"])
    c = fc(vring, pring.var("c"))
    prods = [
        Production("M", (), const_map(vring, [c, c])),
        Production("M", ("M",), PolyMap(
            m2, ("m1", "m2"), (m2.var("m1"), m2.var("m2"))),
            twist=shift_automorphism(pring)),
        Production("S", ("M",), PolyMap(
            m2, ("m1", "m2"), (m2.var("m1") - m2.var("m2"),))),
    ]
    return Grammar({"S": 1, "M": 2}, "S", prods, vring)


def test_twist_applies_to_coefficients():
    g = twisted_pair_grammar()
    vals = [v for v, _ in enumerate_values(g, 3, nonterminal="M")]
    pring = g.ring.field.param_ring
    f = g.ring.field
    assert vals[0] == (fc(g.ring, pring.var("c")),) * 2
    assert vals[1] == (fc(g.ring, pring.parse("c + 1")),) * 2


def test_twisted_zeroness():
    g = twisted_pair_grammar()
    r = zeroness(g, SMALL)
    assert r.verdict == "zero"
    assert check_certificate(g, r.certificate).proved()


# --- quotient mode ----------------------------------------------------------


def test_quotient_mode_zero():
    xring = ordinary_ring(["x"])
    g = Grammar(
        {"N": 1}, "N",
        [Production("N", (), const_map(xring, [xring.parse("x - 1")]))],
        xring, ambient=Ideal(xring, [xring.parse("x - 1")]))
    r = zeroness(g, SMALL)
    assert r.verdict == "zero"
    assert check_certificate(g, r.certificate).proved()


def test_quotient_mode_nonzero():
    xring = ordinary_ring(["x"])
    g = Grammar(
        {"N": 1}, "N",
        [Production("N", (), const_map(xring, [xring.parse("x + 1")]))],
        xring, ambient=Ideal(xring, [xring.parse("x - 1")]))
    r = zeroness(g, SMALL)
    assert r.verdict == "nonzero"
    assert r.witness.value == (xring.parse("x + 1"),)


def test_empty_language_is_zero():
    vring = scalar_ring(QQ)
    m = slot_ring(vring, ["z"])
    g = Grammar(
        {"Z": 1}, "Z",
        [Production("Z", ("Z",), PolyMap(m, ("z",), (m.var("z"),)))],
        vring)
    r = zeroness(g, SMALL)
    assert r.verdict == "zero"
    assert r.detail == "no derivable values"


def test_certificate_missing_ideal():
    g = counter_grammar(1)
    with pytest.raises(CertificateError):
        check_certificate(g, InvariantCertificate({}))


# --- field view -------------------------------------------------------------


def test_to_field_view_values_match():
    xring = ordinary_ring(["x"])
    m = slot_ring(xring, ["z"])
    g = Grammar(
        {"Z": 1}, "Z",
        [Production("Z", (), const_map(xring, [xring.parse("x - 1")])),
         Production("Z", ("Z",), PolyMap(m, ("z",), (m.var("z") * m.var("x"),)))],
        xring)
    fv = to_field_view(g)
    assert fv.ring.names() == ()
    vals_flat = [v[0] for v, _ in enumerate_values(g, 3)]
    vals_struct = [v[0].constant_value() for v, _ in enumerate_values(fv, 3)]
    f = fv.ring.field
    assert vals_struct == [f.coerce(p) for p in vals_flat]


# --- independent substitution ----------------------------------------------


def diag_powers_inner():
    """Inner values (u^n, u^n), found to lie on the diagonal."""
    uring = ordinary_ring(["u"])
    m = slot_ring(uring, ["b1", "b2"])
    u = m.var("u")
    return Grammar(
        {"B": 2}, "B",
        [Production("B", (), const_map(uring, [uring.one(), uring.one()])),
         Production("B", ("B",), PolyMap(
             m, ("b1", "b2"), (u * m.var("b1"), u * m.var("b2"))))],
        uring)


def outer_on(field, expr_text):
    oring = PolyRing(VarTable.make([("x1", VarKind.ORDINARY),
                                    ("x2", VarKind.ORDINARY)]),
                     field, Mode.RING)
    pr = Production("A", (), const_map(oring, [oring.parse(expr_text)]))
    return Grammar({"A": 1}, "A", [pr], oring)


def test_indep_zeroness_diagonal():
    inner = diag_powers_inner()
    field = FractionField(ordinary_ring(["u"]))
    outer = outer_on(field, "x1 - x2")
    r = indep_zeroness(outer, inner, SMALL)
    assert r.verdict == "zero"
    assert r.invariant is not None
    assert r.quotient_result is not None and r.quotient_result.verdict == "zero"


def test_indep_zeroness_refuted():
    inner = diag_powers_inner()
    field = FractionField(ordinary_ring(["u"]))
    outer = outer_on(field, "x1 + x2")
    r = indep_zeroness(outer, inner, SMALL)
    assert r.verdict == "nonzero"
    wo, wi = r.witness_pair
    assert [c.constant_value() for c in wi.value] == [1, 1]


def test_indep_dimension_mismatch():
    inner = diag_powers_inner()
    field = FractionField(ordinary_ring(["u"]))
    oring = PolyRing(VarTable.make([("x1", VarKind.ORDINARY)]),
                     field, Mode.RING)
    outer = Grammar({"A": 1}, "A",
                    [Production("A", (), const_map(oring, [oring.var("x1")]))],
                    oring)
    with pytest.raises(DimensionError):
        indep_zeroness(outer, inner, SMALL)


# --- the two-stage chain ---------------------------------------------------


def seeded_curve(rng):
    """A unary scalar inner grammar whose values (x1, x2) lie on a curve
    r = 0: a line, a parabola or a ray of powers.  Returns the grammar,
    r (built over a given ring with x1 and x2) and the x1 of its first
    two values."""
    sring = scalar_ring(QQ)
    mb = slot_ring(sring, ["b0", "b1"])
    b0, b1 = mb.var("b0"), mb.var("b1")
    c, d = rng.choice([1, 2, -1]), rng.choice([0, 1, 3])
    curve = rng.choice(["line", "parabola", "powers"])
    if curve == "line":
        base, step = (0, d), (b0 + 1, b1 + c)
        def rel(R):
            return R.var("x2") - c * R.var("x1") - d
        firsts = (0, 1)
    elif curve == "parabola":
        base, step = (0, 0), (b0 + 1, b1 + 2 * b0 + 1)
        def rel(R):
            return R.var("x1") ** 2 - R.var("x2")
        firsts = (0, 1)
    else:
        base, step = (1, c), ((d + 2) * b0, (d + 2) * b1)
        def rel(R):
            return R.var("x2") - c * R.var("x1")
        firsts = (1, d + 2)
    inner = Grammar(
        {"B": 2}, "B",
        [Production("B", (), const_map(sring, [sring.const(v) for v in base])),
         Production("B", ("B",), PolyMap(mb, ("b0", "b1"), step))], sring)
    return inner, rel, firsts


def random_indep_pair(seed, nonunary=False):
    """A seeded (outer, inner) pair over QQ, unary unless ``nonunary``.

    The inner values lie on a seeded curve r = 0.  The outer values are
    multiples of r, so the pair is zero, unless a perturbation makes it
    nonzero at the base value, after one step, or only at the third
    inner value.  With two outer nonterminals, A reads the sum of a
    two-track S.  The non-unary outer grammar is A -> base;
    A -> A A, the first A times a multiplier plus the second.
    """
    rng = random.Random(seed)
    inner, rel, firsts = seeded_curve(rng)
    xring = ordinary_ring(["x1", "x2"])
    kind = rng.choice(["none", "none", "base", "step", "late"])
    pert = {"none": "0", "base": "0", "step": "1",
            "late": f"(x1 - {firsts[0]})*(x1 - {firsts[1]})"}[kind]
    base_val = (rel(xring) * xring.parse(rng.choice(["1", "x2 - 3", "x1 + 1"]))
                + (kind == "base"))
    if nonunary:
        m = slot_ring(xring, ["s", "t"])
        step = (m.var("s") * m.parse(rng.choice(["x1", "2", "x2 + 1"]))
                + m.var("t") + m.parse(pert))
        return Grammar(
            {"A": 1}, "A",
            [Production("A", (), const_map(xring, [base_val])),
             Production("A", ("A", "A"), PolyMap(m, ("s", "t"), (step,)))],
            xring), inner
    m1 = slot_ring(xring, ["s"])
    s = m1.var("s")
    mult = m1.parse(rng.choice(["x1", "x2 + 1", "2", "x1*x2"]))
    extra = rel(m1) * m1.parse(rng.choice(["0", "1", "x1"]))
    if rng.random() < 0.5:
        return Grammar(
            {"A": 1}, "A",
            [Production("A", (), const_map(xring, [base_val])),
             Production("A", ("A",), PolyMap(
                 m1, ("s",), (s * mult + extra + m1.parse(pert),)))],
            xring), inner
    m2 = slot_ring(xring, ["s", "t"])
    s, t = m2.var("s"), m2.var("t")
    return Grammar(
        {"A": 1, "S": 2}, "A",
        [Production("A", ("S",), PolyMap(m2, ("s", "t"), (s + t,))),
         Production("S", (), const_map(xring, [base_val, rel(xring)])),
         Production("S", ("S",), PolyMap(m2, ("s", "t"), (
             s * m2.parse("x2") + t + m2.parse(pert), t * m2.parse("x1"))))],
        xring), inner


def evaluates_nonzero(outer, oval, ival):
    binding = {x: outer.ring.const(c.constant_value())
               for x, c in zip(outer.ring.names(), ival)}
    return not oval[0].substitute(binding).is_zero()


def quotient_by(outer, inner, invariant):
    coords = inner.coord_names(inner.initial)
    gens = [f.convert(outer.ring, dict(zip(coords, outer.ring.names())))
            for f in invariant.ideal_for(inner.initial).gens]
    return Grammar(outer.nonterminals, outer.initial, outer.productions,
                   outer.ring, ambient=Ideal(outer.ring, gens))


def assert_indep_result(r, outer, inner):
    """A zero needs a proved inner invariant and a proved quotient; a
    nonzero needs a witness pair that replays and evaluates nonzero."""
    if r.verdict == "zero":
        assert check_certificate(inner, r.invariant,
                                 require_conclusion=False).proved()
        assert r.quotient_result.verdict == "zero"
        assert check_certificate(quotient_by(outer, inner, r.invariant),
                                 r.quotient_result.certificate).proved()
    else:
        assert r.verdict == "nonzero"
        wo, wi = r.witness_pair
        assert wo.derivation.replay(outer) == wo.value
        assert wi.derivation.replay(inner) == wi.value
        assert evaluates_nonzero(outer, wo.value, wi.value)


def refuse(*args, **kwargs):
    raise AssertionError("invariant guessed on a unary pair")


def recording(monkeypatch, name):
    """Patch grammar.<name> to record the first argument of every call."""
    seen = []
    real = getattr(grammar, name)

    def wrapper(first, *args):
        seen.append(first)
        return real(first, *args)

    monkeypatch.setattr(grammar, name, wrapper)
    return seen


def test_stages_agree_with_brute_force_on_seeded_pairs(monkeypatch):
    # enumeration looks at derivations of size 1 only, so everything
    # else is decided by the stages
    monkeypatch.setattr(grammar, "closure_rounds", refuse)
    budgets = Budgets(size=1, iters=6, seconds=30.0)
    verdicts = []
    for seed in range(40):
        outer, inner = random_indep_pair(seed)
        inner_vals = [v for v, _ in enumerate_values(inner, 5)]
        truth = any(evaluates_nonzero(outer, ov, iv)
                    for ov, _ in enumerate_values(outer, 5)
                    for iv in inner_vals)
        r = indep_zeroness(outer, inner, budgets)
        assert r.verdict == ("nonzero" if truth else "zero"), seed
        assert_indep_result(r, outer, inner)
        verdicts.append(r.verdict)
    assert verdicts.count("zero") >= 5 and verdicts.count("nonzero") >= 5


def test_refinement_decides_non_unary_outer_grammars(monkeypatch):
    # the inner grammar is unary, so its invariant comes from the stages
    # and sampling serves only the quotient proofs of the outer grammar
    sampled = recording(monkeypatch, "closure_rounds")
    budgets = Budgets(size=1, iters=6, seconds=30.0)
    verdicts = []
    for seed in range(20):
        outer, inner = random_indep_pair(seed, nonunary=True)
        truth = composed_values([outer, inner], 5)
        expected = "nonzero" if any(any(v) for v in truth) else "zero"
        r = indep_zeroness(outer, inner, budgets)
        assert r.verdict == expected, seed
        assert_indep_result(r, outer, inner)
        rc = chain_zeroness([outer, inner], budgets)
        assert rc.verdict == expected, seed
        assert_chain_result(rc, [outer, inner])
        verdicts.append(expected)
    assert verdicts.count("zero") >= 5 and verdicts.count("nonzero") >= 5
    assert sampled and all(set(t.g.nonterminals) == {"A"} for t in sampled)


def twisted_indep_pair(case):
    """A twisted outer grammar over Q(c), alpha: c -> c+1, and an inner
    grammar over Q(c).

    * zero: S -> x1 - x2; S -> alpha(c*s), on the diagonal (c^n, c^n);
    * nonzero: S -> x1 - x2; S -> alpha(c*s + x1 - c), whose second value
      vanishes at (c, c) but not at (c^2, c^2);
    * refined: S -> x1 - c*x2; S -> alpha(s), at (0, 0) only; the first
      value seeds an ideal that the twist moves, so the second, outside
      it, joins the seeds.
    """
    pring = ordinary_ring(["c"])
    field = FractionField(pring)
    xring = PolyRing(VarTable.make([("x1", VarKind.ORDINARY),
                                    ("x2", VarKind.ORDINARY)]),
                     field, Mode.RING)
    m = slot_ring(xring, ["s"])
    x1, x2, sv = m.var("x1"), m.var("x2"), m.var("s")
    c = fc(m, pring.var("c"))
    base, step = {"zero": (x1 - x2, c * sv),
                  "nonzero": (x1 - x2, c * sv + x1 - c),
                  "refined": (x1 - c * x2, sv)}[case]
    outer = Grammar(
        {"S": 1}, "S",
        [Production("S", (), const_map(xring, [base.convert(xring)])),
         Production("S", ("S",), PolyMap(m, ("s",), (step,)),
                    twist=shift_automorphism(pring))],
        xring)
    vring = PolyRing(EMPTY_VARTABLE, field, Mode.FIELD)
    mb = slot_ring(vring, ["b1", "b2"])
    cb = fc(mb, pring.var("c"))
    start = vring.zero() if case == "refined" else fc(vring, pring.var("c"))
    inner = Grammar(
        {"B": 2}, "B",
        [Production("B", (), const_map(vring, [start, start])),
         Production("B", ("B",), PolyMap(
             mb, ("b1", "b2"), (cb * mb.var("b1"), cb * mb.var("b2"))))],
        vring)
    return outer, inner


@pytest.mark.parametrize("case", ["zero", "nonzero", "refined"])
def test_stages_decide_twisted_outer_grammars(monkeypatch, case):
    # the inner grammar is scalar-valued, so the pair is also a
    # substitution chain with the same answer
    monkeypatch.setattr(grammar, "closure_rounds", refuse)
    monkeypatch.setattr(grammar, "low_degree_vanishing", refuse)
    outer, inner = twisted_indep_pair(case)
    budgets = Budgets(size=1, iters=6, seconds=30.0)
    r = indep_zeroness(outer, inner, budgets)
    assert r.verdict == ("nonzero" if case == "nonzero" else "zero")
    assert_indep_result(r, outer, inner)
    rc = chain_zeroness([outer, inner], budgets)
    assert rc.verdict == r.verdict
    if rc.verdict == "nonzero":
        assert not rc.witness_value[0].is_zero()
    else:
        assert all(lr.verdict == "zero" for lr in rc.link_results)
        assert rc.quotient_result.verdict == "zero"


@pytest.mark.parametrize("factor,verdict", [("x2 - 1", "zero"),
                                            ("1", "nonzero")])
def test_stages_read_every_base_production(monkeypatch, factor, verdict):
    # inner values (n, 0) and (n, 1), outer values x2*factor*x1^(k+1):
    # with factor 1 only (1, 1), of the second base production, refutes
    monkeypatch.setattr(grammar, "closure_rounds", refuse)
    sring = scalar_ring(QQ)
    mb = slot_ring(sring, ["b0", "b1"])
    inner = Grammar(
        {"B": 2}, "B",
        [Production("B", (), const_map(sring, [sring.zero(), sring.zero()])),
         Production("B", (), const_map(sring, [sring.zero(), sring.one()])),
         Production("B", ("B",), PolyMap(
             mb, ("b0", "b1"), (mb.var("b0") + 1, mb.var("b1"))))], sring)
    xring = ordinary_ring(["x1", "x2"])
    m = slot_ring(xring, ["s"])
    outer = Grammar(
        {"A": 1}, "A",
        [Production("A", (), const_map(xring, [
            xring.parse(f"x2*x1*({factor})")])),
         Production("A", ("A",), PolyMap(m, ("s",), (m.parse("s*x1"),)))],
        xring)
    r = indep_zeroness(outer, inner, Budgets(size=1, iters=6, seconds=30.0))
    assert r.verdict == verdict
    assert_indep_result(r, outer, inner)


def test_twist_must_preserve_the_ambient_ideal():
    # modulo x1 - c*x2 the values x1 - (c+k)*x2 are nonzero for k > 0,
    # though the ideal (s) pulls back into itself through the twist
    outer, _ = twisted_indep_pair("refined")
    g = Grammar(outer.nonterminals, outer.initial, outer.productions,
                outer.ring, ambient=Ideal(outer.ring, [
                    outer.productions[0].pmap.outputs[0]]))
    cert = InvariantCertificate({"S": Ideal(g.cert_ring("S"), [
        g.cert_ring("S").var("_v0_0")])})
    assert check_certificate(g, cert).kind == "closure-violation"
    assert zeroness(g, SMALL).verdict == "nonzero"


def test_stages_with_an_identically_zero_outer_grammar():
    inner = diag_powers_inner()
    outer = outer_on(FractionField(ordinary_ring(["u"])), "x1 - x1")
    assert grammar._outer_seeds(outer, time.monotonic() + 30.0) == {}
    r = indep_zeroness(outer, inner, SMALL)
    assert r.verdict == "zero"
    assert r.invariant.ideal_for("B").gens == ()
    assert_indep_result(r, outer, to_field_view(inner))


# --- substitution chains ----------------------------------------------------


def chain_links(head_expr, step=None):
    """Head A -> head_expr, and A -> A A with map ``step`` over (s, t)
    when given; mid (u1^2, u2^2); inner (n, n)."""
    sring = scalar_ring(QQ)
    mc = slot_ring(sring, ["t1", "t2"])
    inner = Grammar(
        {"C": 2}, "C",
        [Production("C", (), const_map(sring, [sring.zero(), sring.zero()])),
         Production("C", ("C",), PolyMap(
             mc, ("t1", "t2"), (mc.var("t1") + 1, mc.var("t2") + 1)))],
        sring)
    uring = ordinary_ring(["u1", "u2"])
    mid = Grammar(
        {"B": 2}, "B",
        [Production("B", (), const_map(
            uring, [uring.parse("u1^2"), uring.parse("u2^2")]))],
        uring)
    xring = ordinary_ring(["x1", "x2"])
    prods = [Production("A", (), const_map(xring, [xring.parse(head_expr)]))]
    if step is not None:
        m = slot_ring(xring, ["s", "t"])
        prods.append(Production("A", ("A", "A"),
                                PolyMap(m, ("s", "t"), (m.parse(step),))))
    return [Grammar({"A": 1}, "A", prods, xring), mid, inner]


def composed_values(gs, size):
    """Brute force: every g1(g2(... gn)) coordinate over derivations of
    at most ``size`` nodes, as field elements."""
    vals = [tuple(c.constant_value() for c in v)
            for v, _ in enumerate_values(gs[-1], size)]
    for g in reversed(gs[:-1]):
        vals = [tuple(p.evaluate(dict(zip(g.ring.names(), iv)))
                      for p in ov)
                for ov, _ in enumerate_values(g, size) for iv in vals]
    return vals


def assert_chain_result(r, gs):
    """A zero needs every link zero and a proved quotient certificate;
    a nonzero needs a witness value among the brute-force values."""
    truth = composed_values(gs, 5)
    if r.verdict == "zero":
        assert all(lr.verdict == "zero" for lr in r.link_results)
        head = gs[0]
        coords = [f"_t{i}" for i in range(len(head.ring.names()))]
        quotient = head if not r.invariant_gens else Grammar(
            head.nonterminals, head.initial, head.productions, head.ring,
            ambient=Ideal(head.ring, [
                f.convert(head.ring, dict(zip(coords, head.ring.names())))
                for f in r.invariant_gens]))
        assert check_certificate(quotient,
                                 r.quotient_result.certificate).proved()
        assert not any(any(v) for v in truth)
    else:
        assert r.verdict == "nonzero"
        assert tuple(c.constant_value() for c in r.witness_value) in truth




@pytest.mark.parametrize("step,verdict", [("s*x1 + t", "zero"),
                                          ("s*t + x1*x2", "nonzero")])
def test_chain_with_a_non_unary_head(monkeypatch, step, verdict):
    # no seeds: the head values that the quotient proofs find become the
    # generators, each proved on the two-link tail
    seeded = recording(monkeypatch, "_outer_seeds")
    gs = chain_links("x1 - x2", step)
    r = chain_zeroness(gs, SMALL)
    assert r.verdict == verdict
    assert_chain_result(r, gs)
    assert r.link_results and gs[0] not in seeded


@pytest.mark.parametrize("head_expr,verdict", [("x1 - x2", "zero"),
                                               ("x1 - 2*x2", "nonzero")])
def test_chain_with_a_unary_head_over_a_non_unary_tail(monkeypatch, head_expr,
                                                      verdict):
    # inner values (n, n) from C -> C C; the head's values seed the
    # generators, each proved on the tail by a sampled invariant
    seeded = recording(monkeypatch, "_outer_seeds")
    sring = scalar_ring(QQ)
    mc = slot_ring(sring, ["s1", "s2", "t1", "t2"])
    tail = Grammar(
        {"C": 2}, "C",
        [Production("C", (), const_map(sring, [sring.zero(), sring.zero()])),
         Production("C", ("C", "C"), PolyMap(
             mc, ("s1", "s2", "t1", "t2"),
             (mc.parse("s1 + t1 + 1"), mc.parse("s2 + t2 + 1"))))],
        sring)
    xring = ordinary_ring(["x1", "x2"])
    m = slot_ring(xring, ["s"])
    head = Grammar(
        {"A": 1}, "A",
        [Production("A", (), const_map(xring, [xring.parse(head_expr)])),
         Production("A", ("A",), PolyMap(m, ("s",), (m.parse("s*(x1 + 1)"),)))],
        xring)
    r = chain_zeroness([head, tail], SMALL)
    assert r.verdict == verdict
    assert_chain_result(r, [head, tail])
    assert seeded[0] is head


def test_chain_zeroness_three_links(monkeypatch):
    # every grammar is unary, so the stages find the generators
    monkeypatch.setattr(grammar, "low_degree_vanishing", refuse)
    gs = chain_links("x1 - x2")
    r = chain_zeroness(gs, SMALL)
    assert r.verdict == "zero"
    assert [str(f) for f in r.invariant_gens] == ["_t0 - _t1"]
    assert all(lr.verdict == "zero" for lr in r.link_results)
    assert r.quotient_result.verdict == "zero"
    head = gs[0]
    quotient = Grammar(head.nonterminals, head.initial, head.productions,
                       head.ring, ambient=Ideal(head.ring, [
                           head.ring.parse("x1 - x2")]))
    assert check_certificate(quotient, r.quotient_result.certificate).proved()
    assert not any(any(v) for v in composed_values(gs, 5))


def test_chain_zeroness_refuted(monkeypatch):
    monkeypatch.setattr(grammar, "low_degree_vanishing", refuse)
    gs = chain_links("x1 + x2")
    r = chain_zeroness(gs, SMALL)
    assert r.verdict == "nonzero"
    assert r.witness_value is not None
    assert not r.witness_value[0].is_zero()
    assert r.witness_value[0].constant_value() in {
        c for v in composed_values(gs, 5) for c in v}


@pytest.mark.parametrize("slow", ["check_certificate", "zeroness"])
def test_nested_searches_end_by_the_callers_deadline(monkeypatch, slow):
    # each nested search records when its budget would end; pausing after
    # the slowed step makes the later ones start past half the budget
    ends = []
    real_zeroness = grammar.zeroness

    def recording(g, budgets=Budgets(), certificates=()):
        ends.append(time.monotonic() + budgets.seconds)
        return real_zeroness(g, budgets, certificates)

    def pause(f):
        def slowed(*args, **kwargs):
            result = f(*args, **kwargs)
            time.sleep(0.7)
            return result
        return slowed

    monkeypatch.setattr(grammar, "zeroness", recording)
    monkeypatch.setattr(grammar, slow, pause(getattr(grammar, slow)))
    budgets = Budgets(size=6, iters=6, seconds=1.0)
    start = time.monotonic()
    if slow == "zeroness":
        chain_zeroness(chain_links("x1 - x2"), budgets)
    else:
        field = FractionField(ordinary_ring(["u"]))
        indep_zeroness(outer_on(field, "x1 - x2"), diag_powers_inner(),
                       budgets)
    assert ends
    assert max(ends) <= start + budgets.seconds + 0.05


def test_chain_single_link_delegates():
    g = counter_grammar(1)
    r = chain_zeroness([g], SMALL)
    assert r.verdict == "nonzero"


def test_passed_deadline_stops_every_search_before_its_first_step():
    late = Budgets(size=6, iters=6, seconds=-1.0)
    field = FractionField(ordinary_ring(["u"]))
    results = [
        zeroness(counter_grammar(1), late),
        indep_zeroness(outer_on(field, "x1 + x2"), diag_powers_inner(), late),
        chain_zeroness(chain_links("x1 + x2"), late),
    ]
    for r in results:
        assert (r.verdict, r.detail) == ("unknown", "time budget exhausted")


# --- sampling helpers -------------------------------------------------------


def test_monomials_upto_count():
    # binomial(n + d, d) exponent tuples
    assert len(_monomials_upto(2, 2)) == 6
    assert len(_monomials_upto(3, 2)) == 10
    assert _monomials_upto(2, 1) == [(0, 0), (0, 1), (1, 0)]


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                min_size=1, max_size=6),
       st.integers(1, 2))
def test_low_degree_vanishing_really_vanishes(pts, degree):
    sring = scalar_ring(QQ)
    cring = ordinary_ring(["p", "q"])
    samples = [(sring.const(a), sring.const(b)) for a, b in pts]
    gens = low_degree_vanishing(sring, None, cring, ("p", "q"),
                                samples, degree)
    assert gens is not None
    for f in gens:
        assert not f.is_zero()
        for a, b in pts:
            assert f.evaluate({"p": Fraction(a), "q": Fraction(b)}) == 0


def test_collect_samples_dedups():
    g = plusminus_grammar()
    samples = collect_samples(ValueTable(g), 5, cap=10)
    assert len(samples["N"]) == 2  # just 1 and -1


# --- rejecting candidates on fresh values ----------------------------------


def _difference_grammar(first, second, letters=None):
    t1, t2 = (parse_transducer((INPUTS / f"{n}.tr").read_text(), name=n)
              for n in (first, second))
    return to_difference_grammar(t1, t2, letters).grammar


def test_proved_certificates_vanish_on_fresh_values():
    # the sampling filter drops a candidate that fails at a derivable
    # value; that is sound only if every proved certificate vanishes at
    # every value, twists and field views included
    sqrev = _difference_grammar("sqrev1", "sqrev2")
    twist = parse_grammar((INPUTS / "twist_demo.pg").read_text(),
                          name="twist_demo")
    rev_a = _difference_grammar("rev", "id", ("a",))
    outer = parse_grammar((INPUTS / "pow_outer.pg").read_text(),
                          name="pow_outer")
    inner = parse_grammar((INPUTS / "pow_inner.pg").read_text(),
                          name="pow_inner")
    cases = [
        (sqrev, certificate_from_obj(
            sqrev, read_json(INPUTS / "sqrev_cert.json"))),
        (twist, zeroness(twist).certificate),
        (rev_a, zeroness(rev_a).certificate),
        (to_field_view(inner), indep_zeroness(outer, inner).invariant),
    ]
    assert any(p.twist is not None for p in twist.productions)
    for g, cert in cases:
        assert check_certificate(g, cert, require_conclusion=False).proved()
        table = ValueTable(g)
        for nt in productive_nonterminals(g):
            gens = cert.ideal_for(nt).gens
            for value, _ in table.values(nt, 4):
                assert all(vanishes_at(g, nt, f, value) for f in gens)


def test_rev_id_binary_witness_needs_no_failing_closure_check(monkeypatch):
    g = _difference_grammar("rev", "id", ("a", "b"))
    verdicts = []

    def counting(*args, **kwargs):
        v = check_certificate(*args, **kwargs)
        verdicts.append(v.kind)
        return v

    monkeypatch.setattr(grammar, "check_certificate", counting)
    r = zeroness(g)
    assert r.verdict == "nonzero"
    assert r.witness.derivation.labels_inside_out(g) == ["b", "a"]
    assert "closure-violation" not in verdicts


# --- the backward chain -----------------------------------------------------


def random_unary_grammar(seed):
    """A seeded unary QQ grammar with one to three nonterminals.

    With one, S iterates a quadratic from a small base value.  With two
    or more, S reads ``c*y0 + d - y1`` off a two-track Y whose second
    track is the first one conjugated by ``t -> c*t + d``, so S is zero
    unless a perturbation breaks the conjugacy at the base value, at
    every step, or only after two steps.  With three, Y may also start
    from a counter Z.
    """
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    vring = scalar_ring(QQ)
    m1, m2 = slot_ring(vring, ["s"]), slot_ring(vring, ["y0", "y1"])
    s, y0, y1 = m1.var("s"), m2.var("y0"), m2.var("y1")
    if k == 1:
        step = (rng.choice([1, -1, 2]) * s * s + rng.choice([0, 1, -2]) * s
                + rng.choice([0, 0, 1]))
        return Grammar(
            {"S": 1}, "S",
            [Production("S", (), const_map(vring, [vring.const(
                rng.choice([0, 0, 1]))])),
             Production("S", ("S",), PolyMap(m1, ("s",), (step,)))], vring)
    c, d = rng.choice([1, 2, -1, 3]), rng.choice([0, 1, -2])
    a, b, e = rng.choice([1, -1, 2]), rng.choice([0, 1, 3]), rng.choice([0, 1, -1])

    def lin(t):
        return c * t + d

    def p(t):
        return a * t * t + b * t + e

    q = lin(p((y1 - d) * Fraction(1, c)))
    base = rng.choice([0, 1, 2, -1])
    kind = rng.choice(["none", "none", "base", "step", "late"])
    if kind == "step":
        q = q + 1
    elif kind == "late":
        q = q + (y1 - lin(base)) * (y1 - lin(p(base)))
    base_values = [base, lin(base) + (kind == "base")]
    nts = {"S": 1, "Y": 2}
    prods = [
        Production("S", ("Y",), PolyMap(m2, ("y0", "y1"), (lin(y0) - y1,))),
        Production("Y", (), const_map(vring, [vring.const(v)
                                              for v in base_values])),
        Production("Y", ("Y",), PolyMap(m2, ("y0", "y1"), (p(y0), q)))]
    if k == 3:
        nts["Z"] = 1
        mz = slot_ring(vring, ["z"])
        z = mz.var("z")
        prods += [
            Production("Z", (), const_map(vring, [vring.const(
                rng.choice([0, 1]))])),
            Production("Z", ("Z",), PolyMap(mz, ("z",), (
                z + rng.choice([1, 2]),))),
            Production("Y", ("Z",), PolyMap(mz, ("z",), (
                z, lin(z) + rng.choice([0, 0, 0, 1]))))]
    return Grammar(nts, "S", prods, vring)


def test_chain_agrees_with_enumeration_on_seeded_grammars():
    verdicts = []
    for seed in range(40):
        g = random_unary_grammar(seed)
        found = grammar._backward_chain(g, time.monotonic() + 30.0)
        all_zero = all(g.value_is_zero(v) for v, _ in enumerate_values(g, 6))
        if isinstance(found, Witness):
            assert found.derivation.replay(g) == found.value
            assert not g.value_is_zero(found.value)
            verdicts.append("nonzero")
        else:
            assert isinstance(found, InvariantCertificate), seed
            assert check_certificate(g, found).proved(), seed
            assert all_zero, seed
            verdicts.append("zero")
    assert verdicts.count("zero") >= 5 and verdicts.count("nonzero") >= 5


def test_chain_decides_twisted_grammars():
    # the exact check shares the pull-back with the chain, so the
    # generators are also evaluated at derived values, where the twist
    # is applied forwards
    demo = parse_grammar((INPUTS / "twist_demo.pg").read_text(),
                         name="twist_demo")
    for g in (twisted_pair_grammar(), demo):
        found = grammar._backward_chain(g, time.monotonic() + 30.0)
        assert isinstance(found, InvariantCertificate)
        assert check_certificate(g, found).proved()
        table = ValueTable(g)
        for nt in productive_nonterminals(g):
            for value, _ in table.values(nt, 4):
                assert all(vanishes_at(g, nt, f, value)
                           for f in found.ideal_for(nt).gens)


def ambient_grammar(offset):
    """N -> x - 1; N -> n*x + offset, zero modulo (x - 1) iff offset is."""
    xring = ordinary_ring(["x"])
    m = slot_ring(xring, ["n"])
    return Grammar(
        {"N": 1}, "N",
        [Production("N", (), const_map(xring, [xring.parse("x - 1")])),
         Production("N", ("N",), PolyMap(
             m, ("n",), (m.var("n") * m.var("x") + m.parse(offset),)))],
        xring, ambient=Ideal(xring, [xring.parse("x - 1")]))


def test_chain_decides_ambient_grammar():
    g = ambient_grammar("x - 1")
    found = grammar._backward_chain(g, time.monotonic() + 30.0)
    assert isinstance(found, InvariantCertificate)
    assert check_certificate(g, found).proved()
    g = ambient_grammar("x")
    found = grammar._backward_chain(g, time.monotonic() + 30.0)
    assert isinstance(found, Witness)
    assert found.derivation.size() == 2
    assert not g.value_is_zero(found.derivation.replay(g))


def test_chain_gives_up_at_a_passed_deadline():
    g = reverse_vs_identity_grammar(["a"])
    assert grammar._backward_chain(g, time.monotonic() - 1.0) is None


def test_binary_grammar_keeps_the_invariant_search(monkeypatch):
    # L -> 0; L -> L * L: not unary, so the chain must not run
    vring = scalar_ring(QQ)
    m = slot_ring(vring, ["u", "v"])
    g = Grammar(
        {"L": 1}, "L",
        [Production("L", (), const_map(vring, [vring.zero()])),
         Production("L", ("L", "L"),
                    PolyMap(m, ("u", "v"), (m.var("u") * m.var("v"),)))],
        vring)
    rounds = []

    def counting(table):
        rounds.append(table.g)
        return closure_rounds(table)

    def refuse(*args):
        raise AssertionError("backward chain run on a binary grammar")

    monkeypatch.setattr(grammar, "closure_rounds", counting)
    monkeypatch.setattr(grammar, "_backward_chain", refuse)
    r = zeroness(g, SMALL)
    assert r.verdict == "zero"
    assert check_certificate(g, r.certificate).proved()
    assert rounds == [g]


# --- maps applied in their value ring, against convert-substitute-convert ---


def reference_apply(f, args):
    vring = f.value_ring
    mapping = {s: a.convert(f.ring) for s, a in zip(f.slots, args)}
    return tuple(p.substitute(mapping).convert(vring) for p in f.outputs)


def reference_vanishes_at(g, nt, f, value):
    cring = g.cert_ring(nt)
    binding = {c: v.convert(cring) for c, v in zip(g.coord_names(nt), value)}
    res = f.convert(cring).substitute(binding).convert(g.ring)
    return g.value_is_zero((res,))


def reference_low_degree_vanishing(value_ring, ambient, cring, coord_names,
                                   samples, degree):
    coord_pos = {n: j for j, n in enumerate(coord_names)}
    names = cring.names()
    monos = _monomials_upto(len(names), degree)
    evals = []
    for sample in samples:
        row_polys = []
        for exps in monos:
            p = value_ring.one()
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                if names[i] in coord_pos:
                    p = p * sample[coord_pos[names[i]]] ** e
                else:
                    p = p * value_ring.var(names[i], e)
            if ambient is not None:
                p = ambient.reduce(p)
            row_polys.append(p)
        evals.append(row_polys)
    xmonos = sorted({m for row in evals for p in row for m in p.terms})
    field = value_ring.field
    rows = [[p.coeff_of(xm) for p in row] for row in evals for xm in xmonos]
    kernel = kernel_basis(rows, len(monos), field)
    if len(kernel) > 12:
        return None
    return [cring.from_terms({
        Monomial((i, e) for i, e in enumerate(monos[j]) if e): c
        for j, c in enumerate(vec) if not field.is_zero(c)}) for vec in kernel]


MAP_PARAMS = ordinary_ring(["a", "b"])
# QQ with an ordinary and a bar value variable, and Q(a, b) with one
MAP_VALUE_RINGS = [
    PolyRing(VarTable.make([("x", VarKind.ORDINARY), ("ab", VarKind.BAR)])),
    PolyRing(VarTable.make([("x", VarKind.ORDINARY)]), FractionField(MAP_PARAMS)),
]


@st.composite
def map_polys(draw, ring, max_terms=3):
    """A polynomial over ring, fractional exponents on bar variables."""
    vt = ring.vartable
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = Monomial(
            (i, draw(st.integers(0, 2)) if vt.kind_of(i) is VarKind.ORDINARY
             else Fraction(draw(st.integers(0, 3)), 2)) for i in range(len(vt)))
        if isinstance(ring.field, FractionField):
            num = MAP_PARAMS.from_terms({Monomial([(draw(st.integers(0, 1)), 1)]):
                                         draw(st.integers(-2, 2))})
            terms[mono] = RatFunc.of(num + draw(st.integers(-2, 2)),
                                     MAP_PARAMS.var("a") + draw(st.integers(1, 2)))
        else:
            terms[mono] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    return ring.from_terms(terms)


@st.composite
def map_cases(draw):
    vring = draw(st.sampled_from(MAP_VALUE_RINGS))
    mring = slot_ring(vring, ["s", "t"])
    f = PolyMap(mring, ("s", "t"), (draw(map_polys(mring)), draw(map_polys(mring))))
    values = draw(st.lists(st.tuples(map_polys(vring, 2), map_polys(vring, 2)),
                           min_size=1, max_size=3))
    ambient = (Ideal(vring, [vring.parse("x - 1")])
               if draw(st.booleans()) else None)
    # degree 1 over Q(a, b): the kernel of a degree-2 sample matrix there,
    # 15 rows by 10 columns, took 75 s and more to eliminate
    degree = draw(st.integers(1, 2)) if vring is MAP_VALUE_RINGS[0] else 1
    return vring, f, values, ambient, degree


@settings(max_examples=60, deadline=None)
@given(map_cases(), st.data())
def test_maps_in_their_value_ring_match_convert_substitute_convert(case, data):
    vring, f, values, ambient, degree = case
    for args in values:
        assert f.apply(args) == reference_apply(f, args)
    g = Grammar({"N": 2}, "N", [Production("N", (), const_map(vring, values[0]))],
                vring, ambient)
    cring = g.cert_ring("N")
    coords = g.coord_names("N")
    for value in values:
        h = data.draw(map_polys(cring))
        # a multiple of z0 - value[0] vanishes there
        for p in (h, h * (cring.var(coords[0]) - value[0].convert(cring))):
            assert vanishes_at(g, "N", p, value) == \
                reference_vanishes_at(g, "N", p, value)
    assert low_degree_vanishing(vring, ambient, cring, coords, values, degree) == \
        reference_low_degree_vanishing(vring, ambient, cring, coords, values, degree)
