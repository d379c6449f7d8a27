"""Grammar model, enumeration, certificates, and the zeroness drivers."""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from polyzero import grammar
from polyzero.dsl import parse_grammar, parse_transducer
from polyzero.encoding import Automorphism, PolySubst, encode_ring
from polyzero.errors import CertificateError, DimensionError, StructureError
from polyzero.groebner import Ideal
from polyzero.grammar import (
    Budgets, ChainResult, Derivation, Grammar, InvariantCertificate,
    Production, ValueTable, Witness, attach_polymap, chain_zeroness, check_certificate,
    closure_rounds, collect_samples, enumerate_values, forward_closure,
    indep_zeroness, low_degree_vanishing, nonzero_search,
    productive_nonterminals, strip_twists, to_field_view, vanishes_at,
    zeroness, _monomials_upto,
)
from polyzero.poly import (
    EMPTY_VARTABLE, FractionField, Mode, PolyMap, PolyRing, QQ, RatFunc,
    VarKind, VarTable, map_ring_over, ordinary_ring, scalar_ring,
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


def test_forward_closure_kleene_stabilizes():
    g = plusminus_grammar()
    cert = forward_closure(g, max_iterations=6)
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
    alpha.verify_roundtrip()
    return alpha


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


def test_twisted_zeroness_and_strip():
    g = twisted_pair_grammar()
    r = zeroness(g, SMALL)
    assert r.verdict == "zero"
    assert check_certificate(g, r.certificate).proved()
    g2 = strip_twists(g)
    vals = [v for v, _ in enumerate_values(g2, 3, nonterminal="M")]
    assert vals[0] == vals[1]  # without the twist the step is the identity


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


# --- substitution chains ----------------------------------------------------


def chain_links(head_expr):
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
    head = Grammar(
        {"A": 1}, "A",
        [Production("A", (), const_map(xring, [xring.parse(head_expr)]))],
        xring)
    return [head, mid, inner]


def test_chain_zeroness_three_links():
    r = chain_zeroness(chain_links("x1 - x2"), SMALL)
    assert r.verdict == "zero"
    assert [str(f) for f in r.invariant_gens] == ["_t0 - _t1"]
    assert all(lr.verdict == "zero" for lr in r.link_results)
    assert r.quotient_result.verdict == "zero"


def test_chain_zeroness_refuted():
    r = chain_zeroness(chain_links("x1 + x2"), SMALL)
    assert r.verdict == "nonzero"
    assert r.witness_value is not None
    assert not r.witness_value[0].is_zero()


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
                                samples, degree, kernel_cap=50)
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


def test_slot_wired_grammar_still_refuses_certificates():
    # Z runs (0, 0), (1, 0), (2, 1), ...; the round-0 candidate z2 fails
    # at size 3, but slot wiring must reach check_certificate unfiltered
    vring = scalar_ring(QQ)
    m = slot_ring(vring, ["z1", "z2"])
    z1, z2 = m.var("z1"), m.var("z2")
    g = Grammar(
        {"S": 1, "Z": 2}, "S",
        [Production("Z", (), const_map(vring, [vring.zero(), vring.zero()])),
         Production("Z", ("Z",), PolyMap(m, ("z1", "z2"), (z1 + 1, z1 + z2)),
                    slot_sources=((0, None), (1, None))),
         Production("S", ("Z",), PolyMap(m, ("z1", "z2"), (z1 - z1,)))],
        vring)
    with pytest.raises(CertificateError):
        zeroness(g, Budgets(size=6, iters=2, seconds=30.0))


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
