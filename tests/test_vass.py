"""Reset VASS model, normalization, the brute-force oracle, and the
compilation into a numeric register transducer over Z[x]."""

from __future__ import annotations

import cProfile
import pstats
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polyzero import vass
from polyzero.errors import DomainError, StructureError
from polyzero.poly import Poly, ordinary_ring
from polyzero.vass import (AddVector, NAdd, NConst, NMul, NReg, NSubstX, NX,
                           NumericTransducer, ResetSet, ResetVass,
                           _lift, brute_force_reach, compile_num, compile_to_transducer,
                           counters_of, normalize, run_endpoint, run_is_valid,
                           small_family, word_of_run)
from polyzero.vass import _emit, _int_registers, _is_int, _kernel, _mul


def loop_machine(dim: int, effects, accepting=("q0",)) -> ResetVass:
    trans = [("q0", eff, "q0") for eff in effects]
    return ResetVass(dim, ("q0",), "q0", accepting, trans)


def up(k: int, dim: int) -> AddVector:
    d = [0] * dim
    d[k - 1] = 1
    return AddVector(tuple(d))


def down(k: int, dim: int) -> AddVector:
    d = [0] * dim
    d[k - 1] = -1
    return AddVector(tuple(d))


# ---------------------------------------------------------------------------
# model and validation


def test_validation_rejects_bad_machines():
    with pytest.raises(StructureError):
        ResetVass(1, ("q0", "q0"), "q0", (), ())
    with pytest.raises(StructureError):
        ResetVass(1, ("_q",), "_q", (), ())
    with pytest.raises(StructureError):
        ResetVass(1, ("q0",), "q1", (), ())
    with pytest.raises(StructureError):
        ResetVass(2, ("q0",), "q0", (), [("q0", AddVector((1,)), "q0")])
    with pytest.raises(StructureError):
        ResetVass(1, ("q0",), "q0", (), [("q0", ResetSet(frozenset({2})), "q0")])
    with pytest.raises(StructureError):
        ResetVass(1, ("q0",), "q0", (), [("q0", AddVector((1,)), "q9")])


def test_letters_name_transitions():
    v = loop_machine(1, [up(1, 1), down(1, 1)])
    assert v.letters() == ("t0", "t1")


# ---------------------------------------------------------------------------
# normalization


def test_normalize_plus_two_splits():
    # single +2 step becomes two chained +e1 steps
    v = ResetVass(1, ("q0", "q1"), "q0", ("q1",),
                  [("q0", AddVector((2,)), "q1")])
    n = normalize(v)
    assert n.is_normalized()
    assert len(n.transitions) == 2
    (s0, e0, t0), (s1, e1, t1) = n.transitions
    assert (s0, t1) == ("q0", "q1")
    assert e0 == AddVector((1,)) and e1 == AddVector((1,))
    assert t0 == s1 and t0 not in v.states


def test_normalize_mixed_vector_order():
    # (+1, -1) splits in declared-coordinate order: +e1 then -e2
    v = ResetVass(2, ("q0",), "q0", ("q0",),
                  [("q0", AddVector((1, -1)), "q0")])
    n = normalize(v)
    effects = [e for _, e, _ in n.transitions]
    assert effects == [AddVector((1, 0)), AddVector((0, -1))]


def test_normalize_keeps_unit_and_reset():
    v = loop_machine(2, [up(2, 2), ResetSet(frozenset({1, 2}))])
    assert normalize(v) .transitions == v.transitions
    assert v.is_normalized()


def test_normalize_zero_vector_becomes_empty_reset():
    v = loop_machine(1, [AddVector((0,))])
    n = normalize(v)
    assert n.transitions == (("q0", ResetSet(frozenset()), "q0"),)


def random_general_vass(rng: random.Random) -> ResetVass:
    dim = rng.randint(1, 2)
    states = tuple(f"q{i}" for i in range(rng.randint(1, 2)))
    accepting = tuple(q for q in states if rng.random() < 0.7)
    trans = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            coords = frozenset({rng.randint(1, dim)})
            eff = ResetSet(coords)
        else:
            eff = AddVector(tuple(rng.randint(-2, 2) for _ in range(dim)))
        trans.append((rng.choice(states), eff, rng.choice(states)))
    return ResetVass(dim, states, states[0], accepting, trans)


def chain_bound(v: ResetVass) -> int:
    worst = 1
    for _, eff, _ in v.transitions:
        if isinstance(eff, AddVector):
            worst = max(worst, sum(abs(d) for d in eff.delta))
    return worst


def test_normalize_preserves_reachability_against_brute_force():
    rng = random.Random(7)
    for _ in range(40):
        v = random_general_vass(rng)
        n = normalize(v)
        assert n.is_normalized()
        bound = 3 * chain_bound(v)
        for ms in (0, 1):
            orig_short = brute_force_reach(v, 3, min_steps=ms)
            norm_long = brute_force_reach(n, bound, min_steps=ms)
            if orig_short.reachable:
                assert norm_long.reachable
            orig_long = brute_force_reach(v, bound, min_steps=ms)
            if norm_long.reachable:
                assert orig_long.reachable
                assert run_is_valid(n, norm_long.run)
                state, vec = run_endpoint(n, norm_long.run)
                assert state in n.accepting and not any(vec)


# ---------------------------------------------------------------------------
# brute-force oracle


def test_reach_increment_then_reset():
    # two-state loop: +e1 to q1, reset back; shortest positive run has
    # 2 steps  [DERIVED: +1 then reset]
    v = ResetVass(1, ("q0", "q1"), "q0", ("q0",),
                  [("q0", up(1, 1), "q1"),
                   ("q1", ResetSet(frozenset({1})), "q0")])
    res = brute_force_reach(v, 5, min_steps=1)
    assert res.reachable and res.run == (0, 1)
    assert brute_force_reach(v, 5, min_steps=0).run == ()


def test_reach_only_increment_never_returns():
    # counter strictly positive after any step
    v = loop_machine(1, [up(1, 1)])
    assert not brute_force_reach(v, 6, min_steps=1).reachable


def test_reach_empty_run():
    v = loop_machine(1, [up(1, 1)])
    assert brute_force_reach(v, 0, min_steps=0) == \
        brute_force_reach(v, 6, min_steps=0)
    assert brute_force_reach(v, 0, min_steps=0).run == ()
    not_acc = loop_machine(1, [up(1, 1)], accepting=())
    assert not brute_force_reach(not_acc, 6, min_steps=0).reachable


def test_reach_rejects_deep_min_steps():
    v = loop_machine(1, [up(1, 1)])
    with pytest.raises(DomainError):
        brute_force_reach(v, 3, min_steps=2)


def test_reach_respects_nonnegativity():
    # -e1 first is blocked, so the only return is +1 then -1
    v = loop_machine(1, [down(1, 1), up(1, 1)])
    res = brute_force_reach(v, 4, min_steps=1)
    assert res.reachable and res.run == (1, 0)


# ---------------------------------------------------------------------------
# compilation: frozen examples


def test_r1_after_three_steps_is_falling_product():
    # R1 = (x-1)(x-2)(x-3) after three valid steps
    v = loop_machine(1, [up(1, 1)])
    t = compile_to_transducer(v)
    ring = t.ring
    x = ring.var("x")
    trace = t.trace(["t0", "t0", "t0"])
    state, vals = trace[-1]
    assert state == "q0"
    expected = (x - ring.const(1)) * (x - ring.const(2)) * (x - ring.const(3))
    assert vals["R1"] == expected
    assert vals["R1aux"] == ring.const(3)


def test_r2_zero_after_dip_and_stays_zero():
    # dipping a counter below zero zeroes R2 for good
    v = loop_machine(1, [down(1, 1), up(1, 1)])
    t = compile_to_transducer(v)
    trace = t.trace(["t0", "t1", "t1"])
    r2_values = [vals["R2"] for _, vals in trace]
    assert not r2_values[0].is_zero()
    assert all(v.is_zero() for v in r2_values[1:])


def test_empty_input_output_constant():
    # empty word: output nonzero constant iff initial state accepts
    acc = compile_to_transducer(loop_machine(1, [up(1, 1)]))
    rej = compile_to_transducer(loop_machine(1, [up(1, 1)], accepting=()))
    assert acc.run(()) == acc.ring.one()
    assert rej.run(()).is_zero()


def test_compile_rejects_unnormalized():
    v = loop_machine(1, [AddVector((2,))])
    with pytest.raises(StructureError):
        compile_to_transducer(v)


def test_mismatched_transition_goes_to_error():
    v = ResetVass(1, ("q0", "q1"), "q0", ("q0",),
                  [("q0", up(1, 1), "q1"),
                   ("q1", ResetSet(frozenset({1})), "q0")])
    t = compile_to_transducer(v)
    # t1 leaves q1, not q0, so firing it first derails the run
    trace = t.trace(["t1", "t0", "t1"])
    assert [s for s, _ in trace] == ["q0", "_err", "_err", "_err"]
    assert t.run(["t1", "t0", "t1"]).is_zero()
    # registers freeze on the way into the error state
    assert trace[-1][1] == trace[1][1]


def test_output_zero_iff_not_a_zero_return():
    v = ResetVass(1, ("q0", "q1"), "q0", ("q0",),
                  [("q0", up(1, 1), "q1"),
                   ("q1", ResetSet(frozenset({1})), "q0")])
    t = compile_to_transducer(v)
    assert not t.run(["t0", "t1"]).is_zero()      # +1, reset: back at zero
    assert t.run(["t0"]).is_zero()                # q1 rejects
    res = brute_force_reach(v, 4, min_steps=1)
    assert not t.run(word_of_run(v, res.run)).is_zero()


# ---------------------------------------------------------------------------
# register invariants of the compiled transducer, property-tested on
# sampled words


FAMILY = small_family(count=15, seed=3)


def integer_walk(v: ResetVass, word):
    """Ground-truth simulation: per-prefix state, Z-coordinates, and a
    dip flag; stops at the first state mismatch."""
    state, vec, dipped = v.initial, (0,) * v.dim, False
    steps = [(state, vec, dipped)]
    for idx in word:
        src, eff, tgt = v.transitions[idx]
        if src != state:
            break
        vec = tuple(c + d for c, d in zip(vec, eff.delta)) \
            if isinstance(eff, AddVector) else \
            tuple(0 if (i + 1) in eff.coords else c for i, c in enumerate(vec))
        dipped = dipped or any(c < 0 for c in vec)
        state = tgt
        steps.append((state, vec, dipped))
    return steps


@settings(max_examples=120, deadline=None)
@given(st.integers(0, len(FAMILY) - 1),
       st.lists(st.integers(0, 9), max_size=6))
def test_register_invariants_on_random_walks(pick, raw_word):
    v = FAMILY[pick]
    word = [i % len(v.transitions) for i in raw_word]
    t = compile_to_transducer(v)
    trace = t.trace(word_of_run(v, word))
    walk = integer_walk(v, word)
    for n, (state, vec, dipped) in enumerate(walk):
        tstate, vals = trace[n]
        assert tstate == state
        # invariant 1: counter registers are the Z-VASS coordinates
        assert counters_of(t, vals) == vec
        # invariant 2: R2 = 0 exactly when some coordinate dipped below 0
        assert vals["R2"].is_zero() == dipped
        # invariant 3a/3b: R1 = (x-1)...(x-n), so it vanishes on 1..n
        # and nowhere else in [0, n]; R1aux counts the steps
        assert vals["R1aux"] == t.ring.const(n)
        for i in range(n + 1):
            root = vals["R1"].evaluate({"x": Fraction(i)}) == 0
            assert root == (i != 0)
        if not dipped:
            # invariant 3: the output-side test detects the zero vector
            total = Fraction(sum(vec))
            assert (vals["R1"].evaluate({"x": total}) != 0) == (not any(vec))


def all_words(n_letters: int, up_to: int):
    frontier = [()]
    for _ in range(up_to + 1):
        for w in frontier:
            yield w
        frontier = [w + (i,) for w in frontier for i in range(n_letters)]
        if not frontier:
            return


def test_end_to_end_agreement_with_oracle():
    # output != 0 iff the word is a valid run ending at the zero vector
    # in an accepting state
    for v in FAMILY[:8]:
        t = compile_to_transducer(v)
        for word in all_words(len(v.transitions), 4):
            out = t.run(word_of_run(v, word))
            valid = run_is_valid(v, word)
            state, vec = run_endpoint(v, word)
            hit = valid and state in v.accepting and not any(vec)
            assert out.is_zero() != hit, (v.name, word)


def reference_value(expr, vals, ring) -> Poly:
    """Every value a Poly, substitution through Poly.substitute."""
    if isinstance(expr, NConst):
        return ring.const(expr.value)
    if isinstance(expr, NX):
        return ring.var("x")
    if isinstance(expr, NReg):
        return vals[expr.name]
    if isinstance(expr, NAdd):
        return (reference_value(expr.left, vals, ring)
                + reference_value(expr.right, vals, ring))
    if isinstance(expr, NMul):
        return (reference_value(expr.left, vals, ring)
                * reference_value(expr.right, vals, ring))
    if isinstance(expr, NSubstX):
        body = reference_value(expr.body, vals, ring)
        return body.substitute(
            {"x": reference_value(expr.replacement, vals, ring)})
    raise TypeError(expr)


def reference_run(t, word):
    """Per-prefix (state, valuation), and the output, interpreted afresh."""
    state, vals = t.initial_state, dict(t.init)
    steps = [(state, vals)]
    for letter in word:
        state, upd = t.transitions[(state, letter)]
        vals = {r: reference_value(upd[r], vals, t.ring) if r in upd else vals[r]
                for r in t.registers}
        steps.append((state, vals))
    return steps, reference_value(t.outputs[state], vals, t.ring)


def assert_identical(got: Poly, want: Poly, ring) -> None:
    assert isinstance(got, Poly) and got.ring is ring
    assert got.terms == want.terms and hash(got) == hash(want)
    assert all(type(c) is int for c in got.terms.values())


def test_compiled_values_match_the_reference_interpreter():
    # resumed runs and traces give exactly the Poly values of a plain
    # interpreter: same terms, int coefficients, same hash
    rng = random.Random(12)
    for v in FAMILY[:8]:
        t = compile_to_transducer(v)
        words = [word_of_run(v, w) for w in all_words(len(v.transitions), 4)]
        rng.shuffle(words)
        for word in words:
            steps, out = reference_run(t, word)
            assert_identical(t.run(word), out, t.ring)
            trace = t.trace(word)
            assert [s for s, _ in trace] == [s for s, _ in steps]
            for (_, got), (_, want) in zip(trace, steps):
                assert set(got) == set(want)
                for r in want:
                    assert_identical(got[r], want[r], t.ring)
        assert all(isinstance(p, Poly) for p in t.init.values())


def test_substitution_at_int_and_poly_replacements():
    ring = ordinary_ring(("x",))
    x = ring.var("x")
    p = (x - 1) * (x - 2) * (x**3 + 5)
    subst = compile_num(NSubstX(NReg("R"), NReg("S")), ring)
    for s in (-2, 0, 3):
        assert subst({"R": p, "S": s}) == p.evaluate({"x": Fraction(s)})
        assert subst({"R": 7, "S": s}) == 7
    for image in (x + 3, x * x - 2, ring.zero()):
        got = subst({"R": p, "S": image})
        assert got.terms == p.substitute({"x": image}).terms


@settings(max_examples=100, deadline=None)
@given(st.one_of(st.integers(-3, 3),
                 st.lists(st.integers(-2, 2), min_size=1, max_size=4).map(
                     lambda cs: (*cs, 1))))
@example((-1, 0, 1))
@example(0)
def test_lifted_values_hold_no_zero_coefficient(v):
    # a dense value can hold inner zeros, a Poly term never does
    ring = ordinary_ring(("x",))
    p = _lift(ring, v)
    assert all(p.terms.values())
    coeffs = (v,) if isinstance(v, int) else v
    assert p == sum((c * ring.var("x") ** i for i, c in enumerate(coeffs)), ring.zero())


# ---------------------------------------------------------------------------
# the dense arithmetic over Z[x], property-tested against the interpreter


ZX = ordinary_ring(("x",))
REGS = ("R1", "R1aux", "R2", "S1")


def dense(p: Poly):
    """The documented internal form of an element of Z[x]: an ``int``
    for a constant, else its coefficients, lowest degree first, with no
    trailing zeros."""
    coeffs = [0] * (max((m.exp(0) for m in p.terms), default=0) + 1)
    for m, c in p.terms.items():
        coeffs[m.exp(0)] = c
    return coeffs[0] if len(coeffs) == 1 else tuple(coeffs)


def cancelling(e, c):
    """e + c - e, whose value is the constant c."""
    return NAdd(NAdd(e, NConst(c)), NMul(NConst(-1), e))


num_exprs = st.recursive(
    st.one_of(st.integers(-3, 3).map(NConst), st.just(NX()),
              st.sampled_from(REGS).map(NReg)),
    lambda kids: st.one_of(
        st.builds(NAdd, kids, kids), st.builds(NMul, kids, kids),
        st.builds(NSubstX, kids, kids),
        st.builds(cancelling, kids, st.integers(-2, 2))),
    max_leaves=8)
zx_polys = st.lists(st.integers(-3, 3), max_size=4).map(
    lambda cs: sum((c * ZX.var("x") ** i for i, c in enumerate(cs)), ZX.zero()))
valuations = st.fixed_dictionaries(
    {r: st.one_of(st.integers(-4, 4), zx_polys) for r in REGS})

X, ONE = NX(), NConst(1)
X_MINUS_X = NAdd(X, NMul(NConst(-1), X))
SQUARE_CANCELS = NAdd(NAdd(NMul(NAdd(X, ONE), X), NMul(NConst(-1), NMul(X, X))),
                      NMul(NConst(-1), X))  # (x+1)*x - x*x - x
SOME_VALS = {"R1": ZX.parse("x^2 - 3*x + 2"), "R1aux": 2, "R2": ZX.zero(),
             "S1": ZX.parse("x + 1")}


@settings(max_examples=200, deadline=None)
@given(num_exprs, valuations)
@example(X_MINUS_X, SOME_VALS)
@example(SQUARE_CANCELS, SOME_VALS)
@example(NAdd(SQUARE_CANCELS, NConst(4)), SOME_VALS)
@example(NSubstX(NReg("R1"), X_MINUS_X), SOME_VALS)
@example(NSubstX(NReg("R1"), NReg("S1")), SOME_VALS)
@example(NSubstX(NReg("R1"), NReg("R1aux")), SOME_VALS)
@example(NMul(NReg("R1"), NReg("R2")), SOME_VALS)
@example(NAdd(NMul(NReg("S1"), NReg("S1")), NMul(NConst(-1), NMul(X, X))),
         SOME_VALS)
def test_dense_values_match_the_reference_interpreter(expr, vals):
    # compile_num, run and step agree with the Poly interpreter, at int
    # and at Poly register values, through cancellations to constants
    # and to zero
    lifted = {r: ZX.const(v) if isinstance(v, int) else v
              for r, v in vals.items()}
    want = reference_value(expr, lifted, ZX)
    assert_identical(compile_num(expr, ZX)(vals), want, ZX)
    t = NumericTransducer(("a",), REGS, lifted, ("q",), "q", (),
                          {("q", "a"): ("q", {"R1": expr})}, {"q": expr}, ZX)
    assert_identical(t.run(()), want, ZX)
    _, after = t.step("q", "a", {r: dense(p) for r, p in lifted.items()})
    assert after["R1"] == dense(want)
    assert type(after["R1"]) is (int if want.is_constant() else tuple)


def test_compiled_kernels_compute_each_shared_node_once():
    # R1aux + 1 is R1's root and R1aux's update, a changed counter is
    # read again by R2's guard, and a reset counter's guard factor 0 + 1
    # is dropped from the product
    v = loop_machine(2, [up(1, 2), ResetSet(frozenset({2})), down(2, 2)])
    inc, reset, dec = (kernel.source for _, kernel in
                       compile_to_transducer(v)._steps["q0"].values())
    for src in (inc, reset, dec):
        assert src.count("v['R1aux'] + (1)") == 1 and "'R1aux': c0" in src
    assert inc.count("v['S1'] + (1)") == 1 and "'S1': c1" in inc
    assert dec.count("v['S2'] + (-1)") == 1 and "'S2': c1" in dec
    assert "'R2': (v['R2'] * (v['S1'] + (1)))" in reset
    assert ":=" not in compile_to_transducer(v)._outputs["q0"].source


@st.composite
def shared_updates(draw):
    """An update of every register, whose expressions share nodes: each
    is drawn from a pool of expressions and sums, products and
    substitutions of earlier pool members."""
    pool = draw(st.lists(num_exprs, min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 5))):
        node = draw(st.sampled_from([NAdd, NMul, NSubstX]))
        pool.append(node(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return {r: draw(st.sampled_from(pool)) for r in REGS}


S1_PLUS_1 = NAdd(NReg("S1"), ONE)


@settings(max_examples=200, deadline=None)
@given(shared_updates(), valuations)
# a shared node first met where the source runs only conditionally:
# left of a zero R2, and the replacement of an int body
@example({"R1": NMul(S1_PLUS_1, NReg("R2")), "R1aux": S1_PLUS_1,
          "R2": NReg("R2"), "S1": S1_PLUS_1}, SOME_VALS)
@example({"R1": NSubstX(NReg("R1aux"), S1_PLUS_1), "R1aux": NReg("R1aux"),
          "R2": S1_PLUS_1, "S1": NMul(S1_PLUS_1, S1_PLUS_1)}, SOME_VALS)
@example({"R1": NMul(NReg("R1"), NAdd(NConst(0), ONE)), "R1aux": NMul(ONE, X),
          "R2": NReg("R2"), "S1": NReg("S1")}, SOME_VALS)
def test_steps_with_shared_nodes_match_the_reference_interpreter(upd, vals):
    # every register's new value, each shared node bound once at most
    lifted = {r: ZX.const(v) if isinstance(v, int) else v
              for r, v in vals.items()}
    t = NumericTransducer(("a",), REGS, lifted, ("q",), "q", (),
                          {("q", "a"): ("q", upd)}, {"q": NConst(0)}, ZX)
    _, after = t.step("q", "a", {r: dense(p) for r, p in lifted.items()})
    for r, e in upd.items():
        assert after[r] == dense(reference_value(e, lifted, ZX)), r
    names = re.findall(r"\b(c\d+) := ", t._steps["q"]["a"][1].source)
    assert len(names) == len(set(names)) <= len(vass._shared(upd.values()))


def test_register_made_polynomial_on_one_transition_only():
    # S1 starts constant and only (q0, a) makes it a polynomial; R2 reads
    # S1 and so drops out of the int registers a round later, while R1
    # and R1aux stay int: S1[x := R1aux] is an integer
    s1, r1aux, r2 = NReg("S1"), NReg("R1aux"), NReg("R2")
    transitions = {
        ("q0", "a"): ("q1", {"S1": NMul(s1, NX())}),
        ("q0", "b"): ("q0", {"S1": NAdd(s1, NConst(-1)),
                             "R1aux": NAdd(r1aux, NConst(1))}),
        ("q1", "a"): ("q0", {"R2": NMul(r2, NAdd(s1, NConst(1))),
                             "R1": NSubstX(s1, r1aux)}),
        ("q1", "b"): ("q1", {}),
    }
    outputs = {"q0": NMul(NSubstX(r2, NAdd(r1aux, NConst(1))), NReg("R1")),
               "q1": NAdd(s1, r2)}
    init = {"R1": ZX.one(), "R1aux": ZX.zero(), "R2": ZX.one(),
            "S1": ZX.const(2)}
    t = NumericTransducer(("a", "b"), REGS, init, ("q0", "q1"), "q0",
                          ("q0",), transitions, outputs, ZX)
    kernel = t._steps["q1"]["a"][1]
    assert "_mul(v['R2'], _add(v['S1'], (1)))" in kernel.source
    assert "'R1': _at(v['S1'], v['R1aux'])" in kernel.source
    assert "(v['R1aux'] + (1))" in t._steps["q0"]["b"][1].source
    words = [tuple("ab"[i] for i in w) for w in all_words(2, 4)]
    random.Random(21).shuffle(words)
    for word in words:
        steps, out = reference_run(t, word)
        assert_identical(t.run(word), out, ZX)
        trace = t.trace(word)
        assert [s for s, _ in trace] == [s for s, _ in steps]
        for (_, got), (_, want) in zip(trace, steps):
            assert set(got) == set(want)
            for r in want:
                assert_identical(got[r], want[r], ZX)


@pytest.mark.parametrize("bad", [NConst("1"), NConst(Fraction(1, 2)),
                                 NConst(True), NReg(1)])
def test_only_int_constants_and_str_registers_are_compiled(bad):
    # the generated source holds nothing but int constants, the helpers
    # and repr'd register names
    for expr in (NAdd(NReg("S1"), bad), NSubstX(NConst(1), bad)):
        with pytest.raises(StructureError):
            compile_num(expr, ZX)
        init = {r: ZX.one() for r in REGS}
        for upd, out in (({"S1": expr}, NConst(0)), ({}, expr)):
            with pytest.raises(StructureError):
                NumericTransducer(("a",), REGS, init, ("q",), "q", (),
                                  {("q", "a"): ("q", upd)}, {"q": out}, ZX)


def test_machines_of_one_shape_share_their_kernels():
    # the same effects on differently named states generate the same
    # sources, so the second machine reuses the first one's functions
    effects = [up(1, 2), down(2, 2)]
    one = compile_to_transducer(loop_machine(2, effects))
    two = compile_to_transducer(ResetVass(
        2, ("p",), "p", ("p",), [("p", eff, "p") for eff in effects]))
    assert one._outputs["q0"] is two._outputs["p"]
    # the error state's output is the constant 0, a Poly and no function
    assert one._outputs["_err"] == two._outputs["_err"] == ZX.zero()
    for q, p in (("q0", "p"), ("_err", "_err")):
        for a, (_, kernel) in one._steps[q].items():
            assert two._steps[p][a][1] is kernel
            assert kernel.__code__.co_filename == "<vass kernel>"
            assert kernel.source.startswith("lambda v: ")
    assert one._outputs["q0"].source == "lambda v: " \
        "(v['R2'] and (_at(v['R1'], (v['S1'] + v['S2'])) * v['R2']))"


def test_numeric_transducer_needs_the_ring_of_x():
    t = compile_to_transducer(loop_machine(1, [up(1, 1)]))
    with pytest.raises(StructureError):
        NumericTransducer(t.letters, t.registers, t.init, t.states,
                          t.initial_state, t.accepting, t.transitions,
                          t.outputs, ordinary_ring(("x", "y")))


def test_family_is_deterministic():
    a = small_family(count=6, seed=11)
    b = small_family(count=6, seed=11)
    assert [m.transitions for m in a] == [m.transitions for m in b]
    assert [m.states for m in a] == [m.states for m in b]


# ---------------------------------------------------------------------------
# runs that share a trie of reached valuations


def test_resumed_runs_agree_with_fresh_machines():
    # shuffled words diverge at every depth; traces and raising words
    # are interleaved with the runs
    rng = random.Random(5)
    for v in FAMILY[:5]:
        t = compile_to_transducer(v)
        words = [word_of_run(v, w) for w in all_words(len(v.transitions), 3)]
        rng.shuffle(words)
        for n, word in enumerate(words):
            fresh = compile_to_transducer(v)
            if n % 3 == 0:
                assert t.trace(word) == fresh.trace(word), (v.name, word)
            else:
                assert t.run(word) == fresh.run(word), (v.name, word)
            if n % 4 == 0 and word:
                bad = word[:-1] + ("zz",) + word[-1:]
                for _ in range(2):  # the same bad word raises again
                    with pytest.raises(DomainError):
                        t.run(bad)


def test_each_distinct_prefix_is_stepped_once():
    # shuffled words up to length 4, raising words interleaved: a step
    # returns once per distinct nonempty prefix run, a raising word's
    # valid prefix included, and the outputs are a fresh machine's
    rng = random.Random(8)
    for v in FAMILY[:5]:
        t = compile_to_transducer(v)
        done, raised = [], []
        step = t.step

        def counted(state, letter, vals):
            raised.append(letter)
            out = step(state, letter, vals)
            done.append(raised.pop())
            return out

        t.step = counted
        words = [word_of_run(v, w) for w in all_words(len(v.transitions), 4)]
        rng.shuffle(words)
        prefixes, bad_runs = set(), 0
        for n, word in enumerate(words):
            fresh = compile_to_transducer(v)
            assert t.run(word) == fresh.run(word), (v.name, word)
            prefixes.update(word[:k] for k in range(1, len(word) + 1))
            if n % 5 == 0 and word:
                bad = word[:-1] + ("zz",) + word[-1:]
                with pytest.raises(DomainError):
                    t.run(bad)
                bad_runs += 1
                prefixes.update(word[:k] for k in range(1, len(word)))
        assert len(done) == len(prefixes), v.name
        assert raised == ["zz"] * bad_runs


def test_failed_run_keeps_the_resume_point():
    v = loop_machine(1, [up(1, 1), down(1, 1)])
    t = compile_to_transducer(v)
    four = t.ring.const(4)  # R1 = (x-1)(x-2) at x = 0, times R2 = 2 * 1
    assert t.run(["t0", "t1"]) == four
    with pytest.raises(DomainError):
        t.run(["t0", "zz"])
    assert t.run(["t0", "t1"]) == four
    for _ in range(2):
        with pytest.raises(DomainError):
            t.trace(["t0", "zz", "t1"])
    with pytest.raises(DomainError):
        t.run(["t0", "zz"])
    with pytest.raises(DomainError):
        t.trace(["t0", "t1", "zz"])
    assert t.run(["t0", "t1"]) == four
    # trace hands out copies: editing them does not reach later runs
    steps = t.trace(["t0", "t1"])
    steps[-1][1]["R2"] = t.ring.zero()
    steps[1][1]["S1"] = t.ring.const(7)
    assert t.run(["t0", "t1"]) == four
    assert t.trace(["t0"]) == compile_to_transducer(v).trace(["t0"])


def test_run_resumes_from_the_last_word():
    v = loop_machine(1, [up(1, 1), down(1, 1)])
    t = compile_to_transducer(v)
    letters = []
    step = t.step

    def counted(state, letter, vals):
        letters.append(letter)
        return step(state, letter, vals)

    t.step = counted
    t.run(["t0", "t0", "t1"])
    t.run(["t0", "t0", "t1", "t1"])
    t.trace(["t0", "t1"])
    t.run(["t0"])
    assert letters == ["t0", "t0", "t1", "t1", "t1"]


# ---------------------------------------------------------------------------
# what construction rejects, the short arithmetic paths and the kernels


ONE_STEP = {("q", "a"): ("q", {"R1": NMul(NReg("R1"), NReg("S1"))})}


def tiny_machine(**changed) -> NumericTransducer:
    """A one-state, one-letter machine over REGS, with ``changed``
    constructor arguments."""
    args = dict(letters=("a",), registers=REGS,
                init={r: ZX.one() for r in REGS}, states=("q",),
                initial_state="q", accepting=("q",), transitions=ONE_STEP,
                outputs={"q": NReg("R1")}, ring=ZX)
    return NumericTransducer(**{**args, **changed})


UNDECLARED = {
    "init lacks a register": dict(init={r: ZX.one() for r in REGS[:-1]}),
    "init has an extra register": dict(
        init={**{r: ZX.one() for r in REGS}, "S2": ZX.one()}),
    "update of an undeclared register": dict(
        transitions={("q", "a"): ("q", {"S2": NConst(1)})}),
    "update reads an undeclared register": dict(
        transitions={("q", "a"): ("q", {"R1": NAdd(NReg("S1"), NReg("S2"))})}),
    "output reads an undeclared register": dict(
        outputs={"q": NSubstX(NReg("R1"), NReg("S2"))}),
    "transition from an undeclared state": dict(
        transitions={**ONE_STEP, ("p", "a"): ("q", {})}),
    "transition on an undeclared letter": dict(
        transitions={**ONE_STEP, ("q", "b"): ("q", {})}),
    "transition to an undeclared state": dict(
        transitions={("q", "a"): ("p", {})}),
}


def test_tiny_machine_is_well_formed():
    t = tiny_machine()
    assert t.run(["a", "a"]) == ZX.one()


def test_a_long_word_runs_without_recursion():
    # the trie is walked and grown iteratively: a 10 000-letter word on
    # a one-state machine, traced on a fresh machine and run on another
    word = ["a"] * 10_000
    trace = tiny_machine().trace(word)
    assert len(trace) == 10_001
    assert trace[-1] == ("q", {r: ZX.one() for r in REGS})
    t = tiny_machine()
    assert t.run(word) == ZX.one()
    steps = []
    t.step = lambda *args: steps.append(args)
    assert t.run(word) == ZX.one() and len(t.trace(word)) == 10_001
    assert not steps


@pytest.mark.parametrize("changed", UNDECLARED.values(), ids=UNDECLARED.keys())
def test_construction_rejects_what_the_machine_does_not_declare(changed):
    with pytest.raises(StructureError):
        tiny_machine(**changed)


def convolution(a, b):
    """``_mul``'s general branch, kept here as the reference for its
    short ones: the product of two values as a Value."""
    a = (a,) if isinstance(a, int) else a
    b = (b,) if isinstance(b, int) else b
    out = [0] * (len(a) + len(b) - 1)
    for j, c in enumerate(b):
        if c:
            for i, d in enumerate(a, j):
                out[i] += c * d
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out[0] if len(out) == 1 else tuple(out)


nonzero = st.integers(-4, 4).filter(bool)
values = st.one_of(st.integers(-4, 4), st.tuples(
    st.lists(st.integers(-4, 4), min_size=1, max_size=5), nonzero).map(
        lambda p: (*p[0], p[1])))


@settings(max_examples=200, deadline=None)
@given(values, st.tuples(st.integers(-4, 4), nonzero))
@example((2, -3, 1), (0, 1))    # a zero constant coefficient
@example((2, -3, 1), (-3, 1))   # R1 times x - 3
@example((0, 0, 5), (-1, -2))
@example(3, (-2, 1))            # an int on the left
@example(0, (-2, 1))
def test_two_coefficient_products_match_the_convolution(a, b):
    got = _mul(a, b)
    assert got == convolution(a, b)
    assert type(got) is (int if a == 0 else tuple)


@settings(max_examples=200, deadline=None)
@given(num_exprs, st.sets(st.sampled_from(REGS)),
       st.dictionaries(st.sampled_from(REGS), num_exprs, max_size=3))
@example(NSubstX(NX(), NReg("S1")), {"S1"}, {})
@example(NSubstX(NReg("R1"), NReg("S1")), {"R1"}, {})
@example(NAdd(NX(), NConst(1)), set(), {})
@example(NMul(NReg("S1"), NReg("R1")), {"S1"}, {"S1": NAdd(NReg("S1"), NX())})
def test_int_inference_agrees_with_the_emitted_flag(expr, ints, upd):
    # the walker that infers int registers types every expression as
    # _emit does, and the inferred set is closed under every update
    reads: list[str] = []
    assert _is_int(expr, ints, reads) == _emit(expr, ints)[1]
    # the registers it reports reading are int, and keep it int alone
    assert set(reads) <= ints
    if _emit(expr, ints)[1]:
        assert _emit(expr, set(reads))[1]
    inferred = _int_registers({r: 0 if r in ints else (0, 1) for r in REGS},
                              [("q", upd)])
    assert inferred <= ints
    assert all(_emit(e, inferred)[1] for r, e in upd.items() if r in inferred)


def int_registers_by_rounds(start, transitions) -> set[str]:
    """``_int_registers`` as whole rounds over every update until a
    round drops nothing, kept here as the reference for its worklist."""
    ints = {r for r, v in start.items() if type(v) is int}
    while drop := {r for _, upd in transitions for r, e in upd.items()
                   if r in ints and not _is_int(e, ints, [])}:
        ints -= drop
    return ints


@settings(max_examples=300, deadline=None)
@given(st.sets(st.sampled_from(REGS)),
       st.lists(st.dictionaries(st.sampled_from(REGS), num_exprs, max_size=4),
                max_size=4))
# drops that reach registers whose updates were typed int before
@example({"R1aux", "R2", "S1"},
         [{"R2": NMul(NReg("R1"), NX())}, {"S1": NAdd(NReg("S1"), NReg("R2"))}])
@example({"R1", "R1aux", "R2"},
         [{"R2": NReg("S1")}, {"R1aux": NReg("R2")}, {"R1": NReg("R1aux")}])
def test_int_registers_worklist_matches_the_rounds(ints, updates):
    start = {r: 0 if r in ints else (0, 1) for r in REGS}
    transitions = [("q", upd) for upd in updates]
    assert _int_registers(start, transitions) == \
        int_registers_by_rounds(start, transitions)


def clear_caches():
    for cache in vass._CACHES:
        cache.cache_clear()


def count_calls(monkeypatch, name: str) -> list[tuple]:
    """The arguments of each outermost call of ``vass.<name>``, from
    now on."""
    calls, depth, fn = [], [0], getattr(vass, name)

    def counted(*args):
        if not depth[0]:
            calls.append(args)
        depth[0] += 1
        try:
            return fn(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(vass, name, counted)
    return calls


def kernels(t: NumericTransducer) -> dict:
    return {(q, a): kernel for q, steps in t._steps.items()
            for a, (_, kernel) in steps.items()}


def test_each_distinct_transition_is_emitted_at_most_once(monkeypatch):
    # from cold caches, each update and output of the family is emitted
    # by the first machine that has it and by no other, and building
    # every machine again emits nothing.  The expressions of one source
    # share _emit's last argument, the names it has bound.
    clear_caches()
    top = count_calls(monkeypatch, "_emit")
    sources: dict[int, tuple[int, ...]] = {}
    for v in FAMILY[:6]:
        before = len(top)
        t = compile_to_transducer(v)
        for expr, _, _, _, bound in top[before:]:
            sources[id(bound)] = sources.get(id(bound), ()) + (id(expr),)
        want = {tuple(id(upd[r]) for r in t.registers if r in upd)
                for _, upd in t.transitions.values() if upd}
        want |= {(id(e),) for e in t.outputs.values() if not isinstance(e, NConst)}
        assert want <= set(sources.values()), v.name
    assert len(top) == sum(map(len, sources.values()))
    assert len(set(sources.values())) == len(sources)
    top.clear()
    for v in FAMILY[:6]:
        compile_to_transducer(v)
    assert not top


def test_rebuilding_a_machine_generates_nothing(monkeypatch):
    # a rebuild, or the same effects on other state names, emits no
    # source, types no register and gets the same functions
    effects = [up(1, 2), ResetSet(frozenset({2})), down(2, 2)]
    one = compile_to_transducer(loop_machine(2, effects))
    emits = count_calls(monkeypatch, "_emit")
    typings = count_calls(monkeypatch, "_int_registers")
    again = compile_to_transducer(loop_machine(2, effects))
    two = compile_to_transducer(ResetVass(
        2, ("p", "r"), "p", ("r",),
        [("p", effects[0], "r"), ("r", effects[1], "p"), ("p", effects[2], "p")]))
    assert not emits and not typings
    assert kernels(again) == kernels(one)  # functions are equal when identical
    assert again._outputs["q0"] is one._outputs["q0"] is two._outputs["r"]
    assert kernels(two)[("p", "t0")] is kernels(one)[("q0", "t0")]
    assert kernels(two)[("r", "t1")] is kernels(one)[("q0", "t1")]
    assert kernels(two)[("p", "t2")] is kernels(one)[("q0", "t2")]


@pytest.mark.parametrize("bad", [NConst(True), NConst("1"), NReg(1)],
                         ids=["True", "str", "int-register"])
def test_a_cache_hit_skips_no_check(bad):
    # each position is built valid first; the same position holding a
    # bad node must still raise, and True never gets 1's function
    init = {r: ZX.one() for r in REGS}
    good = NConst(1)

    def build(upd, out):
        return NumericTransducer(("a",), REGS, init, ("q",), "q", (),
                                 {("q", "a"): ("q", upd)}, {"q": out}, ZX)

    for leaf in (good, bad):
        for make in (lambda: compile_num(leaf, ZX),
                     lambda: build({"S1": leaf}, NReg("R1")),
                     lambda: build({"S1": NAdd(NReg("S1"), leaf)}, NReg("R1")),
                     lambda: build({}, leaf),
                     lambda: build({}, NSubstX(NReg("R1"), leaf))):
            if leaf is good:
                make()
            else:
                with pytest.raises(StructureError):
                    make()
    assert compile_num(good, ZX)({}) == ZX.one()


def test_a_register_declared_by_another_machine_is_still_rejected():
    # an update and an output read S2, with the same int registers in
    # both machines: declared in the first, undeclared in the second
    reads_s2 = NMul(NReg("R1"), NReg("S2"))
    out = NSubstX(NReg("R1"), NReg("S2"))
    upd = {"R1": reads_s2}

    def build(regs, init, transitions, output):
        return NumericTransducer(("a",), regs, init, ("q",), "q", ("q",),
                                 transitions, {"q": output}, ZX)

    x = ZX.var("x")
    first = build(REGS + ("S2",), {**{r: ZX.one() for r in REGS}, "S2": x},
                  {("q", "a"): ("q", upd)}, out)
    assert first.run(["a"]) == x
    init = {r: ZX.one() for r in REGS}
    with pytest.raises(StructureError):
        build(REGS, init, {("q", "a"): ("q", upd)}, NReg("R1"))
    with pytest.raises(StructureError):
        build(REGS, init, {("q", "a"): ("q", {})}, out)


@pytest.mark.parametrize("entry", [True, 1.0], ids=["True", "float"])
def test_an_effect_cache_hit_skips_no_check(entry):
    # a vector entry equal to 1 that is not an int raises whether (1, 0)
    # was compiled before it or not, and leaves (1, 0) compiling
    clear_caches()
    bad = loop_machine(2, [AddVector((entry, 0)), down(1, 2)])
    good = loop_machine(2, [up(1, 2), down(1, 2)])
    for v in (bad, good, bad, good):
        if v is bad:
            with pytest.raises(StructureError):
                compile_to_transducer(v)
        else:
            assert compile_to_transducer(v).run(["t0", "t1"]) != ZX.zero()


def test_a_dimension_cache_hit_skips_no_check():
    # dimension 1.0 equals 1, but range() refuses it as in a cold build
    for effects in ([], [up(1, 1)]):
        compile_to_transducer(loop_machine(1, effects))
        with pytest.raises(TypeError):
            compile_to_transducer(loop_machine(1.0, effects))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_warm_caches_build_the_machines_cold_ones_do(seed):
    # every machine built from cleared caches, then all of them again in
    # shuffled order on the caches the others left: the same outputs and
    # traces on every word up to length 4
    family = small_family(40, seed)
    cold = []
    for v in family:
        clear_caches()
        cold.append(compile_to_transducer(v))
    order = list(range(len(family)))
    random.Random(seed).shuffle(order)
    warm = {i: compile_to_transducer(family[i]) for i in order}
    for i, v in enumerate(family):
        for run in all_words(len(v.transitions), 4):
            word = word_of_run(v, run)
            assert warm[i].run(word) == cold[i].run(word), (v.name, word)
            assert warm[i].trace(word) == cold[i].trace(word), (v.name, word)


def test_kernels_have_their_own_rows_in_a_profile():
    sources = ("lambda v: v", "lambda v: (v['S1'] + (1))",
               "lambda v: (v['S1'] + (2))")
    keys = {(c.co_filename, c.co_firstlineno, c.co_name)
            for c in (_kernel(s).__code__ for s in sources)}
    assert len(keys) == len(sources)
    assert all(k[0] == "<vass kernel>" for k in keys)
    # a profile of a machine run has one row per kernel that ran
    t = compile_to_transducer(FAMILY[0])
    words = [word_of_run(FAMILY[0], w)
             for w in all_words(len(FAMILY[0].transitions), 3)]
    prof = cProfile.Profile()
    prof.runcall(lambda: [t.run(w) for w in words])
    ran = {e.code for e in prof.getstats()
           if not isinstance(e.code, str) and e.code.co_filename == "<vass kernel>"}
    rows = [k for k in pstats.Stats(prof).stats if k[0] == "<vass kernel>"]
    assert len(rows) == len(ran) > 1
