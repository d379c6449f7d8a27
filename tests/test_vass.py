"""Reset VASS model, normalization, the brute-force oracle, and the
compilation into a numeric register transducer over Z[x]."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyzero.errors import DomainError, StructureError
from polyzero.poly import Poly, ordinary_ring
from polyzero.vass import (AddVector, NAdd, NConst, NMul, NReg, NSubstX, NX,
                           NumericTransducer, ResetSet, ResetVass,
                           brute_force_reach, compile_num, compile_to_transducer,
                           counters_of, normalize, run_endpoint, run_is_valid,
                           small_family, word_of_run)


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
# runs resumed from the last word's prefix


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
