"""Transducer semantics, update analysis, and the reduction to
difference grammars."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyzero.errors import (DomainError, StructureError,
                             UnsupportedSubstitution)
from polyzero.poly import FractionField
from polyzero.encoding import WordSubst, encode_word
from polyzero import groebner
from polyzero.groebner import GrevLex, Ideal, order_key
from polyzero.grammar import (Budgets, InvariantCertificate, check_certificate,
                              zeroness)
from polyzero.transducer import (Concat, ConstWord, Empty, GENERAL, Letter,
                                 NO_SUBST, Reg, RegOcc, SIMULTANEOUS, Subst,
                                 Transducer, _norm_transitions, classify, concat_exprs,
                                 difference_value, equivalence_check,
                                 eval_expr, eval_items,
                                 letter_occurrence_analysis, normalize_expr,
                                 run, to_difference_grammar, word_expr)

SMALL = Budgets(size=8, iters=6, seconds=30.0)


def intro_device() -> Transducer:
    """Single device computing rev(w)·w with two registers."""
    alphabet = ("a", "b")
    transitions = {
        ("q", s): ("q", {"R": Concat(Letter(s), Reg("R")),
                         "S": Concat(Reg("S"), Letter(s))})
        for s in alphabet}
    return Transducer(alphabet, ("R", "S"), {}, ("q",), "q", ("q",),
                      transitions, {"q": Concat(Reg("R"), Reg("S"))},
                      name="rev-id")


def rev_id_pair() -> tuple[Transducer, Transducer]:
    alphabet = ("a", "b")
    rev = Transducer(
        alphabet, ("R",), {}, ("q",), "q", ("q",),
        {("q", s): ("q", {"R": Concat(Letter(s), Reg("R"))})
         for s in alphabet},
        {"q": Reg("R")}, name="rev")
    ident = Transducer(
        alphabet, ("R",), {}, ("q",), "q", ("q",),
        {("q", s): ("q", {"R": Concat(Reg("R"), Letter(s))})
         for s in alphabet},
        {"q": Reg("R")}, name="id")
    return rev, ident


def sqrev_pair() -> tuple[Transducer, Transducer]:
    """Two devices computing (# · rev(w))^|w|, differing in update order."""
    alphabet = ("a", "b", "#")

    def device(order_first: bool, name: str) -> Transducer:
        transitions = {}
        for s in ("a", "b"):
            subst_r = Subst(Reg("R"), "#", Concat(Letter("#"), Letter(s)))
            if order_first:
                r_upd = concat_exprs(Letter("#"), Letter(s), Reg("S"), subst_r)
            else:
                r_upd = concat_exprs(subst_r, Letter("#"), Letter(s), Reg("S"))
            transitions[("q0", s)] = ("q0", {
                "R": r_upd, "S": Concat(Letter(s), Reg("S"))})
        return Transducer(alphabet, ("R", "S"), {}, ("q0",), "q0", ("q0",),
                          transitions, {"q0": Reg("R")}, name=name)

    return device(True, "sqrev1"), device(False, "sqrev2")


# ---------------------------------------------------------------------------
# reference semantics


def test_intro_device_run():
    t = intro_device()
    assert run(t, "abb") == tuple("bbaabb")
    assert run(t, "") == ()
    assert run(t, "a") == tuple("aa")


def test_sqrev_runs():
    t1, t2 = sqrev_pair()
    # hand simulation: after `a` R=#a, after `b` R=#ba#ba
    assert run(t1, "ab") == tuple("#ba#ba")
    assert run(t2, "ab") == tuple("#ba#ba")
    assert run(t1, "a") == tuple("#a")
    assert run(t1, "") == ()
    for w in ["", "a", "b", "ab", "ba", "abb", "bab"]:
        assert run(t1, w) == run(t2, w)


def test_run_none_at_rejecting_state():
    t = Transducer(
        ("a",), ("R",), {}, ("even", "odd"), "even", ("even",),
        {("even", "a"): ("odd", {}),
         ("odd", "a"): ("even", {"R": Concat(Reg("R"), Letter("a"))})},
        {"even": Reg("R")})
    assert run(t, "") == ()
    assert run(t, "a") is None
    assert run(t, "aa") == ("a",)


def test_run_rejects_foreign_letter():
    t, _ = rev_id_pair()
    with pytest.raises(DomainError):
        run(t, "ac")


def test_eval_expr_substitution_semantics():
    # replacement may read registers at word level
    e = Subst(Reg("R"), "a", Reg("S"))
    assert eval_expr(e, {"R": ("a", "b", "a"), "S": ("c",)}) == ("c", "b", "c")
    # replacement evaluated against pre-update values, applied everywhere
    e2 = Subst(word_expr("aba"), "a", word_expr("xy"))
    assert eval_expr(e2, {}) == tuple("xybxy")


def test_validation_rejects_incomplete_and_foreign():
    with pytest.raises(StructureError):
        Transducer(("a", "b"), ("R",), {}, ("p", "q"), "p", ("p",),
                   {("p", "a"): ("q", {}), ("q", "a"): ("p", {}),
                    ("p", "b"): ("p", {})},  # q lacks b
                   {"p": Reg("R")})
    with pytest.raises(StructureError):
        Transducer(("a",), ("R",), {}, ("p",), "p", ("p",),
                   {("p", "a"): ("p", {"R": Letter("z")})},
                   {"p": Reg("R")})
    with pytest.raises(StructureError):
        Transducer(("a",), ("R",), {}, ("p",), "p", ("p",),
                   {("p", "a"): ("p", {})}, {})  # missing output


# ---------------------------------------------------------------------------
# normalization


def test_normalize_sqrev_update():
    t1, _ = sqrev_pair()
    _, upd = t1.transitions[("q0", "a")]
    items = normalize_expr(upd["R"], t1.alphabet)
    assert items == (ConstWord(("#", "a")),
                     RegOcc("S", WordSubst({})),
                     RegOcc("R", WordSubst({"#": ("#", "a")})))


def test_normalize_composes_substitutions():
    e = Subst(Subst(Reg("R"), "#", word_expr("#a")), "a", word_expr("ab"))
    (item,) = normalize_expr(e, ("a", "b", "#"))
    assert item == RegOcc("R", WordSubst({"#": ("#", "a", "b"),
                                          "a": ("a", "b")}))


def test_normalize_rejects_register_replacement():
    with pytest.raises(UnsupportedSubstitution):
        normalize_expr(Subst(Reg("R"), "a", Reg("S")), ("a",))


def test_normalized_items_evaluate_like_the_expression():
    t1, _ = sqrev_pair()
    vals = {"R": tuple("#b"), "S": tuple("ab")}
    for key in [("q0", "a"), ("q0", "b")]:
        _, upd = t1.transitions[key]
        for r, expr in upd.items():
            items = normalize_expr(expr, t1.alphabet)
            assert eval_items(items, vals) == eval_expr(expr, vals)


# ---------------------------------------------------------------------------
# occurrence analysis


def test_occurrence_analysis_sqrev():
    t1, _ = sqrev_pair()
    an = letter_occurrence_analysis(t1, _norm_transitions(t1))
    assert an[("q0", "S")] == frozenset("ab")  # the hash mark never enters S
    assert an[("q0", "R")] == frozenset("ab#")


def test_occurrence_analysis_untouched_register():
    t = Transducer(("a", "b"), ("C",), {"C": "ab"}, ("p",), "p", ("p",),
                   {("p", "a"): ("p", {}), ("p", "b"): ("p", {})},
                   {"p": Reg("C")})
    an = letter_occurrence_analysis(t, _norm_transitions(t))
    assert an[("p", "C")] == frozenset("ab")


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(["a", "b"]), max_size=6))
def test_occurrence_analysis_sound_on_runs(word):
    t1, _ = sqrev_pair()
    an = letter_occurrence_analysis(t1, _norm_transitions(t1))
    state, vals = t1.initial_state, dict(t1.init)
    for letter in word:
        state, vals = t1.step(state, letter, vals)
        for r, w in vals.items():
            assert set(w) <= an[(state, r)]


# ---------------------------------------------------------------------------
# classification


def test_classify_no_subst():
    rev, ident = rev_id_pair()
    assert classify(rev, ident) == NO_SUBST


def test_classify_sqrev_simultaneous():
    t1, t2 = sqrev_pair()
    assert classify(t1, t2) == SIMULTANEOUS


def conflicting_substitutions() -> Transducer:
    alphabet = ("a", "b", "#")
    return Transducer(
        alphabet, ("R", "S"), {"R": "#", "S": "#"}, ("q",), "q", ("q",),
        {("q", s): ("q", {"R": Subst(Reg("R"), "#", word_expr("#a")),
                          "S": Subst(Reg("S"), "#", word_expr("#b"))})
         for s in ("a", "b")},
        {"q": Concat(Reg("R"), Reg("S"))})


_OUTPUTS = (concat_exprs(Reg("R"), Reg("S")), Reg("R"),
            concat_exprs(Reg("S"), Letter("#"), Reg("R")))


def _random_update(rng, reg: str):
    """Letters and registers concatenated, or a register with the mark
    ``#`` replaced by a short word (erased, doubled, or marked by a
    letter), or a reset to a constant."""
    kind = rng.choice(["concat", "concat", "subst", "subst", "reset"])
    letter = Letter(rng.choice("ab#"))
    if kind == "reset":
        return word_expr(rng.choice(["", "#", "a"]))
    if kind == "concat":
        parts = [Reg(reg), letter]
        if rng.random() < 0.3:
            parts.append(Reg("S" if reg == "R" else "R"))
        rng.shuffle(parts)
        return concat_exprs(*parts)
    repl = word_expr(rng.choice(["", "a", "#a", "#b", "b#", "##"]))
    body = Subst(Reg(rng.choice([reg, reg, "R", "S"])), "#", repl)
    return body if rng.random() < 0.5 else concat_exprs(body, letter)


def _random_device(rng, states, like=None) -> Transducer:
    """A machine on the states with fresh transitions, taking its
    initial values, acceptance and outputs from ``like`` when given and
    drawing them otherwise."""
    transitions = {}
    for q in states:
        for a in ("a", "b"):
            transitions[(q, a)] = (rng.choice(states), {
                r: _random_update(rng, r) for r in ("R", "S")
                if rng.random() < 0.8})
    if like is None:
        accepting = [q for q in states if rng.random() < 0.7] or [states[0]]
        like = Transducer(
            ("a", "b", "#"), ("R", "S"),
            {r: rng.choice(["", "#", "a#", "#b"]) for r in "RS"},
            states, states[0], accepting, transitions,
            {q: rng.choice(_OUTPUTS) for q in accepting})
    return Transducer(like.alphabet, like.registers, like.init, states,
                      states[0], like.accepting, transitions, like.outputs)


def _mutant(rng, t: Transducer) -> Transducer:
    """t with one update redrawn or dropped, or one output redrawn; the
    states, targets and acceptance stay."""
    transitions = {key: (tgt, dict(upd))
                   for key, (tgt, upd) in t.transitions.items()}
    outputs = dict(t.outputs)
    key = rng.choice(sorted(transitions))
    what = rng.choice(["update", "update", "drop", "output"])
    if what == "update":
        r = rng.choice(t.registers)
        transitions[key][1][r] = _random_update(rng, r)
    elif what == "drop":
        transitions[key][1].pop(rng.choice(t.registers), None)
    else:
        outputs[rng.choice(sorted(outputs))] = rng.choice(_OUTPUTS)
    return Transducer(t.alphabet, t.registers, t.init, t.states,
                      t.initial_state, t.accepting, transitions, outputs)


def random_general_pair(seed) -> tuple[Transducer, Transducer]:
    """A seeded pair of one- to three-state transducers with registers R
    and S over ``a``, ``b`` and the mark ``#``, updated by concatenation
    and substitution of the mark: two independent machines, a machine
    and a mutant of it, or a machine and itself.  Draws until the pair
    is in the general fragment and both machines accept the same
    words."""
    rng = random.Random(seed)
    while True:
        states = ("p", "q", "r")[:rng.randint(1, 3)]
        t1 = _random_device(rng, states)
        how = rng.choice(["mutant", "mutant", "other", "self"])
        t2 = (_mutant(rng, t1) if how == "mutant" else
              _random_device(rng, states, t1) if how == "other" else t1)
        comp = to_difference_grammar(t1, t2)
        if comp.classification == GENERAL and comp.mismatch_word is None:
            return t1, t2


def test_classify_conflicting_substitutions_general():
    t = conflicting_substitutions()
    assert classify(t, t) == GENERAL


def test_classify_vanishing_substitution_general():
    # erasing a letter is not injective on letter counts
    alphabet = ("a", "b")
    t = Transducer(
        alphabet, ("R",), {"R": "a"}, ("q",), "q", ("q",),
        {("q", s): ("q", {"R": Subst(Reg("R"), "a", Empty())})
         for s in alphabet},
        {"q": Reg("R")})
    assert classify(t, t) == GENERAL


def test_classify_irrelevant_substitution_stays_no_subst():
    # substituting a letter the analysis rules out changes nothing
    alphabet = ("a", "b")
    t = Transducer(
        alphabet, ("R",), {}, ("q",), "q", ("q",),
        {("q", s): ("q", {"R": Subst(Concat(Reg("R"), Letter("a")),
                                     "b", word_expr("aa"))})
         for s in alphabet},
        {"q": Reg("R")})
    an = letter_occurrence_analysis(t, _norm_transitions(t))
    assert an[("q", "R")] == frozenset("a")
    assert classify(t, t) == NO_SUBST


# ---------------------------------------------------------------------------
# difference grammar structure and faithfulness


def test_difference_grammar_shape_rev_id():
    rev, ident = rev_id_pair()
    comp = to_difference_grammar(rev, ident)
    assert comp.mismatch_word is None
    g = comp.grammar
    assert g.nonterminals == {"S": 1, "q|q": 4}
    kinds = [(p.lhs, p.arity(), p.label) for p in g.productions]
    assert kinds == [("q|q", 0, None), ("q|q", 1, "a"), ("q|q", 1, "b"),
                     ("S", 1, None)]
    assert all(p.twist is None for p in g.productions)


def test_sqrev_grammar_carries_twists():
    t1, t2 = sqrev_pair()
    comp = to_difference_grammar(t1, t2)
    steps = [p for p in comp.grammar.productions if p.label is not None]
    assert len(steps) == 2
    assert all(p.twist is not None for p in steps)
    assert all(p.twist.verify_roundtrip() for p in steps)
    out = [p for p in comp.grammar.productions if p.lhs == "S"]
    assert len(out) == 1 and out[0].twist is None


def test_sites_sharing_a_substitution_carry_equal_twists():
    # two sites share the substitution '#' -> '#a'
    from polyzero.dsl import parse_transducer
    two, one = (parse_transducer(
        "transducer {\n  alphabet a '#';\n  registers R = '#';\n"
        + "".join(f"  state {q}{' initial' if q == 'p' else ''} accepting;\n"
                  f"  output {q} = R;\n" for q in states)
        + "".join(f"  on a from {q} to {r} {{ R = R['#' := '#' . a]; }}\n"
                  for q, r in zip(states, states[1:] + states[:1]))
        + "}\n") for states in (["p", "q"], ["p"]))
    comp = to_difference_grammar(two, one)
    steps = [p for p in comp.grammar.productions if p.label is not None]
    assert len(steps) == 2
    assert steps[0].twist.inverse == steps[1].twist.inverse
    assert equivalence_check(two, one, budgets=SMALL).verdict == "equivalent"


def _expected_difference(comp, t1, t2, word):
    o1, o2 = run(t1, word), run(t2, word)
    if o1 is None or o2 is None:
        return None
    lring = comp.letters_ring
    field = FractionField(lring)
    diff = encode_word(o1, lring)[0] - encode_word(o2, lring)[0]
    return comp.grammar.ring.const(field.coerce(diff))


def _all_words(letters, max_len):
    yield ()
    frontier = [()]
    for _ in range(max_len):
        frontier = [w + (a,) for w in frontier for a in letters]
        yield from frontier


def test_reduction_soundness_rev_id():
    rev, ident = rev_id_pair()
    comp = to_difference_grammar(rev, ident)
    for w in _all_words(("a", "b"), 4):
        assert difference_value(comp, w) == _expected_difference(
            comp, rev, ident, w)


def test_reduction_soundness_sqrev():
    t1, t2 = sqrev_pair()
    comp = to_difference_grammar(t1, t2)
    for w in _all_words(("a", "b"), 4):
        got = difference_value(comp, w)
        assert got == _expected_difference(comp, t1, t2, w)
        assert got.is_zero()


def test_reduction_soundness_rev_vs_sqrev():
    # inequivalent pair: the difference must track the run outputs exactly
    rev, _ = rev_id_pair()
    t1 = Transducer(
        ("a", "b"), ("R",), {}, ("q",), "q", ("q",),
        {("q", s): ("q", {"R": Concat(Reg("R"), Concat(Letter(s), Letter(s)))})
         for s in ("a", "b")},
        {"q": Reg("R")}, name="double")
    comp = to_difference_grammar(rev, t1)
    zero_words = 0
    for w in _all_words(("a", "b"), 3):
        expected = _expected_difference(comp, rev, t1, w)
        assert difference_value(comp, w) == expected
        if expected.is_zero():
            zero_words += 1
    assert zero_words == 1  # only the empty word agrees


# ---------------------------------------------------------------------------
# the equivalence driver


def test_equivalence_same_transducer():
    rev, _ = rev_id_pair()
    verdict = equivalence_check(rev, rev, SMALL)
    assert verdict.verdict == "equivalent"
    assert verdict.certificate is not None


def test_equivalence_rev_id_unary_restriction():
    rev, ident = rev_id_pair()
    verdict = equivalence_check(rev, ident, SMALL, input_letters=("a",))
    assert verdict.verdict == "equivalent"
    assert verdict.classification == NO_SUBST
    assert verdict.certificate is not None
    comp = to_difference_grammar(rev, ident, input_letters=("a",))
    assert check_certificate(comp.grammar, verdict.certificate).proved()


def test_equivalence_rev_id_binary_witness():
    rev, ident = rev_id_pair()
    verdict = equivalence_check(rev, ident, SMALL)
    assert verdict.verdict == "not-equivalent"
    assert verdict.witness_word == ("b", "a")
    assert verdict.outputs == (("a", "b"), ("b", "a"))


def test_equivalence_acceptance_mismatch():
    rev, _ = rev_id_pair()
    parity = Transducer(
        ("a", "b"), ("R",), {}, ("even", "odd"), "even", ("even",),
        {("even", s): ("odd", {"R": Concat(Reg("R"), Letter(s))})
         for s in ("a", "b")}
        | {("odd", s): ("even", {"R": Concat(Reg("R"), Letter(s))})
           for s in ("a", "b")},
        {"even": Reg("R")}, name="even-id")
    verdict = equivalence_check(rev, parity, SMALL)
    assert verdict.verdict == "not-equivalent"
    assert verdict.detail == "acceptance mismatch"
    assert verdict.witness_word == ("a",)
    assert verdict.outputs == (("a",), None)


def test_equivalence_general_fragment_refutation():
    alphabet = ("a", "b", "#")

    def device(repl: str) -> Transducer:
        return Transducer(
            alphabet, ("R",), {"R": "#"}, ("q",), "q", ("q",),
            {("q", s): ("q", {"R": Subst(Reg("R"), "#", word_expr(repl))})
             for s in ("a", "b")},
            {"q": Reg("R")})

    t1, t2 = device("#a"), device("#b")
    assert classify(t1, t2) == GENERAL
    verdict = equivalence_check(t1, t2, SMALL)
    assert verdict.verdict == "not-equivalent"
    assert verdict.witness_word == ("a",)
    assert verdict.outputs == (tuple("#a"), tuple("#b"))


def test_general_fragment_keeps_the_deadline():
    # the 2^39 - 1 words up to length 38 take far longer than half a
    # second to run, so only the deadline can end the search
    t = conflicting_substitutions()
    start = time.monotonic()
    verdict = equivalence_check(t, t, Budgets(size=40, iters=8, seconds=0.5))
    assert time.monotonic() - start < 2
    assert verdict.verdict == "unknown"
    assert verdict.detail == "time budget exhausted"
    assert verdict.classification == GENERAL


def test_input_restriction_validation():
    rev, ident = rev_id_pair()
    with pytest.raises(DomainError):
        equivalence_check(rev, ident, SMALL, input_letters=("c",))


def sqrev_certificate(comp) -> InvariantCertificate:
    """Hand-derived invariant: both devices agree coordinate-wise and the
    first device's register pair satisfies the power-of-a-word relation
    tilde(x^n)·(bar(x) − 1) = tilde(x)·(bar(x^n) − 1) for x = # · rev(w)."""
    g = comp.grammar
    pair = comp.names[comp.pairs[0]]
    cring = g.cert_ring(pair)
    field = g.ring.field
    lring = comp.letters_ring

    def lift(name):
        return cring.const(field.coerce(lring.var(name)))

    c = [cring.var(n) for n in g.coord_names(pair)]
    ht, hb = lift("hasht"), lift("hashb")
    one = cring.one()
    power_relation = c[0] * (hb * c[3] - one) - (ht * c[3] + c[2]) * (c[1] - one)
    gens = [c[0] - c[4], c[1] - c[5], c[2] - c[6], c[3] - c[7], power_relation]
    sring = g.cert_ring("S")
    return InvariantCertificate({
        pair: Ideal(cring, gens),
        "S": Ideal(sring, [sring.var("_v0_0")])})


def test_sqrev_certificate_validates():
    t1, t2 = sqrev_pair()
    comp = to_difference_grammar(t1, t2)
    cert = sqrev_certificate(comp)
    verdict = check_certificate(comp.grammar, cert)
    assert verdict.proved(), verdict.detail


def test_sqrev_equivalence_with_certificate():
    t1, t2 = sqrev_pair()
    comp = to_difference_grammar(t1, t2)
    cert = sqrev_certificate(comp)
    verdict = equivalence_check(t1, t2, SMALL, certificates=[cert])
    assert verdict.verdict == "equivalent"
    assert verdict.detail == "supplied certificate verified"
    assert verdict.classification == SIMULTANEOUS


class _CachedBasis(dict):
    """An ``Ideal._bases`` that claims to hold ``basis`` for every key."""

    def __init__(self, basis):
        super().__init__()
        self.basis = basis

    def __contains__(self, key):
        return True

    def __getitem__(self, key):
        return self.basis


def _poisoned(cert: InvariantCertificate, unit: bool) -> InvariantCertificate:
    """A copy whose ideals have every basis cached wrongly: the unit
    ideal's (every polynomial a member) or the zero ideal's (none)."""
    ideals = {}
    for nt, I in cert.ideals.items():
        J = Ideal(I.ring, I.gens)
        key = order_key(GrevLex(), I.ring)
        J._bases = _CachedBasis(
            (groebner._lead_triple(I.ring.one(), key),) if unit else ())
        ideals[nt] = J
    return InvariantCertificate(ideals, cert.grammar_name)


def test_certificate_check_computes_each_child_block_basis_once(monkeypatch):
    g = to_difference_grammar(*sqrev_pair()).grammar
    cert = zeroness(g, SMALL).certificate
    calls = []
    buchberger = groebner.buchberger

    def counting(gens, order):
        calls.append(order)
        return buchberger(gens, order)

    monkeypatch.setattr(groebner, "buchberger", counting)
    # the three productions with child q0|q0 share one basis
    blocks = {p.rhs for p in g.productions if p.rhs}
    assert blocks == {("q0|q0",)}
    assert check_certificate(g, cert, require_conclusion=False).proved()
    assert len(calls) == len(blocks)
    assert check_certificate(g, cert).proved()
    # the ideals are built per check, so a weaker certificate checked
    # next is refused, with or without every cached basis a unit
    pair = "q0|q0"
    gens = cert.ideals[pair].gens
    for k in range(len(gens)):
        weaker = InvariantCertificate(
            {**cert.ideals,
             pair: Ideal(cert.ideals[pair].ring, gens[:k] + gens[k + 1:])},
            cert.grammar_name)
        for c in (weaker, _poisoned(weaker, unit=True)):
            assert check_certificate(g, c).kind in (
                "closure-violation", "conclusion-violation")


def test_certificate_check_reads_no_cached_basis():
    g = to_difference_grammar(*sqrev_pair()).grammar
    cert = zeroness(g, SMALL).certificate
    for unit in (True, False):
        assert check_certificate(g, _poisoned(cert, unit)).proved()
    # closed, but S's ideal (v(v - 1)) does not force v to zero; a unit
    # basis cached on it would prove the conclusion
    sring = g.cert_ring("S")
    v = sring.var("_v0_0")
    weak = InvariantCertificate({**cert.ideals, "S": Ideal(sring, [v * (v - 1)])},
                                cert.grammar_name)
    for c in (weak, _poisoned(weak, unit=True)):
        assert check_certificate(g, c).kind == "conclusion-violation"


def test_equivalence_deterministic_repeat():
    rev, ident = rev_id_pair()
    a = equivalence_check(rev, ident, SMALL)
    b = equivalence_check(rev, ident, SMALL)
    assert (a.verdict, a.witness_word, a.outputs, a.detail) == \
        (b.verdict, b.witness_word, b.outputs, b.detail)
