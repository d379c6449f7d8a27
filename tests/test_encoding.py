"""Word encodings, substitutions, com-injectivity, automorphisms."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyzero.encoding import (
    Automorphism, WordSubst, _coeff_key, com_injective_check, concat_map,
    count_inverse, encode_ring, encode_word, identity_automorphism,
    induced_subst, invert_substitution, letter_var_names,
    single_letter_nonvanishing,
)
from polyzero.errors import DomainError, NotComInjective
from polyzero.linalg import mat_inverse
from polyzero.poly import QQ, Monomial, RatFunc

AB = encode_ring(["a", "b"])


def v(name, e=1):
    return AB.var(name, e)


def words_up_to(letters, n):
    for k in range(n + 1):
        yield from itertools.product(letters, repeat=k)


def test_encode_empty_word():
    assert encode_word("", AB) == (AB.zero(), AB.one())


def test_encode_abbab():
    tilde, bar = encode_word("abbab", AB)
    want = (v("at") * v("ab") * v("bb", 3)
            + v("bt") * v("ab") * v("bb", 2)
            + v("bt") * v("ab") * v("bb")
            + v("at") * v("bb")
            + v("bt"))
    assert tilde == want
    assert bar == v("ab", 2) * v("bb", 3)


def test_concatenation_law_exhaustive():
    cm = concat_map(AB)
    for u in words_up_to("ab", 3):
        for w in words_up_to("ab", 2):
            eu, ew = encode_word(u, AB), encode_word(w, AB)
            direct = encode_word(u + w, AB)
            via_law = (eu[0] * ew[1] + ew[0], eu[1] * ew[1])
            assert direct == via_law
            # and through the reusable pair map
            mring = cm.ring
            got = tuple(p.substitute({
                "x1": eu[0].convert(mring), "x2": eu[1].convert(mring),
                "y1": ew[0].convert(mring), "y2": ew[1].convert(mring),
            }).convert(AB) for p in cm.outputs)
            assert got == direct


def test_concat_map_association():
    ring = encode_ring(["a", "b"])
    ea, eb = encode_word("a", ring), encode_word("b", ring)

    def cat(x, y):
        return (x[0] * y[1] + y[0], x[1] * y[1])

    assert cat(cat(ea, eb), ea) == cat(ea, cat(eb, ea))


def test_injectivity_up_to_six():
    seen = {}
    for w in words_up_to("ab", 6):
        enc = encode_word(w, AB)
        assert enc not in seen, f"collision {w} vs {seen[enc]}"
        seen[enc] = w
    assert len(seen) == 2**7 - 1


def test_letter_count_evaluation():
    # evaluating the additive part with one letter's tilde set to 1, all else
    # frozen, counts that letter's occurrences
    rng = random.Random(2)
    for _ in range(25):
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 8)))
        tilde, _ = encode_word(w, AB)
        count = tilde.evaluate({"at": Fraction(1), "bt": Fraction(0),
                                "ab": Fraction(1), "bb": Fraction(1)})
        assert count == w.count("a")


def test_induced_subst_images():
    ws = WordSubst({"a": "ab", "b": "babb"})
    ps = induced_subst(ws, ["a", "b"], AB)
    assert ps.images["at"] == v("at") * v("bb") + v("bt")
    assert ps.images["ab"] == v("ab") * v("bb")
    want_bt = (v("bt") * v("ab") * v("bb", 2) + v("at") * v("bb", 2)
               + v("bt") * v("bb") + v("bt"))
    assert ps.images["bt"] == want_bt
    assert ps.images["bb"] == v("ab") * v("bb", 3)


def test_substitution_commutes_with_encoding():
    cases = [WordSubst({"a": "ab", "b": "babb"}),
             WordSubst({"a": "aa"}),
             WordSubst({"a": "", "b": "ba"})]
    for ws in cases:
        ps = induced_subst(ws, ["a", "b"], AB)
        for w in words_up_to("ab", 4):
            direct = encode_word(ws.apply_word(w), AB)
            through = ps.apply_pair(encode_word(w, AB))
            assert direct == through, (ws, w)


def test_com_injective_check_examples():
    rep = com_injective_check(WordSubst({"a": "ab", "b": "babb"}), ["a", "b"])
    assert rep.matrix == ((1, 1), (1, 3))
    assert rep.det == 2 and rep.injective
    rep2 = com_injective_check(WordSubst({"a": "bbc"}), ["a", "b", "c"])
    assert not rep2.injective and rep2.det == 0
    rep3 = com_injective_check(WordSubst({}), ["a", "b"])
    assert rep3.injective and rep3.det == 1
    # commutative collision witness for a non-injective substitution:
    # a -> ab and b -> ab have equal commutative images
    collide = com_injective_check(WordSubst({"a": "ab", "b": "ab"}), ["a", "b"])
    assert not collide.injective


def test_single_letter_nonvanishing():
    assert not single_letter_nonvanishing(WordSubst({"a": "bbc"}),
                                          ["a", "b", "c"], "a")
    assert single_letter_nonvanishing(WordSubst({"a": "bab"}),
                                      ["a", "b", "c"], "a")
    with pytest.raises(DomainError):
        single_letter_nonvanishing(WordSubst({"a": "b", "b": "a"}),
                                   ["a", "b"], "a")


def test_invert_doubling():
    ring = encode_ring(["a"])
    alpha = invert_substitution(WordSubst({"a": "aa"}), ["a"], ring)
    at = RatFunc.of(ring.var("at"), ring.one())
    ab_half = RatFunc.of(ring.var("ab", Fraction(1, 2)), ring.one())
    assert alpha.inverse["ab"] == ab_half
    assert alpha.inverse["at"] == at / (1 + ab_half)
    assert alpha.apply(at) == RatFunc.of(
        ring.var("at") * ring.var("ab") + ring.var("at"), ring.one())


def test_invert_two_letter_example():
    alpha = invert_substitution(WordSubst({"a": "ab", "b": "babb"}), ["a", "b"], AB)
    assert alpha.inverse["ab"] == RatFunc(
        AB.var("ab", Fraction(3, 2)), AB.var("bb", Fraction(1, 2)))
    assert alpha.inverse["bb"] == RatFunc(
        AB.var("bb", Fraction(1, 2)), AB.var("ab", Fraction(1, 2)))
    assert alpha.verify_roundtrip()


def test_invert_rejects_singular():
    with pytest.raises(NotComInjective):
        invert_substitution(WordSubst({"a": "ab", "b": "ab"}), ["a", "b"], AB)
    with pytest.raises(NotComInjective):
        invert_substitution(WordSubst({"a": ""}), ["a"])


def _full_elimination_inverse(ws, letters, ring):
    """``invert_substitution`` by full elimination: the n x n count
    inverse, and Gauss-Jordan on the whole n x 2n additive system
    ``[T | I]``, fixed letters included."""
    letters = tuple(letters)
    report = com_injective_check(ws, letters)
    if not report.injective:
        raise NotComInjective(
            f"letter-count matrix is singular (det = {report.det})")
    einv = mat_inverse(report.matrix, QQ)
    bar_inverse = {}
    for ti, tau in enumerate(letters):
        pos, neg = [], []
        for si, sigma in enumerate(letters):
            e = einv[si][ti]
            if e == 0:
                continue
            idx = ring.vartable.index(letter_var_names(sigma)[1])
            (pos if e > 0 else neg).append((idx, e if e > 0 else -e))
        bar_inverse[letter_var_names(tau)[1]] = RatFunc(
            ring.from_monomial(Monomial(pos)), ring.from_monomial(Monomial(neg)))
    field = ring.fraction_field
    that = []
    for sigma in letters:
        tilde, _ = encode_word(ws.image(sigma), ring)
        row = []
        for tau in letters:
            ti = ring.vartable.index(letter_var_names(tau)[0])
            coeff = ring.zero()
            for m, c in tilde.terms.items():
                if m.exp(ti) == 1:
                    coeff = coeff + ring.from_monomial(
                        Monomial((i, e) for i, e in m if i != ti), c)
            row.append(field.coerce(coeff).substitute(bar_inverse))
        that.append(row)
    tinv = mat_inverse(that, field)
    if tinv is None:
        raise NotComInjective("additive subsystem is singular")
    tilde_inverse = {}
    for ti, tau in enumerate(letters):
        acc = field.zero()
        for si, sigma in enumerate(letters):
            acc = acc + tinv[ti][si] * field.coerce(
                ring.var(letter_var_names(sigma)[0]))
        tilde_inverse[letter_var_names(tau)[0]] = acc
    return {**tilde_inverse, **bar_inverse}


def _random_subst(rng, letters):
    """Some of the letters moved, each mostly to a word of itself and at
    most one other letter (com-injective more often than not), or else
    to at most one letter."""
    mapping = {}
    for letter in rng.sample(letters, rng.randint(1, len(letters))):
        w = [rng.choice(letters) for _ in range(rng.randint(0, 1))]
        if rng.random() < 0.85:
            w.insert(rng.randint(0, len(w)), letter)
        mapping[letter] = "".join(w)
    return WordSubst(mapping)


@pytest.mark.parametrize("letters", ["abc", "abcd"])
def test_inverse_images_are_written_as_full_elimination_writes_them(letters):
    # the sparse solve on the moved letters against the full elimination:
    # the same images, term for term with their coefficient types, in the
    # same order, and the same substitutions rejected
    ring = encode_ring(list(letters))
    rng = random.Random(2026 + len(letters))
    cases = [WordSubst({"a": "ab", "b": "babb"}), WordSubst({"c": "ca"}),
             WordSubst({"a": "ca", "c": "ac"})]
    cases += [_random_subst(rng, letters) for _ in range(300)]
    inverted = 0
    for ws in cases:
        try:
            want = _full_elimination_inverse(ws, letters, ring)
        except NotComInjective as e:
            assert count_inverse(ws, letters) is None
            with pytest.raises(NotComInjective) as got:
                invert_substitution(ws, letters, ring)
            assert str(got.value) == str(e)
            continue
        got = invert_substitution(ws, letters, ring).inverse
        assert list(got) == list(want)
        assert [_coeff_key(c) for c in got.values()] == \
            [_coeff_key(c) for c in want.values()], ws
        inverted += 1
    assert inverted > 150


def test_count_inverse_covers_only_the_moved_letters():
    # b and c counted in b -> bbca and c -> cb: [[2, 1], [1, 1]]
    ws = WordSubst({"b": "bbca", "c": "cb"})
    moved, inv = count_inverse(ws, ["a", "b", "c", "d"])
    assert moved == (1, 2)
    assert inv == [[1, -1], [-1, 2]]
    # [[1, 1], [1, 1]] for b -> bca and c -> cb: singular
    assert count_inverse(WordSubst({"b": "bca", "c": "cb"}), "abcd") is None
    assert count_inverse(WordSubst({}), "ab") == ((), [])
    rep = com_injective_check(ws, ["a", "b", "c", "d"])
    assert rep.injective and rep.det == 1


def test_identity_automorphism():
    ident = identity_automorphism(AB)
    x = RatFunc.of(AB.var("at") + AB.var("bb"), AB.var("ab"))
    assert ident.apply(x) == x
    assert ident.apply_inverse(x) == x
    assert ident.is_identity()


small_words = st.lists(st.sampled_from("ab"), min_size=0, max_size=3).map(tuple)


@settings(max_examples=30, deadline=None)
@given(small_words, small_words)
def test_invert_roundtrip_random(img_a, img_b):
    ws = WordSubst({"a": img_a, "b": img_b})
    rep = com_injective_check(ws, ["a", "b"])
    if not rep.injective:
        with pytest.raises(NotComInjective):
            invert_substitution(ws, ["a", "b"], AB)
        return
    alpha = invert_substitution(ws, ["a", "b"], AB)
    assert alpha.verify_roundtrip()


@settings(max_examples=30, deadline=None)
@given(small_words, small_words, small_words)
def test_wordsubst_compose(u, w, x):
    s = WordSubst({"a": u, "b": w})
    t = WordSubst({"a": x})
    composed = t.after(s, ["a", "b"])
    word = ("a", "b", "a")
    assert composed.apply_word(word) == t.apply_word(s.apply_word(word))
