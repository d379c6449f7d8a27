"""Encoding words as polynomial pairs, and word substitutions as
polynomial substitutions and field automorphisms.

Each letter ``s`` contributes two variables: ``st`` (additive part, an
ordinary variable) and ``sb`` (multiplicative part, a bar variable able to
carry fractional exponents).  A word ``w`` encodes as the pair

    enc(w) = (sum_i  tilde(w_i) * prod_{j>i} bar(w_j),  prod_i bar(w_i))

so that concatenation obeys ``enc(uv) = (u~ * vb + v~, ub * vb)``; the
pair map realizing that law is :func:`concat_map`.  The encoding is
injective on words, which is what reduces transducer equivalence to
zeroness of difference values.

A word substitution induces a polynomial substitution on the letter
variables.  When its letter-count matrix is invertible ("com-injective")
the induced substitution extends to an automorphism of the rational
function field in the letter variables: the multiplicative subsystem is
solved by inverting the count matrix in the exponents (hence fractional
exponents), and the additive subsystem is then a linear system over
that function field.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, NotComInjective, StructureError
from .linalg import mat_det, mat_inverse
from .poly import (
    FractionField, Monomial, Poly, PolyMap, PolyRing, QQ, RatFunc, VarKind,
    VarTable,
)

Word = tuple[str, ...]


def as_word(w: Iterable[str] | str) -> Word:
    return tuple(w)


def letter_var_names(letter: str) -> tuple[str, str]:
    """Variable names for a letter's additive and multiplicative parts."""
    base = "hash" if letter == "#" else letter
    return f"{base}t", f"{base}b"


def encode_ring(letters: Sequence[str]) -> PolyRing:
    """Ring with all additive variables first, then all multiplicative ones."""
    if len(set(letters)) != len(letters):
        raise StructureError(f"duplicate letters in {letters}")
    tildes = [(letter_var_names(l)[0], VarKind.ORDINARY) for l in letters]
    bars = [(letter_var_names(l)[1], VarKind.BAR) for l in letters]
    return PolyRing(VarTable.make(tildes + bars))


def encode_word(word: Iterable[str] | str, ring: PolyRing) -> tuple[Poly, Poly]:
    tilde, bar = ring.zero(), ring.one()
    for letter in as_word(word):
        lt, lb = letter_var_names(letter)
        tilde = tilde * ring.var(lb) + ring.var(lt)
        bar = bar * ring.var(lb)
    return tilde, bar


def concat_map(ring: PolyRing | None = None) -> PolyMap:
    """Binary concatenation on encoded pairs: ((x1,x2),(y1,y2)) ->
    (x1*y2 + y1, x2*y2)."""
    names = ("x1", "x2", "y1", "y2")
    if ring is None:
        mring = PolyRing(VarTable.make((n, VarKind.ORDINARY) for n in names))
    else:
        mring = PolyRing(
            VarTable.make((n, VarKind.ORDINARY) for n in names).extended(
                zip(ring.vartable.names, ring.vartable.kinds)),
            ring.field, ring.mode)
    x1, x2 = mring.var("x1"), mring.var("x2")
    y1, y2 = mring.var("y1"), mring.var("y2")
    return PolyMap(mring, names, (x1 * y2 + y1, x2 * y2))


# ---------------------------------------------------------------------------
# word substitutions


class WordSubst:
    """Total map letters -> words, stored without identity entries."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Mapping[str, Iterable[str] | str]):
        clean = {}
        for k in sorted(mapping):
            w = as_word(mapping[k])
            if w != (k,):
                clean[k] = w
        object.__setattr__(self, "mapping", clean)

    def __setattr__(self, name, value):
        raise AttributeError("WordSubst is immutable")

    def image(self, letter: str) -> Word:
        return self.mapping.get(letter, (letter,))

    def is_identity(self) -> bool:
        return not self.mapping

    def apply_word(self, word: Iterable[str] | str) -> Word:
        out: list[str] = []
        for letter in as_word(word):
            out.extend(self.image(letter))
        return tuple(out)

    def after(self, first: "WordSubst", letters: Iterable[str]) -> "WordSubst":
        """Composition: first substitute with ``first``, then with self."""
        return WordSubst({l: self.apply_word(first.image(l)) for l in letters})

    def restricted(self, letters: Iterable[str]) -> "WordSubst":
        return WordSubst({l: self.mapping[l] for l in letters if l in self.mapping})

    def key(self) -> tuple:
        return tuple(sorted(self.mapping.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, WordSubst) and self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        body = "; ".join(f"{k} -> {''.join(v) if v else 'eps'}"
                         for k, v in self.mapping.items())
        return f"WordSubst({body})"


# ---------------------------------------------------------------------------
# polynomial substitutions and automorphisms of the letter field


@dataclass(frozen=True)
class PolySubst:
    """Simultaneous substitution of parameter variables by polynomials."""

    ring: PolyRing
    images: Mapping[str, Poly]

    def __post_init__(self):
        for name, img in self.images.items():
            self.ring.vartable.index(name)
            if img.ring != self.ring:
                raise StructureError(f"image of {name!r} over a different ring")

    def is_identity(self) -> bool:
        return all(img == self.ring.var(name) for name, img in self.images.items())

    def apply_poly(self, p: Poly) -> Poly:
        if p.ring != self.ring:
            raise StructureError("substituting into a polynomial over another ring")
        return p.substitute(dict(self.images))

    def apply_ratfunc(self, r: RatFunc) -> RatFunc:
        lifted = {n: RatFunc.of(img, self.ring.one()) for n, img in self.images.items()}
        return r.substitute(lifted)

    def apply_pair(self, pair: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
        return self.apply_poly(pair[0]), self.apply_poly(pair[1])


@dataclass(frozen=True)
class Automorphism:
    """Invertible endomorphism of the rational-function field over the
    parameter ring, given by forward polynomial images and inverse
    rational-function images of the variables."""

    forward: PolySubst
    inverse: Mapping[str, RatFunc]

    @property
    def ring(self) -> PolyRing:
        return self.forward.ring

    def apply(self, c: RatFunc | Fraction) -> RatFunc | Fraction:
        if isinstance(c, (int, Fraction)):
            return c
        return self.forward.apply_ratfunc(c)

    def apply_inverse(self, c: RatFunc | Fraction) -> RatFunc | Fraction:
        if isinstance(c, (int, Fraction)):
            return c
        return c.substitute(dict(self.inverse))

    def is_identity(self) -> bool:
        return self.forward.is_identity()

    def verify_roundtrip(self) -> bool:
        ring = self.ring
        for name in ring.vartable.names:
            v = RatFunc.of(ring.var(name), ring.one())
            if self.apply_inverse(self.apply(v)) != v:
                return False
            if self.apply(self.apply_inverse(v)) != v:
                return False
        return True


def identity_automorphism(ring: PolyRing) -> Automorphism:
    return Automorphism(PolySubst(ring, {}), {})


def induced_subst(ws: WordSubst, letters: Sequence[str],
                  ring: PolyRing | None = None) -> PolySubst:
    """Polynomial substitution induced on the letter variables."""
    if ring is None:
        ring = encode_ring(letters)
    images = {}
    for letter in letters:
        img = ws.image(letter)
        if img == (letter,):
            continue
        tilde, bar = encode_word(img, ring)
        lt, lb = letter_var_names(letter)
        images[lt] = tilde
        images[lb] = bar
    return PolySubst(ring, images)


def letter_counts(word: Word, letters: Sequence[str]) -> list[int]:
    return [sum(1 for x in word if x == l) for l in letters]


@dataclass(frozen=True)
class ComInjReport:
    injective: bool
    letters: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]  # rows: counted letter, cols: source
    det: Fraction


def com_injective_check(ws: WordSubst, letters: Sequence[str]) -> ComInjReport:
    """Letter-count matrix and its determinant; injectivity on the
    commutative image holds iff the determinant is nonzero."""
    letters = tuple(letters)
    cols = [letter_counts(ws.image(s), letters) for s in letters]
    matrix = tuple(tuple(Fraction(cols[j][i]) for j in range(len(letters)))
                   for i in range(len(letters)))
    det = mat_det(matrix, QQ)
    return ComInjReport(det != 0, letters, matrix, det)


def single_letter_nonvanishing(ws: WordSubst, letters: Sequence[str],
                               sigma: str) -> bool:
    """For substitutions touching only ``sigma``: does sigma survive?"""
    for l in letters:
        if l != sigma and ws.image(l) != (l,):
            raise DomainError(
                f"substitution is not single-letter: it also changes {l!r}")
    return sigma in ws.image(sigma)


def invert_substitution(ws: WordSubst, letters: Sequence[str],
                        ring: PolyRing | None = None) -> Automorphism:
    """Automorphism induced by a com-injective word substitution.

    The multiplicative variables transform by the letter-count matrix in
    the exponents, so the inverse images are monomials with the inverse
    matrix's (rational, possibly negative) entries as exponents.  The
    additive variables transform linearly with multiplicative-monomial
    coefficients; substituting the multiplicative inverses into that
    matrix and inverting it over the function field yields the additive
    inverse images.
    """
    letters = tuple(letters)
    if ring is None:
        ring = encode_ring(letters)
    report = com_injective_check(ws, letters)
    if not report.injective:
        raise NotComInjective(
            f"letter-count matrix is singular (det = {report.det})")
    n = len(letters)
    einv = mat_inverse(report.matrix, QQ)
    assert einv is not None

    # multiplicative inverses: bar(tau) -> prod_sigma bar(sigma)^einv[sigma][tau]
    bar_inverse: dict[str, RatFunc] = {}
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

    # additive system: tilde'(sigma) = sum_tau T[sigma][tau] * tilde(tau)
    field = FractionField(ring)
    that: list[list[RatFunc]] = []
    for sigma in letters:
        tilde, _ = encode_word(ws.image(sigma), ring)
        row = []
        for tau in letters:
            taut = letter_var_names(tau)[0]
            ti = ring.vartable.index(taut)
            coeff = ring.zero()
            for m, c in tilde.terms.items():
                if m.exp(ti) == 1:
                    coeff = coeff + ring.from_monomial(
                        Monomial((i, e) for i, e in m.exps if i != ti), c)
            row.append(field.coerce(coeff).substitute(bar_inverse))
        that.append(row)
    tinv = mat_inverse(that, field)
    if tinv is None:
        raise NotComInjective("additive subsystem is singular")
    tilde_inverse: dict[str, RatFunc] = {}
    for ti, tau in enumerate(letters):
        acc = field.zero()
        for si, sigma in enumerate(letters):
            acc = acc + tinv[ti][si] * field.coerce(
                ring.var(letter_var_names(sigma)[0]))
        tilde_inverse[letter_var_names(tau)[0]] = acc

    alpha = Automorphism(induced_subst(ws, letters, ring),
                         {**tilde_inverse, **bar_inverse})
    if not alpha.verify_roundtrip():
        raise NotComInjective("inverse verification failed")
    return alpha
