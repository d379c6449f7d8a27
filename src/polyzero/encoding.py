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
that function field.  Both solves cover only the letters that the
substitution moves: a letter it leaves fixed is its own image in both
systems, so its variables are their own inverse images.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainError, NotComInjective, StructureError
from .linalg import mat_det, mat_inverse
from .poly import (
    Monomial, Poly, PolyMap, PolyRing, QQ, RatFunc, VarKind,
    VarTable,
)

Word = tuple[str, ...]


def as_word(w: Iterable[str] | str) -> Word:
    return tuple(w)


def letter_var_names(letter: str) -> tuple[str, str]:
    """Variable names for a letter's additive and multiplicative parts."""
    base = "hash" if letter == "#" else letter
    return f"{base}t", f"{base}b"


def letter_pairs(letters: Sequence[str]) -> list[tuple[str, VarKind]]:
    """Variables of the letters: all additive ones first, then all
    multiplicative ones."""
    names = [letter_var_names(l) for l in letters]
    return ([(t, VarKind.ORDINARY) for t, _ in names]
            + [(b, VarKind.BAR) for _, b in names])


def encode_ring(letters: Sequence[str]) -> PolyRing:
    """Ring over the variables of :func:`letter_pairs`."""
    if len(set(letters)) != len(letters):
        raise StructureError(f"duplicate letters in {letters}")
    return PolyRing(VarTable.make(letter_pairs(letters)))


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


class PolySubst:
    """Simultaneous substitution of parameter variables by polynomials.

    The images lifted to :class:`RatFunc`, which ``apply_ratfunc``
    substitutes, are built on its first call and kept for the life of
    the instance, whose images are never changed."""

    def __init__(self, ring: PolyRing, images: Mapping[str, Poly]):
        for name, img in images.items():
            ring.vartable.index(name)
            if img.ring != ring:
                raise StructureError(f"image of {name!r} over a different ring")
        self.ring = ring
        self.images = images

    def is_identity(self) -> bool:
        return all(img == self.ring.var(name) for name, img in self.images.items())

    def apply_poly(self, p: Poly) -> Poly:
        if p.ring != self.ring:
            raise StructureError("substituting into a polynomial over another ring")
        return p.substitute(dict(self.images))

    @cached_property
    def _lifted(self) -> dict[str, RatFunc]:
        return {n: RatFunc.of(img, self.ring.one()) for n, img in self.images.items()}

    def apply_ratfunc(self, r: RatFunc) -> RatFunc:
        return r.substitute(self._lifted)

    def apply_pair(self, pair: tuple[Poly, Poly]) -> tuple[Poly, Poly]:
        return self.apply_poly(pair[0]), self.apply_poly(pair[1])


def _coeff_key(c: RatFunc) -> tuple:
    """The exact representation of ``c``: its numerator's and
    denominator's terms in order, with each coefficient's type, so that
    an ``int`` and an equal integral ``Fraction`` get different keys."""
    num, den = c.num.terms, c.den.terms
    return (tuple(num.items()), tuple(map(type, num.values())),
            tuple(den.items()), tuple(map(type, den.values())))


def _memoised(memo: dict[tuple, RatFunc], c: RatFunc,
              substitute: Callable[[RatFunc], RatFunc]) -> RatFunc:
    """``substitute(c)``, looked up in and stored into ``memo`` under
    the exact representation of ``c``."""
    key = _coeff_key(c)
    out = memo.get(key)
    if out is None:
        out = memo[key] = substitute(c)
    return out


class Automorphism:
    """Invertible endomorphism of the rational-function field over the
    parameter ring, given by forward polynomial images and inverse
    rational-function images of the variables.

    ``apply_inverse`` keeps a memo for the life of the instance (one
    grammar's twist), keyed by a coefficient's exact representation
    (:func:`_coeff_key`): each distinct coefficient is substituted once,
    and a hit returns the :class:`RatFunc` that the substitution built.
    Its callers, the pull-backs and ``verify_roundtrip``, map the same
    coefficients again and again.  ``apply``, which value enumeration
    calls with new coefficients for each new value, keeps no memo that
    would grow with the value tables; ``verify_roundtrip`` keeps its
    forward images for the check only.  A coefficient over another ring
    is substituted afresh."""

    def __init__(self, forward: PolySubst, inverse: Mapping[str, RatFunc]):
        self.forward = forward
        self.inverse = inverse

    @property
    def ring(self) -> PolyRing:
        return self.forward.ring

    @cached_property
    def _preimages(self) -> dict[tuple, RatFunc]:
        return {}

    def apply(self, c: RatFunc | Fraction) -> RatFunc | Fraction:
        if isinstance(c, (int, Fraction)):
            return c
        return self.forward.apply_ratfunc(c)

    def apply_inverse(self, c: RatFunc | Fraction) -> RatFunc | Fraction:
        if isinstance(c, (int, Fraction)):
            return c
        if c.ring != self.ring:
            return c.substitute(self.inverse)
        return _memoised(self._preimages, c,
                         lambda r: r.substitute(self.inverse))

    def is_identity(self) -> bool:
        return self.forward.is_identity()

    def verify_roundtrip(self) -> bool:
        """Whether both compositions of the two maps send every variable
        to itself.  A variable that the forward substitution leaves
        alone, and whose inverse image is exactly the variable over 1,
        passes without a substitution."""
        ring = self.ring
        images: dict[tuple, RatFunc] = {}

        def apply(c: RatFunc) -> RatFunc:
            return _memoised(images, c, self.forward.apply_ratfunc)

        for name in ring.vartable.names:
            v = RatFunc.of(ring.var(name), ring.one())
            if name not in self.forward.images and (
                    _coeff_key(self.inverse.get(name, v)) == _coeff_key(v)):
                # both compositions are the variable itself
                continue
            if self.apply_inverse(apply(v)) != v:
                return False
            if apply(self.apply_inverse(v)) != v:
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


class ComInjReport:
    __slots__ = ("injective", "letters", "matrix", "det")

    def __init__(self, injective: bool, letters: tuple[str, ...],
                 matrix: tuple[tuple[Fraction, ...], ...], det: Fraction):
        self.injective = injective
        self.letters = letters
        self.matrix = matrix  # rows: counted letter, cols: source
        self.det = det


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


def count_inverse(ws: WordSubst, letters: Sequence[str]
                  ) -> tuple[tuple[int, ...], list[list]] | None:
    """The positions in ``letters`` of the letters that ``ws`` moves, and
    the inverse over QQ of the letter-count matrix restricted to them
    (rows: counted letter, columns: source), or None when that block is
    singular.  A letter left fixed has a unit column in the whole
    matrix, so the whole matrix has the block's determinant, and ``ws``
    is com-injective exactly when this is not None."""
    letters = tuple(letters)
    moved = tuple(i for i, s in enumerate(letters) if s in ws.mapping)
    images = [ws.mapping[letters[i]] for i in moved]
    inv = mat_inverse([[img.count(letters[i]) for img in images]
                       for i in moved], QQ)
    return None if inv is None else (moved, inv)


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

    Both solves cost only the k letters that ``ws`` moves.  A fixed
    letter's column of the count matrix and its row of the additive
    system are unit vectors, so its two variables are their own inverse
    images, and the count inverse comes from the k x k block of moved
    letters (:func:`count_inverse`).  The additive system is inverted by the Gauss-Jordan
    elimination of :mod:`linalg` on ``[T | I]``, run on the k moved
    rows only and kept sparse: a fixed letter's row is never changed
    and pivots its own column; an operation on a zero entry, which
    leaves the other operand's representation as it is, is skipped, and
    a constant entry is not substituted into.
    Every other operation is the full elimination's, in its order, so
    the images are written exactly as that elimination writes them.
    """
    letters = tuple(letters)
    if ring is None:
        ring = encode_ring(letters)
    counts = count_inverse(ws, letters)
    if counts is None:
        raise NotComInjective("letter-count matrix is singular (det = 0)")
    moved, einv = counts
    n = len(letters)
    names = [letter_var_names(l) for l in letters]
    index = ring.vartable.index
    place = {l: i for i, l in enumerate(letters)}
    images = [ws.mapping[letters[i]] for i in moved]

    # multiplicative inverses: bar(tau) -> prod_sigma bar(sigma)^einv[sigma][tau],
    # where a fixed sigma's entry is -sum_mu count(sigma, mu) * einv[mu][tau]
    bar_inverse: dict[str, RatFunc] = {}
    block = {ti: c for c, ti in enumerate(moved)}
    for ti in range(n):
        tb = names[ti][1]
        c = block.get(ti)
        if c is None:
            bar_inverse[tb] = RatFunc(ring.var(tb), ring.one())
            continue
        exps: dict[int, Fraction] = {}
        for r, si in enumerate(moved):
            exps[si] = einv[r][c]
        for r, img in enumerate(images):
            for letter in img:
                si = place.get(letter)
                if si is not None and si not in block:
                    exps[si] = exps.get(si, 0) - einv[r][c]
        pos, neg = [], []
        for si, e in exps.items():
            if e:
                (pos if e > 0 else neg).append(
                    (index(names[si][1]), e if e > 0 else -e))
        bar_inverse[tb] = RatFunc(ring.from_monomial(Monomial(pos)),
                                  ring.from_monomial(Monomial(neg)))

    # additive system: tilde'(sigma) = sum_tau T[sigma][tau] * tilde(tau);
    # the moved rows of [T | I], column j < n of T and n + j of I
    field = ring.fraction_field
    one, zero = field.one(), field.zero()
    tilde_col = {index(t): j for j, (t, _) in enumerate(names)}
    rows: dict[int, dict[int, RatFunc]] = {}
    for si, img in zip(moved, images):
        tilde, _ = encode_word(img, ring)
        coeffs: dict[int, dict[Monomial, int]] = {}
        for m, c in tilde.terms.items():
            # each term holds one additive variable, at exponent 1
            ti = next(i for i, _ in m if i in tilde_col)
            coeffs.setdefault(tilde_col[ti], {})[
                Monomial._of(tuple(p for p in m if p[0] != ti))] = c
        row = rows[si] = {n + si: one}
        for tj, terms in coeffs.items():
            coeff = field.coerce(Poly(ring, terms))
            row[tj] = (coeff if coeff.num.is_constant()
                       else coeff.substitute(bar_inverse))
    at = {p: p for p in moved}  # moved position -> the row there
    for col in range(n):
        if col in block:
            piv = next((p for p in moved if p >= col and col in rows[at[p]]),
                       None)
            if piv is None:
                raise NotComInjective("additive subsystem is singular")
            at[col], at[piv] = at[piv], at[col]
            prow = rows[at[col]]
            inv = field.div(one, prow.pop(col))
            for j, x in prow.items():
                prow[j] = x * inv
        else:
            prow = {n + col: one}  # the fixed letter's row, past its pivot
        for row in rows.values():
            if row is prow:
                continue
            factor = row.pop(col, None)
            if factor is None:
                continue
            for j, y in prow.items():
                x = row.get(j, zero) - factor * y
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    tilde_inverse: dict[str, RatFunc] = {}
    for ti in range(n):
        tt = names[ti][0]
        if ti not in block:
            tilde_inverse[tt] = RatFunc(ring.var(tt), ring.one())
            continue
        acc = zero
        for j, c in sorted(rows[at[ti]].items()):
            acc = acc + c * field.coerce(ring.var(names[j - n][0]))
        tilde_inverse[tt] = acc

    alpha = Automorphism(induced_subst(ws, letters, ring),
                         {**tilde_inverse, **bar_inverse})
    if not alpha.verify_roundtrip():
        raise NotComInjective("inverse verification failed")
    return alpha
