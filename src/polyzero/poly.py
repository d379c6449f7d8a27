"""Sparse multivariate polynomials over exact coefficient fields.

A :class:`Poly` is a dict from :class:`Monomial` to a coefficient, tied to
a :class:`PolyRing` describing the variable table, the coefficient field
and the exponent mode.  Variables come in two classes:

* ``ORDINARY`` variables always carry nonnegative integer exponents;
* ``BAR`` variables carry rational exponents (nonnegative in ``RING``
  mode, unrestricted in ``FIELD`` mode).

Bar variables model multiplicative quantities (word-length products)
whose roots arise when word substitutions are inverted, e.g. the inverse
of ``ab -> ab^2`` sends ``ab`` to ``ab^(1/2)``.

Coefficients are rationals (field ``QQ``): ``int`` or, when not
integral, :class:`fractions.Fraction`; or :class:`RatFunc`, a reduced
quotient of two polynomials over a parameter ring (field
:class:`FractionField`).  Polynomial code combines coefficients through
``+ - *`` and the field's ``coerce``/``is_zero``, and divides them only
through ``field.div``: a bare ``/`` of two ``int`` would give a float.

A :class:`Monomial` is the tuple of its ``(index, exponent)`` pairs.
:class:`Poly` validates every exponent and drops every zero coefficient
on construction, except in the trusted ``Poly._raw`` behind sums,
negations, products, scalings, substitutions, coefficient maps, the ring
constants, the divisions by a monomial in ``RatFunc.of`` (one term over
one term is a merge) and ``poly_exact_div``, the product that moves a
one-term denominator's negative exponents up in ``RatFunc.of``, and
Groebner remainders: sums of valid exponents over one ring are valid, a
coefficient map keeps the monomials, a constant has only the unit
monomial, those quotient exponents are nonnegative where they must be,
and only a bar variable has a negative exponent to move.  ``_raw``
takes the dict it is given as the polynomial's own, unchecked and
uncopied, so its callers hand it a dict they have just built that holds
no zero coefficient: the sum, product, substitution and coefficient-map
loops drop a term that cancels or maps to zero, and the constants and
scalings drop a zero factor.
"""

from __future__ import annotations

import enum
import weakref
from functools import cached_property
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import DomainError, StructureError
from .lexer import TokenStream, tokenize

Exponent = Union[int, Fraction]
Coeff = Union[int, Fraction, "RatFunc"]


class VarKind(enum.Enum):
    ORDINARY = "ordinary"
    BAR = "bar"


class Mode(enum.Enum):
    RING = "ring"
    FIELD = "field"


def _norm_exp(e: Exponent) -> Exponent:
    # most exponents are ints; testing the Fraction ABC first would send
    # each of them through abc.__instancecheck__
    if type(e) is int:
        return e
    if isinstance(e, Fraction) and e.denominator == 1:
        return int(e)
    return e


# ---------------------------------------------------------------------------
# variable tables


class VarTable:
    """Ordered list of variable names with their kinds.  Immutable;
    equal and hashed by its names and kinds, so that equal tables find
    one interned ring."""

    __slots__ = ("names", "kinds", "_index")

    def __init__(self, names: tuple[str, ...], kinds: tuple[VarKind, ...]):
        if len(names) != len(kinds):
            raise StructureError("variable table with mismatched name/kind lists")
        if len(set(names)) != len(names):
            raise StructureError(f"duplicate variable names in {names}")
        _set_names(self, names)
        _set_kinds(self, kinds)
        _set_index(self, {n: i for i, n in enumerate(names)})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("VarTable is immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (
            (self.names, self.kinds) == (other.names, other.kinds))

    def __hash__(self) -> int:
        return hash((self.names, self.kinds))

    @staticmethod
    def make(pairs: Iterable[tuple[str, VarKind]]) -> "VarTable":
        pairs = tuple(pairs)
        return VarTable(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructureError(f"unknown variable {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._index

    def kind_of(self, i: int) -> VarKind:
        return self.kinds[i]

    def extended(self, pairs: Iterable[tuple[str, VarKind]]) -> "VarTable":
        pairs = tuple(pairs)
        return VarTable(self.names + tuple(p[0] for p in pairs),
                        self.kinds + tuple(p[1] for p in pairs))


# the slot setters, which VarTable's __setattr__ does not block
_set_names, _set_kinds = VarTable.names.__set__, VarTable.kinds.__set__
_set_index = VarTable._index.__set__

EMPTY_VARTABLE = VarTable((), ())


# ---------------------------------------------------------------------------
# monomials


class Monomial(tuple):
    """Product of variables with nonzero exponents, stored sparsely: the
    tuple of its ``(index, exponent)`` pairs sorted by index, so hashing,
    equality and dict lookups are tuple operations, and iterating a
    monomial walks its exponents (none for the unit monomial).
    Exponents are ``int`` when integral, ``Fraction`` otherwise.  A
    monomial knows only variable *indices*; validity against a ring's
    variable table and mode is checked by :class:`Poly`.
    """

    __slots__ = ()

    def __new__(cls, exps: Iterable[tuple[int, Exponent]]) -> "Monomial":
        items = []
        for i, e in exps:
            e = _norm_exp(e)
            if e != 0:
                items.append((i, e))
        items.sort()  # by index: a monomial names each variable once
        return tuple.__new__(cls, items)

    # Monomial._of(pairs): already sorted, normalised and nonzero pairs
    _of = classmethod(tuple.__new__)

    def __repr__(self) -> str:
        return f"Monomial({tuple(self)})"

    def is_unit(self) -> bool:
        return not self

    def exp(self, i: int) -> Exponent:
        for j, e in self:
            if j == i:
                return e
        return 0

    def mul(self, other: "Monomial") -> "Monomial":
        """Merge of the two sorted exponent tuples."""
        a, b = self, other
        if not a or not b:
            return other if not a else self
        if a[-1][0] < b[0][0] or b[-1][0] < a[0][0]:
            return Monomial._of(a + b if a[-1][0] < b[0][0] else b + a)
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            (ia, ea), (ib, eb) = a[i], b[j]
            if ia == ib:
                if ea + eb:
                    out.append((ia, _norm_exp(ea + eb)))
                i, j = i + 1, j + 1
            elif ia < ib:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        return Monomial._of((*out, *a[i:], *b[j:]))

    def div(self, other: "Monomial") -> "Monomial":
        d = dict(self)
        for i, e in other:
            d[i] = d.get(i, 0) - e
        return Monomial(d.items())

    def divides(self, other: "Monomial") -> bool:
        theirs = dict(other)
        for i, e in self:
            if e > theirs.get(i, 0):
                return False
        return True

    def lcm(self, other: "Monomial") -> "Monomial":
        d = dict(self)
        for i, e in other:
            d[i] = max(d.get(i, 0), e)
        return Monomial(d.items())

    def gcd(self, other: "Monomial") -> "Monomial":
        theirs = dict(other)
        out = []
        for i, e in self:
            m = min(e, theirs.get(i, 0))
            if m != 0:
                out.append((i, m))
        return Monomial._of(tuple(out))

    def pow_scalar(self, q: Exponent) -> "Monomial":
        return Monomial((i, e * q) for i, e in self)

    def total_degree(self) -> Exponent:
        return _norm_exp(sum(e for _, e in self))

    def rename(self, index_map: dict[int, int]) -> "Monomial":
        """The monomial with each index ``i`` replaced by ``index_map[i]``;
        the exponents of indices sent to one index add up."""
        out: dict[int, Exponent] = {}
        for i, e in self:
            j = index_map[i]
            out[j] = out[j] + e if j in out else e
        return Monomial(out.items())

    def var_indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self)


UNIT_MONOMIAL = Monomial(())


# ---------------------------------------------------------------------------
# coefficient fields


class RationalField:
    """The rationals: ``int`` elements, ``Fraction`` when not integral."""

    def coerce(self, x: object) -> int | Fraction:
        if isinstance(x, int):
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        raise StructureError(f"cannot coerce {x!r} into the rational field")

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def div(self, a: int | Fraction, b: int | Fraction) -> int | Fraction:
        q = Fraction(a, b)
        return q.numerator if q.denominator == 1 else q

    def is_zero(self, c: Fraction) -> bool:
        return c == 0

    def str_of(self, c: Fraction) -> str:
        return str(c)

    def sign_of(self, c: Fraction) -> int:
        return -1 if c < 0 else 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()


class FractionField:
    """Field of rational functions over a parameter polynomial ring.

    Elements are :class:`RatFunc` over ``param_ring`` (which itself has
    rational coefficients).  This is the coefficient field used for
    grammars whose values live in a function field, e.g. difference
    grammars of string transducers over the field generated by the
    letter variables.
    """

    def __init__(self, param_ring: "PolyRing"):
        if not isinstance(param_ring.field, RationalField):
            raise StructureError("parameter ring of a fraction field must be over QQ")
        self.param_ring = param_ring
        # RatFunc is immutable, so every caller can share the constants
        self._zero = self.coerce(0)
        self._one = self.coerce(1)

    def coerce(self, x: object) -> "RatFunc":
        if isinstance(x, RatFunc):
            if x.ring is not self.param_ring:
                raise StructureError("rational function over a different parameter ring")
            return x
        if isinstance(x, Poly):
            if x.ring is not self.param_ring:
                raise StructureError("parameter polynomial over a different ring")
            return RatFunc.of(x, self.param_ring.one())
        if isinstance(x, (int, Fraction)):
            return RatFunc.of(self.param_ring.const(Fraction(x)), self.param_ring.one())
        raise StructureError(f"cannot coerce {x!r} into the fraction field")

    def zero(self) -> "RatFunc":
        return self._zero

    def one(self) -> "RatFunc":
        return self._one

    def div(self, a: "RatFunc", b: "RatFunc") -> "RatFunc":
        if _is_one(b.num) and _is_one(b.den):
            return a
        return a / b

    def is_zero(self, c: "RatFunc") -> bool:
        return c.num.is_zero()

    def str_of(self, c: "RatFunc") -> str:
        return c.display()

    def sign_of(self, c: "RatFunc") -> int:
        if c.den.is_constant():
            lc = c.num.leading_coeff_lex()
            if lc is not None and lc < 0:
                return -1
        return 1

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FractionField)
                and self.param_ring is other.param_ring)

    def __hash__(self) -> int:
        return hash(("FractionField", self.param_ring.vartable.names))

    def __repr__(self) -> str:
        return f"QQ({', '.join(self.param_ring.vartable.names)})"


Field = Union[RationalField, FractionField]


# ---------------------------------------------------------------------------
# rings


class PolyRing:
    """Variable table plus coefficient field plus exponent mode.

    Interned: the constructor returns the one live ring for its
    (variable table, field, mode), kept in ``_RINGS``, which holds rings
    weakly, so equal rings are one object and compare and hash by
    identity.  Immutable.  Its instance dict holds what it builds once:
    ``one``, the variables, the lex key, its fraction field and its flat
    ring."""

    def __new__(cls, vartable: VarTable, field: Field = QQ,
                mode: Mode = Mode.RING) -> "PolyRing":
        key = (vartable, field, mode)
        ring = _RINGS.get(key)
        if ring is None:
            ring = object.__new__(cls)
            d = ring.__dict__  # past __setattr__, which blocks assignment
            d["vartable"] = vartable
            d["field"] = field
            d["mode"] = mode
            _RINGS[key] = ring
        return ring

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("PolyRing is immutable")

    # -- constructors ------------------------------------------------------

    def zero(self) -> "Poly":
        return Poly._raw(self, {})

    def one(self) -> "Poly":
        return self._one

    @cached_property
    def _one(self) -> "Poly":
        # built once per ring; Poly is immutable, so callers share it
        return Poly._raw(self, {UNIT_MONOMIAL: self.field.one()})

    @cached_property
    def _lex_key(self) -> Callable[[Monomial], tuple[Exponent, ...]]:
        """Sort key of the lex order in variable-table order, built once
        per ring."""
        return lex_walk(range(len(self.vartable)))

    def const(self, c: object) -> "Poly":
        c = self.field.coerce(c)
        return Poly._raw(self, {UNIT_MONOMIAL: c} if c else {})

    def var(self, name: str, exp: Exponent = 1) -> "Poly":
        p = self._vars.get(name) if exp == 1 else None
        if p is None:
            i = self.vartable.index(name)
            p = Poly(self, {Monomial(((i, exp),)): self.field.one()})
            if exp == 1:
                self._vars[name] = p
        return p

    @cached_property
    def _vars(self) -> dict[str, "Poly"]:
        # each variable at exponent 1, built once per ring, as ``one`` is
        return {}

    @cached_property
    def fraction_field(self) -> FractionField:
        """The field of rational functions over this ring."""
        return FractionField(self)

    @cached_property
    def _flat_ring(self) -> "PolyRing":
        # see flat_ring_for
        if not isinstance(self.field, FractionField):
            return self
        pt = self.field.param_ring.vartable
        return PolyRing(self.vartable.extended(zip(pt.names, pt.kinds)))

    def from_terms(self, terms: dict[Monomial, object]) -> "Poly":
        return Poly(self, {m: self.field.coerce(c) for m, c in terms.items()})

    def from_monomial(self, m: Monomial, c: object = 1) -> "Poly":
        return Poly(self, {m: self.field.coerce(c)})

    # -- structural helpers ------------------------------------------------

    def names(self) -> tuple[str, ...]:
        return self.vartable.names

    def with_mode(self, mode: Mode) -> "PolyRing":
        return PolyRing(self.vartable, self.field, mode)

    def extended(self, pairs: Iterable[tuple[str, VarKind]]) -> "PolyRing":
        return PolyRing(self.vartable.extended(pairs), self.field, self.mode)

    def validate_exponent(self, i: int, e: Exponent) -> None:
        kind = self.vartable.kind_of(i)
        if kind is VarKind.ORDINARY:
            if not isinstance(e, int) or e < 0:
                raise DomainError(
                    f"ordinary variable {self.vartable.names[i]!r} with exponent {e}")
        else:
            if e < 0 and self.mode is Mode.RING:
                raise DomainError(
                    f"bar variable {self.vartable.names[i]!r} with negative exponent "
                    f"{e} in ring mode")

    def parse(self, text: str) -> "Poly":
        return _parse_poly(self, text)


_RINGS: "weakref.WeakValueDictionary[tuple, PolyRing]" = (
    weakref.WeakValueDictionary())


def ordinary_ring(names: Iterable[str], field: Field = QQ, mode: Mode = Mode.RING) -> PolyRing:
    return PolyRing(VarTable.make((n, VarKind.ORDINARY) for n in names), field, mode)


def scalar_ring(field: Field) -> PolyRing:
    """Ring with no variables at all; constants of the given field."""
    return PolyRing(EMPTY_VARTABLE, field, Mode.RING)


# ---------------------------------------------------------------------------
# polynomials


def lex_walk(indices: Sequence[int]) -> Callable[[Monomial], tuple[Exponent, ...]]:
    """Sort key of the lex order on the given variables, in their order:
    their exponents, read in one walk over a monomial's exponents;
    ``key.heap``, their negations, is its descending key."""
    n = len(indices)
    place = {i: k for k, i in enumerate(indices)}

    def key(m: Monomial) -> tuple[Exponent, ...]:
        out: list[Exponent] = [0] * n
        for i, e in m:
            out[place[i]] = e
        return tuple(out)

    def heap(m: Monomial) -> tuple[Exponent, ...]:
        out: list[Exponent] = [0] * n
        for i, e in m:
            out[place[i]] = -e
        return tuple(out)

    key.heap = heap
    return key


class Poly:
    """Immutable sparse polynomial over a :class:`PolyRing`."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, Coeff]):
        clean: dict[Monomial, Coeff] = {}
        for m, c in terms.items():
            if ring.field.is_zero(c):
                continue
            for i, e in m:
                if i >= len(ring.vartable):
                    raise StructureError("monomial index outside the variable table")
                ring.validate_exponent(i, e)
            clean[m] = c
        _set_ring(self, ring)
        _set_terms(self, clean)

    @classmethod
    def _raw(cls, ring: PolyRing, terms: dict[Monomial, Coeff]) -> "Poly":
        """The polynomial whose term dict is ``terms`` itself: no copy,
        no validation and no zero filter, for a fresh dict of terms that
        the module docstring names valid by design and that holds no
        zero (in both fields, falsy) coefficient."""
        p = _new(cls)
        _set_ring(p, ring)
        _set_terms(p, terms)
        return p

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Poly is immutable")

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m.is_unit() for m in self.terms)

    def constant_value(self) -> Coeff:
        if self.is_zero():
            return self.ring.field.zero()
        if not self.is_constant():
            raise DomainError(f"{self} is not a constant")
        return self.terms[UNIT_MONOMIAL]

    def coeff_of(self, m: Monomial) -> Coeff:
        return self.terms.get(m, self.ring.field.zero())

    def total_degree(self) -> Exponent | None:
        if not self.terms:
            return None
        return max(m.total_degree() for m in self.terms)

    def vars_used(self) -> set[str]:
        names = self.ring.vartable.names
        return {names[i] for m in self.terms for i in m.var_indices()}

    def as_unit_monomial(self) -> Monomial | None:
        """The single monomial if this is one with coefficient 1, else None."""
        if len(self.terms) != 1:
            return None
        (m, c), = self.terms.items()
        if c != self.ring.field.one():
            return None
        return m

    def leading_coeff_lex(self) -> Coeff | None:
        """Coefficient of the lex-largest term (variable-table order)."""
        terms = self.terms
        if len(terms) < 2:
            return next(iter(terms.values()), None)
        return terms[max(terms, key=self.ring._lex_key)]

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.ring is not other.ring:
            raise StructureError("polynomials over different rings")

    def __add__(self, other: object) -> "Poly":
        if type(other) is not Poly or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
            self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            if m in terms:
                # each monomial of other comes once: a cancelled one is gone
                c = terms[m] + c
                if c:
                    terms[m] = c
                else:
                    del terms[m]
            else:
                terms[m] = c
        return Poly._raw(self.ring, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: object) -> "Poly":
        if type(other) is not Poly or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "Poly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "Poly":
        if type(other) is not Poly or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
            self._check(other)
        mine, theirs = self.terms, other.terms
        # products of nonzero coefficients are nonzero in both fields
        if len(mine) == 1 and len(theirs) == 1:
            # the loop's one product
            (m1, c1), = mine.items()
            (m2, c2), = theirs.items()
            return Poly._raw(self.ring, {m1.mul(m2): c1 * c2})
        # a constant operand scales the other, in the loop's operand order
        if len(theirs) == 1 and UNIT_MONOMIAL in theirs:
            c = theirs[UNIT_MONOMIAL]
            return Poly._raw(self.ring, {m: k * c for m, k in mine.items()})
        if len(mine) == 1 and UNIT_MONOMIAL in mine:
            c = mine[UNIT_MONOMIAL]
            return Poly._raw(self.ring, {m: c * k for m, k in theirs.items()})
        terms: dict[Monomial, Coeff] = {}
        others = theirs.items()
        cancelled = False
        for m1, c1 in mine.items():
            mul = m1.mul
            for m2, c2 in others:
                m = mul(m2)
                c = c1 * c2
                if m in terms:
                    c = terms[m] + c
                    cancelled = cancelled or not c
                terms[m] = c
        return Poly._raw(self.ring, _without_zeros(terms) if cancelled else terms)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise DomainError(f"polynomial power with exponent {e!r}")
        out = self.ring.one()
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def scale(self, c: object) -> "Poly":
        c = self.ring.field.coerce(c)
        if not c:
            return self.ring.zero()
        return Poly._raw(self.ring, {m: k * c for m, k in self.terms.items()})

    def _coerce(self, other: object) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)) or isinstance(other, RatFunc):
            try:
                return self.ring.const(other)
            except StructureError:
                return NotImplemented
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring is other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:  # the slot is set on the first call
            h = hash((self.ring.vartable.names, frozenset(self.terms)))
            _set_hash(self, h)
            return h

    # -- structure-changing operations --------------------------------------

    def map_coefficients(self, fn: Callable[[Coeff], Coeff]) -> "Poly":
        coerce = self.ring.field.coerce
        return Poly._raw(self.ring, {m: k for m, c in self.terms.items()
                                     if (k := coerce(fn(c)))})

    def convert(self, target_ring: PolyRing,
                rename: dict[str, str] | None = None) -> "Poly":
        """Rebuild over another ring, matching variables by name."""
        src_names = self.ring.vartable.names
        index_map: dict[int, int] = {}
        terms: dict[Monomial, Coeff] = {}
        for m, c in self.terms.items():
            for i, _ in m:
                if i not in index_map:
                    name = src_names[i]
                    if rename:
                        name = rename.get(name, name)
                    index_map[i] = target_ring.vartable.index(name)
            m2 = m.rename(index_map)
            c2 = target_ring.field.coerce(c)
            if m2 in terms:
                terms[m2] = terms[m2] + c2
            else:
                terms[m2] = c2
        return Poly(target_ring, terms)

    def substitute(self, mapping: dict[str, "Poly"],
                   target_ring: PolyRing | None = None) -> "Poly":
        """Simultaneously replace variables by polynomials.

        Variables not in the mapping stay themselves (they must exist in
        the target ring).  A variable raised to a fractional power may
        only be bound to a coefficient-one monomial.  The integer powers
        of each image are built once per call, one product per power.
        """
        ring = target_ring if target_ring is not None else self.ring
        for name, img in mapping.items():
            if img.ring is not ring:
                raise StructureError(f"image of {name!r} lives in a different ring")
        names = self.ring.vartable.names
        coerce = ring.field.coerce
        one = ring.one()
        powers: dict[int, list[Poly]] = {}
        terms: dict[Monomial, Coeff] = {}
        cancelled = False
        for m, c in self.terms.items():
            acc = one
            for i, e in m:
                img = mapping.get(names[i])
                if img is None:
                    factor = ring.var(names[i], e)
                elif isinstance(e, int) and e >= 0:
                    table = powers.get(i)
                    if table is None:
                        table = powers[i] = [one, img]
                    while len(table) <= e:
                        table.append(table[-1] * img)
                    factor = table[e]
                else:
                    um = img.as_unit_monomial()
                    if um is None:
                        raise DomainError(
                            f"variable {names[i]!r} with fractional exponent {e} "
                            f"bound to non-monomial {img}")
                    factor = ring.from_monomial(um.pow_scalar(e))
                # ``acc is one`` until the first factor: skip that product
                acc = factor if acc is one else acc * factor
            c = coerce(c)
            for mm, cc in acc.terms.items():
                cc = c * cc
                if mm in terms:
                    cc = terms[mm] + cc
                    cancelled = cancelled or not cc
                terms[mm] = cc
        # sums and products of polynomials over ``ring`` are valid there
        return Poly._raw(ring, _without_zeros(terms) if cancelled else terms)

    def substitute_frac(self, mapping: dict[str, "RatFunc"]) -> "RatFunc":
        """Replace variables by rational functions over the same ring.

        Defined for polynomials with rational coefficients only.  The
        result is built over one common denominator ``D``, the product
        over the variables of ``n**N * d**P * L`` for an image ``n/d``
        (an unmapped variable is its own image): ``P`` is the largest
        positive exponent of the variable, ``N`` the largest absolute
        negative one, and ``L`` the lcm of the monomial denominators of
        its fractional powers, which need the image to be a quotient of
        coefficient-one monomials.  Each term adds its numerator times
        ``D / d_term`` into one dict, from powers of ``n`` and ``d``
        built once per call; the sum is normalised once,
        ``RatFunc.of(N, D)``.  A negative power of a zero image, and a
        fractional power of a non-monomial one, raise ``DomainError``.
        """
        if not isinstance(self.ring.field, RationalField):
            raise StructureError("substitute_frac needs rational coefficients")
        ring = self.ring
        names = ring.vartable.names
        one = ring.one()

        def times(a: Poly, b: Poly) -> Poly:
            """Product that skips the factor ``one``."""
            return b if a is one else a if b is one else a * b

        # per variable index: [image numerator, image denominator, P, N, L]
        shares: dict[int, list] = {}
        fracs: dict[tuple[int, Fraction], RatFunc] = {}
        for m in self.terms:
            for i, e in m:
                share = shares.get(i)
                if share is None:
                    img = mapping.get(names[i])
                    if img is None:
                        n, d = ring.var(names[i]), one
                    elif img.ring is not ring:
                        raise StructureError(
                            f"image of {names[i]!r} lives in a different ring")
                    else:
                        n, d = img.num, (one if img.den == one else img.den)
                    share = shares[i] = [n, d, 0, 0, UNIT_MONOMIAL]
                if not isinstance(e, int):
                    if (i, e) not in fracs:
                        f = fracs[i, e] = RatFunc(share[0], share[1]).pow_frac(e)
                        (neg,) = f.den.terms
                        share[4] = share[4].lcm(neg)
                elif e > 0:
                    share[2] = max(share[2], e)
                else:
                    if share[0].is_zero():
                        raise DomainError("negative power of zero")
                    share[3] = max(share[3], -e)
        # (variable index, 0 for the numerator or 1 for the denominator)
        # -> [1, base, base**2, ...]
        powers: dict[tuple[int, int], list[Poly]] = {}

        def power(i: int, which: int, k: int) -> Poly:
            table = powers.setdefault((i, which), [one])
            while len(table) <= k:
                table.append(times(table[-1], shares[i][which]))
            return table[k]

        factors: dict[tuple[int, Exponent], Poly] = {}

        def factor(i: int, e: Exponent) -> Poly:
            """The image's power ``e`` times the rest of the variable's
            share of ``D``: ``n**a * d**b * mono``."""
            f = factors.get((i, e))
            if f is None:
                _, _, top, bottom, lcm_den = shares[i]
                if isinstance(e, int):
                    a, b, mono = bottom + e, top - e, lcm_den
                else:
                    frac = fracs[i, e]
                    (pos,), (neg,) = frac.num.terms, frac.den.terms
                    a, b, mono = bottom, top, pos.mul(lcm_den.div(neg))
                f = times(power(i, 0, a), power(i, 1, b))
                if not mono.is_unit():
                    f = times(f, ring.from_monomial(mono))
                factors[i, e] = f
            return f

        terms: dict[Monomial, Coeff] = {}
        cancelled = False
        for m, c in self.terms.items():
            exps = dict(m)
            acc = one
            for i in shares:
                acc = times(acc, factor(i, exps.get(i, 0)))
            for mm, cc in acc.terms.items():
                cc = c * cc
                if mm in terms:
                    cc = terms[mm] + cc
                    cancelled = cancelled or not cc
                terms[mm] = cc
        den = one
        for i in shares:
            den = times(den, factor(i, 0))
        # sums and products of polynomials over ``ring`` are valid there
        return RatFunc.of(
            Poly._raw(ring, _without_zeros(terms) if cancelled else terms), den)

    def evaluate(self, point: dict[str, Fraction]) -> Fraction:
        """Evaluate at a rational point; roots must exist exactly."""
        if not isinstance(self.ring.field, RationalField):
            raise StructureError("evaluate needs rational coefficients")
        names = self.ring.vartable.names
        total = Fraction(0)
        for m, c in self.terms.items():
            acc = Fraction(c)
            for i, e in m:
                if names[i] not in point:
                    raise DomainError(f"no value given for variable {names[i]!r}")
                acc *= rational_pow(Fraction(point[names[i]]), Fraction(e))
            total += acc
        return total

    # -- printing ------------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({format_poly(self)})"

    def sorted_terms(self) -> list[tuple[Monomial, Coeff]]:
        """Terms in descending lexicographic order (variable-table order)."""
        key = self.ring._lex_key
        return sorted(self.terms.items(), key=lambda mc: key(mc[0]),
                      reverse=True)


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """Quotient of two polynomials over a rational-coefficient ring.

    Normal form: the numerator's and denominator's common monomial
    content is cancelled, exact division is attempted (over a
    one-parameter ring the whole gcd is cancelled), and the
    denominator is made monic (lex leading coefficient 1) by dividing
    every coefficient through ``field.div``, so integral ones are
    ``int``; a constant denominator ``c`` goes straight to that result,
    ``(num/c, 1)``, and so does one term over one term, split in one
    merge of the exponent tuples: a positive exponent difference goes
    up, a negative one down, as cancelling their gcd leaves.  A one-term
    denominator keeps no negative exponent: each moves up into the
    numerator, so one term over one term has one shape.  When both
    operands of ``+``, ``-`` or ``*`` are polynomials (denominator
    exactly ``1``), the result is ``(num1 op num2, 1)`` without ``of``:
    the same numerator terms, coefficient types and denominator
    ``ring.one()`` that ``of`` gives those inputs.  ``substitute`` takes
    a polynomial to its numerator's image, which is what dividing that
    by the image of ``1`` gives.  Equality is decided by
    cross-multiplication, never by gcd computations, so two equal values
    may have different representations; for that reason RatFunc is
    deliberately unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RatFunc is immutable")

    @property
    def ring(self) -> PolyRing:
        return self.num.ring

    @classmethod
    def of(cls, num: Poly, den: Poly) -> "RatFunc":
        ring = num.ring
        if ring is not den.ring:
            raise StructureError("numerator and denominator over different rings")
        if den.is_zero():
            raise DomainError("zero denominator")
        if num.is_zero():
            return cls(ring.zero(), ring.one())
        field = ring.field
        if len(den.terms) == 1:
            (dm, dc), = den.terms.items()
            if dm.is_unit():
                if dc != 1:
                    num = _div_coefficients(num, dc)
                return cls(num, ring.one())
            if len(num.terms) == 1:
                # the general path below, on one term over one term: the
                # quotient nm/dm in one merge, its positive exponents up
                # and its negative ones down
                (nm, nc), = num.terms.items()
                top, bottom, j = [], [], 0
                for i, e in nm:
                    while j < len(dm) and dm[j][0] < i:
                        k, d = dm[j]
                        (bottom if d > 0 else top).append((k, d if d > 0 else -d))
                        j += 1
                    if j < len(dm) and dm[j][0] == i:
                        e = _norm_exp(e - dm[j][1])
                        j += 1
                    if e:
                        (top if e > 0 else bottom).append((i, e if e > 0 else -e))
                for k, d in dm[j:]:
                    (bottom if d > 0 else top).append((k, d if d > 0 else -d))
                if not bottom:  # nm/dm is a monomial
                    return cls(Poly._raw(ring, {Monomial._of(top): field.div(nc, dc)}),
                               ring.one())
                if dc != 1:
                    nc, dc = field.div(nc, dc), 1
                return cls(Poly._raw(ring, {Monomial._of(top): nc}),
                           Poly._raw(ring, {Monomial._of(bottom): dc}))
            up = [(i, -e) for i, e in dm if e < 0]
            if up:  # a negative exponent of the denominator moves up
                up = Monomial._of(up)
                num = Poly._raw(ring, {m.mul(up): c for m, c in num.terms.items()})
                den = Poly._raw(ring, {dm.mul(up): dc})
        content = _poly_content(num).gcd(_poly_content(den))
        if not content.is_unit():
            num = _poly_div_mono(num, content)
            den = _poly_div_mono(den, content)
        q = poly_exact_div(num, den)
        if q is not None:
            num, den = q, ring.one()
        elif ring.vartable.kinds == (VarKind.ORDINARY,):
            num, den = _cancel_univariate(num, den)
        lc = den.leading_coeff_lex()
        if lc != 1:
            num, den = _div_coefficients(num, lc), _div_coefficients(den, lc)
        return cls(num, den)

    def _coerce(self, other: object) -> "RatFunc":
        if isinstance(other, RatFunc):
            if other.ring is not self.ring:
                raise StructureError("rational functions over different rings")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.of(self.ring.const(other), self.ring.one())
        if isinstance(other, Poly) and other.ring is self.ring:
            return RatFunc.of(other, self.ring.one())
        return NotImplemented

    def __add__(self, other: object) -> "RatFunc":
        if type(other) is not RatFunc or other.num.ring is not self.num.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if _is_one(self.den) and _is_one(other.den):
            return RatFunc(self.num + other.num, self.num.ring.one())
        return RatFunc.of(self.num * other.den + other.num * self.den,
                          self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other: object) -> "RatFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: object) -> "RatFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: object) -> "RatFunc":
        if type(other) is not RatFunc or other.num.ring is not self.num.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if _is_one(self.den) and _is_one(other.den):
            return RatFunc(self.num * other.num, self.num.ring.one())
        return RatFunc.of(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RatFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise DomainError("division by zero rational function")
        return RatFunc.of(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: object) -> "RatFunc":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, e: int) -> "RatFunc":
        if not isinstance(e, int):
            raise DomainError("use pow_frac for fractional powers")
        if e < 0:
            if self.num.is_zero():
                raise DomainError("negative power of zero")
            return RatFunc.of(self.den ** (-e), self.num ** (-e))
        return RatFunc.of(self.num ** e, self.den ** e)

    def pow_frac(self, q: Fraction) -> "RatFunc":
        """Fractional power; defined for quotients of coefficient-1 monomials."""
        q = Fraction(q)
        if q.denominator == 1:
            return self ** int(q)
        mn = self.num.as_unit_monomial()
        md = self.den.as_unit_monomial()
        if mn is None or md is None:
            raise DomainError(f"fractional power of non-monomial {self.display()}")
        combined = mn.div(md).pow_scalar(q)
        pos = Monomial((i, e) for i, e in combined if e > 0)
        neg = Monomial((i, -e) for i, e in combined if e < 0)
        ring = self.ring
        return RatFunc(ring.from_monomial(pos), ring.from_monomial(neg))

    def __eq__(self, other: object) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # type: ignore[assignment]

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def substitute(self, mapping: dict[str, "RatFunc"]) -> "RatFunc":
        if _is_one(self.den):
            # what dividing by the substituted denominator, 1, would give
            return self.num.substitute_frac(mapping)
        num = self.num.substitute_frac(mapping)
        den = self.den.substitute_frac(mapping)
        if den.num.is_zero():
            raise DomainError("substitution produced a zero denominator")
        return num / den

    def evaluate(self, point: dict[str, Fraction]) -> Fraction:
        d = self.den.evaluate(point)
        if d == 0:
            raise DomainError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / d

    def display(self) -> str:
        if self.den == self.ring.one():
            if self.num.is_constant() or len(self.num.terms) == 1:
                return format_poly(self.num)
            return f"({format_poly(self.num)})"
        return f"(({format_poly(self.num)})/({format_poly(self.den)}))"

    def __str__(self) -> str:
        return self.display()

    def __repr__(self) -> str:
        return f"RatFunc({self.display()})"


_new = object.__new__
# the slot setters, which the immutable classes' __setattr__ does not block
_set_ring, _set_terms = Poly.ring.__set__, Poly.terms.__set__
_set_hash = Poly._hash.__set__
_set_num, _set_den = RatFunc.num.__set__, RatFunc.den.__set__


def _without_zeros(terms: dict[Monomial, Coeff]) -> dict[Monomial, Coeff]:
    """The terms whose coefficient did not cancel, in their order."""
    return {m: c for m, c in terms.items() if c}


def _div_coefficients(p: Poly, c: Coeff) -> Poly:
    """``p`` with each coefficient divided by ``c`` through ``field.div``,
    so an integral quotient over QQ is an ``int``."""
    div = p.ring.field.div
    return Poly._raw(p.ring, {m: div(k, c) for m, k in p.terms.items()})


def _is_one(p: Poly) -> bool:
    """Whether p is exactly ``ring.one()`` over QQ: the unit monomial with
    the ``int`` coefficient 1, the denominator ``RatFunc.of`` gives every
    polynomial."""
    if len(p.terms) != 1:
        return False
    c = p.terms.get(UNIT_MONOMIAL)
    return type(c) is int and c == 1


def _poly_content(p: Poly) -> Monomial:
    """Largest monomial dividing every term of ``p`` (unit for zero)."""
    mono: Monomial | None = None
    for m in p.terms:
        mono = m if mono is None else mono.gcd(m)
        if mono.is_unit():
            break
    return mono if mono is not None else UNIT_MONOMIAL


def _poly_div_mono(p: Poly, m: Monomial) -> Poly:
    """``p`` over a divisor ``m`` of its monomial content, unchecked:
    where exponents must be nonnegative, ``m``'s are at most every
    term's, so each quotient exponent is nonnegative (an ``int`` too)."""
    return Poly._raw(p.ring, {t.div(m): c for t, c in p.terms.items()})


def _dense(p: Poly) -> list[Fraction]:
    """Coefficients of a one-variable polynomial, lowest degree first."""
    out = [Fraction(0)] * (max(m[0][1] if m else 0 for m in p.terms) + 1)
    for m, c in p.terms.items():
        out[m[0][1] if m else 0] = Fraction(c)
    return out


def _dense_divmod(a: list[Fraction], b: list[Fraction]
                  ) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of dense ``a`` by dense ``b`` (nonzero top
    coefficient); the remainder has no trailing zeros."""
    a = list(a)
    db = len(b) - 1
    inv = Fraction(1, b[-1])
    q = [Fraction(0)] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] * inv
        if c:
            q[k] = c
            for j in range(db):
                a[k + j] -= c * b[j]
    r = a[:db]
    while r and not r[-1]:
        r.pop()
    return q, r


def _cancel_univariate(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """``num`` and ``den`` over a one-variable ring divided by their
    monic gcd (Euclid over QQ with monic remainders); unchanged when
    they are coprime."""
    a, b = _dense(den), _dense(num)
    while b:
        inv = Fraction(1, b[-1])
        b = [c * inv for c in b]
        a, b = b, _dense_divmod(a, b)[1]
    if len(a) == 1:
        return num, den
    ring = num.ring

    def div(p: Poly) -> Poly:
        q = _dense_divmod(_dense(p), a)[0]
        return Poly._raw(ring, {Monomial._of(((0, k),) if k else ()):
                                ring.field.coerce(c)
                                for k, c in enumerate(q) if c})
    return div(num), div(den)


def poly_exact_div(a: Poly, b: Poly) -> Poly | None:
    """Exact quotient ``a / b`` or None when ``b`` does not divide ``a``.

    Single-divisor division along lex leading terms; sound for both
    integer and fractional exponents because the leading term strictly
    drops at each step.  Two cases skip the loop.

    A one-term ``b``, constants included, divides ``a`` term by term,
    through ``field.div`` in descending lex order.  Over QQ these are
    the terms, coefficient types and term order that the loop builds,
    and the result is None where the loop's is: when a quotient
    exponent is negative.  A nonnegative one is valid in the ring, as
    the difference of two ``int`` on an ordinary variable, and on a bar
    variable in either mode, so the result is built unchecked.  Unlike
    the loop, this path has no bound on the number of terms of ``a``.

    A one-term ``a`` over a ``b`` of two or more terms gives None at
    once.  The lex-leading terms of two factors multiply to the leading
    term of their product, and the trailing terms to its trailing
    term, so every nonzero multiple of such a ``b`` has two terms.
    """
    if b.is_zero():
        raise DomainError("division by the zero polynomial")
    ring = a.ring
    key = ring._lex_key
    if len(b.terms) == 1:
        (bm, bc), = b.terms.items()
        div = ring.field.div
        terms: dict[Monomial, Coeff] = {}
        for am in sorted(a.terms, key=key, reverse=True):
            t = am.div(bm) if bm else am
            if any(e < 0 for _, e in t):
                return None
            terms[t] = div(a.terms[am], bc)
        return Poly._raw(ring, terms)
    if len(a.terms) == 1:
        return None
    bm = max(b.terms, key=key)
    bc = b.terms[bm]
    q_terms: dict[Monomial, Coeff] = {}
    rem = a
    guard = 0
    while not rem.is_zero():
        guard += 1
        if guard > 10000:
            return None
        am = max(rem.terms, key=key)
        t = am.div(bm)
        if any(e < 0 for _, e in t):
            return None
        try:
            for i, e in t:
                ring.validate_exponent(i, e)
        except DomainError:
            return None
        c = ring.field.div(rem.terms[am], bc)
        q_terms[t] = q_terms.get(t, ring.field.zero()) + c
        rem = rem - ring.from_monomial(t, c) * b
    return Poly(ring, q_terms)


# ---------------------------------------------------------------------------
# exact rational powers


def _int_root(n: int, k: int) -> int | None:
    """Exact k-th root of a nonnegative integer, or None."""
    if n < 0:
        raise ValueError("negative radicand")
    if n in (0, 1) or k == 1:
        return n
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo ** k == n else None


def rational_pow(base: Fraction, exp: Fraction) -> Fraction:
    """``base ** exp`` exactly, raising DomainError when no exact value exists."""
    exp = Fraction(exp)
    if exp.denominator == 1:
        e = int(exp)
        if base == 0 and e < 0:
            raise DomainError("zero raised to a negative power")
        return base ** e
    q = exp.denominator
    if base < 0:
        if q % 2 == 0:
            raise DomainError(f"even root of negative rational {base}")
        sign = -1
        base = -base
    else:
        sign = 1
    rn = _int_root(base.numerator, q)
    rd = _int_root(base.denominator, q)
    if rn is None or rd is None:
        raise DomainError(f"{base} has no exact {q}-th root")
    root = Fraction(sign * rn, rd)
    p = exp.numerator
    if root == 0 and p < 0:
        raise DomainError("zero raised to a negative power")
    return root ** p


# ---------------------------------------------------------------------------
# polynomial maps


class PolyMap:
    """Tuple of polynomials used as a map on value vectors.

    ``slots`` are the input variables; the remaining variables of
    ``ring`` are ambient (they survive into the values).  Outputs may
    mention slots and ambient variables only, which the Poly constructor
    enforces through the shared variable table.  Values live in the
    ``value_ring`` of the ambient variables, built once per map, and
    :meth:`apply` substitutes them straight into it.
    """

    def __init__(self, ring: PolyRing, slots: tuple[str, ...],
                 outputs: tuple[Poly, ...]):
        for s in slots:
            ring.vartable.index(s)
        if len(set(slots)) != len(slots):
            raise StructureError("duplicate slot names")
        for p in outputs:
            if p.ring is not ring:
                raise StructureError("map output over a different ring")
        self.ring = ring
        self.slots = slots
        self.outputs = outputs

    @property
    def n_inputs(self) -> int:
        return len(self.slots)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def ambient_names(self) -> tuple[str, ...]:
        slot_set = set(self.slots)
        return tuple(n for n in self.ring.vartable.names if n not in slot_set)

    @cached_property
    def value_ring(self) -> PolyRing:
        vt = self.ring.vartable
        return PolyRing(
            VarTable.make((n, vt.kinds[vt.index(n)]) for n in self.ambient_names()),
            self.ring.field, self.ring.mode)

    def apply(self, args: tuple[Poly, ...]) -> tuple[Poly, ...]:
        """The outputs at values over the value ring."""
        if len(args) != len(self.slots):
            raise StructureError(
                f"map of arity {len(self.slots)} applied to {len(args)} values")
        vring = self.value_ring
        mapping = dict(zip(self.slots, args))
        return tuple(p.substitute(mapping, target_ring=vring) for p in self.outputs)

    def eval_at(self, point: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
        """Evaluate at a rational point (no ambient variables allowed)."""
        if self.ambient_names():
            raise DomainError("eval_at with ambient variables present")
        env = {s: Fraction(v) for s, v in zip(self.slots, point)}
        return tuple(p.evaluate(env) for p in self.outputs)


def map_ring_over(value_ring: PolyRing,
                  slot_pairs: Iterable[tuple[str, VarKind]]) -> PolyRing:
    """Ring for maps into ``value_ring``: slot variables then ambient ones."""
    return PolyRing(
        VarTable.make(slot_pairs).extended(
            zip(value_ring.vartable.names, value_ring.vartable.kinds)),
        value_ring.field, value_ring.mode)


# ---------------------------------------------------------------------------
# textual syntax


def format_exponent(e: Exponent) -> str:
    if isinstance(e, int):
        return str(e) if e >= 0 else f"({e})"
    return f"({e.numerator}/{e.denominator})" if e >= 0 else f"(-{-e.numerator}/{e.denominator})"


def format_poly(p: Poly) -> str:
    """Canonical text: descending lex terms, ``^`` powers, ``*`` products."""
    if p.is_zero():
        return "0"
    field = p.ring.field
    names = p.ring.vartable.names
    pieces: list[str] = []
    for m, c in p.sorted_terms():
        sign = field.sign_of(c)
        if sign < 0:
            c = -c
        factors = [f"{names[i]}^{format_exponent(e)}" if e != 1 else names[i]
                   for i, e in m]
        cs = field.str_of(c)
        if not factors:
            body = cs
        elif cs == "1":
            body = "*".join(factors)
        else:
            body = "*".join([cs] + factors)
        if not pieces:
            pieces.append(body if sign > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if sign > 0 else f" - {body}")
    return "".join(pieces)


def _parse_exponent(ts: TokenStream) -> Exponent:
    if ts.at("int"):
        return int(ts.next().text)
    ts.expect("sym", "(")
    neg = ts.accept("sym", "-") is not None
    num = int(ts.expect("int").text)
    den = 1
    if ts.accept("sym", "/"):
        den = int(ts.expect("int").text)
    ts.expect("sym", ")")
    e = Fraction(-num if neg else num, den)
    return _norm_exp(e)


def parse_poly_tokens(ring: PolyRing, ts: TokenStream) -> Poly:
    """Sum of terms; factors are rationals, variables with optional powers,
    or parenthesized subexpressions."""

    def parse_factor() -> Poly:
        if ts.at("int"):
            num = int(ts.next().text)
            if ts.accept("sym", "/"):
                den = int(ts.expect("int").text)
                if den == 0:
                    raise ts.error("zero denominator in coefficient")
                return ring.const(Fraction(num, den))
            return ring.const(Fraction(num))
        if ts.at("ident"):
            name = ts.next().text
            if not ring.vartable.has(name):
                raise ts.error(f"unknown variable {name!r}")
            if ts.accept("sym", "^"):
                e = _parse_exponent(ts)
                try:
                    return ring.var(name, e)
                except DomainError as exc:
                    raise ts.error(str(exc)) from None
            return ring.var(name)
        if ts.accept("sym", "("):
            inner = parse_sum()
            ts.expect("sym", ")")
            return inner
        raise ts.error(f"expected a polynomial factor, found {ts.peek().text!r}")

    def parse_term() -> Poly:
        p = parse_factor()
        while ts.accept("sym", "*"):
            p = p * parse_factor()
        return p

    def parse_sum() -> Poly:
        if ts.accept("sym", "-"):
            p = -parse_term()
        else:
            ts.accept("sym", "+")
            p = parse_term()
        while True:
            if ts.accept("sym", "+"):
                p = p + parse_term()
            elif ts.accept("sym", "-"):
                p = p - parse_term()
            else:
                return p

    return parse_sum()


def _parse_poly(ring: PolyRing, text: str) -> Poly:
    ts = TokenStream(tokenize(text))
    p = parse_poly_tokens(ring, ts)
    ts.expect_eof()
    return p


# ---------------------------------------------------------------------------
# moving variables between coefficients and the monomial part


def flat_ring_for(ring: PolyRing) -> PolyRing:
    """Rational-coefficient ring whose variables are the ring's own plus
    the coefficient-field parameters (identity when already flat), built
    once per ring."""
    return ring._flat_ring


def flatten_poly(p: Poly, flat_ring: PolyRing) -> Poly:
    """Push fraction-field coefficients into a flat rational-coefficient ring.

    Denominators are cleared by multiplying through with their product,
    which rescales the polynomial by a unit of the coefficient field;
    ideal membership over the field is unaffected.
    """
    field = p.ring.field
    if isinstance(field, RationalField):
        return p.convert(flat_ring)
    dens: list[Poly] = []
    for _, c in p.terms.items():
        if not any(c.den == d for d in dens):
            dens.append(c.den)
    out = flat_ring.zero()
    for m, c in p.terms.items():
        mult = flat_ring.one()
        for d in dens:
            if d != c.den:
                mult = mult * d.convert(flat_ring)
        out = out + (c.num.convert(flat_ring) * mult *
                     flat_ring.from_monomial(_mono_convert(m, p.ring, flat_ring)))
    return out


def structure_poly(p: Poly, target_ring: PolyRing) -> Poly:
    """Move parameter variables of a flat polynomial into the coefficients.

    The target ring's field must be a FractionField; variables of the
    flat ring that are not in the target variable table are treated as
    parameters.
    """
    field = target_ring.field
    if not isinstance(field, FractionField):
        raise StructureError("structure_poly needs a fraction-field target")
    pring = field.param_ring
    names = p.ring.vartable.names
    terms: dict[Monomial, Coeff] = {}
    for m, c in p.terms.items():
        par, main = [], []
        for i, e in m:
            if target_ring.vartable.has(names[i]):
                main.append((target_ring.vartable.index(names[i]), e))
            else:
                par.append((pring.vartable.index(names[i]), e))
        coeff = field.coerce(pring.from_monomial(Monomial(par), c))
        m2 = Monomial(main)
        if m2 in terms:
            terms[m2] = terms[m2] + coeff
        else:
            terms[m2] = coeff
    return Poly(target_ring, terms)


def _mono_convert(m: Monomial, src: PolyRing, dst: PolyRing) -> Monomial:
    return Monomial((dst.vartable.index(src.vartable.names[i]), e) for i, e in m)
