"""Polynomial grammars and zeroness procedures.

A grammar has nonterminals of fixed dimensions and productions
``X -> p(alpha(Y1 ... Yk))`` where ``p`` is a polynomial map applied to
the concatenated child values and ``alpha`` is an optional automorphism
twist of the coefficient field.  Values of a nonterminal are the vectors
derivable bottom-up; the zeroness problem asks whether every value of
the initial nonterminal is zero (in quotient mode: zero modulo an
ambient ideal).

Zeroness of a *unary* grammar, one whose productions each have at most
one child and no slot wiring, is decided by the backward chain
(:func:`_backward_chain`; Benedikt, Duff, Sharad & Worrell, LICS 2017;
Seidl, Maneth & Kemper, JACM 2018).  Starting from the initial
coordinates, every generator is pulled back through every production
into an ideal per nonterminal; a pulled-back generator failing at a
base value spells a *witness* (a derivation with a nonzero value), and
the fixpoint, reached because the ideals ascend in a Noetherian ring,
is an invariant certificate.  Every difference grammar that transducer
equivalence builds outside the general fragment is unary.

Any other grammar is attacked from two sides, each a stream of bounded
steps:

* refutation: derivation enumeration searches for a witness, one
  derivation size per step;
* proof: algebraic invariants, per-nonterminal ideals whose varieties
  contain every derivable value, found either by exact forward
  propagation with image closures and intersections, or by a
  degree-capped widening, one candidate per step
  (:func:`closure_rounds`).  The widening proposes the low-degree
  polynomials vanishing on sampled values, rejects a candidate that
  fails at a fresh value of the next derivation size, and verifies the
  survivors exactly.  A proved invariant vanishes at every derivable
  value, so the rejection never drops a candidate the exact check
  would accept.

Every certificate, the chain's included, is verified production by
production (:func:`check_certificate`) before it proves anything.  One
driver (:func:`_interleave`) steps enumeration and the proof side in
turn, checking the deadline between steps, until one of them decides;
on a unary grammar the whole chain is the proof side's single step.
Both streams of a search read the values of a grammar from one shared
:class:`ValueTable`, so every derivation is produced once per search.
The inner search of :func:`indep_zeroness` and :func:`forward_closure`
keep the invariant search; the quotient problems of
:func:`indep_zeroness` and :func:`chain_zeroness` go through
:func:`zeroness`, so they get the chain when unary.

The exact propagation alone cannot terminate when reachable value sets
form growing finite families, which is why the sampling widening
exists; conversely sampling alone would never learn equalities that
need radical reasoning on twisted coefficients.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .encoding import Automorphism, PolySubst
from .errors import (
    CertificateError, DimensionError, EmptyLanguageError, StructureError,
)
from .groebner import (
    Ideal, ideal_intersect, image_closure, vanishing_ideal_of_points,
)
from .linalg import kernel_basis
from .poly import (
    Coeff, EMPTY_VARTABLE, FractionField, Mode, Monomial, Poly, PolyMap,
    PolyRing, RationalField, VarKind, VarTable, map_ring_over, structure_poly,
)

Value = tuple[Poly, ...]


# ---------------------------------------------------------------------------
# grammars


@dataclass(frozen=True)
class Production:
    """One rule: lhs derives pmap applied to the twisted child values.

    ``slot_sources`` optionally rewires map inputs: each entry picks a
    coordinate of the concatenated child vector and may push a
    polynomial substitution into it (used for register updates that
    substitute different words in different registers, where no single
    field automorphism captures the rule).
    """

    lhs: str
    rhs: tuple[str, ...]
    pmap: PolyMap
    twist: Automorphism | None = None
    slot_sources: tuple[tuple[int, PolySubst | None], ...] | None = None
    label: str | None = None

    def arity(self) -> int:
        return len(self.rhs)


class Grammar:
    """Nonterminals with dimensions, productions, and a value ring.

    ``ring`` is where coordinate values live: its variables are the
    ambient value variables (may be none) and its field carries the
    coefficients.  ``ambient`` optionally makes values count as zero
    whenever they lie in that ideal (quotient mode).
    """

    def __init__(self, nonterminals: dict[str, int], initial: str,
                 productions: Iterable[Production], ring: PolyRing,
                 ambient: Ideal | None = None, name: str | None = None):
        self.nonterminals = dict(nonterminals)
        self.initial = initial
        self.productions = tuple(productions)
        self.ring = ring
        self.ambient = ambient
        self.name = name
        self._validate()

    def _validate(self) -> None:
        if self.initial not in self.nonterminals:
            raise StructureError(f"initial nonterminal {self.initial!r} undeclared")
        for nt, dim in self.nonterminals.items():
            if dim < 1:
                raise DimensionError(f"nonterminal {nt} with dimension {dim}")
        for prod in self.productions:
            if prod.lhs not in self.nonterminals:
                raise StructureError(f"production for undeclared {prod.lhs!r}")
            for r in prod.rhs:
                if r not in self.nonterminals:
                    raise StructureError(f"production uses undeclared {r!r}")
            flat_dim = sum(self.nonterminals[r] for r in prod.rhs)
            n_in = prod.pmap.n_inputs
            if prod.slot_sources is not None:
                if len(prod.slot_sources) != n_in:
                    raise DimensionError("slot wiring does not match map arity")
                for src, _ in prod.slot_sources:
                    if not 0 <= src < flat_dim:
                        raise DimensionError("slot source out of range")
            elif n_in != flat_dim:
                raise DimensionError(
                    f"map arity {n_in} does not match child dimensions {flat_dim}")
            if prod.pmap.n_outputs != self.nonterminals[prod.lhs]:
                raise DimensionError(
                    f"map output count does not match dim of {prod.lhs}")
            if prod.pmap.value_ring() != self.ring:
                raise StructureError("production map over a different value ring")
            if prod.twist is not None and not isinstance(
                    self.ring.field, FractionField):
                raise StructureError("twists need a fraction coefficient field")
        if self.ambient is not None and self.ambient.ring != self.ring:
            raise StructureError("ambient ideal over a different ring")

    def dim(self, nt: str) -> int:
        return self.nonterminals[nt]

    def nt_index(self, nt: str) -> int:
        return list(self.nonterminals).index(nt)

    def value_is_zero(self, value: Value) -> bool:
        if self.ambient is None:
            return all(c.is_zero() for c in value)
        return all(self.ambient.member(c) for c in value)

    def produce(self, prod: Production, child_values: Sequence[Value]) -> Value:
        flat: list[Poly] = [c for tup in child_values for c in tup]
        if prod.twist is not None:
            flat = [c.map_coefficients(prod.twist.apply) for c in flat]
        if prod.slot_sources is not None:
            slots = []
            for src, subst in prod.slot_sources:
                v = flat[src]
                if subst is not None:
                    if isinstance(self.ring.field, FractionField):
                        v = v.map_coefficients(subst.apply_ratfunc)
                    else:
                        v = subst.apply_poly(v)
                slots.append(v)
        else:
            slots = flat
        return prod.pmap.apply(tuple(slots))

    def coord_names(self, nt: str) -> tuple[str, ...]:
        k = self.nt_index(nt)
        return tuple(f"_v{k}_{i}" for i in range(self.dim(nt)))

    def cert_ring(self, nt: str) -> PolyRing:
        return self.ring.extended(
            (n, VarKind.ORDINARY) for n in self.coord_names(nt))


def productive_nonterminals(g: Grammar) -> frozenset[str]:
    """Nonterminals deriving at least one value (least fixpoint)."""
    productive: set[str] = set()
    changed = True
    while changed:
        changed = False
        for prod in g.productions:
            if prod.lhs in productive:
                continue
            if all(r in productive for r in prod.rhs):
                productive.add(prod.lhs)
                changed = True
    return frozenset(productive)


# ---------------------------------------------------------------------------
# derivations and enumeration


@dataclass(frozen=True)
class Derivation:
    """Tree of production applications with the derived value cached."""

    prod_index: int
    children: tuple["Derivation", ...]
    value: Value

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def replay(self, g: Grammar) -> Value:
        prod = g.productions[self.prod_index]
        vals = [c.replay(g) for c in self.children]
        value = g.produce(prod, vals)
        if value != self.value:
            raise StructureError("derivation replay disagrees with cached value")
        return value

    def labels_inside_out(self, g: Grammar) -> list[str]:
        """Production labels from the innermost derivation outwards."""
        out: list[str] = []
        node: Derivation | None = self
        # chains only (each production here has at most one child)
        while node is not None:
            label = g.productions[node.prod_index].label
            if label is not None:
                out.append(label)
            node = node.children[0] if node.children else None
        return list(reversed(out))

    def to_obj(self, g: Grammar) -> dict:
        prod = g.productions[self.prod_index]
        return {"production": self.prod_index, "lhs": prod.lhs,
                "label": prod.label,
                "children": [c.to_obj(g) for c in self.children]}


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ways to split total into `parts` positive summands, lex order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


class ValueTable:
    """Values of every nonterminal, grouped by derivation tree size."""

    def __init__(self, g: Grammar):
        self.g = g
        self.by_size: dict[str, list[list[tuple[Value, Derivation]]]] = {
            nt: [[]] for nt in g.nonterminals}
        self.max_size = 0

    def grow_to(self, size: int) -> None:
        while self.max_size < size:
            s = self.max_size + 1
            for nt in self.by_size:
                self.by_size[nt].append([])
            for idx, prod in enumerate(self.g.productions):
                k = prod.arity()
                if k == 0:
                    if s == 1:
                        val = self.g.produce(prod, [])
                        self.by_size[prod.lhs][1].append(
                            (val, Derivation(idx, (), val)))
                    continue
                for comp in _compositions(s - 1, k):
                    pools = [self.by_size[r][c] for r, c in zip(prod.rhs, comp)]
                    for combo in itertools.product(*pools):
                        vals = [v for v, _ in combo]
                        ders = tuple(d for _, d in combo)
                        val = self.g.produce(prod, vals)
                        self.by_size[prod.lhs][s].append(
                            (val, Derivation(idx, ders, val)))
            self.max_size = s

    def of_size(self, nt: str, size: int) -> list[tuple[Value, Derivation]]:
        self.grow_to(size)
        return self.by_size[nt][size]

    def values(self, nt: str,
               max_size: int) -> Iterator[tuple[Value, Derivation]]:
        """(value, derivation) of the nonterminal, by increasing size."""
        for s in range(1, max_size + 1):
            yield from self.of_size(nt, s)


def enumerate_values(g: Grammar, max_size: int,
                     nonterminal: str | None = None) -> Iterator[tuple[Value, Derivation]]:
    """Stream (value, derivation) for the nonterminal, by increasing size."""
    nt = nonterminal if nonterminal is not None else g.initial
    return ValueTable(g).values(nt, max_size)


def _dedup_values(pairs: Iterable[tuple[Value, Derivation]],
                  cap: int) -> list[Value]:
    seen: dict[Value, None] = {}
    for v, _ in pairs:
        seen.setdefault(v, None)
        if len(seen) >= cap:
            break
    return list(seen)


def collect_samples(table: ValueTable, max_size: int,
                    cap: int) -> dict[str, list[Value]]:
    """Deduplicated value samples per productive nonterminal."""
    out: dict[str, list[Value]] = {}
    for nt in table.g.nonterminals:
        vals = _dedup_values(table.values(nt, max_size), cap)
        if vals:
            out[nt] = vals
    return out


@dataclass(frozen=True)
class Witness:
    """A derivation whose value is nonzero (modulo the ambient ideal)."""

    derivation: Derivation
    value: Value


def _enum_rounds(table: ValueTable, max_size: int) -> Iterator[Witness | None]:
    """One step per derivation size: a witness, or None if all are zero."""
    g = table.g
    for s in range(1, max_size + 1):
        for value, deriv in table.of_size(g.initial, s):
            if not g.value_is_zero(value):
                deriv.replay(g)
                yield Witness(deriv, value)
                return
        yield None


def nonzero_search(g: Grammar, max_size: int) -> Witness | None:
    return next(filter(None, _enum_rounds(ValueTable(g), max_size)), None)


# ---------------------------------------------------------------------------
# certificates


@dataclass
class InvariantCertificate:
    """Per-nonterminal ideals over (ambient variables + coordinates)."""

    ideals: dict[str, Ideal]
    grammar_name: str | None = None

    def ideal_for(self, nt: str) -> Ideal:
        if nt not in self.ideals:
            raise CertificateError(f"certificate has no ideal for {nt!r}")
        return self.ideals[nt]


@dataclass(frozen=True)
class CertVerdict:
    kind: str  # "zero-proved" | "closure-violation" | "conclusion-violation"
    detail: str = ""

    def proved(self) -> bool:
        return self.kind == "zero-proved"


def _child_block(g: Grammar, prod: Production,
                 ideal_of: Callable[[str], Ideal]
                 ) -> tuple[PolyRing, list[Poly], list[Poly]]:
    """The production's children as one block of coordinates.

    Child ci's coordinates become ``_w{ci}_{j}`` after the grammar's
    variables.  Returns that ring, the generators of every child's ideal
    renamed into it, and the production's outputs over it.
    """
    renames = [{old: f"_w{ci}_{j}" for j, old in enumerate(g.coord_names(r))}
               for ci, r in enumerate(prod.rhs)]
    flat_names = [n for rn in renames for n in rn.values()]
    ring = g.ring.extended((n, VarKind.ORDINARY) for n in flat_names)
    gens = [f.convert(ring, rn)
            for r, rn in zip(prod.rhs, renames) for f in ideal_of(r).gens]
    slot_rename = dict(zip(prod.pmap.slots, flat_names))
    outputs = [p.convert(ring, slot_rename) for p in prod.pmap.outputs]
    return ring, gens, outputs


def _cert_membership(g: Grammar, J: Ideal, h: Poly) -> bool:
    # With an ambient ideal the values are residue classes; only plain
    # membership is sound there (the ambient ideal need not be radical).
    if g.ambient is not None:
        return J.member(h)
    return J.radical_member(h)


def vanishes_at(g: Grammar, nt: str, f: Poly, value: Value) -> bool:
    """Whether f, over the certificate ring of nt, vanishes at a value of
    nt: the result is zero, or lies in the ambient ideal when the
    grammar has one."""
    cring = g.cert_ring(nt)
    binding = {c: v.convert(cring) for c, v in zip(g.coord_names(nt), value)}
    res = f.convert(cring).substitute(binding).convert(g.ring)
    return g.value_is_zero((res,))


def _pull_back(prod: Production, f: Poly, binding: dict[str, Poly],
               ring: PolyRing) -> Poly:
    """alpha^-1(f o p): what a generator f of the production's lhs
    demands of its children, with ``binding`` sending the lhs
    coordinates to the production's outputs over ``ring``."""
    h = f.substitute(binding, target_ring=ring)
    if prod.twist is not None:
        h = h.map_coefficients(prod.twist.apply_inverse)
    return h


def check_production_closure(g: Grammar, cert: InvariantCertificate,
                             prod: Production) -> str | None:
    """None if the production preserves the certificate, else a reason."""
    if prod.slot_sources is not None:
        raise CertificateError(
            "certificates are not defined for slot-substitution productions")
    lhs_ideal = cert.ideal_for(prod.lhs)
    lhs_coords = g.coord_names(prod.lhs)
    if prod.arity() == 0:
        value = g.produce(prod, [])
        for f in lhs_ideal.gens:
            if not vanishes_at(g, prod.lhs, f, value):
                return (f"base production for {prod.lhs} does not satisfy "
                        f"generator {f}")
        return None
    ring, gens, outputs = _child_block(g, prod, cert.ideal_for)
    if g.ambient is not None:
        gens.extend(gp.convert(ring) for gp in g.ambient.gens)
    J = Ideal(ring, gens)
    binding = dict(zip(lhs_coords, outputs))
    for f in lhs_ideal.gens:
        h = _pull_back(prod, f, binding, ring)
        if not _cert_membership(g, J, h):
            return (f"production {prod.lhs} -> {'.'.join(prod.rhs)} does not "
                    f"preserve generator {f}")
    return None


def check_certificate(g: Grammar, cert: InvariantCertificate,
                      require_conclusion: bool = True) -> CertVerdict:
    """Verify base cases, closure under productions, and the conclusion
    that the initial nonterminal's coordinates lie in its ideal."""
    productive = productive_nonterminals(g)
    for nt in productive:
        cert.ideal_for(nt)
    for prod in g.productions:
        if prod.lhs not in productive:
            continue
        if any(r not in productive for r in prod.rhs):
            continue
        reason = check_production_closure(g, cert, prod)
        if reason is not None:
            return CertVerdict("closure-violation", reason)
    if require_conclusion:
        if g.initial not in productive:
            raise EmptyLanguageError(
                f"initial nonterminal {g.initial!r} derives no value")
        cring = g.cert_ring(g.initial)
        I = cert.ideal_for(g.initial)
        amb = (Ideal(cring, [p.convert(cring) for p in g.ambient.gens])
               if g.ambient is not None else None)
        J = I.join(amb) if amb is not None else I
        for c in g.coord_names(g.initial):
            zc = cring.var(c)
            ok = J.member(zc) if g.ambient is not None else J.radical_member(zc)
            if not ok:
                return CertVerdict(
                    "conclusion-violation",
                    f"coordinate {c} of {g.initial} is not forced to zero")
    return CertVerdict("zero-proved")


# ---------------------------------------------------------------------------
# the backward chain, for unary grammars


def _is_unary(g: Grammar) -> bool:
    """Every production has at most one child and no slot wiring."""
    return all(p.arity() <= 1 and p.slot_sources is None
               for p in g.productions)


def _backward_chain(g: Grammar, deadline: float
                    ) -> Witness | InvariantCertificate | None:
    """Decide zeroness of a unary grammar by a chain of pre-image ideals.

    ``J[initial]`` starts with the initial coordinates.  A new generator
    f of ``J[X]`` and a production ``X -> p(Y)`` with twist alpha give
    ``h = alpha^-1(f o p)`` over the certificate ring of Y, which joins
    ``J[Y]`` unless it lies in ``J[Y]`` plus the ambient ideal.  Along
    its path of productions h reads an initial coordinate, so h failing
    at a base value of Y spells a witness.  The ideals ascend in a
    Noetherian ring, so the chain reaches a fixpoint, which is an
    invariant certificate.  Returns None when the deadline passes
    between two pre-images.
    """
    productive = productive_nonterminals(g)
    rings = {nt: g.cert_ring(nt) for nt in productive}
    amb = {nt: [p.convert(rings[nt]) for p in g.ambient.gens]
           if g.ambient is not None else [] for nt in productive}
    bases: dict[str, list[Derivation]] = {nt: [] for nt in productive}
    steps: dict[str, list[tuple[int, str, dict[str, Poly]]]] = {
        nt: [] for nt in productive}
    for idx, prod in enumerate(g.productions):
        if prod.lhs not in productive or any(
                r not in productive for r in prod.rhs):
            continue
        if not prod.rhs:
            bases[prod.lhs].append(Derivation(idx, (), g.produce(prod, [])))
            continue
        (child,) = prod.rhs
        rename = dict(zip(prod.pmap.slots, g.coord_names(child)))
        outputs = [p.convert(rings[child], rename) for p in prod.pmap.outputs]
        steps[prod.lhs].append(
            (idx, child, dict(zip(g.coord_names(prod.lhs), outputs))))
    J: dict[str, list[Poly]] = {nt: [] for nt in productive}
    ideals = {nt: Ideal(rings[nt], amb[nt]) for nt in productive}
    todo = deque((g.initial, rings[g.initial].var(c), ())
                 for c in g.coord_names(g.initial))
    while todo:
        if time.monotonic() > deadline:
            return None
        nt, h, path = todo.popleft()
        for base in bases[nt]:
            if not vanishes_at(g, nt, h, base.value):
                return _witness_along(g, path, base)
        if ideals[nt].member(h):
            continue
        J[nt].append(h)
        ideals[nt] = Ideal(rings[nt], amb[nt] + J[nt])
        for idx, child, binding in steps[nt]:
            todo.append((child, _pull_back(g.productions[idx], h, binding,
                                           rings[child]), (*path, idx)))
    return InvariantCertificate(
        {nt: Ideal(rings[nt], J[nt]) for nt in productive}, g.name)


def _witness_along(g: Grammar, path: Sequence[int],
                   base: Derivation) -> Witness | None:
    """The derivation applying the path's productions, innermost last,
    to a base derivation; None if its value is zero after all."""
    d = base
    for idx in reversed(path):
        d = Derivation(idx, (d,), g.produce(g.productions[idx], [d.value]))
    value = d.replay(g)
    return None if g.value_is_zero(value) else Witness(d, value)


# ---------------------------------------------------------------------------
# invariant discovery


def _monomials_upto(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples with total degree <= degree, low degree first."""
    def rec(i: int, remaining: int) -> Iterator[tuple[int, ...]]:
        if i == nvars:
            yield ()
            return
        for e in range(remaining + 1):
            for rest in rec(i + 1, remaining - e):
                yield (e,) + rest
    return sorted(rec(0, degree), key=lambda t: (sum(t), t))


def low_degree_vanishing(value_ring: PolyRing, ambient: Ideal | None,
                         cring: PolyRing, coord_names: Sequence[str],
                         samples: Sequence[Value], degree: int,
                         kernel_cap: int = 12) -> list[Poly] | None:
    """Polynomials over cring of bounded degree vanishing on the samples.

    Coordinate variables are bound to the sample components; the
    remaining cring variables stay symbolic, so a candidate vanishes
    when its expansion is zero as a polynomial over the value ring
    (reduced by the ambient ideal first when one is given).  Returns
    None when the solution space is too large to be a useful invariant.
    """
    coord_pos = {n: j for j, n in enumerate(coord_names)}
    names = cring.names()
    monos = _monomials_upto(len(names), degree)
    evals: list[list[Poly]] = []
    for sample in samples:
        row_polys = []
        for exps in monos:
            p = value_ring.one()
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                name = names[i]
                if name in coord_pos:
                    p = p * sample[coord_pos[name]] ** e
                else:
                    p = p * value_ring.var(name, e)
            if ambient is not None:
                p = ambient.reduce(p)
            row_polys.append(p)
        evals.append(row_polys)
    seen: dict[Monomial, None] = {}
    for row_polys in evals:
        for p in row_polys:
            for m in p.terms:
                seen.setdefault(m, None)
    xmonos = sorted(seen, key=lambda m: m.exps)
    field = value_ring.field
    rows = []
    for row_polys in evals:
        for xm in xmonos:
            rows.append([p.coeff_of(xm) for p in row_polys])
    kernel = kernel_basis(rows, len(monos), field)
    if len(kernel) > kernel_cap:
        return None
    out = []
    for vec in kernel:
        terms: dict[Monomial, Coeff] = {}
        for j, c in enumerate(vec):
            if field.is_zero(c):
                continue
            terms[Monomial((i, e) for i, e in enumerate(monos[j]) if e)] = c
        out.append(cring.from_terms(terms))
    return out


# exact propagation rounds before the Kleene candidate is given up
_KLEENE_ROUNDS = 4


def _kleene_rounds(g: Grammar) -> Iterator[InvariantCertificate | None]:
    """Exact forward propagation; yields a candidate only on stabilization.

    Restricted to scalar-valued grammars without ambient ideal or slot
    wiring (the image computation needs maps whose slots exactly cover
    the child coordinates).  Bails out when the intermediate ideals grow
    past crude size bounds, which signals an infinite ascending family
    that only the sampling widening can catch.  Coefficient fields with
    many parameters are skipped outright: without rational-function gcd
    the repeated intersections swell far too quickly there.
    """
    if g.ring.names() or g.ambient is not None:
        return
    if any(p.slot_sources is not None for p in g.productions):
        return
    field = g.ring.field
    if isinstance(field, FractionField) and len(field.param_ring.vartable) > 2:
        return
    productive = productive_nonterminals(g)
    V: dict[str, Ideal] = {}
    for _ in range(_KLEENE_ROUNDS):
        prev = dict(V)
        for prod in g.productions:
            if prod.lhs not in productive:
                continue
            out_ring = g.cert_ring(prod.lhs)
            if prod.arity() == 0:
                point = tuple(c.constant_value() for c in g.produce(prod, []))
                img = vanishing_ideal_of_points(out_ring, [point])
            else:
                if any(r not in V for r in prod.rhs):
                    continue
                # g has no variables, so the block ring holds only the
                # child coordinates, as image_closure needs
                block_ring, gens, outputs = _child_block(g, prod, V.__getitem__)
                block_map = PolyMap(block_ring, block_ring.names(),
                                    tuple(outputs))
                img = image_closure(Ideal(block_ring, gens), block_map,
                                    g.coord_names(prod.lhs), alpha=prod.twist)
                img = img.converted(out_ring)
            V[prod.lhs] = (img if prod.lhs not in V
                           else ideal_intersect(V[prod.lhs], img))
            gens_now = V[prod.lhs].gens
            if len(gens_now) > 40 or any(
                    Fraction(f.total_degree()) > 8 for f in gens_now):
                return
        if (set(V) == productive and set(prev) == productive
                and all(V[nt].equal(prev[nt]) for nt in productive)):
            yield InvariantCertificate(dict(V), g.name)
            return
        yield None


def _widening_step(i: int) -> tuple[int, int, int]:
    """Candidate degree, sample size and sample cap of widening round i."""
    return (1 if i % 2 == 0 else 2), 2 + i // 2, 8 + 4 * (i // 2)


def _holds_on_fresh_values(g: Grammar, ideals: dict[str, Ideal],
                           sampled: dict[str, list[Value]],
                           values: dict[str, list[Value]]) -> bool:
    """Whether every generator vanishes at every value not sampled.

    A certificate that :func:`check_certificate` proves vanishes at
    every derivable value (twists included), so a candidate failing
    here would fail the exact check too.
    """
    for nt, ideal in ideals.items():
        seen = set(sampled[nt])
        for value in values[nt]:
            if value not in seen and not all(
                    vanishes_at(g, nt, f, value) for f in ideal.gens):
                return False
    return True


def _sampling_rounds(table: ValueTable) -> Iterator[InvariantCertificate | None]:
    """Degree-capped widening: vanishing candidates from sampled values,
    dropped when they fail on the values of the next derivation size."""
    g = table.g
    productive = productive_nonterminals(g)
    # certificates are undefined there: leave the refusal to check_certificate
    filtered = all(p.slot_sources is None for p in g.productions)
    for i in itertools.count():
        degree, size, cap = _widening_step(i)
        samples = collect_samples(table, size, cap)
        if any(nt not in samples for nt in productive):
            yield None
            continue
        ideals: dict[str, Ideal] = {}
        degenerate = False
        for nt in g.nonterminals:
            if nt not in productive:
                continue
            gens = low_degree_vanishing(
                g.ring, g.ambient, g.cert_ring(nt), g.coord_names(nt),
                samples[nt], degree)
            if gens is None:
                degenerate = True
                break
            ideals[nt] = Ideal(g.cert_ring(nt), gens)
        if degenerate:
            yield None
            continue
        if not ideals[g.initial].gens and g.ambient is None:
            yield None
            continue
        if filtered and not _holds_on_fresh_values(
                g, ideals, samples, collect_samples(table, size + 1, 2 * cap)):
            yield None
            continue
        yield InvariantCertificate(ideals, g.name)


def closure_rounds(table: ValueTable) -> Iterator[InvariantCertificate | None]:
    """Candidate invariants, one per round: the whole exact propagation
    is the first round (it is cheap or bails), then sampling rounds with
    a growing degree/size schedule (never ends)."""
    yield next(filter(None, _kleene_rounds(table.g)), None)
    yield from _sampling_rounds(table)


def forward_closure(g: Grammar,
                    max_iterations: int = 8) -> InvariantCertificate | None:
    """Search for an invariant verified for base cases and closure.

    The conclusion (initial coordinates forced to zero) is *not*
    required here; callers decide what the invariant is for.
    """
    rounds = itertools.islice(closure_rounds(ValueTable(g)), max_iterations)
    return next((cand for cand in rounds if cand is not None and
                 check_certificate(g, cand, require_conclusion=False).proved()),
                None)


# ---------------------------------------------------------------------------
# the zeroness driver


@dataclass(frozen=True)
class Budgets:
    """Work bounds: enumeration tree size, closure rounds, and a
    wall-clock deadline.  The deadline is checked between search steps
    and, in the backward chain, between two pre-images; a long step of
    the invariant search can overrun it.  The two work bounds keep
    results machine-independent."""

    size: int = 12
    iters: int = 8
    seconds: float = 60.0

    def inner(self) -> "Budgets":
        return Budgets(max(4, self.size // 2), max(2, self.iters // 2),
                       self.seconds / 2)


@dataclass
class ZeronessResult:
    verdict: str  # "zero" | "nonzero" | "unknown"
    certificate: InvariantCertificate | None = None
    witness: Witness | None = None
    detail: str = ""


_R = TypeVar("_R")
_DONE = object()


def _interleave(streams: Sequence[Iterator[_R | None]], deadline: float,
                result: Callable[..., _R]) -> _R:
    """Step the streams in turn until one yields a result.

    Each stream is bounded and yields None for a step that decided
    nothing.  The deadline (a ``time.monotonic`` instant) is checked
    before every step; when it has passed, or every stream is used up,
    ``result`` builds the unknown verdict.
    """
    live = list(streams)
    while live:
        for stream in list(live):
            if time.monotonic() > deadline:
                return result("unknown", detail="time budget exhausted")
            step = next(stream, _DONE)
            if step is _DONE:
                live.remove(stream)
            elif step is not None:
                return step
    return result("unknown", detail="work budgets exhausted")


def zeroness(g: Grammar, budgets: Budgets = Budgets(),
             certificates: Sequence[InvariantCertificate] = ()
             ) -> ZeronessResult:
    """Decide zeroness within budgets: supplied certificates are checked
    first, then witness enumeration and the proof side interleave.  On
    a unary grammar the proof side is the backward chain, which decides
    alone; on any other it is the invariant search."""
    if g.initial not in productive_nonterminals(g):
        return ZeronessResult("zero", detail="no derivable values")
    for cert in certificates:
        if check_certificate(g, cert, require_conclusion=True).proved():
            return ZeronessResult("zero", certificate=cert,
                                  detail="supplied certificate verified")
    deadline = time.monotonic() + budgets.seconds
    table = ValueTable(g)

    def nonzero(w: Witness | None) -> ZeronessResult | None:
        return (None if w is None else ZeronessResult(
            "nonzero", witness=w, detail="nonzero value derived"))

    refute = map(nonzero, _enum_rounds(table, budgets.size))
    # the chain is one lazy step, taken after enumeration's first
    found = ((_backward_chain(g, deadline) for _ in range(1))
             if _is_unary(g) else closure_rounds(table))
    prove = (nonzero(cand) if isinstance(cand, Witness) else
             ZeronessResult("zero", certificate=cand,
                            detail="invariant certificate found")
             if cand is not None and check_certificate(g, cand).proved()
             else None
             for cand in found)
    return _interleave([refute, itertools.islice(prove, budgets.iters)],
                       deadline, ZeronessResult)


# ---------------------------------------------------------------------------
# grammar surgery


def attach_polymap(f: PolyMap, g: Grammar, nt_name: str | None = None) -> Grammar:
    """New grammar computing f of the old initial nonterminal's values."""
    if f.n_inputs != g.dim(g.initial):
        raise DimensionError(
            f"map arity {f.n_inputs} does not match dim of {g.initial}")
    if f.ring.field != g.ring.field:
        raise StructureError("attached map over a different coefficient field")
    if set(f.slots) & set(g.ring.names()):
        raise StructureError("attached map slots collide with value variables")
    name = nt_name
    if name is None:
        k = 0
        while f"_q{k}" in g.nonterminals:
            k += 1
        name = f"_q{k}"
    elif name in g.nonterminals:
        raise StructureError(f"nonterminal {name!r} already declared")
    slot_pairs = [(s, f.ring.vartable.kinds[f.ring.vartable.index(s)])
                  for s in f.slots]
    mring = map_ring_over(g.ring, slot_pairs)
    pmap = PolyMap(mring, f.slots, tuple(p.convert(mring) for p in f.outputs))
    nts = dict(g.nonterminals)
    nts[name] = f.n_outputs
    prods = g.productions + (Production(name, (g.initial,), pmap),)
    return Grammar(nts, name, prods, g.ring, g.ambient, g.name)


def to_field_view(g: Grammar) -> Grammar:
    """Move the value variables into the coefficient field.

    Values become scalars of the fraction field, so invariant ideals
    live in the coordinates alone.  Membership certificates found here
    use radical reasoning, which is sound because a fraction field has
    no nilpotents.  A grammar without value variables is its own view;
    any other needs plain rational coefficients and no ambient ideal.
    """
    if not g.ring.names():
        return g
    if not isinstance(g.ring.field, RationalField):
        raise StructureError("field view needs plain rational coefficients")
    if g.ambient is not None:
        raise StructureError("field view of a quotient grammar")
    field = FractionField(g.ring)
    vring = PolyRing(EMPTY_VARTABLE, field, Mode.FIELD)
    prods = []
    for prod in g.productions:
        slot_pairs = [(s, prod.pmap.ring.vartable.kinds[
            prod.pmap.ring.vartable.index(s)]) for s in prod.pmap.slots]
        mring = PolyRing(VarTable.make(slot_pairs), field, Mode.FIELD)
        outs = tuple(structure_poly(p, mring) for p in prod.pmap.outputs)
        prods.append(Production(prod.lhs, prod.rhs,
                                PolyMap(mring, prod.pmap.slots, outs),
                                prod.twist, prod.slot_sources, prod.label))
    return Grammar(g.nonterminals, g.initial, prods, vring, None, g.name)


def strip_twists(g: Grammar) -> Grammar:
    prods = [Production(p.lhs, p.rhs, p.pmap, None, p.slot_sources, p.label)
             for p in g.productions]
    return Grammar(g.nonterminals, g.initial, prods, g.ring, g.ambient, g.name)


# ---------------------------------------------------------------------------
# zeroness through an independent inner system


@dataclass
class IndepResult:
    verdict: str  # "zero" | "nonzero" | "unknown"
    invariant: InvariantCertificate | None = None
    quotient_result: ZeronessResult | None = None
    witness_pair: tuple[Witness, Witness] | None = None
    detail: str = ""


def indep_zeroness(outer: Grammar, inner: Grammar,
                   budgets: Budgets = Budgets(),
                   certificates: Sequence[InvariantCertificate] = ()
                   ) -> IndepResult:
    """Zeroness of outer(x := v) over all derivable inner values v.

    The outer grammar's value variables stand for the inner value; the
    two systems share no derivation coupling, so it suffices to find an
    inductive invariant containing every inner value and to prove the
    outer grammar zero modulo that variety's ideal.  Refutation side:
    enumerate value pairs and evaluate.

    Supplied certificates describe candidate inner invariants (over the
    inner grammar's field view when it has value variables) and are
    tried before any search.
    """
    inner = to_field_view(inner)
    if outer.ambient is not None:
        raise StructureError("outer grammar already has an ambient ideal")
    if outer.dim(outer.initial) != 1:
        raise DimensionError("outer grammar must have a one-dimensional output")
    xnames = outer.ring.names()
    if len(xnames) != inner.dim(inner.initial):
        raise DimensionError(
            "outer value variables do not match the inner dimension")
    if outer.ring.field != inner.ring.field:
        raise StructureError("outer and inner coefficient fields differ")
    if outer.initial not in productive_nonterminals(outer) or \
            inner.initial not in productive_nonterminals(inner):
        return IndepResult("zero", detail="no derivable values")

    def try_invariant(cand: InvariantCertificate) -> IndepResult | None:
        if not check_certificate(inner, cand,
                                 require_conclusion=False).proved():
            return None
        coords = inner.coord_names(inner.initial)
        gens = [f.convert(outer.ring, dict(zip(coords, xnames)))
                for f in cand.ideal_for(inner.initial).gens]
        quotient = Grammar(outer.nonterminals, outer.initial,
                           outer.productions, outer.ring,
                           ambient=Ideal(outer.ring, gens),
                           name=outer.name)
        qr = zeroness(quotient, budgets.inner())
        if qr.verdict == "zero":
            return IndepResult("zero", invariant=cand, quotient_result=qr,
                               detail="inner invariant and quotient proof")
        return None

    for cand in certificates:
        res = try_invariant(cand)
        if res is not None:
            return IndepResult("zero", invariant=res.invariant,
                               quotient_result=res.quotient_result,
                               detail="supplied certificate verified")

    outer_table = ValueTable(outer)
    inner_table = ValueTable(inner)

    def refute() -> Iterator[IndepResult | None]:
        outer_seen: list[tuple[Value, Derivation]] = []
        inner_seen: list[tuple[Value, Derivation]] = []
        for size in range(1, budgets.size + 1):
            new_outer = outer_table.of_size(outer.initial, size)
            new_inner = inner_table.of_size(inner.initial, size)
            pairs = [(o, i) for o in new_outer for i in inner_seen]
            pairs += [(o, i) for o in outer_seen + new_outer
                      for i in new_inner]
            for (oval, oder), (ival, ider) in pairs:
                binding = {x: outer.ring.const(c.constant_value())
                           for x, c in zip(xnames, ival)}
                if not oval[0].substitute(binding).is_zero():
                    yield IndepResult("nonzero", witness_pair=(
                        Witness(oder, oval), Witness(ider, ival)),
                        detail="nonzero evaluation found")
                    return
            outer_seen.extend(new_outer)
            inner_seen.extend(new_inner)
            yield None

    prove = (None if cand is None else try_invariant(cand)
             for cand in closure_rounds(inner_table))
    return _interleave([refute(), itertools.islice(prove, budgets.iters)],
                       time.monotonic() + budgets.seconds, IndepResult)


# ---------------------------------------------------------------------------
# zeroness through a chain of substitutions


@dataclass
class ChainResult:
    verdict: str  # "zero" | "nonzero" | "unknown"
    invariant_gens: tuple[Poly, ...] = ()
    link_results: tuple["ChainResult", ...] = ()
    quotient_result: ZeronessResult | None = None
    witness_value: Value | None = None
    detail: str = ""


def _composed_tail_values(tail: Sequence[ValueTable], size: int,
                          cap: int) -> list[Value]:
    """Sampled values of the innermost grammar pushed outwards through
    the substitution chain; always scalar tuples over a variable-free
    ring (deduplicated and capped at each stage)."""
    last = tail[-1].g
    sring = PolyRing(EMPTY_VARTABLE, last.ring.field, last.ring.mode)
    vals = [tuple(sring.const(c.constant_value()) for c in v)
            for v in _dedup_values(tail[-1].values(last.initial, size), cap)]
    for table in reversed(tail[:-1]):
        g = table.g
        outer_vals = _dedup_values(table.values(g.initial, size), cap)
        xnames = g.ring.names()
        acc: dict[Value, None] = {}
        for ov in outer_vals:
            for iv in vals:
                binding = {x: g.ring.const(c.constant_value())
                           for x, c in zip(xnames, iv)}
                comp = tuple(sring.const(p.substitute(binding).constant_value())
                             for p in ov)
                acc.setdefault(comp, None)
                if len(acc) >= cap:
                    break
            if len(acc) >= cap:
                break
        vals = list(acc)
    return vals


def chain_zeroness(grammars: Sequence[Grammar],
                   budgets: Budgets = Budgets()) -> ChainResult:
    """Zeroness of g1(g2(... gn ...)) over all derivable value chains.

    Works outside-in: sample composed values of the tail, guess a
    bounded-degree ideal vanishing on them, verify each generator
    recursively as a zeroness problem of the shorter chain, then prove
    the head grammar zero modulo the verified ideal.
    """
    gs = list(grammars)
    if not gs:
        raise StructureError("empty grammar chain")
    if len(gs) == 1:
        r = zeroness(gs[0], budgets)
        return ChainResult(r.verdict, quotient_result=r, detail=r.detail)
    head = gs[0]
    if head.ambient is not None:
        raise StructureError("head grammar already has an ambient ideal")
    for i, g in enumerate(gs[:-1]):
        if len(g.ring.names()) != gs[i + 1].dim(gs[i + 1].initial):
            raise DimensionError(
                "value variables do not match the next grammar's dimension")
        if g.ring.field != gs[i + 1].ring.field:
            raise StructureError("chain grammars over different fields")
    if gs[-1].ring.names():
        raise StructureError("innermost chain grammar must be scalar-valued")
    if any(g.initial not in productive_nonterminals(g) for g in gs):
        return ChainResult("zero", detail="no derivable composed values")
    xnames = head.ring.names()
    coords = tuple(f"_t{i}" for i in range(len(xnames)))
    coordring = PolyRing(VarTable.make((c, VarKind.ORDINARY) for c in coords),
                         head.ring.field, head.ring.mode)
    sring = PolyRing(EMPTY_VARTABLE, head.ring.field, head.ring.mode)
    head_table, *tail_tables = [ValueTable(g) for g in gs]

    def one_round(rnd: int) -> ChainResult | None:
        degree, size, cap = _widening_step(rnd)
        composed = _composed_tail_values(tail_tables, size, cap)
        head_vals = _dedup_values(head_table.values(
            head.initial, min(budgets.size, 2 + rnd)), 4 * cap)
        for hv in head_vals:
            for cv in composed:
                binding = {x: head.ring.const(c.constant_value())
                           for x, c in zip(xnames, cv)}
                evaluated = tuple(p.substitute(binding) for p in hv)
                if any(not p.is_zero() for p in evaluated):
                    value = tuple(sring.const(p.constant_value())
                                  for p in evaluated)
                    return ChainResult("nonzero", witness_value=value,
                                       detail="nonzero composed value found")
        gens = low_degree_vanishing(sring, None, coordring, coords,
                                    composed, degree)
        if gens is None or (not gens and rnd > 0):
            return None
        links = []
        for f in gens:
            fmap = PolyMap(coordring, coords, (f,))
            sub = chain_zeroness([attach_polymap(fmap, gs[1])] + gs[2:],
                                 budgets.inner())
            links.append(sub)
            if sub.verdict != "zero":
                return None
        quotient = Grammar(head.nonterminals, head.initial, head.productions,
                           head.ring,
                           ambient=Ideal(head.ring,
                                         [f.convert(head.ring,
                                                    dict(zip(coords, xnames)))
                                          for f in gens]),
                           name=head.name)
        qr = zeroness(quotient, budgets.inner())
        if qr.verdict == "zero":
            return ChainResult("zero", invariant_gens=tuple(gens),
                               link_results=tuple(links), quotient_result=qr,
                               detail="tail invariant and quotient proof")
        return None

    return _interleave([map(one_round, range(budgets.iters))],
                       time.monotonic() + budgets.seconds, ChainResult)
