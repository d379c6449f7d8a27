"""Polynomial grammars and zeroness procedures.

A grammar has nonterminals of fixed dimensions and productions
``X -> p(alpha(Y1 ... Yk))`` where ``p`` is a polynomial map applied to
the concatenated child values and ``alpha`` is an optional automorphism
twist of the coefficient field.  Values of a nonterminal are the vectors
derivable bottom-up; the zeroness problem asks whether every value of
the initial nonterminal is zero (in quotient mode: zero modulo an
ambient ideal).

Zeroness of a *unary* grammar, one whose productions each have at most
one child, is decided by the backward chain
(:func:`_backward_chain`; Benedikt, Duff, Sharad & Worrell, LICS 2017;
Seidl, Maneth & Kemper, JACM 2018).  Starting from the initial
coordinates, every generator is pulled back through every production
into an ideal per nonterminal; a pulled-back generator failing at a
base value spells a *witness* (a derivation with a nonzero value), and
the fixpoint, reached because the ideals ascend in a Noetherian ring,
is an invariant certificate.  Every difference grammar that transducer
equivalence builds is unary; the general fragment builds none.

The same chain, run in two stages, decides :func:`indep_zeroness` (and
``eqsat`` through it) and :func:`chain_zeroness` when their grammars
are unary, and the same refinement serves every other substitution
chain and every pair whose inner grammar is unary.  Stage one keeps
outer (head) values: those along the outer grammar's chain when it is
unary, none to start otherwise.  Stage two proves them zero on the
inner grammar, by seeding its chain with them or, for a substitution
chain, by the shorter chain; a value failing there spells a witness.
Then the outer grammar is proved zero modulo their ideal by a quotient
:func:`zeroness`, and any outer value that this proof finds outside the
ideal joins them.  The ideal that the outer values generate is finitely
generated (Hilbert's basis theorem), so this refinement ends.

Sampling serves only what is left: :func:`zeroness` on a grammar that
is not unary (a quotient proof of a non-unary outer grammar included),
and the invariant of a non-unary inner grammar of
:func:`indep_zeroness`.  Such a grammar is attacked from two sides,
each a stream of bounded steps:

* refutation: derivation enumeration searches for a witness, one
  derivation size per step;
* proof: algebraic invariants, per-nonterminal ideals whose varieties
  contain every derivable value, found by a degree-capped widening,
  one candidate per step (:func:`closure_rounds`).  The widening
  proposes the low-degree polynomials vanishing on sampled values,
  rejects a candidate that fails at a fresh value of the next
  derivation size, and verifies the survivors exactly.  A proved
  invariant vanishes at every derivable value, so the rejection never
  drops a candidate the exact check would accept.

Every certificate, the chain's included, is verified production by
production (:func:`check_certificate`) before it proves anything.  One
driver (:func:`_interleave`) steps enumeration and the proof side in
turn, checking the deadline between steps, until one of them decides;
on unary grammars the whole chain is the proof side's single step.
Both streams of a search read the values of a grammar from one shared
:class:`ValueTable`, so every derivation is produced once per search.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .encoding import Automorphism
from .errors import (
    CertificateError, DimensionError, EmptyLanguageError, StructureError,
)
from .groebner import Ideal
from .linalg import kernel_basis
from .poly import (
    EMPTY_VARTABLE, FractionField, Mode, Monomial, Poly, PolyMap,
    PolyRing, RationalField, VarKind, VarTable, map_ring_over, structure_poly,
)

Value = tuple[Poly, ...]


# ---------------------------------------------------------------------------
# grammars


class Production:
    """One rule: lhs derives pmap applied to the twisted child values.

    The map's slots read the children's coordinates in order, after the
    optional ``twist`` has acted on their coefficients; ``label`` names
    the input letter of a difference grammar's step.
    """

    __slots__ = ("lhs", "rhs", "pmap", "twist", "label")

    def __init__(self, lhs: str, rhs: tuple[str, ...], pmap: PolyMap,
                 twist: Automorphism | None = None,
                 label: str | None = None):
        self.lhs = lhs
        self.rhs = rhs
        self.pmap = pmap
        self.twist = twist
        self.label = label

    def arity(self) -> int:
        return len(self.rhs)


class Grammar:
    """Nonterminals with dimensions, productions, and a value ring.

    A production's map takes as many inputs as its children have
    coordinates together.  ``ring`` is where coordinate values live:
    its variables are the ambient value variables (may be none) and its
    field carries the coefficients.  ``ambient`` optionally makes values
    count as zero whenever they lie in that ideal (quotient mode).
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
            if n_in != flat_dim:
                raise DimensionError(
                    f"map arity {n_in} does not match child dimensions {flat_dim}")
            if prod.pmap.n_outputs != self.nonterminals[prod.lhs]:
                raise DimensionError(
                    f"map output count does not match dim of {prod.lhs}")
            if prod.pmap.value_ring != self.ring:
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
        return prod.pmap.apply(tuple(flat))

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


class Derivation:
    """Tree of production applications with the derived value cached."""

    __slots__ = ("prod_index", "children", "value")

    def __init__(self, prod_index: int, children: tuple[Derivation, ...],
                 value: Value):
        self.prod_index = prod_index
        self.children = children
        self.value = value

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


def collect_samples(table: ValueTable, max_size: int,
                    cap: int) -> dict[str, list[Value]]:
    """Deduplicated value samples per productive nonterminal, at most
    ``cap`` each."""
    out: dict[str, list[Value]] = {}
    for nt in table.g.nonterminals:
        seen: dict[Value, None] = {}
        for v, _ in table.values(nt, max_size):
            seen.setdefault(v, None)
            if len(seen) >= cap:
                break
        if seen:
            out[nt] = list(seen)
    return out


class Witness:
    """A derivation whose value is nonzero (modulo the ambient ideal)."""

    __slots__ = ("derivation", "value")

    def __init__(self, derivation: Derivation, value: Value):
        self.derivation = derivation
        self.value = value


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


class InvariantCertificate:
    """Per-nonterminal ideals over (ambient variables + coordinates)."""

    __slots__ = ("ideals", "grammar_name")

    def __init__(self, ideals: dict[str, Ideal],
                 grammar_name: str | None = None):
        self.ideals = ideals
        self.grammar_name = grammar_name

    def ideal_for(self, nt: str) -> Ideal:
        if nt not in self.ideals:
            raise CertificateError(f"certificate has no ideal for {nt!r}")
        return self.ideals[nt]


class CertVerdict:
    __slots__ = ("kind", "detail")

    def __init__(self, kind: str, detail: str = ""):
        self.kind = kind  # "zero-proved" | "closure-violation" | "conclusion-violation"
        self.detail = detail

    def proved(self) -> bool:
        return self.kind == "zero-proved"


def _block_ideal(g: Grammar, rhs: tuple[str, ...],
                 ideal_of: Callable[[str], Ideal]) -> Ideal:
    """The children's ideals over one block of coordinates.

    Child ci's coordinates become ``_w{ci}_{j}`` after the grammar's
    variables.  The ideal is built afresh from every child's generators
    renamed into that ring, with the ambient ideal's generators
    appended when the grammar has one.
    """
    renames = [{old: f"_w{ci}_{j}" for j, old in enumerate(g.coord_names(r))}
               for ci, r in enumerate(rhs)]
    ring = g.ring.extended((n, VarKind.ORDINARY)
                           for rn in renames for n in rn.values())
    gens = [f.convert(ring, rn)
            for r, rn in zip(rhs, renames) for f in ideal_of(r).gens]
    if g.ambient is not None:
        gens.extend(gp.convert(ring) for gp in g.ambient.gens)
    return Ideal(ring, gens)


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
    binding = dict(zip(g.coord_names(nt), value))
    return g.value_is_zero((f.substitute(binding, target_ring=g.ring),))


def _pull_back(prod: Production, f: Poly, binding: dict[str, Poly],
               ring: PolyRing) -> Poly:
    """alpha^-1(f o p): what a generator f of the production's lhs
    demands of its children, with ``binding`` sending the lhs
    coordinates to the production's outputs over ``ring``."""
    h = f.substitute(binding, target_ring=ring)
    if prod.twist is not None:
        h = h.map_coefficients(prod.twist.apply_inverse)
    return h


def _closure_violation(g: Grammar, cert: InvariantCertificate,
                       prod: Production,
                       blocks: dict[tuple[str, ...], Ideal]) -> str | None:
    """None if the production preserves the certificate, else a reason.
    The production's child block ideal is taken from ``blocks`` (keyed
    by children) or added there."""
    lhs_ideal = cert.ideal_for(prod.lhs)
    lhs_coords = g.coord_names(prod.lhs)
    if prod.arity() == 0:
        value = g.produce(prod, [])
        for f in lhs_ideal.gens:
            if not vanishes_at(g, prod.lhs, f, value):
                return (f"base production for {prod.lhs} does not satisfy "
                        f"generator {f}")
        return None
    J = blocks.get(prod.rhs)
    if J is None:
        J = blocks[prod.rhs] = _block_ideal(g, prod.rhs, cert.ideal_for)
    # a child value zero modulo the ambient ideal is zero modulo its twist
    # after the production, which must lie inside
    if g.ambient is not None and prod.twist is not None and not all(
            g.ambient.member(a.map_coefficients(prod.twist.apply))
            for a in g.ambient.gens):
        return (f"the twist of {prod.lhs} -> {'.'.join(prod.rhs)} does "
                f"not preserve the ambient ideal")
    # the block's coordinates follow the grammar's variables
    slot_rename = dict(zip(prod.pmap.slots,
                           J.ring.names()[len(g.ring.names()):]))
    outputs = [p.convert(J.ring, slot_rename) for p in prod.pmap.outputs]
    binding = dict(zip(lhs_coords, outputs))
    for f in lhs_ideal.gens:
        h = _pull_back(prod, f, binding, J.ring)
        if not _cert_membership(g, J, h):
            return (f"production {prod.lhs} -> {'.'.join(prod.rhs)} does not "
                    f"preserve generator {f}")
    return None


def check_certificate(g: Grammar, cert: InvariantCertificate,
                      require_conclusion: bool = True) -> CertVerdict:
    """Verify base cases, closure under productions, and the conclusion
    that the initial nonterminal's coordinates lie in its ideal.

    The check recomputes every Groebner basis it needs from the
    certificate's generators and never reads a basis cached on the
    certificate's ideals.  Productions with the same children share one
    ideal per call, built by ``_block_ideal`` from the certificate's
    generators, so each distinct child block's basis is computed once.
    """
    productive = productive_nonterminals(g)
    for nt in productive:
        cert.ideal_for(nt)
    blocks: dict[tuple[str, ...], Ideal] = {}
    for prod in g.productions:
        if prod.lhs not in productive:
            continue
        if any(r not in productive for r in prod.rhs):
            continue
        reason = _closure_violation(g, cert, prod, blocks)
        if reason is not None:
            return CertVerdict("closure-violation", reason)
    if require_conclusion:
        if g.initial not in productive:
            raise EmptyLanguageError(
                f"initial nonterminal {g.initial!r} derives no value")
        cring = g.cert_ring(g.initial)
        I = cert.ideal_for(g.initial)
        gens = list(I.gens)
        if g.ambient is not None:
            gens.extend(p.convert(cring) for p in g.ambient.gens)
        J = Ideal(I.ring, gens)
        for c in g.coord_names(g.initial):
            if not _cert_membership(g, J, cring.var(c)):
                return CertVerdict(
                    "conclusion-violation",
                    f"coordinate {c} of {g.initial} is not forced to zero")
    return CertVerdict("zero-proved")


# ---------------------------------------------------------------------------
# the backward chain, for unary grammars


def _is_unary(g: Grammar) -> bool:
    """Every production has at most one child."""
    return all(p.arity() <= 1 for p in g.productions)


_R = TypeVar("_R")
_T = TypeVar("_T")


def _chain(g: Grammar, seeds: Iterable[tuple[Poly, _T]], deadline: float,
           at_base: Callable[[str, Poly, tuple[int, ...], _T, Derivation],
                             _R | None]
           ) -> _R | InvariantCertificate | None:
    """The smallest family of ideals, one per nonterminal of a unary
    grammar, that holds the seeds in ``J[initial]`` and is closed under
    pre-images.

    A seed is a polynomial over the certificate ring of the initial
    nonterminal, with a tag.  A new generator f of ``J[X]`` and a
    production ``X -> p(Y)`` with twist alpha give ``h = alpha^-1(f o
    p)`` over the certificate ring of Y, which joins ``J[Y]`` unless it
    lies in ``J[Y]`` plus the ambient ideal; a member vanishes wherever
    the generators do.  That ideal grows from the reduced basis that
    h's failed membership test computed, plus h, so no basis is rebuilt
    from every generator so far; the certificate lists ``J[Y]`` itself.
    Every joining generator, its production path from the initial
    nonterminal and its seed's tag are shown to ``at_base`` with each
    base derivation of its nonterminal, and the first result that
    returns ends the chain.  The ideals ascend in a Noetherian ring, so
    the chain reaches a fixpoint, which is returned as a certificate.
    Returns None when the deadline passes between two pre-images.
    """
    productive = productive_nonterminals(g)
    rings = {nt: g.cert_ring(nt) for nt in productive}
    amb = g.ambient.gens if g.ambient is not None else ()
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
    ideals = {nt: Ideal(rings[nt], [p.convert(rings[nt]) for p in amb])
              for nt in productive}
    todo = deque((g.initial, h, (), tag) for h, tag in seeds)
    while todo:
        if time.monotonic() > deadline:
            return None
        nt, h, path, tag = todo.popleft()
        if ideals[nt].member(h):
            continue
        for base in bases[nt]:
            found = at_base(nt, h, path, tag, base)
            if found is not None:
                return found
        J[nt].append(h)
        ideals[nt] = Ideal(rings[nt], (*ideals[nt].groebner(), h))
        for idx, child, binding in steps[nt]:
            todo.append((child, _pull_back(g.productions[idx], h, binding,
                                           rings[child]), (*path, idx), tag))
    return InvariantCertificate(
        {nt: Ideal(rings[nt], J[nt]) for nt in productive}, g.name)


def _along(g: Grammar, path: Sequence[int], base: Derivation) -> Derivation:
    """The derivation applying the path's productions, innermost last,
    to a base derivation."""
    d = base
    for idx in reversed(path):
        d = Derivation(idx, (d,), g.produce(g.productions[idx], [d.value]))
    return d


def _backward_chain(g: Grammar, deadline: float
                    ) -> Witness | InvariantCertificate | None:
    """Decide zeroness of a unary grammar: the chain seeded with the
    initial coordinates.  Along its path of productions a generator
    reads an initial coordinate, so one failing at a base value spells
    a witness, which is replayed before it is returned."""
    def at_base(nt, h, path, _, base) -> Witness | None:
        if vanishes_at(g, nt, h, base.value):
            return None
        d = _along(g, path, base)
        value = d.replay(g)
        return None if g.value_is_zero(value) else Witness(d, value)

    ring = g.cert_ring(g.initial)
    return _chain(g, ((ring.var(c), None) for c in g.coord_names(g.initial)),
                  deadline, at_base)


def _outer_seeds(g: Grammar, deadline: float) -> dict[Poly, Derivation] | None:
    """Stage one of the two-stage chain, on a unary grammar whose value
    variables stay symbolic: the nonzero initial-coordinate values of
    the derivations along the path of each joining generator, from each
    base derivation, with one such derivation each.  Without twists a
    value is the generator evaluated at the base value, and every value
    of the grammar lies in the ideal these values generate; with twists
    the ideal may miss some, which a quotient proof then finds.  None
    when the deadline passes."""
    seeds: dict[Poly, Derivation] = {}

    def at_base(nt, h, path, i, base) -> None:
        d = _along(g, path, base)
        if not d.value[i].is_zero():
            seeds.setdefault(d.value[i], d)

    ring = g.cert_ring(g.initial)
    coords = g.coord_names(g.initial)
    found = _chain(g, ((ring.var(c), i) for i, c in enumerate(coords)),
                   deadline, at_base)
    return None if found is None else seeds


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
                         samples: Sequence[Value],
                         degree: int) -> list[Poly] | None:
    """Polynomials over cring of bounded degree vanishing on the samples.

    Coordinate variables are bound to the sample components; the
    remaining cring variables stay symbolic, so a candidate vanishes
    when its expansion is zero as a polynomial over the value ring
    (reduced by the ambient ideal first when one is given).  Returns
    None when more than 12 independent polynomials vanish, too many to
    be a useful invariant.
    """
    monos = [Monomial((i, e) for i, e in enumerate(exps) if e)
             for exps in _monomials_upto(len(cring.names()), degree)]
    cands = [cring.from_monomial(m) for m in monos]
    evals: list[list[Poly]] = []
    for sample in samples:
        binding = dict(zip(coord_names, sample))
        row_polys = [p.substitute(binding, target_ring=value_ring)
                     for p in cands]
        if ambient is not None:
            row_polys = [ambient.reduce(p) for p in row_polys]
        evals.append(row_polys)
    seen: dict[Monomial, None] = {}
    for row_polys in evals:
        for p in row_polys:
            for m in p.terms:
                seen.setdefault(m, None)
    xmonos = sorted(seen)
    field = value_ring.field
    rows = []
    for row_polys in evals:
        for xm in xmonos:
            rows.append([p.coeff_of(xm) for p in row_polys])
    kernel = kernel_basis(rows, len(monos), field)
    if len(kernel) > 12:
        return None
    return [cring.from_terms({monos[j]: c for j, c in enumerate(vec)
                              if not field.is_zero(c)})
            for vec in kernel]


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


def closure_rounds(table: ValueTable) -> Iterator[InvariantCertificate | None]:
    """Candidate invariants, one per round, by a degree-capped widening
    (never ends): vanishing candidates from sampled values, dropped when
    they fail on the values of the next derivation size."""
    g = table.g
    productive = productive_nonterminals(g)
    for i in itertools.count():
        # candidate degree, sample size and sample cap of round i
        degree, size, cap = ((1 if i % 2 == 0 else 2), 2 + i // 2,
                             8 + 4 * (i // 2))
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
        if not _holds_on_fresh_values(
                g, ideals, samples, collect_samples(table, size + 1, 2 * cap)):
            yield None
            continue
        yield InvariantCertificate(ideals, g.name)


# ---------------------------------------------------------------------------
# the zeroness driver


class Budgets:
    """Work bounds: enumeration tree size, closure rounds, and a
    wall-clock deadline.  The deadline is checked between search steps
    and, in the backward chain, between two pre-images; a long step of
    the invariant search can overrun it.  A nested search (a quotient
    proof or a chain link) gets :meth:`inner` budgets, whose seconds end
    no later than its caller's deadline.  The two work bounds keep
    results machine-independent."""

    __slots__ = ("size", "iters", "seconds")

    def __init__(self, size: int = 12, iters: int = 8, seconds: float = 60.0):
        self.size = size
        self.iters = iters
        self.seconds = seconds

    def inner(self, deadline: float) -> "Budgets":
        """Halved bounds for a nested search started now, inside a
        search that must end by ``deadline`` (a ``time.monotonic``
        instant)."""
        return Budgets(max(4, self.size // 2), max(2, self.iters // 2),
                       min(self.seconds / 2, deadline - time.monotonic()))


class ZeronessResult:
    __slots__ = ("verdict", "certificate", "witness", "detail")

    def __init__(self, verdict: str,
                 certificate: InvariantCertificate | None = None,
                 witness: Witness | None = None, detail: str = ""):
        self.verdict = verdict  # "zero" | "nonzero" | "unknown"
        self.certificate = certificate
        self.witness = witness
        self.detail = detail


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


def attach_polymap(f: PolyMap, g: Grammar) -> Grammar:
    """New grammar computing f of the old initial nonterminal's values,
    from a new initial nonterminal ``_q<k>``."""
    if f.n_inputs != g.dim(g.initial):
        raise DimensionError(
            f"map arity {f.n_inputs} does not match dim of {g.initial}")
    if f.ring.field != g.ring.field:
        raise StructureError("attached map over a different coefficient field")
    if set(f.slots) & set(g.ring.names()):
        raise StructureError("attached map slots collide with value variables")
    k = 0
    while f"_q{k}" in g.nonterminals:
        k += 1
    name = f"_q{k}"
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
    field = g.ring.fraction_field
    vring = PolyRing(EMPTY_VARTABLE, field, Mode.FIELD)
    prods = []
    for prod in g.productions:
        slot_pairs = [(s, prod.pmap.ring.vartable.kinds[
            prod.pmap.ring.vartable.index(s)]) for s in prod.pmap.slots]
        mring = PolyRing(VarTable.make(slot_pairs), field, Mode.FIELD)
        outs = tuple(structure_poly(p, mring) for p in prod.pmap.outputs)
        prods.append(Production(prod.lhs, prod.rhs,
                                PolyMap(mring, prod.pmap.slots, outs),
                                prod.twist, prod.label))
    return Grammar(g.nonterminals, g.initial, prods, vring, None, g.name)


# ---------------------------------------------------------------------------
# zeroness through an independent inner system


class IndepResult:
    __slots__ = ("verdict", "invariant", "quotient_result", "witness_pair",
                 "detail")

    def __init__(self, verdict: str,
                 invariant: InvariantCertificate | None = None,
                 quotient_result: ZeronessResult | None = None,
                 witness_pair: tuple[Witness, Witness] | None = None,
                 detail: str = ""):
        self.verdict = verdict  # "zero" | "nonzero" | "unknown"
        self.invariant = invariant
        self.quotient_result = quotient_result
        self.witness_pair = witness_pair
        self.detail = detail


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

    When the inner grammar is unary the invariant comes from the
    two-stage chain: outer values, renamed to the inner coordinates,
    seed the inner grammar's chain.  They start as the outer grammar's
    values along its chain (:func:`_outer_seeds`) when it is unary, and
    as none otherwise.  A seed failing at an inner value along the chain
    spells a witness pair, replayed and evaluated before it is returned;
    the fixpoint is the candidate invariant, checked like any other.  An
    outer value that the quotient proof finds outside it (twists or a
    non-unary outer grammar allow one) joins the seeds, and stage two
    runs again.  Only a non-unary inner grammar, whose certificate must
    be an inner invariant, has its candidates guessed by
    :func:`closure_rounds`.

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
    deadline = time.monotonic() + budgets.seconds

    def quotient_proof(cand: InvariantCertificate) -> ZeronessResult | None:
        """Zeroness of the outer grammar modulo the candidate's initial
        ideal; None when the candidate is no inner invariant."""
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
        return zeroness(quotient, budgets.inner(deadline))

    def try_invariant(cand: InvariantCertificate,
                      qr: ZeronessResult | None = None,
                      detail: str = "inner invariant and quotient proof"
                      ) -> IndepResult | None:
        qr = quotient_proof(cand) if qr is None else qr
        if qr is None or qr.verdict != "zero":
            return None
        return IndepResult("zero", invariant=cand, quotient_result=qr,
                           detail=detail)

    for cand in certificates:
        res = try_invariant(cand, detail="supplied certificate verified")
        if res is not None:
            return res

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
                found = nonzero_pair(oder, oval, ider, ival)
                if found is not None:
                    yield found
                    return
            outer_seen.extend(new_outer)
            inner_seen.extend(new_inner)
            yield None

    def nonzero_pair(oder: Derivation, oval: Value, ider: Derivation,
                     ival: Value) -> IndepResult | None:
        binding = {x: outer.ring.const(c.constant_value())
                   for x, c in zip(xnames, ival)}
        if oval[0].substitute(binding).is_zero():
            return None
        return IndepResult("nonzero", witness_pair=(
            Witness(oder, oval), Witness(ider, ival)),
            detail="nonzero evaluation found")

    def staged() -> IndepResult | None:
        seeds = _outer_seeds(outer, deadline) if _is_unary(outer) else {}
        if seeds is None:
            return None
        ring = inner.cert_ring(inner.initial)
        rename = dict(zip(xnames, inner.coord_names(inner.initial)))

        def at_base(nt, h, path, oder, base) -> IndepResult | None:
            if vanishes_at(inner, nt, h, base.value):
                return None
            ider = _along(inner, path, base)
            return nonzero_pair(oder, oder.replay(outer), ider,
                                ider.replay(inner))

        while True:
            found = _chain(inner, ((v.convert(ring, rename), d)
                                   for v, d in seeds.items()),
                           deadline, at_base)
            if not isinstance(found, InvariantCertificate):
                return found
            qr = quotient_proof(found)
            if qr is None or qr.witness is None:
                return try_invariant(found, qr)
            # an outer value outside the invariant, which the seeds miss
            # through twists or a non-unary outer grammar: it joins them,
            # and the ideal grows
            seeds.setdefault(qr.witness.value[0], qr.witness.derivation)

    if _is_unary(inner):
        prove = (staged() for _ in range(1))
    else:
        prove = (None if cand is None else try_invariant(cand)
                 for cand in closure_rounds(inner_table))
    return _interleave([refute(), itertools.islice(prove, budgets.iters)],
                       deadline, IndepResult)


# ---------------------------------------------------------------------------
# zeroness through a chain of substitutions


class ChainResult:
    __slots__ = ("verdict", "invariant_gens", "link_results",
                 "quotient_result", "witness_value", "detail")

    def __init__(self, verdict: str, invariant_gens: tuple[Poly, ...] = (),
                 link_results: tuple[ChainResult, ...] = (),
                 quotient_result: ZeronessResult | None = None,
                 witness_value: Value | None = None, detail: str = ""):
        self.verdict = verdict  # "zero" | "nonzero" | "unknown"
        self.invariant_gens = invariant_gens
        self.link_results = link_results
        self.quotient_result = quotient_result
        self.witness_value = witness_value
        self.detail = detail


def chain_zeroness(grammars: Sequence[Grammar],
                   budgets: Budgets = Budgets()) -> ChainResult:
    """Zeroness of g1(g2(... gn ...)) over all derivable value chains.

    Works outside-in by refining on head values.  The generators are
    values of the head grammar: its values along its chain
    (:func:`_outer_seeds`) when the head is unary, otherwise none to
    start.  Each generator is proved zero on the tail by the shorter
    chain, and one found nonzero there refutes the chain.  Then the head
    grammar is proved zero modulo the generators (plain zeroness while
    there are none); a head value that this proof finds outside their
    ideal joins them, and only the new generators go to the tail.  The
    ideal grows in a Noetherian ring, so the refinement ends.  Sampling
    enters only where a nested :func:`zeroness` meets a grammar that is
    not unary.
    """
    gs = list(grammars)
    if not gs:
        raise StructureError("empty grammar chain")
    if len(gs) == 1:
        r = zeroness(gs[0], budgets)
        return ChainResult(r.verdict, quotient_result=r, detail=r.detail,
                           witness_value=None if r.witness is None
                           else r.witness.value)
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
    deadline = time.monotonic() + budgets.seconds
    xnames = head.ring.names()
    coords = tuple(f"_t{i}" for i in range(len(xnames)))
    coordring = PolyRing(VarTable.make((c, VarKind.ORDINARY) for c in coords),
                         head.ring.field, head.ring.mode)
    rename = dict(zip(xnames, coords))

    def refine() -> ChainResult | None:
        new = _outer_seeds(head, deadline) if _is_unary(head) else {}
        if new is None:
            return None
        proved: list[Poly] = []  # head values proved zero on the tail
        links: list[ChainResult] = []
        while True:
            for v in new:
                fmap = PolyMap(coordring, coords,
                               (v.convert(coordring, rename),))
                sub = chain_zeroness([attach_polymap(fmap, gs[1])] + gs[2:],
                                     budgets.inner(deadline))
                links.append(sub)
                if sub.verdict == "nonzero":
                    return ChainResult("nonzero", link_results=tuple(links),
                                       witness_value=sub.witness_value,
                                       detail="nonzero composed value found")
                if sub.verdict != "zero":
                    return None
                proved.append(v)
            quotient = Grammar(head.nonterminals, head.initial,
                               head.productions, head.ring,
                               Ideal(head.ring, proved) if proved else None,
                               head.name)
            qr = zeroness(quotient, budgets.inner(deadline))
            if qr.verdict == "zero":
                return ChainResult("zero", invariant_gens=tuple(
                    v.convert(coordring, rename) for v in proved),
                    link_results=tuple(links), quotient_result=qr,
                    detail="tail invariant and quotient proof")
            if qr.witness is None:
                return None
            # a head value outside the ideal of the generators joins them,
            # so the ideal grows; the links proved so far stay proved
            new = [c for c in qr.witness.value if not c.is_zero()]

    return _interleave([(refine() for _ in range(min(1, budgets.iters)))],
                       deadline, ChainResult)
