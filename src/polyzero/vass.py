"""Vector addition systems with resets and their compilation to a
numeric register transducer over Z[x].

Zero-to-zero reachability of a reset VASS is undecidable, which makes
these machines a generator of adversarial equivalence instances: the
compiled transducer outputs a nonzero value exactly on words spelling a
valid run from the zero vector back to the zero vector in an accepting
state.  A brute-force reachability search doubles as the ground-truth
oracle for bounded run lengths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DimensionError, DomainError, StructureError
from .poly import Poly, PolyRing, ordinary_ring


# ---------------------------------------------------------------------------
# reset VASS


@dataclass(frozen=True)
class AddVector:
    """Add an integer vector to the counters (positionally indexed)."""

    delta: tuple[int, ...]

    def is_unit(self) -> bool:
        nonzero = [d for d in self.delta if d != 0]
        return len(nonzero) == 1 and abs(nonzero[0]) == 1


@dataclass(frozen=True)
class ResetSet:
    """Reset the listed coordinates (1-based) to zero."""

    coords: frozenset[int]


Effect = AddVector | ResetSet
Transition = tuple[str, Effect, str]


class ResetVass:
    """States, a counter dimension, and transitions that add a vector or
    reset a coordinate set.  Counters must stay nonnegative along runs;
    reachability asks for a run from the zero vector in the initial
    state to the zero vector in an accepting state."""

    def __init__(self, dim: int, states: Sequence[str], initial: str,
                 accepting: Iterable[str],
                 transitions: Sequence[Transition],
                 name: str | None = None):
        self.dim = dim
        self.states = tuple(states)
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.transitions = tuple(transitions)
        self.name = name
        self._validate()

    def _validate(self) -> None:
        if self.dim < 1:
            raise DimensionError(f"dimension {self.dim} must be positive")
        if len(set(self.states)) != len(self.states) or not self.states:
            raise StructureError("states must be nonempty without duplicates")
        for q in self.states:
            if q.startswith("_"):
                raise StructureError(f"state name {q!r} is reserved")
        if self.initial not in self.states:
            raise StructureError(f"initial state {self.initial!r} undeclared")
        if not self.accepting <= set(self.states):
            raise StructureError("accepting states must be declared")
        for src, eff, tgt in self.transitions:
            if src not in self.states or tgt not in self.states:
                raise StructureError(f"transition {src}->{tgt} uses undeclared state")
            if isinstance(eff, AddVector):
                if len(eff.delta) != self.dim:
                    raise StructureError(
                        f"vector {eff.delta} does not match dimension {self.dim}")
            elif isinstance(eff, ResetSet):
                if not all(1 <= c <= self.dim for c in eff.coords):
                    raise StructureError(f"reset coordinates {set(eff.coords)} "
                                         f"out of range 1..{self.dim}")
            else:
                raise StructureError(f"not an effect: {eff!r}")

    def letters(self) -> tuple[str, ...]:
        return tuple(f"t{i}" for i in range(len(self.transitions)))

    def is_normalized(self) -> bool:
        return all(eff.is_unit() for _, eff, _ in self.transitions
                   if isinstance(eff, AddVector))

    def __repr__(self) -> str:
        label = self.name or "vass"
        return (f"<{label}: dim {self.dim}, {len(self.states)} states, "
                f"{len(self.transitions)} transitions>")


def apply_effect(eff: Effect, vec: Sequence[int]) -> tuple[int, ...]:
    """Integer semantics: coordinates may go below zero."""
    if isinstance(eff, AddVector):
        return tuple(v + d for v, d in zip(vec, eff.delta))
    return tuple(0 if (i + 1) in eff.coords else v for i, v in enumerate(vec))


def normalize(v: ResetVass) -> ResetVass:
    """Split general step vectors into chains of single ±unit steps
    through fresh non-accepting states, in declared-coordinate order.
    Zero vectors become empty resets so every transition keeps a letter.
    """
    states = list(v.states)
    taken = set(states)
    out: list[Transition] = []
    for ti, (src, eff, tgt) in enumerate(v.transitions):
        if isinstance(eff, ResetSet) or eff.is_unit():
            out.append((src, eff, tgt))
            continue
        steps: list[AddVector] = []
        for k, d in enumerate(eff.delta):
            unit = [0] * v.dim
            unit[k] = 1 if d > 0 else -1
            steps.extend([AddVector(tuple(unit))] * abs(d))
        if not steps:
            out.append((src, ResetSet(frozenset()), tgt))
            continue
        cur = src
        for j, step in enumerate(steps):
            if j == len(steps) - 1:
                nxt = tgt
            else:
                nxt = f"mid{ti}x{j}"
                while nxt in taken:
                    nxt += "x"
                taken.add(nxt)
                states.append(nxt)
            out.append((cur, step, nxt))
            cur = nxt
    return ResetVass(v.dim, states, v.initial, v.accepting, out, v.name)


# ---------------------------------------------------------------------------
# brute-force reachability oracle


@dataclass(frozen=True)
class ReachResult:
    reachable: bool
    run: tuple[int, ...] | None  # transition indices


def brute_force_reach(v: ResetVass, max_len: int,
                      min_steps: int = 0) -> ReachResult:
    """Exact zero-to-zero reachability for runs up to max_len steps.

    Configurations are deduplicated on first visit, which keeps the
    search exact only for min_steps 0 and 1 (arrivals are tested on
    every edge, but longer revisits are pruned).
    """
    if min_steps not in (0, 1):
        raise DomainError("supported min_steps values are 0 and 1")
    zero = (0,) * v.dim
    if min_steps == 0 and v.initial in v.accepting:
        return ReachResult(True, ())
    start = (v.initial, zero)
    seen = {start}
    frontier: list[tuple[tuple[str, tuple[int, ...]], tuple[int, ...]]] = [
        (start, ())]
    for _ in range(max_len):
        nxt = []
        for (state, vec), run in frontier:
            for idx, (src, eff, tgt) in enumerate(v.transitions):
                if src != state:
                    continue
                new_vec = apply_effect(eff, vec)
                if any(c < 0 for c in new_vec):
                    continue
                new_run = run + (idx,)
                if tgt in v.accepting and new_vec == zero:
                    return ReachResult(True, new_run)
                conf = (tgt, new_vec)
                if conf not in seen:
                    seen.add(conf)
                    nxt.append((conf, new_run))
        frontier = nxt
    return ReachResult(False, None)


def run_is_valid(v: ResetVass, word: Sequence[int]) -> bool:
    """Does the transition-index word spell a run (state-consistent,
    counters never below zero)?"""
    state, vec = v.initial, (0,) * v.dim
    for idx in word:
        src, eff, tgt = v.transitions[idx]
        if src != state:
            return False
        vec = apply_effect(eff, vec)
        if any(c < 0 for c in vec):
            return False
        state = tgt
    return True


def run_endpoint(v: ResetVass, word: Sequence[int]) -> tuple[str, tuple[int, ...]]:
    """Final state and integer counters, ignoring validity."""
    state, vec = v.initial, (0,) * v.dim
    for idx in word:
        src, eff, tgt = v.transitions[idx]
        if src != state:
            return ("_err", vec)
        vec = apply_effect(eff, vec)
        state = tgt
    return (state, vec)


# ---------------------------------------------------------------------------
# numeric register expressions


class NumExpr:
    __slots__ = ()


@dataclass(frozen=True)
class NConst(NumExpr):
    value: int


@dataclass(frozen=True)
class NX(NumExpr):
    pass


@dataclass(frozen=True)
class NReg(NumExpr):
    name: str


@dataclass(frozen=True)
class NAdd(NumExpr):
    left: NumExpr
    right: NumExpr


@dataclass(frozen=True)
class NMul(NumExpr):
    left: NumExpr
    right: NumExpr


@dataclass(frozen=True)
class NSubstX(NumExpr):
    """Evaluate the body, then substitute x by the replacement's value."""

    body: NumExpr
    replacement: NumExpr


def num_sum(exprs: Sequence[NumExpr]) -> NumExpr:
    out: NumExpr = NConst(0)
    for i, e in enumerate(exprs):
        out = e if i == 0 else NAdd(out, e)
    return out


Value = int | Poly


def _lower(p: Poly) -> Value:
    """An initial register value as the machine holds it."""
    c = p.constant_value() if p.is_constant() else None
    return c if type(c) is int else p


def _at(p: Poly, v: Value) -> Value:
    """``p[x := v]`` by Horner's rule, for ``p`` in ``x`` alone: an
    ``int`` for an ``int`` ``v`` with integer coefficients."""
    coeffs = {m.exp(0): c for m, c in p.terms.items()}
    acc = 0
    for e in range(max(coeffs, default=0), -1, -1):
        acc = acc * v + coeffs.get(e, 0)
    return acc


def compile_num(expr: NumExpr,
                ring: PolyRing) -> Callable[[Mapping[str, Value]], Value]:
    """The expression as a function of a register valuation whose
    constant values are ``int``.  Constants compile to ``int``, and a sum
    or product stays an ``int`` while both operands are; only ``x`` and
    what it meets are :class:`Poly`.  ``body[x := replacement]`` is
    evaluated by Horner's rule, so an ``int`` replacement gives the
    body's value there without :meth:`Poly.substitute`."""
    if isinstance(expr, NConst):
        c = expr.value
        return lambda val: c
    if isinstance(expr, NX):
        x = ring.var("x")
        return lambda val: x
    if isinstance(expr, NReg):
        return itemgetter(expr.name)
    if isinstance(expr, NAdd):
        left, right = compile_num(expr.left, ring), compile_num(expr.right, ring)
        return lambda val: left(val) + right(val)
    if isinstance(expr, NMul):
        left, right = compile_num(expr.left, ring), compile_num(expr.right, ring)

        def mul(val: Mapping[str, Value]) -> Value:
            # a zero right factor, such as the output's R2, makes the left
            # one (the output's R1[x := sum]) unneeded; over Z[x] it cannot
            # raise, so skipping it changes no result
            r = right(val)
            zero = r.is_zero() if isinstance(r, Poly) else r == 0
            return r if zero else left(val) * r

        return mul
    if isinstance(expr, NSubstX):
        body = compile_num(expr.body, ring)
        repl = compile_num(expr.replacement, ring)

        def subst(val: Mapping[str, Value]) -> Value:
            b = body(val)
            return _at(b, repl(val)) if isinstance(b, Poly) else b

        return subst
    raise StructureError(f"not a numeric expression: {expr!r}")


# ---------------------------------------------------------------------------
# the compiled transducer


class NumericTransducer:
    """Register machine over Z[x] produced from a reset VASS.

    Registers are exactly R1 (reachability test), R1aux (step counter),
    R2 (error flag), and S1..Sdim (counters).  The output substitutes
    the counter sum for x in R1 and multiplies by R2; substitution
    appears nowhere else.  Every update and output expression is compiled
    once, on construction, into a function of the valuation.

    Inside, a register holds a plain ``int`` while its value is constant,
    so S1..Sdim, R1aux and R2 never become :class:`Poly`; only R1 and
    ``x - (R1aux + 1)`` do, and the output's substitution is R1's value
    at the integer counter sum.  ``run`` and ``trace`` lift every ``int``
    to the ring's constant, so they return :class:`Poly` values only;
    ``init`` keeps the :class:`Poly` initial values.

    The machine remembers the states and valuations after every prefix
    of the last word it ran, and a new run or trace resumes from the
    longest prefix it shares with that word, so memory stays bounded by
    the length of the last word.  A word that raises (an unknown letter)
    leaves that memory as it was.  Valuations are never mutated: a step
    that updates registers builds a fresh one, and a step that updates
    none (into and inside the error state) returns the one it was given.
    """

    def __init__(self, letters: Sequence[str], registers: Sequence[str],
                 init: Mapping[str, Poly], states: Sequence[str],
                 initial_state: str, accepting: Iterable[str],
                 transitions: Mapping[tuple[str, str],
                                      tuple[str, Mapping[str, NumExpr]]],
                 outputs: Mapping[str, NumExpr], ring: PolyRing,
                 name: str | None = None):
        self.letters = tuple(letters)
        self.registers = tuple(registers)
        self.init = dict(init)
        self.states = tuple(states)
        self.initial_state = initial_state
        self.accepting = frozenset(accepting)
        self.transitions = {k: (tgt, dict(upd))
                            for k, (tgt, upd) in transitions.items()}
        self.outputs = dict(outputs)
        self.ring = ring
        self.name = name
        head = self.registers[:3]
        tail = self.registers[3:]
        if head != ("R1", "R1aux", "R2") or not tail or any(
                r != f"S{i}" for i, r in enumerate(tail, start=1)):
            raise StructureError("registers must be R1, R1aux, R2, S1..Sdim")
        for q in self.states:
            for a in self.letters:
                if (q, a) not in self.transitions:
                    raise StructureError(f"incomplete: no transition from "
                                         f"{q!r} on {a!r}")
        if set(self.outputs) != set(self.states):
            raise StructureError("numeric outputs must cover every state")
        if ring.names() != ("x",):
            raise StructureError("numeric transducers run over Z[x]")
        self._steps = {k: (tgt, {r: compile_num(e, ring) for r, e in upd.items()})
                       for k, (tgt, upd) in self.transitions.items()}
        self._outputs = {q: compile_num(e, ring) for q, e in self.outputs.items()}
        start = {r: _lower(p) for r, p in self.init.items()}
        self._last: tuple[tuple[str, ...], list[tuple[str, dict[str, Value]]]] = (
            (), [(self.initial_state, start)])

    def step(self, state: str, letter: str,
             valuation: Mapping[str, Value]) -> tuple[str, Mapping[str, Value]]:
        """Target state and valuation after one letter.  This works on
        the internal valuation, where a constant register is an ``int``
        (a :class:`Poly` is accepted too); ``run`` and ``trace`` lift it.
        Every run and trace goes through this method, one letter at a
        time."""
        if (state, letter) not in self._steps:
            raise DomainError(f"no transition from {state!r} on {letter!r}")
        target, updates = self._steps[(state, letter)]
        if not updates:
            return target, valuation
        new = {r: (updates[r](valuation) if r in updates else valuation[r])
               for r in self.registers}
        return target, new

    def _lift(self, v: Value) -> Poly:
        return v if isinstance(v, Poly) else self.ring.const(v)

    def _prefixes(self, word: Sequence[str]) -> list[tuple[str, dict[str, Value]]]:
        """(state, valuation) after every prefix of ``word``, resumed
        from the longest prefix shared with the last word run."""
        word = tuple(word)
        last_word, last = self._last
        k = 0
        for a, b in zip(word, last_word):
            if a != b:
                break
            k += 1
        out = last[:k + 1]
        state, vals = out[-1]
        for letter in word[k:]:
            state, vals = self.step(state, letter, vals)
            out.append((state, vals))
        self._last = (word, out)
        return out

    def run(self, word: Sequence[str]) -> Poly:
        state, vals = self._prefixes(word)[-1]
        return self._lift(self._outputs[state](vals))

    def trace(self, word: Sequence[str]) -> list[tuple[str, dict[str, Poly]]]:
        """States and register valuations after every prefix."""
        return [(state, {r: self._lift(v) for r, v in vals.items()})
                for state, vals in self._prefixes(word)]


ERROR_STATE = "_err"


def compile_to_transducer(v: ResetVass) -> NumericTransducer:
    """Reduction to transducer nonzeroness: words over the transition
    alphabet are mapped to Z[x] outputs that are nonzero exactly on
    valid runs from the zero vector to the zero vector in an accepting
    state.

    After n valid steps R1 = (x-1)(x-2)...(x-n) and R1aux = n, so
    R1[x:=sum of counters] is nonzero only at counter sum 0; R1aux is
    incremented before the multiplication (starting the product at x-1)
    to make that root pattern come out.  R2 picks up a factor of
    counter+1 per coordinate per step and is 0 exactly when some
    coordinate dipped below zero.
    """
    if not v.is_normalized():
        raise StructureError("compilation needs a normalized reset VASS")
    ring = ordinary_ring(("x",))
    letters = v.letters()
    counters = tuple(f"S{i}" for i in range(1, v.dim + 1))
    registers = ("R1", "R1aux", "R2") + counters
    init = {r: ring.zero() for r in counters}
    init["R1"] = ring.one()
    init["R1aux"] = ring.zero()
    init["R2"] = ring.one()
    states = v.states + (ERROR_STATE,)

    transitions: dict[tuple[str, str], tuple[str, dict[str, NumExpr]]] = {}
    for p in states:
        for i, (src, eff, tgt) in enumerate(v.transitions):
            key = (p, letters[i])
            if p == ERROR_STATE or p != src:
                transitions[key] = (ERROR_STATE, {})
                continue
            upd: dict[str, NumExpr] = {}
            post: dict[str, NumExpr] = {r: NReg(r) for r in counters}
            if isinstance(eff, AddVector):
                for k, d in enumerate(eff.delta):
                    if d != 0:
                        post[counters[k]] = NAdd(NReg(counters[k]), NConst(d))
            else:
                for c in eff.coords:
                    post[counters[c - 1]] = NConst(0)
            for r in counters:
                if post[r] != NReg(r):
                    upd[r] = post[r]
            guard: NumExpr = NReg("R2")
            for r in counters:
                guard = NMul(guard, NAdd(post[r], NConst(1)))
            upd["R2"] = guard
            bump = NAdd(NReg("R1aux"), NConst(1))
            upd["R1"] = NMul(NReg("R1"), NAdd(NX(), NMul(NConst(-1), bump)))
            upd["R1aux"] = bump
            transitions[key] = (tgt, upd)

    outputs: dict[str, NumExpr] = {}
    for q in states:
        if q in v.accepting:
            outputs[q] = NMul(NSubstX(NReg("R1"), num_sum([NReg(r) for r in counters])),
                              NReg("R2"))
        else:
            outputs[q] = NConst(0)
    return NumericTransducer(letters, registers, init, states, v.initial,
                             v.accepting, transitions, outputs, ring,
                             name=v.name)


def word_of_run(v: ResetVass, run: Sequence[int]) -> tuple[str, ...]:
    letters = v.letters()
    return tuple(letters[i] for i in run)


# ---------------------------------------------------------------------------
# generated machine family for adversarial testing


def small_family(count: int = 40, seed: int = 0,
                 max_dim: int = 2, max_states: int = 2,
                 max_transitions: int = 3) -> list[ResetVass]:
    """Deterministic sample of small reset VASS instances (unit effects
    only, so every machine is already normalized)."""
    rng = random.Random(seed)
    family: list[ResetVass] = []
    while len(family) < count:
        dim = rng.randint(1, max_dim)
        nstates = rng.randint(1, max_states)
        states = tuple(f"q{i}" for i in range(nstates))
        accepting = tuple(q for q in states if rng.random() < 0.7)
        trans: list[Transition] = []
        for _ in range(rng.randint(1, max_transitions)):
            src = rng.choice(states)
            tgt = rng.choice(states)
            kind = rng.randrange(3)
            if kind == 2:
                coords = frozenset(c for c in range(1, dim + 1)
                                   if rng.random() < 0.6)
                if not coords:
                    coords = frozenset({rng.randint(1, dim)})
                eff: Effect = ResetSet(coords)
            else:
                unit = [0] * dim
                unit[rng.randrange(dim)] = 1 if kind == 0 else -1
                eff = AddVector(tuple(unit))
            trans.append((src, eff, tgt))
        family.append(ResetVass(dim, states, states[0], accepting, trans,
                                name=f"family{len(family)}"))
    return family


def counters_of(t: NumericTransducer,
                valuation: Mapping[str, Poly]) -> tuple[int, ...]:
    out = []
    for r in t.registers:
        if r.startswith("S"):
            c = valuation[r].constant_value()
            out.append(int(Fraction(c)))
    return tuple(out)
