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
import zlib
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Container, Iterable, Mapping, Sequence

from .errors import DimensionError, DomainError, StructureError
from .poly import UNIT_MONOMIAL, Monomial, Poly, PolyRing, ordinary_ring


# ---------------------------------------------------------------------------
# reset VASS


class AddVector:
    """Add an integer vector to the counters (positionally indexed)."""

    __slots__ = ("delta",)

    def __init__(self, delta: tuple[int, ...]):
        self.delta = delta

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.delta == other.delta

    def is_unit(self) -> bool:
        nonzero = [d for d in self.delta if d != 0]
        return len(nonzero) == 1 and abs(nonzero[0]) == 1


class ResetSet:
    """Reset the listed coordinates (1-based) to zero."""

    __slots__ = ("coords",)

    def __init__(self, coords: frozenset[int]):
        self.coords = coords

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords == other.coords


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


class ReachResult:
    __slots__ = ("reachable", "run")

    def __init__(self, reachable: bool, run: tuple[int, ...] | None):
        self.reachable = reachable
        self.run = run  # transition indices

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.reachable, self.run) == (other.reachable, other.run)


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


class NConst(NumExpr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    # names, in _emit's error, a constant that is not an int
    def __repr__(self) -> str:
        return f"NConst(value={self.value!r})"


class NX(NumExpr):
    __slots__ = ()


class NReg(NumExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    # names, in _emit's error, a register name that is not a str
    def __repr__(self) -> str:
        return f"NReg(name={self.name!r})"


class NAdd(NumExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: NumExpr, right: NumExpr):
        self.left = left
        self.right = right


class NMul(NumExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: NumExpr, right: NumExpr):
        self.left = left
        self.right = right


class NSubstX(NumExpr):
    """Evaluate the body, then substitute x by the replacement's value."""

    __slots__ = ("body", "replacement")

    def __init__(self, body: NumExpr, replacement: NumExpr):
        self.body = body
        self.replacement = replacement


def num_sum(exprs: Sequence[NumExpr]) -> NumExpr:
    out: NumExpr = NConst(0)
    for i, e in enumerate(exprs):
        out = e if i == 0 else NAdd(out, e)
    return out


Value = int | tuple[int, ...]
"""A register value inside :class:`NumericTransducer`: a constant is a
plain ``int``; any other element of Z[x] is the tuple of its integer
coefficients, lowest degree first, at least two long, with a nonzero
last entry."""


def _norm(coeffs: list[int]) -> Value:
    """The value of a coefficient list: trailing zeros dropped, and an
    ``int`` when at most the constant coefficient is left."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if len(coeffs) > 1:
        return tuple(coeffs)
    return coeffs[0] if coeffs else 0


def _add(a: Value, b: Value) -> Value:
    if type(a) is int:
        if type(b) is int:
            return a + b
        return (b[0] + a, *b[1:])
    if type(b) is int:
        return (a[0] + b, *a[1:])
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _norm(out) if len(a) == len(b) else tuple(out)


def _mul(a: Value, b: Value) -> Value:
    # Z has no zero divisors, so a product of nonzero leading
    # coefficients is nonzero and no trailing zero can appear
    if type(a) is int:
        if type(b) is int:
            return a * b
        a, b = b, a
    if type(b) is int:
        return tuple([c * b for c in a]) if b else 0
    if len(b) == 2:  # R1's linear factor x - (R1aux + 1)
        c, d = b
        out, prev = [], 0
        for e in a:
            out.append(c * e + d * prev)
            prev = e
        out.append(d * prev)
        return tuple(out)
    out = [0] * (len(a) + len(b) - 1)
    for j, c in enumerate(b):
        if c:
            for i, d in enumerate(a, j):
                out[i] += c * d
    return tuple(out)


def _at(body: Value, v: Value) -> Value:
    """``body[x := v]`` by Horner's rule: an ``int`` for an ``int``
    ``v``, the composition for a tuple ``v``."""
    if type(body) is int:
        return body
    acc: Value = 0
    if type(v) is int:
        for c in reversed(body):
            acc = acc * v + c
        return acc
    for c in reversed(body):
        acc = _add(_mul(acc, v), c)
    return acc


@lru_cache(maxsize=256)
def _kernel(src: str) -> Callable[[Mapping[str, Value]], Value]:
    """The function a generated ``lambda`` defines, compiled once per
    source text; its file is ``<vass kernel>``, its name ``kernel_`` and
    the CRC-32 of ``src`` (so profiles tell kernels apart), and it keeps
    ``src``."""
    fn = eval(compile(src, "<vass kernel>", "eval"),
              {"__builtins__": {}, "_add": _add, "_mul": _mul, "_at": _at})
    name = f"kernel_{zlib.crc32(src.encode()):08x}"
    fn.__code__ = fn.__code__.replace(co_name=name)
    fn.source = src
    return fn


def _emit(expr: NumExpr, ints: Container[str],
          regs: Container[str] | None = None) -> tuple[str, bool]:
    """Source of ``expr`` over the valuation ``v``, and whether it is an
    ``int`` when the registers in ``ints`` are, which makes its sums and
    products native.  Only ``int`` constants, the helpers and ``repr``'d
    register names reach the source; a register outside ``regs``, when
    given, raises :class:`StructureError`."""
    if isinstance(expr, NReg) and type(expr.name) is str:
        if regs is not None and expr.name not in regs:
            raise StructureError(f"undeclared register {expr.name!r}")
        return f"v[{expr.name!r}]", expr.name in ints
    if isinstance(expr, (NAdd, NMul)):
        (left, li), (right, ri) = (_emit(expr.left, ints, regs),
                                   _emit(expr.right, ints, regs))
        op, helper = ("+", "_add") if isinstance(expr, NAdd) else ("*", "_mul")
        out = f"({left} {op} {right})" if li and ri else f"{helper}({left}, {right})"
        if isinstance(expr, NAdd) and isinstance(expr.left, NX) and ri:
            out = f"({right}, 1)"  # x + c for an int c: already a Value
        if isinstance(expr, NMul) and isinstance(expr.right, NReg):
            # a zero register on the right (the output's R2) makes the left
            # factor unneeded; over Z[x] it cannot raise, so no result changes
            out = f"({right} and {out})"
        return out, li and ri
    if isinstance(expr, NConst) and type(expr.value) is int:
        return f"({expr.value})", True
    if isinstance(expr, NX):
        return "(0, 1)", False
    if isinstance(expr, NSubstX):
        (body, bi), (repl, ri) = (_emit(expr.body, ints, regs),
                                  _emit(expr.replacement, ints, regs))
        return (body, True) if bi else (f"_at({body}, {repl})", ri)
    raise StructureError(f"not a numeric expression over int constants: {expr!r}")


def _is_int(expr: NumExpr, ints: Container[str], reads: list[str]) -> bool:
    """``_emit(expr, ints)[1]`` without building the source.  Appends
    to ``reads`` each register of ``ints`` that it reads: while they
    stay ``int``, so does ``expr``."""
    if isinstance(expr, (NAdd, NMul)):
        return (_is_int(expr.left, ints, reads)
                and _is_int(expr.right, ints, reads))
    if isinstance(expr, NSubstX):
        return (_is_int(expr.body, ints, reads)
                or _is_int(expr.replacement, ints, reads))
    if isinstance(expr, NReg):
        if expr.name in ints:
            reads.append(expr.name)
            return True
        return False
    return not isinstance(expr, NX)


def _check_ring(ring: PolyRing) -> None:
    if ring.names() != ("x",):
        raise StructureError("numeric transducers run over Z[x]")


def _lower(p: Poly) -> Value:
    """A :class:`Poly` of Z[x] as a register value."""
    coeffs = [0] * (max((m.exp(0) for m in p.terms), default=0) + 1)
    for m, c in p.terms.items():
        if type(c) is not int:
            raise StructureError(f"numeric transducers run over Z[x], not {c}")
        coeffs[m.exp(0)] = c
    return _norm(coeffs)


def _lift(ring: PolyRing, v: Value) -> Poly:
    """A register value as a :class:`Poly` of ``ring``, Z[x]."""
    if type(v) is int:
        return ring.const(v)
    return Poly._raw(ring, {Monomial._of(((0, i),)) if i else UNIT_MONOMIAL: c
                            for i, c in enumerate(v) if c})


def _int_registers(start: Mapping[str, Value], transitions: Iterable) -> set[str]:
    """The registers ``int`` along every run from ``start``: its ``int``
    ones, less those an update can make a tuple, to a fixpoint.  Each
    update is typed once, and again only when a register it read was
    dropped."""
    ints = {r for r, v in start.items() if type(v) is int}
    todo = [(r, e) for _, upd in transitions for r, e in upd.items()
            if r in ints]
    readers: dict[str, list[tuple[str, NumExpr]]] = {}
    while todo:
        r, e = todo.pop()
        if r not in ints:
            continue
        reads: list[str] = []
        if _is_int(e, ints, reads):
            for s in reads:
                readers.setdefault(s, []).append((r, e))
        else:
            ints.discard(r)
            todo += readers.pop(r, ())
    return ints


def compile_num(expr: NumExpr,
                ring: PolyRing) -> Callable[[Mapping[str, int | Poly]], Poly]:
    """The expression as a function of a register valuation over Z[x],
    whose values may be ``int`` or :class:`Poly`: the function generated
    as in :class:`NumericTransducer`, with no register assumed ``int``,
    run on the valuation lowered to :data:`Value` and lifted to ``ring``.
    A constant that is not an ``int`` raises :class:`StructureError`."""
    _check_ring(ring)
    f = _kernel("lambda v: " + _emit(expr, ())[0])
    return lambda val: _lift(ring, f({r: v if type(v) is int else _lower(v)
                                      for r, v in val.items()}))


# ---------------------------------------------------------------------------
# the compiled transducer


class NumericTransducer:
    """Register machine over Z[x] produced from a reset VASS.

    Registers are exactly R1 (reachability test), R1aux (step counter),
    R2 (error flag), and S1..Sdim (counters).  The output substitutes
    the counter sum for x in R1 and multiplies by R2; substitution
    appears nowhere else.

    Inside, a register holds a :data:`Value`: an ``int`` while constant,
    else the tuple of its integer coefficients.  Construction infers the
    registers that stay ``int`` (S1..Sdim, R1aux and R2 of a compiled
    VASS, not R1) and generates one function per transition, building
    the whole new valuation, and one per output: native sums and products
    over ``int`` registers, integer convolutions and Horner's rule
    elsewhere, so no :class:`Poly` is built while a word runs.  ``run``
    and ``trace`` lift every value to a :class:`Poly` of the ring, caching
    the :class:`Poly` of each constant they have lifted; ``init`` keeps
    the :class:`Poly` initial values.

    The machine remembers the last word it ran and the path of states
    and valuations after each of its prefixes, so memory stays bounded
    by the length of that word.  A new run or trace resumes from the
    longest prefix it shares with the last word; one of the same length
    that differs at most in its last letter redoes only the last step.
    The new steps are kept aside and committed, the stored path cut
    back in place and extended, only once the word's last step is done,
    so a word that raises (an unknown letter) leaves the memory as it
    was.  Valuations are never mutated: a step that updates registers
    builds a fresh one, and a step that updates none (into and inside
    the error state) returns the one it was given.

    Construction raises :class:`StructureError` unless ``init`` gives
    exactly the registers, every transition joins declared states on a
    declared letter, and every update writes and every expression reads
    declared registers only.
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
        regs = set(self.registers)
        if set(self.init) != regs:
            raise StructureError("init must give exactly the registers")
        for (q, a), (tgt, upd) in self.transitions.items():
            if q not in self.states or tgt not in self.states or a not in self.letters:
                raise StructureError(f"transition {q!r} -{a!r}-> {tgt!r} "
                                     "uses an undeclared state or letter")
            if not upd.keys() <= regs:
                raise StructureError(f"transition {q!r} -{a!r}-> {tgt!r} "
                                     "updates an undeclared register")
        _check_ring(ring)
        start = {r: _lower(p) for r, p in self.init.items()}
        ints = _int_registers(start, self.transitions.values())
        self._steps: dict[str, dict[str, tuple[str, Callable]]] = {}
        for (q, a), (tgt, upd) in self.transitions.items():
            fields = ", ".join(f"{r!r}: " + (_emit(upd[r], ints, regs)[0]
                                             if r in upd else f"v[{r!r}]")
                               for r in self.registers)
            self._steps.setdefault(q, {})[a] = (tgt, _kernel(
                "lambda v: {" + fields + "}" if upd else "lambda v: v"))
        self._outputs = {q: _kernel("lambda v: " + _emit(e, ints, regs)[0])
                         for q, e in self.outputs.items()}
        self._consts: dict[int, Poly] = {}
        self._word: tuple[str, ...] = ()
        self._stem: tuple[str, ...] | None = None  # all but its last letter
        self._path: list[tuple[str, dict[str, Value]]] = [(self.initial_state, start)]

    def step(self, state: str, letter: str,
             valuation: Mapping[str, Value]) -> tuple[str, Mapping[str, Value]]:
        """Target state and valuation after one letter, by the function
        generated for the transition.  ``valuation`` holds :data:`Value`
        and must have been reached from ``init``, since the registers
        inferred ``int`` are added and multiplied natively; ``run`` and
        ``trace`` go through this method one letter at a time and lift
        its values to :class:`Poly`."""
        try:
            target, kernel = self._steps[state][letter]
        except KeyError:
            raise DomainError(f"no transition from {state!r} on {letter!r}") from None
        return target, kernel(valuation)

    def _lift(self, v: Value) -> Poly:
        if type(v) is not int:
            return _lift(self.ring, v)
        p = self._consts.get(v)
        if p is None:
            p = self._consts[v] = self.ring.const(v)
        return p

    def _prefixes(self, word: Sequence[str]) -> list[tuple[str, dict[str, Value]]]:
        """(state, valuation) after every prefix of ``word``, resumed
        from the longest prefix shared with the last word run; the
        stored path itself, which the next run changes."""
        word, path = tuple(word), self._path
        if word and word[:-1] == self._stem:
            state, vals = path[-2]
            path[-1] = self.step(state, word[-1], vals)
            self._word = word
            return path
        k = 0
        for a, b in zip(word, self._word):
            if a != b:
                break
            k += 1
        state, vals = path[k]
        new = []
        for letter in word[k:]:
            state, vals = self.step(state, letter, vals)
            new.append((state, vals))
        del path[k + 1:]
        path += new
        self._word, self._stem = word, word[:-1] if word else None
        return path

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
    reg = {r: NReg(r) for r in registers}
    one = NConst(1)
    bump = NAdd(reg["R1aux"], one)
    r1 = NMul(reg["R1"], NAdd(NX(), NMul(NConst(-1), bump)))
    for p in states:
        for i, (src, eff, tgt) in enumerate(v.transitions):
            key = (p, letters[i])
            if p == ERROR_STATE or p != src:
                transitions[key] = (ERROR_STATE, {})
                continue
            if isinstance(eff, AddVector):
                upd = {r: NAdd(reg[r], NConst(d))
                       for r, d in zip(counters, eff.delta) if d}
            else:
                upd = {r: NConst(0) for k, r in enumerate(counters, 1)
                       if k in eff.coords}
            guard: NumExpr = reg["R2"]
            for r in counters:
                guard = NMul(guard, NAdd(upd.get(r, reg[r]), one))
            upd.update(R2=guard, R1=r1, R1aux=bump)
            transitions[key] = (tgt, upd)

    accept = NMul(NSubstX(reg["R1"], num_sum([reg[r] for r in counters])), reg["R2"])
    outputs = {q: accept if q in v.accepting else NConst(0) for q in states}
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
