"""Register transducers over words and their compilation to difference
grammars.

A transducer reads a word letter by letter, updating string registers by
concatenation and letter-for-word substitution, and outputs a register
expression at accepting states.  Two transducers are equivalent when
they produce the same output on every input word.  The reduction
encodes register contents through the string encoding and builds a
grammar whose derived values are the encoded output differences, so
equivalence becomes grammar zeroness.  That holds in the twist-free and
the simultaneous fragments; a pair in the general fragment gets no
grammar and is refuted by running both transducers on words.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, StructureError, UnsupportedSubstitution
from .poly import (EMPTY_VARTABLE, Mode, Poly, PolyMap,
                   PolyRing, VarKind, VarTable)
from .encoding import (Word, WordSubst, as_word, count_inverse,
                       encode_ring, encode_word, invert_substitution)
from .grammar import (Budgets, Grammar, InvariantCertificate, Production,
                      Witness, zeroness)


# ---------------------------------------------------------------------------
# register expressions


class RegisterExpr:
    """Base class for register update and output expressions."""

    __slots__ = ()


class Empty(RegisterExpr):
    __slots__ = ()


class Letter(RegisterExpr):
    __slots__ = ("letter",)

    def __init__(self, letter: str):
        self.letter = letter


class Reg(RegisterExpr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class Concat(RegisterExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: RegisterExpr, right: RegisterExpr):
        self.left = left
        self.right = right


class Subst(RegisterExpr):
    """Replace every occurrence of one letter inside the body's value."""

    __slots__ = ("body", "letter", "replacement")

    def __init__(self, body: RegisterExpr, letter: str,
                 replacement: RegisterExpr):
        self.body = body
        self.letter = letter
        self.replacement = replacement


def word_expr(word: Iterable[str] | str) -> RegisterExpr:
    expr: RegisterExpr = Empty()
    for letter in as_word(word):
        expr = Letter(letter) if isinstance(expr, Empty) else Concat(
            expr, Letter(letter))
    return expr


def concat_exprs(*exprs: RegisterExpr) -> RegisterExpr:
    out: RegisterExpr = Empty()
    for e in exprs:
        if isinstance(e, Empty):
            continue
        out = e if isinstance(out, Empty) else Concat(out, e)
    return out


def eval_expr(expr: RegisterExpr, valuation: Mapping[str, Word]) -> Word:
    if isinstance(expr, Empty):
        return ()
    if isinstance(expr, Letter):
        return (expr.letter,)
    if isinstance(expr, Reg):
        return valuation[expr.name]
    if isinstance(expr, Concat):
        return eval_expr(expr.left, valuation) + eval_expr(expr.right, valuation)
    if isinstance(expr, Subst):
        repl = eval_expr(expr.replacement, valuation)
        return WordSubst({expr.letter: repl}).apply_word(
            eval_expr(expr.body, valuation))
    raise StructureError(f"not a register expression: {expr!r}")


def _check_expr(expr: RegisterExpr, registers: Sequence[str],
                alphabet: Sequence[str], where: str) -> None:
    if isinstance(expr, Empty):
        return
    if isinstance(expr, Letter):
        if expr.letter not in alphabet:
            raise StructureError(f"{where}: letter {expr.letter!r} not in alphabet")
        return
    if isinstance(expr, Reg):
        if expr.name not in registers:
            raise StructureError(f"{where}: undeclared register {expr.name!r}")
        return
    if isinstance(expr, Concat):
        _check_expr(expr.left, registers, alphabet, where)
        _check_expr(expr.right, registers, alphabet, where)
        return
    if isinstance(expr, Subst):
        if expr.letter not in alphabet:
            raise StructureError(
                f"{where}: substituted letter {expr.letter!r} not in alphabet")
        _check_expr(expr.body, registers, alphabet, where)
        _check_expr(expr.replacement, registers, alphabet, where)
        return
    raise StructureError(f"{where}: not a register expression: {expr!r}")


# ---------------------------------------------------------------------------
# transducers


class Transducer:
    """Deterministic register transducer, complete on its input letters.

    ``alphabet`` lists every letter that may appear anywhere (inputs,
    registers, outputs); the input letters are those with transitions
    and every state must have a transition for each of them.  Updates
    are simultaneous: all right-hand sides read pre-update values.
    Registers without an update keep their value.
    """

    def __init__(self, alphabet: Sequence[str], registers: Sequence[str],
                 init: Mapping[str, Iterable[str] | str],
                 states: Sequence[str], initial_state: str,
                 accepting: Iterable[str],
                 transitions: Mapping[tuple[str, str],
                                      tuple[str, Mapping[str, RegisterExpr]]],
                 outputs: Mapping[str, RegisterExpr],
                 name: str | None = None):
        self.alphabet = tuple(alphabet)
        self.registers = tuple(registers)
        self.states = tuple(states)
        self.initial_state = initial_state
        self.accepting = frozenset(accepting)
        self.transitions = {key: (tgt, dict(upd))
                            for key, (tgt, upd) in transitions.items()}
        self.outputs = dict(outputs)
        self.name = name
        self._validate_shape()
        self.init = {r: as_word(init.get(r, ())) for r in self.registers}
        self.input_letters = tuple(
            a for a in self.alphabet
            if any(key[1] == a for key in self.transitions))
        self._validate_contents(init)

    def _validate_shape(self) -> None:
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise StructureError("alphabet must be nonempty without duplicates")
        if len(set(self.registers)) != len(self.registers) or not self.registers:
            raise StructureError("need at least one register, all distinct")
        if len(set(self.states)) != len(self.states) or not self.states:
            raise StructureError("states must be nonempty without duplicates")
        if self.initial_state not in self.states:
            raise StructureError(f"initial state {self.initial_state!r} undeclared")
        for q in self.accepting:
            if q not in self.states:
                raise StructureError(f"accepting state {q!r} undeclared")

    def _validate_contents(self, init: Mapping[str, Iterable[str] | str]) -> None:
        for r in init:
            if r not in self.registers:
                raise StructureError(f"initial value for undeclared register {r!r}")
        for r, w in self.init.items():
            for letter in w:
                if letter not in self.alphabet:
                    raise StructureError(
                        f"initial value of {r} uses foreign letter {letter!r}")
        for (q, a), (tgt, upd) in self.transitions.items():
            where = f"transition ({q}, {a})"
            if q not in self.states or tgt not in self.states:
                raise StructureError(f"{where}: undeclared state")
            if a not in self.alphabet:
                raise StructureError(f"{where}: letter not in alphabet")
            for r, expr in upd.items():
                if r not in self.registers:
                    raise StructureError(f"{where}: updates undeclared register {r!r}")
                _check_expr(expr, self.registers, self.alphabet, where)
        for q in self.states:
            for a in self.input_letters:
                if (q, a) not in self.transitions:
                    raise StructureError(
                        f"incomplete: no transition from {q!r} on {a!r}")
        if set(self.outputs) != set(self.accepting):
            raise StructureError("outputs must cover exactly the accepting states")
        for q, expr in self.outputs.items():
            _check_expr(expr, self.registers, self.alphabet, f"output at {q}")

    def step(self, state: str, letter: str,
             valuation: Mapping[str, Word]) -> tuple[str, dict[str, Word]]:
        if (state, letter) not in self.transitions:
            raise DomainError(f"no transition from {state!r} on {letter!r}")
        target, updates = self.transitions[(state, letter)]
        new = {r: eval_expr(updates.get(r, Reg(r)), valuation)
               for r in self.registers}
        return target, new

    def __repr__(self) -> str:
        label = self.name or "transducer"
        return (f"<{label}: {len(self.states)} states, "
                f"{len(self.registers)} registers>")


def run(t: Transducer, word: Iterable[str] | str) -> Word | None:
    """Output word, or None when the run ends in a non-accepting state."""
    state = t.initial_state
    vals = dict(t.init)
    for letter in as_word(word):
        state, vals = t.step(state, letter, vals)
    if state not in t.accepting:
        return None
    return eval_expr(t.outputs[state], vals)


# ---------------------------------------------------------------------------
# update normalization: concatenations of constants and substituted registers


class ConstWord:
    __slots__ = ("word",)

    def __init__(self, word: Word):
        self.word = word

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.word == other.word


class RegOcc:
    __slots__ = ("reg", "subst")

    def __init__(self, reg: str, subst: WordSubst):
        self.reg = reg
        self.subst = subst

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.reg, self.subst) == (other.reg, other.subst)


Item = ConstWord | RegOcc


def _merge_items(items: Iterable[Item]) -> tuple[Item, ...]:
    out: list[Item] = []
    for it in items:
        if isinstance(it, ConstWord):
            if not it.word:
                continue
            if out and isinstance(out[-1], ConstWord):
                out[-1] = ConstWord(out[-1].word + it.word)
                continue
        out.append(it)
    return tuple(out)


def normalize_expr(expr: RegisterExpr,
                   alphabet: Sequence[str]) -> tuple[Item, ...]:
    """Flatten an expression into constant words and register occurrences,
    pushing substitutions down to the occurrences.

    Substitution replacements must denote constant words; replacing a
    letter by a register's content is outside the compiled fragment.
    """
    if isinstance(expr, Empty):
        return ()
    if isinstance(expr, Letter):
        return (ConstWord((expr.letter,)),)
    if isinstance(expr, Reg):
        return (RegOcc(expr.name, WordSubst({})),)
    if isinstance(expr, Concat):
        return _merge_items(normalize_expr(expr.left, alphabet)
                            + normalize_expr(expr.right, alphabet))
    if isinstance(expr, Subst):
        repl: list[str] = []
        for it in normalize_expr(expr.replacement, alphabet):
            if not isinstance(it, ConstWord):
                raise UnsupportedSubstitution(
                    "substitution replacement reads a register")
            repl.extend(it.word)
        subst = WordSubst({expr.letter: tuple(repl)})
        out: list[Item] = []
        for it in normalize_expr(expr.body, alphabet):
            if isinstance(it, ConstWord):
                out.append(ConstWord(subst.apply_word(it.word)))
            else:
                out.append(RegOcc(it.reg, subst.after(it.subst, alphabet)))
        return _merge_items(out)
    raise StructureError(f"not a register expression: {expr!r}")


def eval_items(items: Sequence[Item], valuation: Mapping[str, Word]) -> Word:
    out: list[str] = []
    for it in items:
        if isinstance(it, ConstWord):
            out.extend(it.word)
        else:
            out.extend(it.subst.apply_word(valuation[it.reg]))
    return tuple(out)


def _norm_updates(t: Transducer, updates: Mapping[str, RegisterExpr]
                  ) -> dict[str, tuple[Item, ...]]:
    return {r: normalize_expr(updates.get(r, Reg(r)), t.alphabet)
            for r in t.registers}


# ---------------------------------------------------------------------------
# letter occurrence analysis


def _norm_transitions(t: Transducer
                      ) -> dict[tuple[str, str], dict[str, tuple[Item, ...]]]:
    return {key: _norm_updates(t, upd)
            for key, (_, upd) in t.transitions.items()}


def letter_occurrence_analysis(
        t: Transducer,
        norm: Mapping[tuple[str, str], Mapping[str, Sequence[Item]]]
        ) -> dict[tuple[str, str], frozenset[str]]:
    """Superset of the letters occurring in each register at each
    reachable state, by fixpoint over the update expressions; ``norm``
    is ``_norm_transitions(t)``."""
    occ: dict[tuple[str, str], frozenset[str]] = {
        (t.initial_state, r): frozenset(w) for r, w in t.init.items()}
    reached = {t.initial_state}
    changed = True
    while changed:
        changed = False
        for (q, a), (tgt, _) in t.transitions.items():
            if q not in reached:
                continue
            if tgt not in reached:
                reached.add(tgt)
                changed = True
            for r in t.registers:
                new: set[str] = set()
                for it in norm[(q, a)][r]:
                    if isinstance(it, ConstWord):
                        new.update(it.word)
                    else:
                        for letter in occ.get((q, it.reg), frozenset()):
                            new.update(it.subst.image(letter))
                old = occ.get((tgt, r), frozenset())
                if not new <= old:
                    occ[(tgt, r)] = old | new
                    changed = True
    return occ


# ---------------------------------------------------------------------------
# classification of the update discipline

NO_SUBST = "no-subst"
SIMULTANEOUS = "simultaneous-com-injective"
GENERAL = "general"

_SEVERITY = {NO_SUBST: 0, SIMULTANEOUS: 1, GENERAL: 2}

# one production's worth of update material: owner flag + normalized items
Spec = tuple[bool, tuple[Item, ...]]


def _classify_site(specs: Sequence[Spec], pair: tuple[str, str],
                   an1: Mapping[tuple[str, str], frozenset[str]],
                   an2: Mapping[tuple[str, str], frozenset[str]],
                   alphabet: Sequence[str]) -> tuple[str, WordSubst]:
    """Kind of one production site and the substitution shared by all
    register occurrences in it.

    An occurrence's substitution only matters on letters that can occur
    in the register it reads, so a common substitution is acceptable
    when it agrees with each occurrence on that occurrence's letters.
    It is com-injective when its :func:`count_inverse` exists.
    """
    occs: list[tuple[WordSubst, frozenset[str]]] = []
    for owner1, items in specs:
        state = pair[0] if owner1 else pair[1]
        analysis = an1 if owner1 else an2
        for it in items:
            if isinstance(it, RegOcc):
                occs.append((it.subst, analysis.get((state, it.reg),
                                                    frozenset())))
    identity = WordSubst({})
    candidates = [identity]
    for subst, _ in occs:
        if not subst.is_identity() and subst not in candidates:
            candidates.append(subst)
    candidates[1:] = sorted(candidates[1:], key=WordSubst.key)
    for cand in candidates:
        if all(cand.restricted(letters) == subst.restricted(letters)
               for subst, letters in occs):
            if cand.is_identity():
                return NO_SUBST, cand
            if count_inverse(cand, alphabet) is not None:
                return SIMULTANEOUS, cand
            return GENERAL, cand
    return GENERAL, identity


def _common_input(t1: Transducer, t2: Transducer,
                  input_letters: Sequence[str] | None) -> tuple[str, ...]:
    if t1.alphabet != t2.alphabet:
        raise StructureError("transducers declare different alphabets")
    if set(t1.input_letters) != set(t2.input_letters):
        raise StructureError("transducers read different input letters")
    if input_letters is None:
        return t1.input_letters
    chosen = set()
    for a in input_letters:
        if a not in t1.input_letters:
            raise DomainError(f"{a!r} is not an input letter of both transducers")
        chosen.add(a)
    return tuple(a for a in t1.alphabet if a in chosen)


def _product_pairs(t1: Transducer, t2: Transducer, letters: Sequence[str]
                   ) -> tuple[tuple[tuple[str, str], ...],
                              dict[tuple[str, str], Word]]:
    """Reachable state pairs in breadth-first order with access words."""
    start = (t1.initial_state, t2.initial_state)
    order = [start]
    access: dict[tuple[str, str], Word] = {start: ()}
    at = 0
    while at < len(order):
        q1, q2 = order[at]
        at += 1
        for a in letters:
            tgt = (t1.transitions[(q1, a)][0], t2.transitions[(q2, a)][0])
            if tgt not in access:
                access[tgt] = access[(q1, q2)] + (a,)
                order.append(tgt)
    return tuple(order), access


def classify(t1: Transducer, t2: Transducer,
             input_letters: Sequence[str] | None = None) -> str:
    """Strictest fragment containing every reachable production site."""
    return to_difference_grammar(t1, t2, input_letters).classification


# ---------------------------------------------------------------------------
# compilation to the difference grammar


class DiffCompilation:
    """Difference grammar of two transducers, or none: an acceptance
    mismatch gives the separating word found at the automaton level
    instead, and a general site leaves the pair to the word search."""

    __slots__ = ("classification", "grammar", "mismatch_word", "pairs",
                 "names", "letters_ring")

    def __init__(self, classification: str, grammar: Grammar | None,
                 mismatch_word: Word | None,
                 pairs: tuple[tuple[str, str], ...],
                 names: dict[tuple[str, str], str],
                 letters_ring: PolyRing):
        self.classification = classification
        self.grammar = grammar
        self.mismatch_word = mismatch_word
        self.pairs = pairs
        self.names = names
        self.letters_ring = letters_ring


def to_difference_grammar(t1: Transducer, t2: Transducer,
                          input_letters: Sequence[str] | None = None
                          ) -> DiffCompilation:
    """Grammar whose derivable values are encoded output differences.

    One nonterminal per reachable state pair holds the encoded register
    contents of both transducers (tilde and bar per register); reading
    a letter becomes a linear production, twisted in the simultaneous
    fragment by the automorphism that inverts the site's common
    substitution; the initial nonterminal S derives the difference of
    the encoded outputs wherever both states accept.  No grammar is
    built when exactly one side accepts, where the access word
    separates the transducers outright, nor when a site is general,
    where no automorphism captures the update.
    """
    letters = _common_input(t1, t2, input_letters)
    alphabet = t1.alphabet
    lring = encode_ring(alphabet)
    norm1, norm2 = _norm_transitions(t1), _norm_transitions(t2)
    an1 = letter_occurrence_analysis(t1, norm1)
    an2 = letter_occurrence_analysis(t2, norm2)

    order, access = _product_pairs(t1, t2, letters)
    names = {pair: f"{pair[0]}|{pair[1]}" for pair in order}
    mismatch = next((p for p in order
                     if (p[0] in t1.accepting) != (p[1] in t2.accepting)), None)

    sites: list[tuple[str, tuple[str, str], list[Spec], str | None]] = []
    for pair in order:
        q1, q2 = pair
        for a in letters:
            tgt = (t1.transitions[(q1, a)][0], t2.transitions[(q2, a)][0])
            specs = ([(True, items) for items in norm1[(q1, a)].values()]
                     + [(False, items) for items in norm2[(q2, a)].values()])
            sites.append((names[tgt], pair, specs, a))
    for pair in order:
        q1, q2 = pair
        if q1 in t1.accepting and q2 in t2.accepting:
            specs = [(True, normalize_expr(t1.outputs[q1], alphabet)),
                     (False, normalize_expr(t2.outputs[q2], alphabet))]
            sites.append(("S", pair, specs, None))
    kinds = [_classify_site(specs, pair, an1, an2, alphabet)
             for _, pair, specs, _ in sites]
    classification = max((kind for kind, _ in kinds), key=_SEVERITY.get,
                         default=NO_SUBST)
    if mismatch is not None or classification == GENERAL:
        return DiffCompilation(classification, None,
                               None if mismatch is None else access[mismatch],
                               order, names, lring)

    field = lring.fraction_field
    vring = PolyRing(EMPTY_VARTABLE, field, Mode.FIELD)
    r1 = len(t1.registers)
    slot_pairs: list[tuple[str, VarKind]] = []
    for i in range(r1):
        slot_pairs += [(f"y{i}t", VarKind.ORDINARY), (f"y{i}b", VarKind.BAR)]
    for j in range(len(t2.registers)):
        slot_pairs += [(f"z{j}t", VarKind.ORDINARY), (f"z{j}b", VarKind.BAR)]
    slots = tuple(n for n, _ in slot_pairs)
    mring = PolyRing(VarTable.make(slot_pairs), field, Mode.FIELD)

    def fold(owner1: bool, items: Sequence[Item]) -> tuple[Poly, Poly]:
        tilde, bar = mring.zero(), mring.one()
        for it in items:
            if isinstance(it, ConstWord):
                tp, bp = encode_word(it.word, lring)
                part = (mring.const(field.coerce(tp)),
                        mring.const(field.coerce(bp)))
            else:
                ti = (2 * t1.registers.index(it.reg) if owner1 else
                      2 * r1 + 2 * t2.registers.index(it.reg))
                part = mring.var(slots[ti]), mring.var(slots[ti + 1])
            tilde = tilde * part[1] + part[0]
            bar = bar * part[1]
        return tilde, bar

    start = order[0]
    base_consts = []
    for t in (t1, t2):
        for r in t.registers:
            tp, bp = encode_word(t.init[r], lring)
            base_consts += [vring.const(field.coerce(tp)),
                            vring.const(field.coerce(bp))]
    productions = [Production(names[start], (),
                              PolyMap(vring, (), tuple(base_consts)))]
    for (lhs, src, specs, label), (kind, common) in zip(sites, kinds):
        folds = [fold(owner1, items) for owner1, items in specs]
        if label is None:
            outputs: tuple[Poly, ...] = (folds[0][0] - folds[1][0],)
        else:
            outputs = tuple(c for f in folds for c in f)
        twist = (invert_substitution(common, alphabet, lring)
                 if kind == SIMULTANEOUS else None)
        productions.append(Production(lhs, (names[src],),
                                      PolyMap(mring, slots, outputs), twist,
                                      label))

    nts: dict[str, int] = {"S": 1}
    for pair in order:
        nts[names[pair]] = len(slots)
    tag = None
    if t1.name or t2.name:
        tag = f"{t1.name or 't1'}-vs-{t2.name or 't2'}"
    g = Grammar(nts, "S", productions, vring, name=tag)
    return DiffCompilation(classification, g, None, order, names, lring)


def difference_value(comp: DiffCompilation,
                     word: Iterable[str] | str) -> Poly | None:
    """Replay a word through the difference grammar's productions; None
    when the pair reached is not jointly accepting."""
    if comp.grammar is None:
        raise StructureError("no grammar was built (acceptance mismatch "
                             "or general fragment)")
    g = comp.grammar
    pair_of = {v: k for k, v in comp.names.items()}
    cur = comp.pairs[0]
    base = next(p for p in g.productions
                if p.arity() == 0 and p.lhs == comp.names[cur])
    value = g.produce(base, [])
    for a in as_word(word):
        prod = next((p for p in g.productions
                     if p.label == a and p.rhs == (comp.names[cur],)), None)
        if prod is None:
            raise DomainError(f"no production for letter {a!r}")
        value = g.produce(prod, [value])
        cur = pair_of[prod.lhs]
    out = next((p for p in g.productions
                if p.lhs == "S" and p.rhs == (comp.names[cur],)), None)
    if out is None:
        return None
    return g.produce(out, [value])[0]


# ---------------------------------------------------------------------------
# the equivalence driver


class EquivVerdict:
    __slots__ = ("verdict", "classification", "witness_word", "outputs",
                 "certificate", "detail")

    def __init__(self, verdict: str, classification: str,
                 witness_word: Word | None = None,
                 outputs: tuple[Word | None, Word | None] | None = None,
                 certificate: InvariantCertificate | None = None,
                 detail: str = ""):
        self.verdict = verdict  # "equivalent" | "not-equivalent" | "unknown"
        self.classification = classification
        self.witness_word = witness_word
        self.outputs = outputs
        self.certificate = certificate
        self.detail = detail


def _confirmed(t1: Transducer, t2: Transducer, g: Grammar,
               wit: Witness) -> tuple[Word, tuple[Word | None, Word | None]]:
    word = tuple(wit.derivation.labels_inside_out(g))
    out1, out2 = run(t1, word), run(t2, word)
    if out1 == out2:
        raise StructureError("separating word failed replay confirmation")
    return word, (out1, out2)


def _word_search(t1: Transducer, t2: Transducer,
                 pairs: Sequence[tuple[str, str]], letters: Sequence[str],
                 budgets: Budgets) -> EquivVerdict:
    """Refute a general pair by running both transducers on the words of
    length 0 to ``budgets.size - 2``, shortest first.

    Words of one length are taken by the jointly accepting pair they
    reach, in the breadth-first order of ``pairs``; the words reaching a
    pair are those reaching each pair before it in that order, each
    extended by every letter leading to it, in letter order.  The
    deadline is checked before every word.
    """
    accepting = [p for p in pairs
                 if p[0] in t1.accepting and p[1] in t2.accepting]
    if not accepting:
        return EquivVerdict("equivalent", GENERAL, detail="no derivable values")
    deadline = time.monotonic() + budgets.seconds
    moves = [(p, a, (t1.transitions[(p[0], a)][0],
                     t2.transitions[(p[1], a)][0]))
             for p in pairs for a in letters]
    words: dict[tuple[str, str], list[Word]] = {p: [] for p in pairs}
    words[pairs[0]].append(())
    for n in range(budgets.size - 1):
        if n:
            longer: dict[tuple[str, str], list[Word]] = {p: [] for p in pairs}
            for p, a, tgt in moves:
                longer[tgt] += [w + (a,) for w in words[p]]
            words = longer
        for word in (w for p in accepting for w in words[p]):
            if time.monotonic() > deadline:
                return EquivVerdict("unknown", GENERAL,
                                    detail="time budget exhausted")
            outs = (run(t1, word), run(t2, word))
            if outs[0] != outs[1]:
                return EquivVerdict("not-equivalent", GENERAL,
                                    witness_word=word, outputs=outs,
                                    detail="separating word derived")
    return EquivVerdict("unknown", GENERAL, detail="work budgets exhausted")


def equivalence_check(t1: Transducer, t2: Transducer,
                      budgets: Budgets = Budgets(),
                      input_letters: Sequence[str] | None = None,
                      certificates: Sequence[InvariantCertificate] = (),
                      comp: DiffCompilation | None = None) -> EquivVerdict:
    """Equivalence on all words over the (optionally restricted) input
    letters.  Zeroness of the difference grammar decides the twist-free
    and simultaneous fragments; the general fragment, which has no
    grammar, is refuted by running both transducers on words, shortest
    first, and takes no certificates.  Every separating word is replayed
    through both transducers.

    ``comp`` is ``to_difference_grammar(t1, t2, input_letters)`` when the
    caller has already compiled it; it is compiled here otherwise.
    """
    if comp is None:
        comp = to_difference_grammar(t1, t2, input_letters)
    if comp.mismatch_word is not None:
        word = comp.mismatch_word
        out1, out2 = run(t1, word), run(t2, word)
        if (out1 is None) == (out2 is None):
            raise StructureError("mismatch word failed replay confirmation")
        return EquivVerdict("not-equivalent", comp.classification,
                            witness_word=word, outputs=(out1, out2),
                            detail="acceptance mismatch")
    g = comp.grammar
    if g is None:
        return _word_search(t1, t2, comp.pairs,
                            _common_input(t1, t2, input_letters), budgets)
    res = zeroness(g, budgets, certificates)
    if res.verdict == "zero":
        return EquivVerdict("equivalent", comp.classification,
                            certificate=res.certificate, detail=res.detail)
    if res.verdict == "nonzero":
        assert res.witness is not None
        word, outs = _confirmed(t1, t2, g, res.witness)
        return EquivVerdict("not-equivalent", comp.classification,
                            witness_word=word, outputs=outs,
                            detail="separating word derived")
    return EquivVerdict("unknown", comp.classification, detail=res.detail)
