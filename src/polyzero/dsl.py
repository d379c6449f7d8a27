"""Text formats for the front end: polynomial grammars, string
transducers, reset VASS machines, and word substitutions.

One object per file.  All formats share the tokenizer, so parse errors
carry line and column positions.  ``#`` starts a comment; the padding
letter must therefore be written quoted, as ``'#'``.
"""

from __future__ import annotations

from typing import Sequence

from .encoding import (Automorphism, PolySubst, WordSubst,
                       invert_substitution, letter_var_names)
from .errors import ParseError
from .grammar import Grammar, Production
from .lexer import Token, TokenStream, tokenize
from .poly import (EMPTY_VARTABLE, QQ, FractionField, Mode, Poly, PolyMap,
                   PolyRing, VarKind, VarTable, parse_poly_tokens,
                   structure_poly)
from .transducer import (Concat, Letter, Reg, RegisterExpr, Subst,
                         Transducer, word_expr)
from .vass import (AddVector, NumericTransducer, NAdd, NConst, NMul, NReg,
                   NSubstX, NumExpr, NX, ResetSet, ResetVass)


def _check_name(tok: Token, what: str) -> str:
    if tok.text.startswith("_"):
        raise ParseError(f"{what} {tok.text!r} must not start with '_'",
                         tok.line, tok.col)
    return tok.text


def _letter_token(ts: TokenStream) -> str:
    tok = ts.peek()
    if tok.kind == "ident" and len(tok.text) == 1 and tok.text != "_":
        ts.next()
        return tok.text
    if tok.kind == "string" and len(tok.text) == 1:
        ts.next()
        return tok.text
    raise ParseError(f"expected a single-character letter, found {tok.text!r}",
                     tok.line, tok.col)


def _parse_state(ts: TokenStream, states: list[str], initial: str | None,
                 accepting: list[str]) -> str | None:
    """`NAME [initial|accepting]*;` after the `state` keyword: records the
    state in states (and accepting) and returns the initial state."""
    stok = ts.expect("ident")
    sname = _check_name(stok, "state")
    if sname in states:
        raise ParseError(f"state {sname!r} declared twice",
                         stok.line, stok.col)
    states.append(sname)
    while ts.at("ident", "initial") or ts.at("ident", "accepting"):
        flag = ts.next().text
        if flag == "initial":
            if initial is not None:
                raise ParseError("second initial state", stok.line, stok.col)
            initial = sname
        else:
            accepting.append(sname)
    ts.expect("sym", ";")
    return initial


# ---------------------------------------------------------------------------
# word substitutions: `subst { a -> aa; b -> "" }` (wrapper optional)


def _parse_word(ts: TokenStream, stop: tuple[str, ...]) -> tuple[str, ...]:
    """Juxtaposed identifiers and quoted strings, optionally separated by
    dots, spell out a word character by character."""
    word: list[str] = []
    saw_any = False
    while True:
        tok = ts.peek()
        if tok.kind == "sym" and tok.text in stop or tok.kind == "eof":
            break
        if tok.kind == "sym" and tok.text == ".":
            ts.next()
            continue
        if tok.kind in ("ident", "string"):
            ts.next()
            word.extend(tok.text)
            saw_any = True
            continue
        raise ParseError(f"unexpected {tok.text!r} in word", tok.line, tok.col)
    if not saw_any:
        raise ts.error("expected a word (use \"\" for the empty word)")
    return tuple(word)


def parse_subst_entries(ts: TokenStream,
                        stop: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    mapping: dict[str, tuple[str, ...]] = {}
    while not (ts.peek().kind == "eof"
               or (ts.peek().kind == "sym" and ts.peek().text in stop)):
        tok = ts.peek()
        letter = _letter_token(ts)
        if letter in mapping:
            raise ParseError(f"duplicate image for letter {letter!r}",
                             tok.line, tok.col)
        ts.expect("sym", "->")
        mapping[letter] = _parse_word(ts, (";",) + stop)
        if not ts.accept("sym", ";"):
            break
    return mapping


def parse_word_subst(text: str) -> tuple[WordSubst, tuple[str, ...]]:
    """Parse a substitution; returns it with the letters it mentions
    (domain and images, sorted) as a default alphabet."""
    ts = TokenStream(tokenize(text))
    wrapped = False
    if ts.at("ident", "subst"):
        ts.next()
        ts.expect("sym", "{")
        wrapped = True
    mapping = parse_subst_entries(ts, ("}",) if wrapped else ())
    if wrapped:
        ts.expect("sym", "}")
    ts.expect_eof()
    mentioned = set(mapping)
    for w in mapping.values():
        mentioned.update(w)
    return WordSubst(mapping), tuple(sorted(mentioned))


# ---------------------------------------------------------------------------
# transducer files


def _parse_register_expr(ts: TokenStream, alphabet: frozenset[str],
                         registers: frozenset[str]) -> RegisterExpr:
    def primary() -> RegisterExpr:
        tok = ts.peek()
        if tok.kind == "string":
            ts.next()
            for ch in tok.text:
                if ch not in alphabet:
                    raise ParseError(f"letter {ch!r} is not in the alphabet",
                                     tok.line, tok.col)
            return word_expr(tok.text)
        if tok.kind == "ident":
            ts.next()
            if tok.text in registers:
                return Reg(tok.text)
            if tok.text in alphabet:
                return Letter(tok.text)
            raise ParseError(f"{tok.text!r} is neither a register nor a letter",
                             tok.line, tok.col)
        if ts.accept("sym", "("):
            inner = expr()
            ts.expect("sym", ")")
            return inner
        raise ts.error(f"expected a register expression, found {tok.text!r}")

    def postfixed() -> RegisterExpr:
        e = primary()
        while ts.accept("sym", "["):
            tok = ts.peek()
            letter = _letter_token(ts)
            if letter not in alphabet:
                raise ParseError(f"letter {letter!r} is not in the alphabet",
                                 tok.line, tok.col)
            ts.expect("sym", ":=")
            repl = expr()
            ts.expect("sym", "]")
            e = Subst(e, letter, repl)
        return e

    def expr() -> RegisterExpr:
        e = postfixed()
        while ts.accept("sym", "."):
            e = Concat(e, postfixed())
        return e

    return expr()


def parse_transducer(text: str, name: str | None = None) -> Transducer:
    ts = TokenStream(tokenize(text))
    ts.expect("ident", "transducer")
    ts.expect("sym", "{")

    alphabet: list[str] = []
    registers: list[str] = []
    init: dict[str, tuple[str, ...]] = {}
    states: list[str] = []
    initial: str | None = None
    accepting: list[str] = []

    # the expression grammar needs the final name sets, so expressions are
    # parsed from recorded positions in a second pass
    update_spans: list[tuple[Token, str, str, str, list[tuple[str, int]]]] = []
    output_spans: list[tuple[Token, str, int]] = []

    def skip_expr() -> None:
        depth = 0
        while True:
            tok = ts.peek()
            if tok.kind == "eof":
                raise ts.error("unterminated expression")
            if tok.kind == "sym":
                if tok.text in ("(", "["):
                    depth += 1
                elif tok.text in (")", "]"):
                    if depth == 0:
                        raise ts.error("unbalanced bracket")
                    depth -= 1
                elif depth == 0 and tok.text in (";", "}"):
                    return
            ts.next()

    while not ts.at("sym", "}"):
        tok = ts.peek()
        if ts.accept("ident", "alphabet"):
            while not ts.at("sym", ";"):
                alphabet.append(_letter_token(ts))
            ts.expect("sym", ";")
        elif ts.accept("ident", "registers"):
            while True:
                rtok = ts.expect("ident")
                rname = _check_name(rtok, "register")
                if rname in init:
                    raise ParseError(f"register {rname!r} declared twice",
                                     rtok.line, rtok.col)
                ts.expect("sym", "=")
                wtok = ts.expect("string")
                registers.append(rname)
                init[rname] = tuple(wtok.text)
                if not ts.accept("sym", ","):
                    break
            ts.expect("sym", ";")
        elif ts.accept("ident", "state"):
            initial = _parse_state(ts, states, initial, accepting)
        elif ts.accept("ident", "on"):
            letter = _letter_token(ts)
            ts.expect("ident", "from")
            src = ts.expect("ident").text
            ts.expect("ident", "to")
            tgt = ts.expect("ident").text
            ts.expect("sym", "{")
            spans: list[tuple[str, int]] = []
            while not ts.at("sym", "}"):
                rname = ts.expect("ident").text
                ts.expect("sym", "=")
                spans.append((rname, ts.pos))
                skip_expr()
                ts.expect("sym", ";")
            ts.expect("sym", "}")
            update_spans.append((tok, letter, src, tgt, spans))
        elif ts.accept("ident", "output"):
            sname = ts.expect("ident").text
            ts.expect("sym", "=")
            output_spans.append((tok, sname, ts.pos))
            skip_expr()
            ts.expect("sym", ";")
        else:
            raise ts.error(f"unexpected {tok.text!r} in transducer body")
    ts.expect("sym", "}")
    ts.expect_eof()

    if initial is None:
        raise ParseError("no initial state declared", 1, 1)
    aset = frozenset(alphabet)
    rset = frozenset(registers)
    clash = aset & rset
    if clash:
        raise ParseError(f"names used as both letter and register: "
                         f"{sorted(clash)}", 1, 1)

    def parse_at(pos: int) -> RegisterExpr:
        ts.pos = pos
        return _parse_register_expr(ts, aset, rset)

    transitions: dict[tuple[str, str], tuple[str, dict[str, RegisterExpr]]] = {}
    for tok, letter, src, tgt, spans in update_spans:
        if letter not in aset:
            raise ParseError(f"transition letter {letter!r} is not in the "
                             f"alphabet", tok.line, tok.col)
        for q in (src, tgt):
            if q not in states:
                raise ParseError(f"undeclared state {q!r}", tok.line, tok.col)
        if (src, letter) in transitions:
            raise ParseError(f"duplicate transition from {src!r} on "
                             f"{letter!r}", tok.line, tok.col)
        updates = {}
        for rname, pos in spans:
            if rname not in rset:
                raise ParseError(f"undeclared register {rname!r}",
                                 tok.line, tok.col)
            if rname in updates:
                raise ParseError(f"register {rname!r} updated twice",
                                 tok.line, tok.col)
            updates[rname] = parse_at(pos)
        transitions[(src, letter)] = (tgt, updates)
    outputs = {}
    for tok, sname, pos in output_spans:
        if sname not in states:
            raise ParseError(f"undeclared state {sname!r}", tok.line, tok.col)
        if sname in outputs:
            raise ParseError(f"duplicate output for {sname!r}",
                             tok.line, tok.col)
        outputs[sname] = parse_at(pos)

    return Transducer(alphabet, registers, init, states, initial, accepting,
                      transitions, outputs, name=name)


# ---------------------------------------------------------------------------
# reset VASS files


def parse_vass(text: str, name: str | None = None) -> ResetVass:
    ts = TokenStream(tokenize(text))
    ts.expect("ident", "vass")
    ts.expect("ident", "dim")
    dim = int(ts.expect("int").text)
    ts.expect("sym", "{")

    states: list[str] = []
    initial: str | None = None
    accepting: list[str] = []
    transitions: list[tuple[str, object, str]] = []

    def signed_int() -> int:
        sign = 1
        if ts.accept("sym", "-"):
            sign = -1
        elif ts.accept("sym", "+"):
            pass
        return sign * int(ts.expect("int").text)

    while not ts.at("sym", "}"):
        if ts.accept("ident", "state"):
            initial = _parse_state(ts, states, initial, accepting)
            continue
        stok = ts.expect("ident")
        src = stok.text
        ts.expect("sym", "-[")
        if ts.accept("ident", "reset"):
            coords = []
            while ts.at("int"):
                coords.append(int(ts.next().text))
            eff: object = ResetSet(frozenset(coords))
        elif ts.accept("ident", "add"):
            delta = [signed_int() for _ in range(dim)]
            eff = AddVector(tuple(delta))
        else:
            amount = signed_int()
            ts.expect("ident", "on")
            coord = int(ts.expect("int").text)
            if not 1 <= coord <= dim:
                raise ts.error(f"coordinate {coord} out of range 1..{dim}")
            delta = [0] * dim
            delta[coord - 1] = amount
            eff = AddVector(tuple(delta))
        ts.expect("sym", "]->")
        tgt = ts.expect("ident").text
        ts.expect("sym", ";")
        transitions.append((src, eff, tgt))
    ts.expect("sym", "}")
    ts.expect_eof()
    if initial is None:
        raise ParseError("no initial state declared", 1, 1)
    return ResetVass(dim, states, initial, accepting, transitions, name=name)


# ---------------------------------------------------------------------------
# grammar files


class _PgDecls:
    def __init__(self) -> None:
        self.letters: list[str] = []
        self.paramletters: list[str] = []
        self.params: list[str] = []
        self.vars: list[str] = []
        self.nonterminals: dict[str, int] = {}
        # name -> (token, slots, body span start)
        self.polymaps: dict[str, tuple[Token, tuple[str, ...], int]] = {}
        # (token, lhs, rhs names or None, span start for constants)
        self.productions: list[tuple[Token, str, tuple[str, ...] | None, int]] = []
        # polymap name -> ("subst", mapping) | ("map", fwd spans, inv spans)
        self.twists: dict[str, tuple] = {}

    def declared(self) -> bool:
        return bool(self.letters or self.paramletters or self.params
                    or self.vars)


def _skip_to_semicolon(ts: TokenStream) -> None:
    depth = 0
    while True:
        tok = ts.peek()
        if tok.kind == "eof":
            raise ts.error("missing ';'")
        if tok.kind == "sym":
            if tok.text in ("(", "[", "{"):
                depth += 1
            elif tok.text in (")", "]", "}"):
                depth -= 1
            elif tok.text == ";" and depth == 0:
                ts.next()
                return
        ts.next()


def _scan_grammar(ts: TokenStream) -> _PgDecls:
    d = _PgDecls()
    while ts.peek().kind != "eof":
        tok = ts.peek()
        if ts.accept("ident", "letters"):
            while not ts.at("sym", ";"):
                d.letters.append(_letter_token(ts))
            ts.expect("sym", ";")
        elif ts.accept("ident", "paramletters"):
            while not ts.at("sym", ";"):
                d.paramletters.append(_letter_token(ts))
            ts.expect("sym", ";")
        elif ts.accept("ident", "params"):
            while not ts.at("sym", ";"):
                d.params.append(_check_name(ts.expect("ident"), "parameter"))
            ts.expect("sym", ";")
        elif ts.accept("ident", "vars"):
            while not ts.at("sym", ";"):
                d.vars.append(_check_name(ts.expect("ident"), "variable"))
            ts.expect("sym", ";")
        elif ts.accept("ident", "nonterminal"):
            ntok = ts.expect("ident")
            nname = _check_name(ntok, "nonterminal")
            if nname in d.nonterminals:
                raise ParseError(f"nonterminal {nname!r} declared twice",
                                 ntok.line, ntok.col)
            ts.expect("ident", "dim")
            d.nonterminals[nname] = int(ts.expect("int").text)
            ts.expect("sym", ";")
        elif ts.accept("ident", "polymap"):
            ntok = ts.expect("ident")
            nname = _check_name(ntok, "polymap")
            if nname in d.polymaps:
                raise ParseError(f"polymap {nname!r} declared twice",
                                 ntok.line, ntok.col)
            ts.expect("sym", "(")
            slots: list[str] = []
            if not ts.at("sym", ")"):
                while True:
                    slots.append(_check_name(ts.expect("ident"), "slot"))
                    if not ts.accept("sym", ","):
                        break
            ts.expect("sym", ")")
            ts.expect("sym", "=")
            d.polymaps[nname] = (ntok, tuple(slots), ts.pos)
            _skip_to_semicolon(ts)
        elif ts.accept("ident", "twist"):
            ptok = ts.expect("ident")
            pname = ptok.text
            if pname in d.twists:
                raise ParseError(f"polymap {pname!r} twisted twice",
                                 ptok.line, ptok.col)
            ts.expect("ident", "with")
            if ts.accept("ident", "subst"):
                ts.expect("sym", "{")
                mapping = parse_subst_entries(ts, ("}",))
                ts.expect("sym", "}")
                d.twists[pname] = ("subst", ptok, mapping)
            elif ts.accept("ident", "map"):
                fwd = _scan_assignments(ts)
                ts.expect("ident", "inverse")
                inv = _scan_assignments(ts)
                d.twists[pname] = ("map", ptok, fwd, inv)
            else:
                raise ts.error("expected 'subst' or 'map' after 'with'")
            ts.expect("sym", ";")
        elif tok.kind == "ident":
            lhs = ts.next().text
            ts.expect("sym", "->")
            nxt = ts.peek()
            after = ts.tokens[ts.pos + 1] if ts.pos + 1 < len(ts.tokens) else nxt
            if nxt.kind == "ident" and after.kind == "sym" and after.text == "(":
                fname = ts.next().text
                ts.expect("sym", "(")
                args: list[str] = []
                if not ts.at("sym", ")"):
                    while True:
                        args.append(ts.expect("ident").text)
                        if not ts.accept("sym", ","):
                            break
                ts.expect("sym", ")")
                ts.expect("sym", ";")
                d.productions.append((tok, lhs, (fname, *args), -1))
            else:
                d.productions.append((tok, lhs, None, ts.pos))
                _skip_to_semicolon(ts)
        else:
            raise ts.error(f"unexpected {tok.text!r} in grammar file")
    return d


def _scan_assignments(ts: TokenStream) -> list[tuple[Token, str, int]]:
    ts.expect("sym", "{")
    spans: list[tuple[Token, str, int]] = []
    while not ts.at("sym", "}"):
        vtok = ts.expect("ident")
        ts.expect("sym", ":=")
        spans.append((vtok, vtok.text, ts.pos))
        depth = 0
        while True:
            tok = ts.peek()
            if tok.kind == "eof":
                raise ts.error("unterminated assignment")
            if tok.kind == "sym":
                if tok.text in ("(", "["):
                    depth += 1
                elif tok.text in (")", "]"):
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    ts.next()
                    break
                elif tok.text == "}" and depth == 0:
                    break
            ts.next()
    ts.expect("sym", "}")
    return spans


def _infer_vars(ts: TokenStream, d: _PgDecls) -> list[str]:
    """Undeclared files: non-slot identifiers in bodies become plain
    variables, in order of first appearance."""
    seen: list[str] = []

    def scan(pos: int, exclude: frozenset[str]) -> None:
        ts.pos = pos
        depth = 0
        while True:
            tok = ts.peek()
            if tok.kind == "eof":
                return
            if tok.kind == "sym":
                if tok.text in ("(", "["):
                    depth += 1
                elif tok.text in (")", "]"):
                    depth -= 1
                elif tok.text == ";" and depth == 0:
                    return
            if tok.kind == "ident" and tok.text not in exclude \
                    and tok.text not in seen:
                seen.append(tok.text)
            ts.next()

    for _, slots, pos in d.polymaps.values():
        scan(pos, frozenset(slots))
    for _, _, rhs, pos in d.productions:
        if rhs is None:
            scan(pos, frozenset())
    return seen


def _parse_tuple_body(ts: TokenStream, pos: int, ring: PolyRing,
                      target: PolyRing | None) -> tuple[Poly, ...]:
    """Body at ``pos``: a parenthesized tuple or a single expression.
    Parsed over ``ring``; restructured into ``target`` when given."""
    ts.pos = pos
    outs: list[Poly] = []
    if ts.accept("sym", "("):
        while True:
            outs.append(parse_poly_tokens(ring, ts))
            if not ts.accept("sym", ","):
                break
        ts.expect("sym", ")")
        # a parenthesized single expression continuing with an operator
        # was really one expression; fall back to a full re-parse
        if len(outs) == 1 and not ts.at("sym", ";"):
            ts.pos = pos
            outs = [parse_poly_tokens(ring, ts)]
    else:
        outs.append(parse_poly_tokens(ring, ts))
    ts.expect("sym", ";")
    if target is not None:
        outs = [structure_poly(p, target) for p in outs]
    return tuple(outs)


def parse_grammar(text: str, name: str | None = None) -> Grammar:
    ts = TokenStream(tokenize(text))
    d = _scan_grammar(ts)
    if not d.nonterminals:
        raise ParseError("no nonterminal declared", 1, 1)
    if not d.declared():
        d.vars = _infer_vars(ts, d)

    # coefficient field
    param_pairs: list[tuple[str, VarKind]] = []
    for l in d.paramletters:
        param_pairs.append((letter_var_names(l)[0], VarKind.ORDINARY))
    for l in d.paramletters:
        param_pairs.append((letter_var_names(l)[1], VarKind.BAR))
    for n in d.params:
        param_pairs.append((n, VarKind.ORDINARY))
    if param_pairs:
        param_ring = PolyRing(VarTable.make(param_pairs))
        field = FractionField(param_ring)
    else:
        param_ring = None
        field = QQ

    # value ring
    value_pairs: list[tuple[str, VarKind]] = []
    for l in d.letters:
        value_pairs.append((letter_var_names(l)[0], VarKind.ORDINARY))
    for l in d.letters:
        value_pairs.append((letter_var_names(l)[1], VarKind.BAR))
    for n in d.vars:
        value_pairs.append((n, VarKind.ORDINARY))
    mode = Mode.FIELD if not value_pairs and param_pairs else Mode.RING
    vring = PolyRing(VarTable.make(value_pairs) if value_pairs
                     else EMPTY_VARTABLE, field, mode)

    clash = {n for n, _ in value_pairs} & {n for n, _ in param_pairs}
    if clash:
        raise ParseError(f"names declared both as variable and parameter: "
                         f"{sorted(clash)}", 1, 1)
    taken = {n for n, _ in value_pairs} | {n for n, _ in param_pairs}

    def body_rings(slots: Sequence[str]) -> tuple[PolyRing, PolyRing | None]:
        """Ring to parse in and the structured target (None = direct)."""
        slot_pairs = [(s, VarKind.ORDINARY) for s in slots]
        for s in slots:
            if s in taken:
                raise ParseError(f"slot {s!r} shadows a declared name", 1, 1)
        mring = PolyRing(VarTable.make(slot_pairs + value_pairs)
                         if slot_pairs or value_pairs else EMPTY_VARTABLE,
                         field, mode)
        if param_ring is None:
            return mring, None
        flat = PolyRing(VarTable.make(slot_pairs + value_pairs + param_pairs))
        return flat, mring

    # twists, keyed by polymap name
    twists: dict[str, Automorphism] = {}
    for pname, spec in d.twists.items():
        if pname not in d.polymaps:
            tok = spec[1]
            raise ParseError(f"twist names unknown polymap {pname!r}",
                             tok.line, tok.col)
        if param_ring is None:
            tok = spec[1]
            raise ParseError("twists need paramletters or params",
                             tok.line, tok.col)
        if spec[0] == "subst":
            _, tok, mapping = spec
            for l in set(mapping) | {c for w in mapping.values() for c in w}:
                if l not in d.paramletters:
                    raise ParseError(f"twist letter {l!r} is not a "
                                     "paramletter", tok.line, tok.col)
            twists[pname] = invert_substitution(
                WordSubst(mapping), tuple(d.paramletters), ring=param_ring)
        else:
            _, tok, fwd_spans, inv_spans = spec
            fwd_images: dict[str, Poly] = {}
            for vtok, vname, pos in fwd_spans:
                if not param_ring.vartable.has(vname):
                    raise ParseError(f"{vname!r} is not a parameter",
                                     vtok.line, vtok.col)
                ts.pos = pos
                fwd_images[vname] = parse_poly_tokens(param_ring, ts)
            inv_images = {}
            for vtok, vname, pos in inv_spans:
                if not param_ring.vartable.has(vname):
                    raise ParseError(f"{vname!r} is not a parameter",
                                     vtok.line, vtok.col)
                ts.pos = pos
                inv_images[vname] = field.coerce(
                    parse_poly_tokens(param_ring, ts))
            auto = Automorphism(PolySubst(param_ring, fwd_images), inv_images)
            if not auto.verify_roundtrip():
                raise ParseError(f"twist on {pname!r}: inverse does not "
                                 "invert the forward images",
                                 tok.line, tok.col)
            twists[pname] = auto

    # polymaps
    pmaps: dict[str, PolyMap] = {}
    for pname, (ptok, slots, pos) in d.polymaps.items():
        ring, target = body_rings(slots)
        outs = _parse_tuple_body(ts, pos, ring, target)
        pmaps[pname] = PolyMap(target if target is not None else ring,
                               slots, outs)

    # productions
    productions: list[Production] = []
    for tok, lhs, rhs, pos in d.productions:
        if lhs not in d.nonterminals:
            raise ParseError(f"undeclared nonterminal {lhs!r}",
                             tok.line, tok.col)
        if rhs is not None:
            fname, *args = rhs
            if fname not in pmaps:
                raise ParseError(f"undeclared polymap {fname!r}",
                                 tok.line, tok.col)
            for a in args:
                if a not in d.nonterminals:
                    raise ParseError(f"undeclared nonterminal {a!r}",
                                     tok.line, tok.col)
            productions.append(Production(lhs, tuple(args), pmaps[fname],
                                          twist=twists.get(fname)))
        else:
            ring, target = body_rings(())
            outs = _parse_tuple_body(ts, pos, ring, target)
            pmap = PolyMap(target if target is not None else ring, (), outs)
            productions.append(Production(lhs, (), pmap))

    initial = next(iter(d.nonterminals))
    return Grammar(d.nonterminals, initial, productions, vring, name=name)


# ---------------------------------------------------------------------------
# printing the compiled numeric transducer (extended transducer syntax:
# integer literals, arithmetic, the indeterminate x, and R[x := e])


def format_num_expr(e: NumExpr, prec: int = 0) -> str:
    if isinstance(e, NConst):
        return str(e.value) if e.value >= 0 else f"({e.value})"
    if isinstance(e, NX):
        return "x"
    if isinstance(e, NReg):
        return e.name
    if isinstance(e, NSubstX):
        return f"{format_num_expr(e.body, 3)}[x := {format_num_expr(e.replacement)}]"
    if isinstance(e, NAdd):
        right = e.right
        if isinstance(right, NMul) and right.left == NConst(-1):
            s = f"{format_num_expr(e.left, 1)} - {format_num_expr(right.right, 2)}"
        elif isinstance(right, NConst) and right.value < 0:
            s = f"{format_num_expr(e.left, 1)} - {-right.value}"
        else:
            s = f"{format_num_expr(e.left, 1)} + {format_num_expr(right, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(e, NMul):
        s = f"{format_num_expr(e.left, 2)} * {format_num_expr(e.right, 2)}"
        return f"({s})" if prec > 2 else s
    raise ValueError(f"not a numeric expression: {e!r}")


def format_numeric_transducer(t: NumericTransducer) -> str:
    lines = ["transducer {"]
    lines.append("  alphabet " + " ".join(t.letters) + ";")
    inits = ", ".join(f"{r} = {t.init[r]}" for r in t.registers)
    lines.append("  registers " + inits + ";")
    for q in t.states:
        flags = ""
        if q == t.initial_state:
            flags += " initial"
        if q in t.accepting:
            flags += " accepting"
        lines.append(f"  state {q}{flags};")
    for q in t.states:
        for a in t.letters:
            tgt, upd = t.transitions[(q, a)]
            body = " ".join(f"{r} = {format_num_expr(upd[r])};"
                            for r in t.registers if r in upd)
            body = f" {body} " if body else " "
            lines.append(f"  on {a} from {q} to {tgt} {{{body}}}")
    for q in t.states:
        lines.append(f"  output {q} = {format_num_expr(t.outputs[q])};")
    lines.append("}")
    return "\n".join(lines) + "\n"
