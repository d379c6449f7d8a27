"""Text formats for the front end: polynomial grammars, string
transducers, reset VASS machines, and word substitutions.

One object per file.  All formats share the tokenizer, so parse errors
carry line and column positions.  ``#`` starts a comment; the padding
letter must therefore be written quoted, as ``'#'``.

Transducer and grammar files are read in two passes.  The first scans
the declarations and records the token span of every statement body
(register expressions, polynomial bodies, twist images), skipping it
with :func:`_body_span`; the second parses the bodies, once the name
sets they are parsed against are complete.
"""

from __future__ import annotations

from typing import Callable, TypeVar

from .encoding import (Automorphism, PolySubst, WordSubst,
                       invert_substitution, letter_pairs, letter_var_names)
from .errors import ParseError
from .grammar import Grammar, Production
from .lexer import Token, TokenStream, tokenize
from .poly import (QQ, Mode, Poly, PolyMap, PolyRing, VarKind,
                   VarTable, flat_ring_for, parse_poly_tokens, structure_poly)
from .transducer import (Concat, Letter, Reg, RegisterExpr, Subst,
                         Transducer, word_expr)
from .vass import (AddVector, NumericTransducer, NAdd, NConst, NMul, NReg,
                   NSubstX, NumExpr, NX, ResetSet, ResetVass)

_T = TypeVar("_T")


def _check_name(tok: Token, what: str) -> Token:
    if tok.text.startswith("_"):
        raise ParseError(f"{what} {tok.text!r} must not start with '_'",
                         tok.line, tok.col)
    return tok


def _letter_token(ts: TokenStream) -> Token:
    tok = ts.peek()
    if len(tok.text) == 1 and (tok.kind == "string" or
                               tok.kind == "ident" and tok.text != "_"):
        return ts.next()
    raise ParseError(f"expected a single-character letter, found {tok.text!r}",
                     tok.line, tok.col)


def _name_list(ts: TokenStream, what: str | None) -> list[Token]:
    """Tokens of the declared entries up to and including ``;``: letters
    when ``what`` is None, otherwise names of that kind."""
    toks: list[Token] = []
    while not ts.at("sym", ";"):
        toks.append(_letter_token(ts) if what is None
                    else _check_name(ts.expect("ident"), what))
    ts.expect("sym", ";")
    return toks


def _parse_state(ts: TokenStream, states: list[str], initial: str | None,
                 accepting: list[str]) -> str | None:
    """`NAME [initial|accepting]*;` after the `state` keyword: records the
    state in states (and accepting) and returns the initial state."""
    stok = ts.expect("ident")
    sname = _check_name(stok, "state").text
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


Span = tuple[int, int]


def _body_span(ts: TokenStream, unterminated: str) -> Span:
    """Skip a statement body up to the ``;`` or ``}`` that ends it at
    bracket depth 0 (left unconsumed); returns the body's token span."""
    start, depth = ts.pos, 0
    while True:
        tok = ts.peek()
        if tok.kind == "eof":
            raise ts.error(unterminated)
        if tok.kind == "sym":
            if tok.text in ("(", "["):
                depth += 1
            elif tok.text in (")", "]"):
                if depth == 0:
                    raise ts.error("unbalanced bracket")
                depth -= 1
            elif depth == 0 and tok.text in (";", "}"):
                return start, ts.pos
        ts.next()


def _parse_span(ts: TokenStream, span: Span, parse: Callable[[], _T]) -> _T:
    """Run ``parse`` on a recorded body, which it must consume whole."""
    ts.pos, end = span
    out = parse()
    if ts.pos != end:
        raise ts.error(f"expected {ts.tokens[end].text!r}, "
                       f"found {ts.peek().text!r}")
    return out


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
        letter = _letter_token(ts).text
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
            letter = _letter_token(ts).text
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
    registers: dict[str, Token] = {}
    init: dict[str, tuple[str, ...]] = {}
    states: list[str] = []
    initial: str | None = None
    accepting: list[str] = []

    # the expression grammar needs the final name sets, so expressions are
    # parsed from recorded spans in a second pass
    update_spans: list[tuple[Token, str, str, str,
                             list[tuple[str, Span]]]] = []
    output_spans: list[tuple[Token, str, Span]] = []

    while not ts.at("sym", "}"):
        tok = ts.peek()
        if ts.accept("ident", "alphabet"):
            alphabet += [t.text for t in _name_list(ts, None)]
        elif ts.accept("ident", "registers"):
            while True:
                rtok = ts.expect("ident")
                rname = _check_name(rtok, "register").text
                if rname in init:
                    raise ParseError(f"register {rname!r} declared twice",
                                     rtok.line, rtok.col)
                ts.expect("sym", "=")
                wtok = ts.expect("string")
                registers[rname] = rtok
                init[rname] = tuple(wtok.text)
                if not ts.accept("sym", ","):
                    break
            ts.expect("sym", ";")
        elif ts.accept("ident", "state"):
            initial = _parse_state(ts, states, initial, accepting)
        elif ts.accept("ident", "on"):
            letter = _letter_token(ts).text
            ts.expect("ident", "from")
            src = ts.expect("ident").text
            ts.expect("ident", "to")
            tgt = ts.expect("ident").text
            ts.expect("sym", "{")
            spans: list[tuple[str, int]] = []
            while not ts.at("sym", "}"):
                rname = ts.expect("ident").text
                ts.expect("sym", "=")
                spans.append(
                    (rname, _body_span(ts, "unterminated expression")))
                ts.expect("sym", ";")
            ts.expect("sym", "}")
            update_spans.append((tok, letter, src, tgt, spans))
        elif ts.accept("ident", "output"):
            sname = ts.expect("ident").text
            ts.expect("sym", "=")
            output_spans.append((tok, sname,
                                 _body_span(ts, "unterminated expression")))
            ts.expect("sym", ";")
        else:
            raise ts.error(f"unexpected {tok.text!r} in transducer body")
    ts.expect("sym", "}")
    ts.expect_eof()

    if initial is None:
        raise ts.error("no initial state declared")
    aset = frozenset(alphabet)
    rset = frozenset(registers)
    clash = aset & rset
    if clash:
        rtok = next(t for r, t in registers.items() if r in clash)
        raise ParseError(f"names used as both letter and register: "
                         f"{sorted(clash)}", rtok.line, rtok.col)

    def parse_at(span: Span) -> RegisterExpr:
        return _parse_span(ts, span,
                           lambda: _parse_register_expr(ts, aset, rset))

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
        for rname, span in spans:
            if rname not in rset:
                raise ParseError(f"undeclared register {rname!r}",
                                 tok.line, tok.col)
            if rname in updates:
                raise ParseError(f"register {rname!r} updated twice",
                                 tok.line, tok.col)
            updates[rname] = parse_at(span)
        transitions[(src, letter)] = (tgt, updates)
    outputs = {}
    for tok, sname, span in output_spans:
        if sname not in states:
            raise ParseError(f"undeclared state {sname!r}", tok.line, tok.col)
        if sname in outputs:
            raise ParseError(f"duplicate output for {sname!r}",
                             tok.line, tok.col)
        outputs[sname] = parse_at(span)

    return Transducer(alphabet, list(registers), init, states, initial,
                      accepting, transitions, outputs, name=name)


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
        raise ts.error("no initial state declared")
    return ResetVass(dim, states, initial, accepting, transitions, name=name)


# ---------------------------------------------------------------------------
# grammar files


# declaration keyword -> what one entry names (None: a letter)
_NAME_LISTS = {"letters": None, "paramletters": None,
               "params": "parameter", "vars": "variable"}


class _PgDecls:
    def __init__(self) -> None:
        self.names: dict[str, list[str]] = {kw: [] for kw in _NAME_LISTS}
        # variable name -> token of its latest declaration
        self.declared_at: dict[str, Token] = {}
        self.nonterminals: dict[str, int] = {}
        # name -> (token, slot tokens, body span)
        self.polymaps: dict[str, tuple[Token, tuple[Token, ...], Span]] = {}
        # (token, lhs, polymap call or None, body span of a constant)
        self.productions: list[tuple[Token, str, tuple[str, ...] | None,
                                     Span | None]] = []
        # polymap name -> ("subst", token, mapping)
        #               | ("map", token, fwd spans, inv spans)
        self.twists: dict[str, tuple] = {}


def _scan_grammar(ts: TokenStream) -> _PgDecls:
    d = _PgDecls()
    while ts.peek().kind != "eof":
        tok = ts.peek()
        if tok.kind == "ident" and tok.text in _NAME_LISTS:
            ts.next()
            what = _NAME_LISTS[tok.text]
            for ntok in _name_list(ts, what):
                d.names[tok.text].append(ntok.text)
                for v in (letter_var_names(ntok.text) if what is None
                          else (ntok.text,)):
                    d.declared_at[v] = ntok
        elif ts.accept("ident", "nonterminal"):
            ntok = ts.expect("ident")
            nname = _check_name(ntok, "nonterminal").text
            if nname in d.nonterminals:
                raise ParseError(f"nonterminal {nname!r} declared twice",
                                 ntok.line, ntok.col)
            ts.expect("ident", "dim")
            d.nonterminals[nname] = int(ts.expect("int").text)
            ts.expect("sym", ";")
        elif ts.accept("ident", "polymap"):
            ntok = ts.expect("ident")
            nname = _check_name(ntok, "polymap").text
            if nname in d.polymaps:
                raise ParseError(f"polymap {nname!r} declared twice",
                                 ntok.line, ntok.col)
            ts.expect("sym", "(")
            slots: list[Token] = []
            if not ts.at("sym", ")"):
                while True:
                    slots.append(_check_name(ts.expect("ident"), "slot"))
                    if not ts.accept("sym", ","):
                        break
            ts.expect("sym", ")")
            ts.expect("sym", "=")
            d.polymaps[nname] = (ntok, tuple(slots),
                                 _body_span(ts, "missing ';'"))
            ts.expect("sym", ";")
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
                d.productions.append((tok, lhs, (fname, *args), None))
            else:
                d.productions.append((tok, lhs, None,
                                      _body_span(ts, "missing ';'")))
            ts.expect("sym", ";")
        else:
            raise ts.error(f"unexpected {tok.text!r} in grammar file")
    return d


def _scan_assignments(ts: TokenStream) -> list[tuple[Token, Span]]:
    """`{ NAME := body; ... }`: each assigned name with its body span."""
    ts.expect("sym", "{")
    spans: list[tuple[Token, Span]] = []
    while not ts.at("sym", "}"):
        vtok = ts.expect("ident")
        ts.expect("sym", ":=")
        spans.append((vtok, _body_span(ts, "unterminated assignment")))
        if not ts.accept("sym", ";"):
            break
    ts.expect("sym", "}")
    return spans


def _infer_vars(ts: TokenStream, d: _PgDecls) -> list[str]:
    """Undeclared files: non-slot identifiers in bodies become plain
    variables, in order of first appearance."""
    bodies = [({s.text for s in slots}, span)
              for _, slots, span in d.polymaps.values()]
    bodies += [((), span) for _, _, rhs, span in d.productions
               if rhs is None]
    seen: dict[str, None] = {}
    for slots, (start, end) in bodies:
        for tok in ts.tokens[start:end]:
            if tok.kind == "ident" and tok.text not in slots:
                seen.setdefault(tok.text)
    return list(seen)


def _parse_tuple_body(ts: TokenStream, span: Span,
                      ring: PolyRing) -> tuple[Poly, ...]:
    """A recorded body: a parenthesized tuple or a single expression.
    Fraction-field bodies are parsed over the flat ring, with the
    parameters as variables, and restructured into ``ring``."""
    flat = flat_ring_for(ring)

    def tuple_or_single() -> list[Poly]:
        if not ts.accept("sym", "("):
            return [parse_poly_tokens(flat, ts)]
        outs = [parse_poly_tokens(flat, ts)]
        while ts.accept("sym", ","):
            outs.append(parse_poly_tokens(flat, ts))
        ts.expect("sym", ")")
        # a parenthesized single expression continuing with an operator
        # was really one expression; fall back to a full re-parse
        if len(outs) == 1 and ts.pos != span[1]:
            ts.pos = span[0]
            outs = [parse_poly_tokens(flat, ts)]
        return outs

    outs = _parse_span(ts, span, tuple_or_single)
    if flat != ring:
        outs = [structure_poly(p, ring) for p in outs]
    return tuple(outs)


def parse_grammar(text: str, name: str | None = None) -> Grammar:
    ts = TokenStream(tokenize(text))
    d = _scan_grammar(ts)
    if not d.nonterminals:
        raise ts.error("no nonterminal declared")
    names = d.names
    if not any(names.values()):
        names["vars"] = _infer_vars(ts, d)
    param_pairs = letter_pairs(names["paramletters"])
    param_pairs += [(n, VarKind.ORDINARY) for n in names["params"]]
    value_pairs = letter_pairs(names["letters"])
    value_pairs += [(n, VarKind.ORDINARY) for n in names["vars"]]
    all_names = [n for n, _ in value_pairs + param_pairs]
    twice = {n for n in all_names if all_names.count(n) > 1}
    if twice:
        # the first point at which a name is declared a second time
        tok = min((d.declared_at[n] for n in twice),
                  key=lambda t: (t.line, t.col))
        raise ParseError(f"names declared twice: {sorted(twice)}",
                         tok.line, tok.col)
    taken = set(all_names)

    # coefficient field
    if param_pairs:
        param_ring = PolyRing(VarTable.make(param_pairs))
        field = param_ring.fraction_field
    else:
        param_ring = None
        field = QQ

    # value ring
    mode = Mode.FIELD if not value_pairs and param_pairs else Mode.RING
    vring = PolyRing(VarTable.make(value_pairs), field, mode)

    def body_ring(slots: tuple[Token, ...]) -> PolyRing:
        for s in slots:
            if s.text in taken:
                raise ParseError(f"slot {s.text!r} shadows a declared name",
                                 s.line, s.col)
        return PolyRing(VarTable.make(
            [(s.text, VarKind.ORDINARY) for s in slots] + value_pairs),
            field, mode)

    def images(spans: list[tuple[Token, Span]]) -> dict[str, Poly]:
        out: dict[str, Poly] = {}
        for vtok, span in spans:
            if not param_ring.vartable.has(vtok.text):
                raise ParseError(f"{vtok.text!r} is not a parameter",
                                 vtok.line, vtok.col)
            out[vtok.text] = _parse_span(
                ts, span, lambda: parse_poly_tokens(param_ring, ts))
        return out

    # twists, keyed by polymap name
    twists: dict[str, Automorphism] = {}
    for pname, (kind, tok, *spec) in d.twists.items():
        if pname not in d.polymaps:
            raise ParseError(f"twist names unknown polymap {pname!r}",
                             tok.line, tok.col)
        if param_ring is None:
            raise ParseError("twists need paramletters or params",
                             tok.line, tok.col)
        if kind == "subst":
            mapping = spec[0]
            for l in set(mapping) | {c for w in mapping.values() for c in w}:
                if l not in names["paramletters"]:
                    raise ParseError(f"twist letter {l!r} is not a "
                                     "paramletter", tok.line, tok.col)
            twists[pname] = invert_substitution(
                WordSubst(mapping), tuple(names["paramletters"]),
                ring=param_ring)
            continue
        fwd, inv = (images(spans) for spans in spec)
        auto = Automorphism(PolySubst(param_ring, fwd),
                            {n: field.coerce(p) for n, p in inv.items()})
        if not auto.verify_roundtrip():
            raise ParseError(f"twist on {pname!r}: inverse does not "
                             "invert the forward images", tok.line, tok.col)
        twists[pname] = auto

    # polymaps
    pmaps: dict[str, PolyMap] = {}
    for pname, (ptok, slots, span) in d.polymaps.items():
        ring = body_ring(slots)
        pmaps[pname] = PolyMap(ring, tuple(s.text for s in slots),
                               _parse_tuple_body(ts, span, ring))

    # productions
    productions: list[Production] = []
    for tok, lhs, rhs, span in d.productions:
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
            outs = _parse_tuple_body(ts, span, vring)
            productions.append(Production(lhs, (), PolyMap(vring, (), outs)))

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
        if (isinstance(right, NMul) and isinstance(right.left, NConst)
                and right.left.value == -1):
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
