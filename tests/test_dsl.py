"""Front-end parsers: transducer, grammar, substitution and counter
machine files, plus the printed form of compiled numeric transducers."""

from pathlib import Path

import pytest

from polyzero.dsl import (format_numeric_transducer, parse_grammar,
                          parse_transducer, parse_vass, parse_word_subst)
from polyzero.errors import ParseError
from polyzero.grammar import enumerate_values
from polyzero.lexer import tokenize
from polyzero.transducer import run
from polyzero.vass import AddVector, ResetSet, compile_to_transducer, normalize

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def _read(name: str) -> str:
    return (INPUTS / name).read_text()


def _out(t, word: str) -> str | None:
    res = run(t, word)
    return None if res is None else "".join(res)


# ---------------------------------------------------------------------------
# transducer files


def test_rev_and_id_files_behave():
    rev = parse_transducer(_read("rev.tr"), name="rev")
    ident = parse_transducer(_read("id.tr"), name="id")
    words = ["", "a", "b", "ab", "ba", "abb", "bab"]
    for w in words:
        assert _out(rev, w) == w[::-1]
        assert _out(ident, w) == w


def test_sqrev_files_against_python_oracle():
    # both devices output (# reverse(w)) repeated |w| times
    t1 = parse_transducer(_read("sqrev1.tr"))
    t2 = parse_transducer(_read("sqrev2.tr"))
    for w in ["", "a", "b", "ab", "ba", "aab", "bab"]:
        expected = ("#" + w[::-1]) * len(w)
        assert _out(t1, w) == expected
        assert _out(t2, w) == expected


def _tr(body: str) -> str:
    return "transducer {\n" + body + "}\n"


def test_transducer_parse_errors_carry_position():
    bad = _tr("alphabet a;\nstate q0 initial;\non b from q0 to q0 { }\n"
              "output q0 = \"\";\n")
    with pytest.raises(ParseError) as e:
        parse_transducer(bad)
    assert "line" in str(e.value)
    assert e.value.line == 4


def test_transducer_rejects_undeclared_register():
    bad = _tr("alphabet a;\nregisters R = \"\";\nstate q0 initial accepting;\n"
              "on a from q0 to q0 { Q = R; }\noutput q0 = R;\n")
    with pytest.raises(ParseError):
        parse_transducer(bad)


def test_transducer_requires_initial_state():
    bad = _tr("alphabet a;\nstate q0 accepting;\non a from q0 to q0 { }\n"
              "output q0 = \"\";\n")
    with pytest.raises(ParseError):
        parse_transducer(bad)


def test_transducer_rejects_underscore_names():
    bad = _tr("alphabet a;\nstate _q initial accepting;\n"
              "on a from _q to _q { }\noutput _q = \"\";\n")
    with pytest.raises(ParseError):
        parse_transducer(bad)


# ---------------------------------------------------------------------------
# grammar files


def test_minimal_grammar_infers_variables():
    text = ("nonterminal A dim 2; A -> p(A); A -> (0, 1); "
            "polymap p(x1,x2) = (x1*ab + at, x2*ab);")
    g = parse_grammar(text)
    assert g.initial == "A"
    assert set(g.ring.names()) == {"ab", "at"}
    vals = [v for v, _ in enumerate_values(g, 2)]
    ab, at = g.ring.var("ab"), g.ring.var("at")
    assert (g.ring.zero(), g.ring.one()) in vals
    assert (at, ab) in vals


def test_single_output_body_with_operator_after_parens():
    g = parse_grammar("vars y; nonterminal A dim 1; A -> (y + 1)*(y - 1);")
    vals = [v for v, _ in enumerate_values(g, 1)]
    y = g.ring.var("y")
    assert vals == [(y * y - g.ring.one(),)]


def test_twist_demo_file_structure():
    g = parse_grammar(_read("twist_demo.pg"), name="twist_demo")
    twisted = [p for p in g.productions if p.twist is not None]
    assert len(twisted) == 1
    assert twisted[0].lhs == "X"
    assert twisted[0].twist.verify_roundtrip()


def test_subst_twist_builds_inverse_automatically():
    text = ("paramletters a;\nletters x;\nnonterminal S dim 2;\n"
            "S -> p(S);\nS -> (0, 1);\n"
            "polymap p(vt, vb) = (vt*xb + xt, vb*xb);\n"
            "twist p with subst { a -> aa; };\n")
    g = parse_grammar(text)
    tw = next(p.twist for p in g.productions if p.twist is not None)
    assert set(tw.forward.images) == {"at", "ab"}
    assert tw.verify_roundtrip()


def test_grammar_rejects_variable_parameter_clash():
    with pytest.raises(ParseError):
        parse_grammar("params y; vars y; nonterminal A dim 1; A -> (y);")


def test_grammar_rejects_unknown_nonterminal_in_production():
    with pytest.raises(ParseError):
        parse_grammar("nonterminal A dim 1; A -> p(B); polymap p(v) = (v);")


# ---------------------------------------------------------------------------
# the tokenizer


def test_tokens_carry_kind_text_and_position():
    text = "R = '#' . a1 -> ]-> x; # note\n\t-[ 12 :=\"ab\" # last"
    got = [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    assert got == [
        ("ident", "R", 1, 1), ("sym", "=", 1, 3), ("string", "#", 1, 5),
        ("sym", ".", 1, 9), ("ident", "a1", 1, 11), ("sym", "->", 1, 14),
        ("sym", "]->", 1, 17), ("ident", "x", 1, 21), ("sym", ";", 1, 22),
        ("sym", "-[", 2, 2), ("int", "12", 2, 5), ("sym", ":=", 2, 8),
        ("string", "ab", 2, 10),
        # a comment does not move the column
        ("eof", "", 2, 15)]


@pytest.mark.parametrize("text, message, line, col", [
    ('x = "ab\n"', "unterminated string literal", 1, 5),
    ("x . 'ab", "unterminated string literal", 1, 5),
    ("a -> b;\n  c ! d", "unexpected character '!'", 2, 5),
    ("# only a comment\n\t@", "unexpected character '@'", 2, 2),
])
def test_tokenize_locates_its_errors(text, message, line, col):
    with pytest.raises(ParseError) as e:
        tokenize(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)


_TR_HEAD = ('transducer {\nalphabet a;\nregisters R = "";\n'
            'state q0 initial accepting;\n')


@pytest.mark.parametrize("parse, text, line, col", [
    # update body cut off at end of file
    (parse_transducer, _TR_HEAD + "on a from q0 to q0 { R = a . R", 5, 31),
    # output body cut off at end of file
    (parse_transducer, _TR_HEAD + "on a from q0 to q0 { R = a . R; }\n"
     "output q0 = R . (a", 6, 19),
    # stray closing bracket in an update
    (parse_transducer, _TR_HEAD + "on a from q0 to q0 { R = a) . R; }\n"
     "output q0 = R;\n}\n", 5, 27),
    # polymap body with no ';'
    (parse_grammar, "nonterminal A dim 1;\nA -> p(A);\nA -> (1);\n"
     "polymap p(v) = (v + 1)\n", 5, 1),
    # production body with no ';'
    (parse_grammar, "vars y;\nnonterminal A dim 1;\nA -> (y + 1)\n", 4, 1),
    # twist map assignment cut off at end of file
    (parse_grammar, "params b;\nnonterminal S dim 1;\nS -> q(S);\nS -> (b);\n"
     "polymap q(f) = (f);\ntwist q with map { b := (b + 1", 6, 31),
])
def test_unterminated_bodies_are_located_parse_errors(parse, text, line, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.col) == (line, col)


@pytest.mark.parametrize("parse, text, line, col", [
    (parse_transducer, _TR_HEAD + "on a from q0 to q0 { R = a R; }\n"
     "output q0 = R;\n}\n", 5, 28),
    (parse_transducer, _TR_HEAD + "on a from q0 to q0 { R = a . R; }\n"
     "output q0 = R a;\n}\n", 6, 15),
    (parse_grammar, "params b;\nnonterminal S dim 1;\nS -> q(S);\nS -> (b);\n"
     "polymap q(f) = (f);\n"
     "twist q with map { b := b + 1 b; } inverse { b := b - 1; };\n", 6, 31),
])
def test_bodies_must_be_parsed_whole(parse, text, line, col):
    # a body that parses as a prefix is rejected, not truncated
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.col) == (line, col)


@pytest.mark.parametrize("parse, text, line, col", [
    # a polymap slot shadowing a declared variable: at the slot
    (parse_grammar, "vars x;\nnonterminal S dim 1;\nS -> q(S);\nS -> (1);\n"
     "polymap q(v, x) = (x);\n", 5, 14),
    # a name declared as variable and parameter: at the later declaration
    (parse_grammar, "params b y;\nnonterminal A dim 1;\nvars z y;\n"
     "A -> (y);\n", 3, 8),
    (parse_grammar, "letters a;\nnonterminal A dim 1;\nA -> (at);\n"
     "paramletters c a;\n", 4, 16),
    # a variable named like a letter's encoding: at the variable
    (parse_grammar, "letters a;\nvars at;\nnonterminal A dim 1;\n"
     "A -> (at);\n", 2, 6),
    # no nonterminal: at end of input
    (parse_grammar, "vars y;\nA -> (y);\n", 3, 1),
    # a letter declared as a register: at the register's declaration
    (parse_transducer, 'transducer {\nalphabet a b;\nregisters R = "",\n'
     '  b = "";\nstate q0 initial accepting;\noutput q0 = R;\n}\n', 4, 3),
    # no initial state: at end of input
    (parse_transducer, _tr("alphabet a;\nstate q0 accepting;\n"
                           "on a from q0 to q0 { }\noutput q0 = \"\";\n"), 7, 1),
    (parse_vass, "vass dim 1 {\n  state q0 accepting;\n"
     "  q0 -[+1 on 1]-> q0;\n}", 4, 2),
])
def test_declaration_errors_are_located(parse, text, line, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (e.value.line, e.value.col) == (line, col)


def test_grammar_twist_map_must_roundtrip():
    text = ("params b;\nnonterminal S dim 1;\nS -> q(S);\nS -> (b);\n"
            "polymap q(f) = (f);\n"
            "twist q with map { b := b + 1; } inverse { b := b; };\n")
    with pytest.raises(ParseError):
        parse_grammar(text)


# ---------------------------------------------------------------------------
# word substitutions


def test_word_subst_parsing_and_mentioned_letters():
    ws, letters = parse_word_subst("a -> ab; b -> babb")
    assert ws.image("a") == ("a", "b")
    assert ws.image("b") == ("b", "a", "b", "b")
    assert letters == ("a", "b")


def test_word_subst_quoted_padding_letter():
    ws, letters = parse_word_subst("subst { '#' -> '#' . a; }")
    assert ws.image("#") == ("#", "a")
    assert letters == ("#", "a")


def test_word_subst_empty_image_and_duplicates():
    ws, _ = parse_word_subst('a -> ""')
    assert ws.image("a") == ()
    with pytest.raises(ParseError):
        parse_word_subst("a -> b; a -> c")


# ---------------------------------------------------------------------------
# counter machine files


def test_pump_reset_file_structure():
    v = parse_vass(_read("pump_reset.vass"), name="pump_reset")
    assert v.dim == 1
    assert v.initial == "q0"
    assert v.accepting == frozenset({"q0"})
    assert v.transitions == (("q0", AddVector((1,)), "q1"),
                             ("q1", ResetSet(frozenset({1})), "q0"))


def test_two_counter_file_effects():
    v = parse_vass(_read("two_counter.vass"), name="two_counter")
    assert v.dim == 2
    effects = [t[1] for t in v.transitions]
    assert AddVector((1, -1)) in effects
    assert AddVector((0, 1)) in effects
    assert ResetSet(frozenset({1, 2})) in effects


def test_vass_rejects_wrong_arity_vector():
    bad = "vass dim 2 { state q0 initial accepting; q0 -[add 1]-> q0; }"
    with pytest.raises(ParseError):
        parse_vass(bad)


def test_vass_rejects_undeclared_state():
    bad = "vass dim 1 { state q0 initial accepting; q0 -[+1 on 1]-> q9; }"
    with pytest.raises(Exception):
        parse_vass(bad)


# ---------------------------------------------------------------------------
# printed numeric transducers


def test_compiled_machine_prints_expected_sections():
    v = parse_vass(_read("pump_reset.vass"))
    text = format_numeric_transducer(compile_to_transducer(normalize(v)))
    assert text.startswith("transducer {")
    assert "registers R1 = 1, R1aux = 0, R2 = 1, S1 = 0;" in text
    assert "output q0 = R1[x := S1] * R2;" in text
    assert "state _err;" in text
    assert "output _err = 0;" in text
