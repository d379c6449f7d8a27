"""The package's small record classes as values: their constructors,
equality, hashing, immutability and reprs.  Each one writes out only
the methods its callers use; what it writes gives what the dataclass it
replaced gave (constructor parameters and defaults, equality within one
class, the hash of the field tuple, and the repr text)."""

import inspect
from fractions import Fraction

import pytest

from polyzero import encoding, grammar, groebner, lexer, poly, transducer, vass
from polyzero.encoding import WordSubst
from polyzero.groebner import BlockElim, GrevLex, Lex
from polyzero.poly import QQ, Mode, PolyRing, VarKind, VarTable, ordinary_ring
from polyzero.transducer import ConstWord, Letter, Reg, RegOcc
from polyzero.vass import (AddVector, NAdd, NConst, NMul, NReg, NX,
                           ReachResult, ResetSet)

ORD = VarKind.ORDINARY
R = ordinary_ring(("x", "y"))
PMAP = poly.PolyMap(R, ("x",), (R.var("y"),))
SUBST = encoding.PolySubst(R, {"x": R.var("y")})
DERIV = grammar.Derivation(0, (), (R.one(),))

# every record class, built with each constructor parameter by keyword
# in order; the string pins the parameters and their defaults
RECORDS = [
    (poly.VarTable, "names, kinds",
     dict(names=("x", "y"), kinds=(ORD, ORD))),
    (poly.PolyRing, "vartable, field=QQ, mode=<Mode.RING: 'ring'>",
     dict(vartable=R.vartable, field=QQ, mode=Mode.FIELD)),
    (poly.PolyMap, "ring, slots, outputs",
     dict(ring=R, slots=("x",), outputs=(R.var("y"),))),
    (encoding.PolySubst, "ring, images",
     dict(ring=R, images={"x": R.var("y")})),
    (encoding.Automorphism, "forward, inverse",
     dict(forward=SUBST, inverse={})),
    (encoding.ComInjReport, "injective, letters, matrix, det",
     dict(injective=True, letters=("a",), matrix=((Fraction(1),),),
          det=Fraction(1))),
    (grammar.Production, "lhs, rhs, pmap, twist=None, label=None",
     dict(lhs="S", rhs=("S",), pmap=PMAP, twist=None, label="a")),
    (grammar.Derivation, "prod_index, children, value",
     dict(prod_index=1, children=(DERIV,), value=(R.zero(),))),
    (grammar.Witness, "derivation, value",
     dict(derivation=DERIV, value=(R.one(),))),
    (grammar.InvariantCertificate, "ideals, grammar_name=None",
     dict(ideals={}, grammar_name="g")),
    (grammar.CertVerdict, "kind, detail=''",
     dict(kind="closure-violation", detail="why")),
    (grammar.Budgets, "size=12, iters=8, seconds=60.0",
     dict(size=3, iters=2, seconds=1.5)),
    (grammar.ZeronessResult,
     "verdict, certificate=None, witness=None, detail=''",
     dict(verdict="nonzero", certificate=None,
          witness=grammar.Witness(DERIV, (R.one(),)), detail="d")),
    (grammar.IndepResult, "verdict, invariant=None, quotient_result=None, "
     "witness_pair=None, detail=''",
     dict(verdict="zero", invariant=grammar.InvariantCertificate({}),
          quotient_result=None, witness_pair=None, detail="d")),
    (grammar.ChainResult, "verdict, invariant_gens=(), link_results=(), "
     "quotient_result=None, witness_value=None, detail=''",
     dict(verdict="zero", invariant_gens=(R.var("x"),), link_results=(),
          quotient_result=None, witness_value=None, detail="d")),
    (groebner.Lex, "names=None", dict(names=("x", "y"))),
    (groebner.GrevLex, "names=None", dict(names=("y", "x"))),
    (groebner.BlockElim, "front", dict(front=("y",))),
    (lexer.Token, "kind, text, line, col",
     dict(kind="ident", text="ab", line=3, col=4)),
    (transducer.Empty, "", {}),
    (transducer.Letter, "letter", dict(letter="a")),
    (transducer.Reg, "name", dict(name="R")),
    (transducer.Concat, "left, right",
     dict(left=Letter("a"), right=Reg("R"))),
    (transducer.Subst, "body, letter, replacement",
     dict(body=Reg("R"), letter="a", replacement=Letter("b"))),
    (transducer.ConstWord, "word", dict(word=("a", "b"))),
    (transducer.RegOcc, "reg, subst",
     dict(reg="R", subst=WordSubst({"a": "b"}))),
    (transducer.DiffCompilation, "classification, grammar, mismatch_word, "
     "pairs, names, letters_ring",
     dict(classification="no-subst", grammar=None, mismatch_word=("a",),
          pairs=(("p", "q"),), names={("p", "q"): "p|q"}, letters_ring=R)),
    (transducer.EquivVerdict, "verdict, classification, witness_word=None, "
     "outputs=None, certificate=None, detail=''",
     dict(verdict="not-equivalent", classification="no-subst",
          witness_word=("a",), outputs=(("a",), None), certificate=None,
          detail="d")),
    (vass.AddVector, "delta", dict(delta=(1, -1))),
    (vass.ResetSet, "coords", dict(coords=frozenset({2}))),
    (vass.ReachResult, "reachable, run", dict(reachable=True, run=(0, 1))),
    (vass.NConst, "value", dict(value=-2)),
    (vass.NX, "", {}),
    (vass.NReg, "name", dict(name="S1")),
    (vass.NAdd, "left, right", dict(left=NX(), right=NConst(1))),
    (vass.NMul, "left, right", dict(left=NReg("R1"), right=NX())),
    (vass.NSubstX, "body, replacement", dict(body=NReg("R1"), replacement=NX())),
]

# a cached_property or a per-instance memo keeps these in an instance dict
WITH_DICT = {poly.PolyRing, poly.PolyMap, encoding.PolySubst,
             encoding.Automorphism}


def _parameters(cls) -> str:
    return ", ".join(
        p.name if p.default is p.empty else f"{p.name}={p.default!r}"
        for p in inspect.signature(cls).parameters.values())


@pytest.mark.parametrize("cls, params, kwargs", RECORDS,
                         ids=[c.__name__ for c, _, _ in RECORDS])
def test_records_keep_their_constructors(cls, params, kwargs):
    assert _parameters(cls) == params
    assert list(kwargs) == [p.split("=")[0] for p in params.split(", ") if p]
    x = cls(**kwargs)
    for name, value in kwargs.items():
        assert getattr(x, name) is value
    # positionally as well, and with every default left out
    assert all(getattr(cls(*kwargs.values()), n) is v for n, v in kwargs.items())
    required = {n: v for n, v in kwargs.items()
                if inspect.signature(cls).parameters[n].default
                is inspect.Parameter.empty}
    y = cls(**required)
    for p in inspect.signature(cls).parameters.values():
        if p.default is not p.empty:
            assert getattr(y, p.name) == p.default
    assert hasattr(x, "__dict__") == (cls in WITH_DICT)


# the classes hashed as dict keys or sets: equal instances are equal and
# hash as their field tuple, and no field can be assigned; an interned
# class gives one object for equal fields, hashed by identity
INTERNED = {PolyRing}
HASHED = [
    (lambda: VarTable(("x", "y"), (ORD, ORD)), (("x", "y"), (ORD, ORD))),
    (lambda: PolyRing(R.vartable, QQ, Mode.FIELD),
     (R.vartable, QQ, Mode.FIELD)),
    (lambda: Lex(), (None,)),
    (lambda: Lex(("x", "y")), (("x", "y"),)),
    (lambda: GrevLex(("y", "x")), (("y", "x"),)),
    (lambda: BlockElim(("y",)), (("y",),)),
]


@pytest.mark.parametrize("make, fields", HASHED)
def test_hashed_records_are_values(make, fields):
    a, b = make(), make()
    if type(a) in INTERNED:
        assert a is b and hash(a) == object.__hash__(a)
    else:
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(fields)
    assert len({a, b}) == 1
    assert a != fields and a != object()
    name = next(iter(inspect.signature(type(a)).parameters))
    with pytest.raises(AttributeError):
        setattr(a, name, getattr(b, name))
    assert a == b


def test_hashed_records_differ_in_each_field():
    x, y = R.vartable, ordinary_ring(("y", "x")).vartable
    assert VarTable(x.names, x.kinds) != y
    assert VarTable(x.names, (ORD, VarKind.BAR)) != x
    assert PolyRing(x) != PolyRing(y)
    assert PolyRing(x) != PolyRing(x, poly.FractionField(R))
    assert PolyRing(x) != PolyRing(x, QQ, Mode.FIELD)
    assert Lex() != Lex(("x", "y")) and BlockElim(("x",)) != BlockElim(("y",))


# the classes whose callers compare them: equal within their class only
COMPARED = [
    (lambda: ConstWord(("a", "b")), ConstWord(("a",))),
    (lambda: RegOcc("R", WordSubst({"a": "b"})), RegOcc("R", WordSubst({}))),
    (lambda: RegOcc("R", WordSubst({})), RegOcc("S", WordSubst({}))),
    (lambda: AddVector((1, 0)), AddVector((0, 1))),
    (lambda: ResetSet(frozenset({1})), ResetSet(frozenset({1, 2}))),
    (lambda: ReachResult(True, (0,)), ReachResult(True, (1,))),
    (lambda: ReachResult(False, None), ReachResult(True, None)),
]


@pytest.mark.parametrize("make, other", COMPARED)
def test_compared_records_are_equal_by_their_fields(make, other):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert a != other and other != a


@pytest.mark.parametrize("a, b", [
    (Reg("a"), Letter("a")),
    (NAdd(NX(), NConst(1)), NMul(NX(), NConst(1))),
    (Lex(), GrevLex()),
    (Lex(("x", "y")), GrevLex(("x", "y"))),
    (AddVector(frozenset({1})), ResetSet(frozenset({1}))),
])
def test_sibling_classes_with_the_same_fields_are_unequal(a, b):
    assert a != b and b != a and not a == b


@pytest.mark.parametrize("x, text", [
    (Lex(), "Lex(names=None)"),
    (Lex(("x", "y")), "Lex(names=('x', 'y'))"),
    (GrevLex(), "GrevLex(names=None)"),
    (GrevLex(("y", "x")), "GrevLex(names=('y', 'x'))"),
    (BlockElim(("y",)), "BlockElim(front=('y',))"),
    (NConst(-1), "NConst(value=-1)"),
    (NConst(Fraction(1, 2)), "NConst(value=Fraction(1, 2))"),
    (NConst("1"), "NConst(value='1')"),
    (NReg("S1"), "NReg(name='S1')"),
    (NReg(1), "NReg(name=1)"),
    (lexer.Token("ident", "ab", 3, 4), "Token(ident, 'ab', 3:4)"),
    (lexer.Token("sym", "->", 1, 2), "Token(sym, '->', 1:2)"),
])
def test_reprs_are_pinned(x, text):
    assert repr(x) == text
