"""Acceptance gate: one test per shipped guarantee, each timed against
its stated limit.  Run with -v to get one pass/fail line per criterion."""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from polyzero.dsl import parse_grammar, parse_transducer
from polyzero.encoding import (com_injective_check, encode_ring, encode_word,
                               invert_substitution, WordSubst)
from polyzero.grammar import (Budgets, check_certificate, indep_zeroness,
                              nonzero_search, to_field_view, zeroness)
from polyzero.groebner import Ideal, eliminate, ideal_intersect
from polyzero.poly import PolyRing, RatFunc, VarKind, VarTable
from polyzero.reports import certificate_from_obj, read_json
from polyzero.transducer import equivalence_check, run, to_difference_grammar
from polyzero.vass import (apply_effect, compile_to_transducer, normalize,
                           small_family, counters_of)

ROOT = Path(__file__).resolve().parent.parent
INPUTS = ROOT / "inputs"


class Gate:
    """Asserts the body ran within the stated wall-clock limit."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            elapsed = time.monotonic() - self.t0
            assert elapsed < self.limit, \
                f"took {elapsed:.1f}s, limit {self.limit}s"
        return False


def _words(letters, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


def _read(name: str) -> str:
    return (INPUTS / name).read_text()


def test_criterion_1_encoding_fidelity():
    with Gate(5.0):
        ring = encode_ring(("a", "b"))
        assert encode_word("", ring) == (ring.zero(), ring.one())
        tilde, bar = encode_word("abbab", ring)
        assert bar == ring.parse("ab^2*bb^3")
        assert tilde == ring.parse(
            "at*ab*bb^3 + at*bb + bt*ab*bb^2 + bt*ab*bb + bt")
        for u in _words("ab", 5):
            eu = encode_word(u, ring)
            for v in _words("ab", 5):
                ev = encode_word(v, ring)
                expected = (eu[0] * ev[1] + ev[0], eu[1] * ev[1])
                assert encode_word(u + v, ring) == expected


def test_criterion_2_reverse_vs_identity():
    with Gate(10.0):
        rev = parse_transducer(_read("rev.tr"), name="rev")
        ident = parse_transducer(_read("id.tr"), name="id")

        v1 = equivalence_check(rev, ident, input_letters=("a",))
        assert v1.verdict == "equivalent"
        assert v1.certificate is not None
        g = to_difference_grammar(rev, ident, ("a",)).grammar
        assert check_certificate(g, v1.certificate).proved()

        v2 = equivalence_check(rev, ident, input_letters=("a", "b"))
        assert v2.verdict == "not-equivalent"
        assert v2.witness_word is not None and len(v2.witness_word) <= 2
        assert run(rev, v2.witness_word) != run(ident, v2.witness_word)


def test_criterion_3_power_grammar_indep_zeroness():
    with Gate(60.0):
        outer = parse_grammar(_read("pow_outer.pg"), name="pow_outer")
        inner = parse_grammar(_read("pow_inner.pg"), name="pow_inner")
        res = indep_zeroness(outer, inner)
        assert res.verdict == "zero"
        assert res.invariant is not None

        iv = to_field_view(inner)
        ring = iv.cert_ring("B")
        coerce = ring.field.coerce
        pring = ring.field.param_ring
        at = ring.const(coerce(pring.var("at")))
        ab = ring.const(coerce(pring.var("ab")))
        c0, c1 = ring.var("_v0_0"), ring.var("_v0_1")
        target = (ab - ring.one()) * c0 - at * (c1 - ring.one())

        found = res.invariant.ideal_for("B")
        assert found.equal(Ideal(ring, [target]))
        assert check_certificate(iv, res.invariant,
                                 require_conclusion=False).proved()


def test_criterion_4_com_injectivity():
    with Gate(1.0):
        rep = com_injective_check(WordSubst({"a": ("a", "b"),
                                             "b": ("b", "a", "b", "b")}),
                                  ("a", "b"))
        assert rep.matrix == ((Fraction(1), Fraction(1)),
                              (Fraction(1), Fraction(3)))
        assert rep.det == 2 and rep.injective
    with Gate(1.0):
        rep = com_injective_check(WordSubst({"a": ("b", "b", "c")}),
                                  ("a", "b", "c"))
        assert rep.det == 0 and not rep.injective
    with Gate(1.0):
        aut = invert_substitution(WordSubst({"a": ("a", "a")}), ("a",))
        ring = aut.forward.ring
        at, ab = ring.var("at"), ring.var("ab")
        assert aut.inverse["ab"] == RatFunc.of(ring.parse("ab^(1/2)"),
                                               ring.one())
        assert aut.inverse["at"] == RatFunc(at,
                                            ring.parse("ab^(1/2)") + ring.one())
        assert aut.verify_roundtrip()


def test_criterion_5_twisted_grammar():
    with Gate(10.0):
        text = _read("twist_demo.pg")
        g = parse_grammar(text, name="twist_demo")
        assert zeroness(g).verdict == "zero"

        stripped = "\n".join(line for line in text.splitlines()
                             if not line.strip().startswith("twist"))
        g2 = parse_grammar(stripped, name="twist_demo_stripped")
        wit = nonzero_search(g2, 8)
        assert wit is not None
        pring = g2.ring.field.param_ring
        expected = g2.ring.const(g2.ring.field.coerce(pring.var("a")))
        assert wit.value == (expected,)


def test_criterion_6_sqrev_certificate():
    with Gate(120.0):
        t1 = parse_transducer(_read("sqrev1.tr"), name="sqrev1")
        t2 = parse_transducer(_read("sqrev2.tr"), name="sqrev2")
        g = to_difference_grammar(t1, t2, None).grammar
        cert = certificate_from_obj(g, read_json(INPUTS / "sqrev_cert.json"))
        assert check_certificate(g, cert).proved()
        res = zeroness(g, Budgets(3, 0, 100.0), certificates=[cert])
        assert res.verdict == "zero"
        assert res.detail == "supplied certificate verified"


def test_criterion_6b_sqrev_closure_attempt():
    # the automatic search must decide sqrev without the bundled
    # certificate: the difference grammar is unary, so the backward
    # chain reaches a fixpoint, and what it hands back must be closed.
    # The search runs in a worker process under a hard wall-clock cap;
    # reaching the cap fails the test.
    code = (
        "from pathlib import Path\n"
        "from polyzero.dsl import parse_transducer\n"
        "from polyzero.transducer import to_difference_grammar\n"
        "from polyzero.grammar import zeroness, check_certificate\n"
        f"t1 = parse_transducer(Path(r'{INPUTS / 'sqrev1.tr'}').read_text(), name='sqrev1')\n"
        f"t2 = parse_transducer(Path(r'{INPUTS / 'sqrev2.tr'}').read_text(), name='sqrev2')\n"
        "g = to_difference_grammar(t1, t2, None).grammar\n"
        "res = zeroness(g)\n"
        "ok = (res.certificate is not None\n"
        "      and check_certificate(g, res.certificate).proved())\n"
        "print(res.verdict, 'CLOSED' if ok else 'OPEN')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "zero CLOSED", proc.stdout


def test_criterion_7_vass_family_agreement():
    with Gate(120.0):
        for v in small_family():
            acc = compile_to_transducer(normalize(v))
            letters = v.letters()
            by_letter = dict(zip(letters, v.transitions))
            for word in _words(letters, 5):
                # brute-force oracle walk with invariant checks
                state, vec = v.initial, (0,) * v.dim
                dipped, valid = False, True
                tr = acc.trace(word)
                for i, letter in enumerate(word):
                    src, eff, tgt = by_letter[letter]
                    if src != state:
                        valid = False
                        break
                    state = tgt
                    vec = apply_effect(eff, vec)
                    if any(c < 0 for c in vec):
                        dipped = True
                    tstate, tvals = tr[i + 1]
                    if not dipped:
                        assert counters_of(acc, tvals) == vec
                        assert tvals["R1aux"] == acc.ring.const(i + 1)
                    assert tvals["R2"].is_zero() == dipped
                hit = (valid and not dipped and state in v.accepting
                       and all(c == 0 for c in vec))
                out = acc.run(word)
                assert out.is_zero() != hit, (v.name, word)


def test_criterion_8_ideal_kernel():
    with Gate(5.0):
        ring = PolyRing(VarTable.make([("x", VarKind.ORDINARY),
                                       ("y", VarKind.ORDINARY),
                                       ("t", VarKind.ORDINARY)]))
        x, y, t = ring.var("x"), ring.var("y"), ring.var("t")
        I = Ideal(ring, [x - t, y - t * t])
        assert eliminate(I, ["t"]).equal(Ideal(ring, [y - x * x]))
        assert ideal_intersect(Ideal(ring, [x]),
                               Ideal(ring, [y])).equal(Ideal(ring, [x * y]))
        sq = Ideal(ring, [x * x])
        assert sq.radical_member(x)
        assert not sq.member(x)


def test_criterion_9_byte_identical_reruns():
    cmds = [
        ("equiv", str(INPUTS / "rev.tr"), str(INPUTS / "id.tr"),
         "--alphabet", "a"),
        ("equiv", str(INPUTS / "rev.tr"), str(INPUTS / "id.tr"),
         "--alphabet", "a,b"),
        ("indep-zeroness", str(INPUTS / "pow_outer.pg"),
         str(INPUTS / "pow_inner.pg")),
        ("equiv", str(INPUTS / "sqrev1.tr"), str(INPUTS / "sqrev2.tr"),
         "--check-certificate", str(INPUTS / "sqrev_cert.json"),
         "--budget-size", "3", "--budget-iters", "2"),
    ]
    for cmd in cmds:
        runs = [subprocess.run([sys.executable, "-m", "polyzero.cli", *cmd],
                               capture_output=True, text=True, cwd=ROOT)
                for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout, cmd
        assert runs[0].stdout.strip() != ""
        json.loads(runs[0].stdout)
        assert runs[0].returncode == runs[1].returncode
