"""Command line driver.

Subcommands map one-to-one onto the library drivers.  Every verdict
subcommand prints a JSON report to stdout and encodes the verdict in
its exit status: 0 proved (equivalent, zero, satisfied, injective,
reachable), 1 refuted, 2 budgets exhausted without an answer, 3
malformed input.  Reports carry the requested budgets and input file
names, never timestamps or elapsed times, so rerunning the same
command line on the same files is byte-identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .dsl import (format_numeric_transducer, parse_grammar, parse_transducer,
                  parse_vass, parse_word_subst)
from .encoding import (WordSubst, com_injective_check, encode_ring,
                       encode_word, invert_substitution)
from .errors import (DimensionError, DomainError, NotComInjective, ParseError,
                     PolyzeroError)
from .grammar import (Budgets, InvariantCertificate, attach_polymap,
                      chain_zeroness, indep_zeroness, to_field_view, zeroness)
from .poly import PolyMap, VarKind, map_ring_over
from .reports import (certificate_from_obj, certificate_to_obj, dump_json,
                      make_report, poly_to_str, read_json, witness_to_obj,
                      write_json)
from .transducer import Transducer, equivalence_check, run, \
    to_difference_grammar
from .vass import brute_force_reach, compile_to_transducer, normalize


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; that status means
    "unknown verdict" here, so usage problems raise instead."""

    def error(self, message: str):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# shared pieces


def _print(rep: dict) -> None:
    sys.stdout.write(dump_json(rep))


def _stem(path: str) -> str:
    return Path(path).stem


def _base(path: str) -> str:
    return os.path.basename(path)


def _reparse(path: str, exc: ParseError) -> ParseError:
    return ParseError(f"{_base(path)}: {exc.message}", exc.line, exc.col)


def _load_transducer(path: str) -> Transducer:
    try:
        return parse_transducer(Path(path).read_text(), name=_stem(path))
    except ParseError as e:
        raise _reparse(path, e) from e


def _load_grammar(path: str):
    try:
        return parse_grammar(Path(path).read_text(), name=_stem(path))
    except ParseError as e:
        raise _reparse(path, e) from e


def _load_vass(path: str):
    try:
        return parse_vass(Path(path).read_text(), name=_stem(path))
    except ParseError as e:
        raise _reparse(path, e) from e


def _load_subst(arg: str) -> tuple[WordSubst, list[str], str]:
    """The argument is inline substitution text, or a file holding it."""
    if os.path.exists(arg):
        try:
            ws, letters = parse_word_subst(Path(arg).read_text())
        except ParseError as e:
            raise _reparse(arg, e) from e
        return ws, letters, _base(arg)
    ws, letters = parse_word_subst(arg)
    return ws, letters, arg


def _alphabet(text: str | None) -> tuple[str, ...] | None:
    if text is None:
        return None
    parts = [p.strip() for p in text.split(",") if p.strip() != ""]
    if not parts:
        raise DomainError("the alphabet is empty")
    for p in parts:
        if len(p) != 1:
            raise DomainError(f"letters are single characters, got {p!r}")
    if len(set(parts)) != len(parts):
        raise DomainError("duplicate letter in the alphabet")
    return tuple(parts)


def _budgets(args: argparse.Namespace) -> Budgets:
    if args.budget_size < 1 or args.budget_iters < 0 or \
            args.budget_seconds <= 0:
        raise DomainError("budget size and seconds must be positive, "
                          "budget iters nonnegative")
    return Budgets(args.budget_size, args.budget_iters, args.budget_seconds)


def _budget_obj(b: Budgets, schedule: str = "rr") -> dict:
    return {"size": b.size, "iters": b.iters, "seconds": b.seconds,
            "schedule": schedule}


def _zero_exit(verdict: str) -> int:
    return {"zero": 0, "nonzero": 1}.get(verdict, 2)


def _load_cert(g, path: str) -> list[InvariantCertificate]:
    return [certificate_from_obj(g, read_json(path))]


# ---------------------------------------------------------------------------
# subcommands


def cmd_encode(args: argparse.Namespace) -> int:
    word = tuple(args.word)
    letters = _alphabet(args.alphabet)
    if letters is None:
        letters = tuple(sorted(set(word)))
    for c in word:
        if c not in letters:
            raise DomainError(f"letter {c!r} is not in the alphabet")
    tilde, bar = encode_word(word, encode_ring(letters))
    _print(make_report("encode", [], word="".join(word),
                       alphabet=list(letters), tilde=str(tilde),
                       bar=str(bar)))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    t = _load_transducer(args.transducer)
    word = tuple(args.word)
    for c in word:
        if c not in t.input_letters:
            raise DomainError(f"letter {c!r} is not an input letter")
    out = run(t, word)
    _print(make_report("run", [_base(args.transducer)], word="".join(word),
                       accepted=out is not None,
                       output=None if out is None else "".join(out)))
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    t1 = _load_transducer(args.left)
    t2 = _load_transducer(args.right)
    letters = _alphabet(args.alphabet)
    budgets = _budgets(args)
    comp = to_difference_grammar(t1, t2, letters)
    certs: list[InvariantCertificate] = []
    if args.check_certificate and comp.grammar is not None:
        certs = _load_cert(comp.grammar, args.check_certificate)
    v = equivalence_check(t1, t2, budgets, letters, certs, comp)
    cert_obj = None
    if v.certificate is not None:
        assert comp.grammar is not None
        cert_obj = certificate_to_obj(comp.grammar, v.certificate)
        if args.emit_certificate:
            write_json(args.emit_certificate, cert_obj)
    witness = None
    if v.witness_word is not None:
        o1, o2 = v.outputs if v.outputs is not None else (None, None)
        witness = {"word": "".join(v.witness_word),
                   "outputs": [None if o1 is None else "".join(o1),
                               None if o2 is None else "".join(o2)]}
    _print(make_report("equiv", [_base(args.left), _base(args.right)],
                       verdict=v.verdict, classification=v.classification,
                       detail=v.detail,
                       budgets=_budget_obj(budgets, args.schedule),
                       witness=witness, certificate=cert_obj))
    return {"equivalent": 0, "not-equivalent": 1}.get(v.verdict, 2)


def cmd_zeroness(args: argparse.Namespace) -> int:
    g = _load_grammar(args.grammar)
    budgets = _budgets(args)
    certs = _load_cert(g, args.check_certificate) \
        if args.check_certificate else []
    res = zeroness(g, budgets, certs)
    cert_obj = None
    if res.certificate is not None:
        cert_obj = certificate_to_obj(g, res.certificate)
        if args.emit_certificate:
            write_json(args.emit_certificate, cert_obj)
    wit = witness_to_obj(g, res.witness) if res.witness is not None else None
    _print(make_report("zeroness", [_base(args.grammar)],
                       verdict=res.verdict, detail=res.detail,
                       budgets=_budget_obj(budgets, args.schedule),
                       witness=wit, certificate=cert_obj))
    return _zero_exit(res.verdict)


def cmd_indep(args: argparse.Namespace) -> int:
    outer = _load_grammar(args.outer)
    inner = _load_grammar(args.inner)
    budgets = _budgets(args)
    inner_view = to_field_view(inner) if inner.ring.names() else inner
    certs = _load_cert(inner_view, args.check_certificate) \
        if args.check_certificate else []
    res = indep_zeroness(outer, inner, budgets, certs)
    inv_obj = None
    if res.invariant is not None:
        inv_obj = certificate_to_obj(inner_view, res.invariant)
        if args.emit_certificate:
            write_json(args.emit_certificate, inv_obj)
    wit = None
    if res.witness_pair is not None:
        wo, wi = res.witness_pair
        wit = {"outer": witness_to_obj(outer, wo),
               "inner": witness_to_obj(inner_view, wi)}
    _print(make_report("indep-zeroness",
                       [_base(args.outer), _base(args.inner)],
                       verdict=res.verdict, detail=res.detail,
                       budgets=_budget_obj(budgets), witness=wit,
                       invariant=inv_obj))
    return _zero_exit(res.verdict)


def cmd_chain(args: argparse.Namespace) -> int:
    gs = [_load_grammar(p) for p in args.grammars]
    budgets = _budgets(args)
    res = chain_zeroness(gs, budgets)
    gens = [poly_to_str(f) for f in res.invariant_gens] \
        if res.verdict == "zero" else None
    wval = [str(c) for c in res.witness_value] \
        if res.witness_value is not None else None
    _print(make_report("chain-zeroness", [_base(p) for p in args.grammars],
                       verdict=res.verdict, detail=res.detail,
                       budgets=_budget_obj(budgets), witness_value=wval,
                       invariant_gens=gens))
    return _zero_exit(res.verdict)


def cmd_cominj(args: argparse.Namespace) -> int:
    ws, mentioned, label = _load_subst(args.subst)
    letters = _alphabet(args.alphabet) or tuple(mentioned)
    if not letters:
        raise DomainError("no letters given and none mentioned")
    rep = com_injective_check(ws, letters)
    _print(make_report("cominj", [label], letters=list(rep.letters),
                       matrix=[[str(e) for e in row] for row in rep.matrix],
                       det=str(rep.det), injective=rep.injective))
    return 0 if rep.injective else 1


def cmd_invert_subst(args: argparse.Namespace) -> int:
    ws, mentioned, label = _load_subst(args.subst)
    letters = _alphabet(args.alphabet) or tuple(mentioned)
    if not letters:
        raise DomainError("no letters given and none mentioned")
    try:
        aut = invert_substitution(ws, letters)
    except NotComInjective as e:
        _print(make_report("invert-subst", [label],
                           verdict="not-com-injective", letters=list(letters),
                           forward={}, inverse={}, roundtrip=None,
                           detail=str(e)))
        return 1
    _print(make_report(
        "invert-subst", [label], verdict="inverted", letters=list(letters),
        forward={n: str(p) for n, p in sorted(aut.forward.images.items())},
        inverse={n: str(r) for n, r in sorted(aut.inverse.items())},
        roundtrip=aut.verify_roundtrip(), detail=""))
    return 0


def cmd_vass_compile(args: argparse.Namespace) -> int:
    v = _load_vass(args.vass)
    t = compile_to_transducer(normalize(v))
    sys.stdout.write(format_numeric_transducer(t))
    return 0


def cmd_vass_reach(args: argparse.Namespace) -> int:
    v = _load_vass(args.vass)
    if args.max_len < 0:
        raise DomainError("--max-len must be nonnegative")
    res = brute_force_reach(v, args.max_len, args.min_steps)
    _print(make_report("vass-reach", [_base(args.vass)], dim=v.dim,
                       reachable=res.reachable,
                       run=list(res.run) if res.reachable else None,
                       max_len=args.max_len, min_steps=args.min_steps))
    return 0 if res.reachable else 1


def cmd_eqsat(args: argparse.Namespace) -> int:
    eq = _load_grammar(args.equations)
    tested = _load_grammar(args.tested)
    budgets = _budgets(args)
    if eq.dim(eq.initial) != 2:
        raise DimensionError(
            "the equations grammar must produce pairs (dimension 2)")
    mring = map_ring_over(eq.ring, [("_s0", VarKind.ORDINARY),
                                    ("_s1", VarKind.ORDINARY)])
    f = PolyMap(mring, ("_s0", "_s1"),
                (mring.var("_s0") - mring.var("_s1"),))
    diff = attach_polymap(f, eq)
    inner_view = to_field_view(tested) if tested.ring.names() else tested
    certs = _load_cert(inner_view, args.check_certificate) \
        if args.check_certificate else []
    res = indep_zeroness(diff, tested, budgets, certs)
    verdict = {"zero": "satisfied",
               "nonzero": "refuted"}.get(res.verdict, "unknown")
    inv_obj = None
    if res.invariant is not None:
        inv_obj = certificate_to_obj(inner_view, res.invariant)
        if args.emit_certificate:
            write_json(args.emit_certificate, inv_obj)
    wit = None
    if res.witness_pair is not None:
        wo, wi = res.witness_pair
        wit = {"equation": witness_to_obj(diff, wo),
               "value": witness_to_obj(inner_view, wi)}
    _print(make_report("eqsat", [_base(args.equations), _base(args.tested)],
                       verdict=verdict, detail=res.detail,
                       budgets=_budget_obj(budgets), witness=wit,
                       invariant=inv_obj))
    return {"satisfied": 0, "refuted": 1}.get(verdict, 2)


# ---------------------------------------------------------------------------
# wiring


def _add_budget_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--budget-size", type=int, default=12, metavar="N",
                    help="largest derivation size enumerated (default 12)")
    sp.add_argument("--budget-iters", type=int, default=8, metavar="N",
                    help="invariant closure rounds (default 8)")
    sp.add_argument("--budget-seconds", type=float, default=60.0, metavar="S",
                    help="wall-clock deadline, checked between search "
                         "steps (default 60)")


def _add_cert_flags(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--emit-certificate", metavar="PATH",
                    help="write the found certificate as JSON")
    sp.add_argument("--check-certificate", metavar="PATH",
                    help="try this certificate before searching")


def _add_schedule_flag(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--schedule", choices=("rr", "parallel"), default="rr",
                    help="search schedule, echoed in the report; both "
                         "run the one interleaved search ('parallel' is "
                         "an alias of 'rr')")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="polyzero",
                description="equivalence and zeroness toolkit for register "
                            "transducers and polynomial grammars")
    sub = p.add_subparsers(dest="kind", required=True, metavar="KIND")

    sp = sub.add_parser("encode", help="polynomial pair encoding of a word")
    sp.add_argument("word")
    sp.add_argument("--alphabet", metavar="LETTERS")
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("run", help="run a transducer on a word")
    sp.add_argument("transducer", metavar="FILE.tr")
    sp.add_argument("word")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("equiv", help="decide transducer equivalence")
    sp.add_argument("left", metavar="LEFT.tr")
    sp.add_argument("right", metavar="RIGHT.tr")
    sp.add_argument("--alphabet", metavar="LETTERS",
                    help="restrict the input letters (comma separated)")
    _add_budget_flags(sp)
    _add_schedule_flag(sp)
    _add_cert_flags(sp)
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("zeroness", help="zeroness of a polynomial grammar")
    sp.add_argument("grammar", metavar="FILE.pg")
    _add_budget_flags(sp)
    _add_schedule_flag(sp)
    _add_cert_flags(sp)
    sp.set_defaults(func=cmd_zeroness)

    sp = sub.add_parser("indep-zeroness",
                        help="zeroness of outer over all inner values")
    sp.add_argument("outer", metavar="OUTER.pg")
    sp.add_argument("inner", metavar="INNER.pg")
    _add_budget_flags(sp)
    _add_cert_flags(sp)
    sp.set_defaults(func=cmd_indep)

    sp = sub.add_parser("chain-zeroness",
                        help="zeroness through a substitution chain")
    sp.add_argument("grammars", nargs="+", metavar="FILE.pg")
    _add_budget_flags(sp)
    sp.set_defaults(func=cmd_chain)

    sp = sub.add_parser("cominj",
                        help="letter-count matrix of a word substitution")
    sp.add_argument("subst", metavar="SUBST",
                    help="substitution text, or a file holding it")
    sp.add_argument("--alphabet", metavar="LETTERS")
    sp.set_defaults(func=cmd_cominj)

    sp = sub.add_parser("invert-subst",
                        help="invert a com-injective word substitution")
    sp.add_argument("subst", metavar="SUBST")
    sp.add_argument("--alphabet", metavar="LETTERS")
    sp.set_defaults(func=cmd_invert_subst)

    sp = sub.add_parser("vass-compile",
                        help="compile a reset machine to a numeric "
                             "transducer (prints its text form)")
    sp.add_argument("vass", metavar="FILE.vass")
    sp.set_defaults(func=cmd_vass_compile)

    sp = sub.add_parser("vass-reach",
                        help="zero-vector reachability by brute force")
    sp.add_argument("vass", metavar="FILE.vass")
    sp.add_argument("--max-len", type=int, required=True, metavar="N")
    sp.add_argument("--min-steps", type=int, default=0, metavar="N")
    sp.set_defaults(func=cmd_vass_reach)

    sp = sub.add_parser("eqsat",
                        help="do all derivable values satisfy all "
                             "derivable equations")
    sp.add_argument("equations", metavar="EQUATIONS.pg")
    sp.add_argument("tested", metavar="TESTED.pg")
    _add_budget_flags(sp)
    _add_cert_flags(sp)
    sp.set_defaults(func=cmd_eqsat)

    return p


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 3
    except (PolyzeroError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
