"""The benchmark's workloads: their problems, set-up, and answer checks.

Every problem goes through a public entry point of the package: the
command line driver ``polyzero.cli.main`` (its JSON report is parsed)
or the reset-VASS compiler in ``polyzero.vass``.  Inputs are the
bundled ``inputs/`` corpus or machines generated from the seed; the
package itself is never edited.

Each verdict is compared with a known answer whose provenance is
recorded next to it.  A verdict of ``unknown`` is undecided, never
failed.  Every separating word is replayed through both transducers,
every certificate is re-verified from its JSON form, and every
compiled VASS transducer is compared word by word with this file's own
brute-force run semantics.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INPUTS = ROOT / "inputs"

WORKLOADS = ("search", "qfield", "vass")

# Far above any run time, so verdicts never depend on machine speed.
# Budgets are soft today: deadlines are only checked between rounds.
BUDGET_SECONDS = "3600"

# The vass family is stratified by machine shape, so that the per-seed
# spread measures the program rather than how many heavy machines a
# seed happened to draw.  A shape is a state graph with its accepting
# states; the seed picks the effects.  One-state shapes keep every word
# a valid run.  Two-state shapes send most words into the compiled
# transducer's error sink, and end some runs in a non-accepting state;
# one has a self-loop at the initial state and one does not.  Each
# graph is a list of (source, target) per transition, over states
# q0 (initial) and q1.
VASS_GRAPHS = {
    "one1": ((("q0", "q0"),), ("q0",)),
    "one2": ((("q0", "q0"),) * 2, ("q0",)),
    "one3": ((("q0", "q0"),) * 3, ("q0",)),
    "loop2": ((("q0", "q0"), ("q0", "q1")), ("q1",)),
    "loop3": ((("q0", "q0"), ("q0", "q1"), ("q1", "q1")), ("q1",)),
    "cycle2": ((("q0", "q1"), ("q1", "q0")), ("q0",)),
    "cycle3": ((("q0", "q1"), ("q1", "q1"), ("q1", "q0")), ("q0",)),
}
VASS_DIMS = (1, 2)
VASS_PER_SHAPE = 6
VASS_MAX_LEN = 5

README_EXAMPLE = "README worked example"
BUNDLED_CERT = "bundled certificate inputs/sqrev_cert.json"
TESTS = "bundled corpus, expected zero by the repository's tests"
ORACLE = "brute-force run oracle in perfbench/workloads.py"

PROVED = {"equivalent", "zero", "satisfied", "reachable"}
REFUTED = {"not-equivalent", "nonzero", "refuted", "unreachable"}


class SetupError(Exception):
    """The checkout lacks the package sources or the bundled inputs."""


@dataclass(frozen=True)
class CliProblem:
    """One ``polyzero`` command line; ``expect`` is the true verdict."""

    name: str
    argv: tuple[str, ...]
    expect: str
    source: str


@dataclass(frozen=True)
class VassProblem:
    """One generated machine: compile, then run on every short word."""

    name: str
    machine: object  # polyzero.vass.ResetVass
    words: tuple[tuple[str, ...], ...]


@dataclass
class Workload:
    lib: SimpleNamespace
    problems: list = field(default_factory=list)
    transducers: dict = field(default_factory=dict)
    grammars: dict = field(default_factory=dict)
    machines: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# set-up


def import_polyzero() -> SimpleNamespace:
    """Import the package afresh from the checkout's ``src``."""
    if not (SRC / "polyzero" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {SRC}")
    if not INPUTS.is_dir():
        raise SetupError(f"no bundled inputs under {INPUTS}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for mod in [m for m in sys.modules
                if m == "polyzero" or m.startswith("polyzero.")]:
        del sys.modules[mod]
    importlib.invalidate_caches()
    names = ("cli", "dsl", "errors", "grammar", "groebner", "linalg", "poly",
             "reports", "transducer", "vass")
    lib = SimpleNamespace(**{n: importlib.import_module(f"polyzero.{n}")
                             for n in names})
    origin = Path(lib.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"polyzero was imported from {origin}, not {SRC}")
    return lib


def _inp(name: str) -> str:
    return str(INPUTS / name)


def _cli(name: str, kind: str, files: list[str], flags: list[str],
         expect: str, source: str) -> CliProblem:
    """A command line on files of the checkout's inputs/; searching
    subcommands get the far-away time budget."""
    if kind != "vass-reach":
        flags = flags + ["--budget-seconds", BUDGET_SECONDS]
    return CliProblem(name, (kind, *map(_inp, files), *flags), expect, source)


def search_problems() -> list[CliProblem]:
    return [
        _cli("equiv-rev-id-a", "equiv", ["rev.tr", "id.tr"],
             ["--alphabet", "a"], "equivalent", README_EXAMPLE),
        _cli("equiv-rev-id-ab", "equiv", ["rev.tr", "id.tr"],
             ["--alphabet", "a,b"], "not-equivalent", README_EXAMPLE),
        _cli("indep-pow", "indep-zeroness", ["pow_outer.pg", "pow_inner.pg"],
             [], "zero", README_EXAMPLE),
        _cli("chain", "chain-zeroness", ["chain_head.pg", "chain_tail.pg"],
             [], "zero", TESTS),
        _cli("eqsat-squares", "eqsat", ["squares_eq.pg", "squares_vals.pg"],
             ["--budget-iters", "10"], "satisfied", README_EXAMPLE),
        _cli("zeroness-twist", "zeroness", ["twist_demo.pg"], [], "zero",
             TESTS),
    ]


def qfield_problems() -> list[CliProblem]:
    return [
        _cli("equiv-sqrev-cert", "equiv", ["sqrev1.tr", "sqrev2.tr"],
             ["--check-certificate", _inp("sqrev_cert.json")], "equivalent",
             BUNDLED_CERT),
        _cli("equiv-sqrev-bounded", "equiv", ["sqrev1.tr", "sqrev2.tr"],
             ["--budget-iters", "1", "--budget-size", "5"], "equivalent",
             BUNDLED_CERT),
    ]


def vass_cli_problems() -> list[CliProblem]:
    return [
        _cli("reach-pump-reset", "vass-reach", ["pump_reset.vass"],
             ["--max-len", "6"], "reachable", ORACLE),
        _cli("reach-two-counter", "vass-reach", ["two_counter.vass"],
             ["--max-len", "6"], "reachable", ORACLE),
    ]


def vass_family(lib, seed: int) -> list:
    """VASS_PER_SHAPE machines for every graph and dimension.  Their
    effects are those of the seeded stream ``small_family(n, seed,
    max_states=1)``, taken in order among the machines with as many
    transitions and counters; the benchmark puts them on the graph."""
    need: dict[tuple[int, int], int] = {}
    for edges, _ in VASS_GRAPHS.values():
        for d in VASS_DIMS:
            key = (len(edges), d)
            need[key] = need.get(key, 0) + VASS_PER_SHAPE
    count = 64 * len(need)
    while True:
        effects: dict[tuple[int, int], list] = {k: [] for k in need}
        for v in lib.vass.small_family(count, seed, max_states=1):
            bucket = effects[(len(v.transitions), v.dim)]
            if len(bucket) < need[(len(v.transitions), v.dim)]:
                bucket.append([eff for _, eff, _ in v.transitions])
        if all(len(effects[k]) == n for k, n in need.items()):
            break
        count *= 2
    family = []
    for graph, (edges, accepting) in VASS_GRAPHS.items():
        states = tuple(sorted({q for e in edges for q in e}))
        for d in VASS_DIMS:
            for i in range(VASS_PER_SHAPE):
                effs = effects[(len(edges), d)].pop(0)
                trans = [(src, eff, tgt)
                         for (src, tgt), eff in zip(edges, effs)]
                family.append(lib.vass.ResetVass(
                    d, states, "q0", accepting, trans,
                    name=f"{graph}-d{d}-{i}"))
    return family


def _words(letters: tuple[str, ...]) -> tuple[tuple[str, ...], ...]:
    return tuple(w for n in range(VASS_MAX_LEN + 1)
                 for w in itertools.product(letters, repeat=n))


def setup(name: str, seed: int) -> Workload:
    """Import the package, then parse or generate the workload's inputs."""
    lib = import_polyzero()
    work = Workload(lib)
    if name == "search":
        work.problems = search_problems()
    elif name == "qfield":
        work.problems = qfield_problems()
    else:
        work.problems = vass_cli_problems()
        for v in vass_family(lib, seed):
            work.problems.append(VassProblem(v.name, v, _words(v.letters())))
    for p in work.problems:
        if not isinstance(p, CliProblem):
            continue
        for arg in p.argv:
            path = Path(arg)
            if path.suffix == ".tr":
                work.transducers[arg] = lib.dsl.parse_transducer(
                    path.read_text(), name=path.stem)
            elif path.suffix == ".pg":
                work.grammars[arg] = lib.dsl.parse_grammar(
                    path.read_text(), name=path.stem)
            elif path.suffix == ".vass":
                work.machines[arg] = lib.dsl.parse_vass(
                    path.read_text(), name=path.stem)
    random.Random(seed).shuffle(work.problems)
    return work


# ---------------------------------------------------------------------------
# running one problem (the timed part)


@dataclass(frozen=True)
class Crash:
    """An exception escaped the package while it solved a problem."""

    text: str


def run_problem(lib, p) -> tuple | Crash:
    """The problem's raw outcome: (exit status, report text) for a
    command line, the tuple of nonzero flags per word for a machine."""
    try:
        return _solve(lib, p)
    except Exception as e:  # a crash is a failed problem, not a stop
        return Crash(f"{type(e).__name__}: {e}")


def _solve(lib, p) -> tuple:
    if isinstance(p, CliProblem):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = lib.cli.main(list(p.argv))
        return (rc, out.getvalue() or err.getvalue())
    t = lib.vass.compile_to_transducer(lib.vass.normalize(p.machine))
    return tuple(not t.run(w).is_zero() for w in p.words)


def verdict_of(p, outcome) -> str:
    """The verdict a problem's outcome states (``error`` if none)."""
    if isinstance(outcome, Crash):
        return "error"
    if isinstance(p, VassProblem):
        return "computed"
    try:
        rep = json.loads(outcome[1])
    except json.JSONDecodeError:
        return "error"
    if rep.get("kind") == "vass-reach":
        return "reachable" if rep.get("reachable") else "unreachable"
    return rep.get("verdict", "error")


def decided(p, outcome) -> bool:
    v = verdict_of(p, outcome)
    return v in PROVED or v in REFUTED or v == "computed"


# ---------------------------------------------------------------------------
# answer checks (outside the timed part)


_EXIT = {"equivalent": 0, "zero": 0, "satisfied": 0, "reachable": 0,
         "not-equivalent": 1, "nonzero": 1, "refuted": 1, "unreachable": 1,
         "unknown": 2}


def check(work: Workload, p, outcome) -> list[str]:
    """Reasons the outcome is wrong; empty when it is correct."""
    if isinstance(outcome, Crash):
        return [f"crashed: {outcome.text}"]
    if isinstance(p, VassProblem):
        return _check_machine(p, outcome)
    try:
        return _check_cli(work, p, outcome)
    except Exception as e:  # a crash while checking is a failed problem
        return [f"check raised {type(e).__name__}: {e}"]


def _check_cli(work: Workload, p: CliProblem, outcome) -> list[str]:
    rc, text = outcome
    try:
        rep = json.loads(text)
    except json.JSONDecodeError:
        return [f"exit {rc} without a JSON report: {text.strip()[:200]}"]
    verdict = verdict_of(p, outcome)
    problems = []
    if _EXIT.get(verdict) != rc:
        problems.append(f"exit status {rc} does not match verdict {verdict}")
    if verdict == "unknown":
        return problems
    if verdict != p.expect:
        problems.append(f"verdict {verdict}, known answer {p.expect} "
                        f"({p.source})")
    kind = p.argv[0]
    if kind == "equiv":
        problems += _check_equiv(work, p, rep, verdict)
    elif kind in ("zeroness", "indep-zeroness", "eqsat"):
        problems += _check_grammar_cert(work, p, rep, verdict)
    elif kind == "chain-zeroness":
        problems += _check_chain(work, p, rep, verdict)
    elif kind == "vass-reach":
        problems += _check_reach(work, p, rep)
    return problems


def _letters(argv) -> tuple[str, ...] | None:
    if "--alphabet" not in argv:
        return None
    return tuple(argv[argv.index("--alphabet") + 1].split(","))


def _check_equiv(work: Workload, p: CliProblem, rep: dict,
                 verdict: str) -> list[str]:
    lib = work.lib
    t1, t2 = work.transducers[p.argv[1]], work.transducers[p.argv[2]]
    if verdict == "not-equivalent":
        wit = rep.get("witness") or {}
        word = wit.get("word")
        if not isinstance(word, str):
            return ["refutation without a witness word"]
        o1, o2 = lib.transducer.run(t1, word), lib.transducer.run(t2, word)
        if o1 == o2:
            return [f"witness {word!r} does not separate the transducers"]
        shown = ["".join(o) if o is not None else None for o in (o1, o2)]
        if wit.get("outputs") != shown:
            return [f"witness outputs {wit.get('outputs')} differ from the "
                    f"replayed {shown}"]
        return []
    comp = lib.transducer.to_difference_grammar(t1, t2, _letters(p.argv))
    return _reverify(lib, comp.grammar, rep.get("certificate"), True)


def _check_grammar_cert(work: Workload, p: CliProblem, rep: dict,
                        verdict: str) -> list[str]:
    lib = work.lib
    if verdict not in PROVED:
        return []
    if p.argv[0] == "zeroness":
        return _reverify(lib, work.grammars[p.argv[1]],
                         rep.get("certificate"), True)
    inner = work.grammars[p.argv[2]]
    if inner.ring.names():
        inner = lib.grammar.to_field_view(inner)
    return _reverify(lib, inner, rep.get("invariant"), False)


def _check_chain(work: Workload, p: CliProblem, rep: dict,
                 verdict: str) -> list[str]:
    """Re-prove a two-grammar chain's invariant from its generators:
    each must vanish on the tail's values, and the head must be zero
    modulo them.  Each of these zeroness proofs is found afresh and its
    certificate checked with ``check_certificate``."""
    if verdict != "zero":
        return []
    texts = rep.get("invariant_gens")
    if not texts:
        return ["zero verdict without invariant generators"]
    lib = work.lib
    head, tail = (work.grammars[a] for a in p.argv[1:3])
    xnames = head.ring.names()
    coords = tuple(f"_t{i}" for i in range(len(xnames)))
    coordring = lib.poly.PolyRing(
        lib.poly.VarTable.make((c, lib.poly.VarKind.ORDINARY)
                               for c in coords),
        head.ring.field, head.ring.mode)
    try:
        gens = [lib.reports.poly_from_str(coordring, t) for t in texts]
    except lib.errors.PolyzeroError as e:
        return [f"invariant generators do not parse: {e}"]
    goals = [(f"generator {t} on the tail", lib.grammar.attach_polymap(
        lib.poly.PolyMap(coordring, coords, (f,)), tail))
        for t, f in zip(texts, gens)]
    ideal = lib.groebner.Ideal(head.ring, [
        f.convert(head.ring, dict(zip(coords, xnames))) for f in gens])
    goals.append(("head modulo the generators", lib.grammar.Grammar(
        head.nonterminals, head.initial, head.productions, head.ring,
        ambient=ideal, name=head.name)))
    budgets = lib.grammar.Budgets(seconds=float(BUDGET_SECONDS))
    problems = []
    for what, g in goals:
        res = lib.grammar.zeroness(g, budgets)
        if res.verdict != "zero":
            problems.append(f"{what}: zeroness says {res.verdict}")
        elif not lib.grammar.check_certificate(g, res.certificate).proved():
            problems.append(f"{what}: certificate does not verify")
    return problems


def _reverify(lib, g, obj, conclusion: bool) -> list[str]:
    if obj is None:
        return ["proved verdict without a certificate"]
    try:
        cert = lib.reports.certificate_from_obj(g, obj)
        verdict = lib.grammar.check_certificate(
            g, cert, require_conclusion=conclusion)
    except lib.errors.PolyzeroError as e:
        return [f"certificate does not load: {e}"]
    if not verdict.proved():
        return [f"certificate does not re-verify: {verdict.detail}"]
    return []


def _apply(eff, vec: tuple[int, ...]) -> tuple[int, ...]:
    if hasattr(eff, "delta"):
        return tuple(v + d for v, d in zip(vec, eff.delta))
    return tuple(0 if i + 1 in eff.coords else v for i, v in enumerate(vec))


def oracle_hit(v, run) -> bool:
    """Does the transition-index sequence spell a run from the zero
    vector to the zero vector in an accepting state, with counters
    never negative?"""
    state, vec = v.initial, (0,) * v.dim
    for idx in run:
        src, eff, tgt = v.transitions[idx]
        if src != state:
            return False
        vec = _apply(eff, vec)
        if min(vec) < 0:
            return False
        state = tgt
    return state in v.accepting and not any(vec)


def _check_machine(p: VassProblem, outcome) -> list[str]:
    index = {f"t{i}": i for i in range(len(p.machine.transitions))}
    wrong = [w for w, got in zip(p.words, outcome)
             if got != oracle_hit(p.machine, [index[a] for a in w])]
    if len(outcome) != len(p.words):
        return [f"{len(outcome)} outputs for {len(p.words)} words"]
    if wrong:
        return [f"{len(wrong)} of {len(p.words)} words disagree with the "
                f"run oracle, first {''.join(wrong[0]) or '<empty>'}"]
    return []


def _check_reach(work: Workload, p: CliProblem, rep: dict) -> list[str]:
    v = work.machines[p.argv[1]]
    max_len = int(p.argv[p.argv.index("--max-len") + 1])
    runs = (r for n in range(max_len + 1)
            for r in itertools.product(range(len(v.transitions)), repeat=n))
    truth = any(oracle_hit(v, r) for r in runs)
    if rep.get("reachable") != truth:
        return [f"reachable={rep.get('reachable')}, oracle says {truth}"]
    if truth and not oracle_hit(v, rep.get("run") or []):
        return [f"reported run {rep.get('run')} is not a valid run"]
    return []
