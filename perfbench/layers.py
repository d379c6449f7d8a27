"""Per-layer tracing from outside the package.

Each boundary is a public function or method of ``polyzero``.  The
tracer wraps it wherever it is bound: in its defining module, in every
module that imported the name, and under every alias in its class
(``Poly.__rmul__`` is ``Poly.__mul__``).  Wrapping is undone after
each traced pass, so untraced passes run the package unchanged.

Spans are kept in memory with parent links and written out at the end
of the run.  The hottest leaf boundaries (polynomial multiply and
substitute, rational-function normalisation) would produce millions of
spans, so they are folded into their enclosing span as call counts
and times instead.  A boundary's self time is its duration minus the
time of the boundary calls nested in it; its total time counts only
the outermost call when it recurses.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, qualified name) of every boundary, drivers first.
BOUNDARIES = (
    ("transducer", "equivalence_check"),
    ("grammar", "zeroness"),
    ("grammar", "indep_zeroness"),
    ("grammar", "chain_zeroness"),
    ("grammar", "check_certificate"),
    ("groebner", "buchberger"),
    ("groebner", "normal_form"),
    ("groebner", "Ideal.member"),
    ("groebner", "Ideal.radical_member"),
    ("groebner", "ideal_intersect"),
    ("groebner", "image_closure"),
    ("poly", "RatFunc.of"),
    ("poly", "Poly.__mul__"),
    ("poly", "Poly.substitute"),
    ("grammar", "ValueTable.grow_to"),
    ("grammar", "collect_samples"),
    ("grammar", "low_degree_vanishing"),
    ("linalg", "kernel_basis"),
    ("transducer", "to_difference_grammar"),
    ("vass", "compile_to_transducer"),
    ("vass", "NumericTransducer.run"),
    ("dsl", "parse_transducer"),
    ("dsl", "parse_grammar"),
    ("dsl", "parse_vass"),
    ("reports", "certificate_from_obj"),
    ("reports", "certificate_to_obj"),
    ("reports", "dump_json"),
)

LEAVES = frozenset({"poly.RatFunc.of", "poly.Poly.__mul__",
                    "poly.Poly.substitute"})

# Counted, not timed: called once per derived value.
COUNTED = (("grammar", "Grammar.produce"),)

# Counters recorded at the boundaries, beside calls and times.
EXTRA = ("grammar.check_certificate.proved_ratio",
         "groebner.buchberger.basis_len.max",
         "grammar.Grammar.produce.calls",
         "grammar.values",
         "grammar.low_degree_vanishing.degenerate",
         "linalg.kernel_basis.cells")


def boundary_names() -> list[str]:
    return [f"{m}.{q}" for m, q in BOUNDARIES]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit."""
    out = []
    for name in boundary_names():
        out += [(f"{name}.calls", "count"), (f"{name}.total_s", "s"),
                (f"{name}.self_s", "s")]
    out += [(n, "ratio" if n.endswith("_ratio") else "count") for n in EXTRA]
    out += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return out


def _table_size(table) -> int:
    return sum(len(b) for bs in table.by_size.values() for b in bs)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self, lib):
        self.lib = lib
        self.problem = ""
        self.spans: list[dict] = []
        self.stats: dict[str, list] = defaultdict(
            lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self._open: list[dict] = []
        self._depth: dict[str, int] = defaultdict(int)

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        leaf = name in LEAVES
        span = None
        if not leaf:
            span = {"id": len(self.spans), "parent":
                    self._open[-1]["id"] if self._open else None,
                    "name": name, "problem": self.problem, "leaves": {}}
            self.spans.append(span)
            self._open.append(span)
        self._depth[name] += 1
        frame = [name, span, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        name, span, child, start = frame
        self._stack.pop()
        dur = end - start
        self._depth[name] -= 1
        st = self.stats[name]
        st[0] += 1
        st[2] += dur - child
        if self._depth[name] == 0:
            st[1] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if span is None:
            if self._open:  # calls, total_s, self_s
                agg = self._open[-1]["leaves"].setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - child
        else:
            self._open.pop()
            span["start"], span["end"] = start, end
            span["self_s"] = dur - child

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, post=None, pre=None):
        tracer = self

        def traced(*args, **kwargs):
            token = pre(args) if pre is not None else None
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if post is not None:
                post(tracer.counts, args, result, token, frame[1])
            return result
        return functools.wraps(fn)(traced)

    def _count(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return functools.wraps(fn)(counted)

    def _hooks(self) -> dict:
        def proved(counts, args, result, token, span):
            span["proved"] = result.proved()
            counts["grammar.check_certificate.proved"] += span["proved"]

        def basis(counts, args, result, token, span):
            key = "groebner.buchberger.basis_len.max"
            counts[key] = max(counts[key], len(result))

        def degenerate(counts, args, result, token, span):
            counts["grammar.low_degree_vanishing.degenerate"] += \
                result is None

        def cells(counts, args, result, token, span):
            counts["linalg.kernel_basis.cells"] += len(args[0]) * args[1]

        def values(counts, args, result, token, span):
            counts["grammar.values"] += _table_size(args[0]) - token

        return {"grammar.check_certificate": (proved, None),
                "groebner.buchberger": (basis, None),
                "grammar.low_degree_vanishing": (degenerate, None),
                "linalg.kernel_basis": (cells, None),
                "grammar.ValueTable.grow_to": (
                    values, lambda args: _table_size(args[0]))}

    def patch(self) -> None:
        """Wrap every boundary at every site that binds it."""
        hooks = self._hooks()
        mods = vars(self.lib)
        pkg = [m for n, m in sorted(sys.modules.items())
               if n == "polyzero" or n.startswith("polyzero.")]
        for modname, qual in BOUNDARIES + COUNTED:
            name = f"{modname}.{qual}"
            home = mods[modname]
            if "." in qual:
                cls_name, attr = qual.split(".")
                owners = [getattr(home, cls_name)]
                raw = vars(owners[0])[attr]
            else:
                owners, raw = pkg, getattr(home, qual)
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if (modname, qual) in COUNTED:
                new = self._count(f"{name}.calls", fn)
            else:
                post, pre = hooks.get(name, (None, None))
                new = self._wrap(name, fn, post, pre)
            if isinstance(raw, classmethod):
                new = classmethod(new)
            for owner in owners:
                for key, val in list(vars(owner).items()):
                    if val is raw:
                        self._patches.append((owner, key, raw))
                        setattr(owner, key, new)

    def unpatch(self) -> None:
        for owner, key, raw in reversed(self._patches):
            setattr(owner, key, raw)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer numbers of the pass just traced."""
        out: dict[str, float] = {}
        for name in boundary_names():
            calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        checks = out["grammar.check_certificate.calls"]
        out["grammar.check_certificate.proved_ratio"] = (
            self.counts["grammar.check_certificate.proved"] / checks
            if checks else 0.0)
        for key in EXTRA:
            if key not in out:
                out[key] = self.counts[key]
        return out

    def write_spans(self, path: Path, pass_no: int) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a") as f:
            for span in self.spans:
                f.write(json.dumps(dict(span, **{"pass": pass_no}),
                                   sort_keys=True) + "\n")
