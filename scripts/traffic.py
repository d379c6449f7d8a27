#!/usr/bin/env python3
"""Line traffic of one benchmark pass: the statements that no problem ran.

    python3 scripts/traffic.py --workload search [--seed N]

Sets a perfbench workload up (its problems come from
``perfbench/workloads.py``, imported and used as they are), then runs
one pass over its problems under ``sys.settrace``, tracing only the code
under ``src/polyzero/``; the set-up itself is not traced.  Prints one
line per function of the package, in file and line order:
``<file>:<line> <name>: never run``, ``run`` when every statement of
its body ran, or ``run; not run: <lines>`` with the first lines of the
statements that did not.  A docstring, ``global`` and ``nonlocal`` are
no statements here, and a nested function is listed on its own, so its
body does not count towards the function around it.
"""

from __future__ import annotations

import argparse
import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

PACKAGE = (workloads.SRC / "polyzero").resolve()

Scope = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of a statement outside the statements nested in it: a
    compound statement's header, any other statement whole."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        start = min([d.lineno for d in stmt.decorator_list] + [stmt.lineno])
        return range(start, stmt.lineno + 1)
    inner = [c.lineno for f in ("body", "orelse", "finalbody", "handlers")
             for c in getattr(stmt, f, ())]
    end = min(inner) if inner else stmt.end_lineno + 1
    return range(stmt.lineno, max(end, stmt.lineno + 1))


def _statements(fn: ast.AST) -> list[ast.stmt]:
    """The statements of a function body, nested scopes left out (a
    nested def or class statement itself counts)."""
    out: list[ast.stmt] = []
    body = fn.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    todo = list(body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.stmt) and not isinstance(
                node, (ast.Global, ast.Nonlocal)):
            out.append(node)
        if not isinstance(node, Scope):
            todo.extend(ast.iter_child_nodes(node))
    return sorted(out, key=lambda s: s.lineno)


def functions(path: Path) -> list[tuple[str, int, list[ast.stmt]]]:
    """(qualified name, line, body statements) of every function."""
    out = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out.append((name, child.lineno, _statements(child)))
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return sorted(out, key=lambda f: f[1])


def traced_pass(work: workloads.Workload) -> dict[str, set[int]]:
    """The lines of the package that one pass over the problems ran."""
    hits: dict[str, set[int]] = defaultdict(set)
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(calls)
    try:
        for p in work.problems:
            workloads.run_problem(work.lib, p)
    finally:
        sys.settrace(None)
    return hits


def _spans(lines: list[int]) -> str:
    """``3, 5-7``: the lines, consecutive ones joined."""
    spans: list[list[int]] = []
    for n in lines:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def report(hits: dict[str, set[int]]) -> list[str]:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        for name, line, stmts in functions(path):
            missed = [s.lineno for s in stmts if ran.isdisjoint(_own_lines(s))]
            if stmts and len(missed) == len(stmts):
                status = "never run"
            elif missed:
                status = f"run; not run: {_spans(missed)}"
            else:
                status = "run"
            out.append(f"{path.name}:{line} {name}: {status}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    work = workloads.setup(args.workload, args.seed)
    for line in report(traced_pass(work)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
