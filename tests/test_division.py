"""Coefficients are divided only through ``field.div``.

Rational coefficients are ``int`` when integral, so a bare ``a / b`` of
two of them would silently produce a float.  Every ``/`` in the package
must sit in one of the functions allowed below.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyzero"

# (module file, qualified function name) -> why a "/" is safe there
ALLOWED = {
    ("poly.py", "FractionField.div"): "RatFunc operands",
    ("poly.py", "RatFunc.__rtruediv__"): "RatFunc's own operator",
    ("poly.py", "RatFunc.substitute"): "divides two RatFunc values",
    ("poly.py", "RatFunc.evaluate"): "Fraction values",
    ("grammar.py", "Budgets.inner"): "budget seconds, a float",
}


def _divisions(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing qualified name, line) of every ``/`` and ``/=``."""
    out = []

    def walk(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(child.op, ast.Div):
                out.append((".".join(scope), child.lineno))
            walk(child, scope)

    walk(tree, ())
    return out


def _all_divisions() -> dict[tuple[str, str], list[int]]:
    found: dict[tuple[str, str], list[int]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for qual, line in _divisions(ast.parse(path.read_text())):
            found.setdefault((path.name, qual), []).append(line)
    return found


def test_every_division_is_allowed():
    stray = {site: lines for site, lines in _all_divisions().items()
             if site not in ALLOWED}
    assert not stray, ("divide coefficients with field.div, not '/': "
                       f"{stray}")


def test_allowlist_has_no_stale_entries():
    assert set(ALLOWED) <= set(_all_divisions())
