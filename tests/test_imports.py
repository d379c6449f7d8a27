"""Every name a module of the package or a script imports is used in
that module, every function of the package is referenced, and importing
the package runs no code but its own modules'."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyzero"
SCRIPTS = ROOT / "scripts"


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, ``__future__`` excepted."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"scripts/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _foreign_modules(tree: ast.Module) -> set[str]:
    """Names bound by ``import`` statements of modules outside the package."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] != "polyzero"}


def _chain_root(node: ast.Attribute) -> ast.expr:
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _references(tree: ast.Module) -> set[str]:
    """Names read, attributes taken, and the parts of every dotted word
    of a string constant (``"groebner.buchberger"`` names both; a bare
    word, as a docstring mentions a function, does not count).  An
    attribute taken from a string literal (``", ".join``) or from a
    module imported from outside the package (``os``, ``re``) is not
    one of the package's functions."""
    foreign = _foreign_modules(tree)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            root = _chain_root(node)
            literal = isinstance(root, ast.Constant) and isinstance(root.value, str)
            if not literal and not (isinstance(root, ast.Name) and root.id in foreign):
                refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for word in DOTTED.findall(node.value):
                refs.update(word.split("."))
    return refs


def test_no_unreferenced_functions():
    refs = set()
    for top in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            refs |= _references(ast.parse(path.read_text()))
    unreferenced = sorted(
        f"{path.name}:{node.lineno} {node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in refs)
    assert not unreferenced, f"functions nobody references: {unreferenced}"


# The modules perfbench imports (workloads.import_polyzero), which load
# the whole package.
PERFBENCH_MODULES = ("cli", "dsl", "errors", "grammar", "groebner", "linalg",
                     "poly", "reports", "transducer", "vass")

# Imports the modules named in its first argument, then records the code
# object of every ``exec`` audit event (the body of a module, or code that
# a module generates and runs) while the package's modules are imported.
_RECORD_IMPORT = """
import importlib, sys
for name in sys.argv[1].split(","):
    importlib.import_module(name)
ran = []
sys.addaudithook(lambda event, args: event == "exec" and ran.append(args[0]))
for name in sys.argv[2:]:
    importlib.import_module("polyzero." + name)
for code in ran:
    print(code.co_name, code.co_filename)
"""


def _imported_modules(tree: ast.Module) -> set[str]:
    """The top-level modules that absolute imports name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_importing_the_package_runs_only_its_modules():
    # the modules it imports from outside are loaded first, so what runs
    # during the import is the package's own code
    outside = set().union(*(_imported_modules(ast.parse(path.read_text()))
                            for path in PACKAGE.glob("*.py")))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(ROOT / "src"))
    p = subprocess.run(
        [sys.executable, "-c", _RECORD_IMPORT, ",".join(sorted(outside)),
         *PERFBENCH_MODULES],
        capture_output=True, text=True, check=True, env=env)
    ran = [line.split(" ", 1) for line in p.stdout.splitlines()]
    foreign = [f"{name} in {file}" for name, file in ran
               if name != "<module>" or Path(file).parent != PACKAGE]
    assert not foreign, f"{len(foreign)} code objects run beside the " \
        f"modules' own bodies, first {foreign[:3]}"
    assert sorted(Path(file) for _, file in ran) == sorted(PACKAGE.glob("*.py"))


def test_no_module_of_the_package_imports_dataclasses():
    # a dataclass compiles each method it generates when its module is
    # imported; the package writes its value classes' methods out
    importers = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if "dataclasses" in _imported_modules(ast.parse(path.read_text()))]
    assert not importers, f"modules importing dataclasses: {importers}"
