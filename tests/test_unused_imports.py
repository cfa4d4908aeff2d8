"""Every import in the package, the tests and the scripts is used, every
name a package module exports exists, and every name the README imports
from the package exists.

A standard-library AST scan stands in for a linter: a name bound by an
``import`` must be read somewhere in the same module, or be listed in its
``__all__``.  Package ``__init__.py`` files are re-export lists and are
skipped; so are ``from __future__`` imports.  Each entry of a package
module's ``__all__`` must be bound at the top level of that module, so a
deleted name cannot stay exported.
"""

import ast
import re
from pathlib import Path

import subspace_forecast

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(
    [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
    + list((ROOT / "scripts").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported(tree))
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


def exported(tree: ast.Module) -> list[str]:
    """The string entries of a module's ``__all__`` list or tuple."""
    names = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names += [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return names


def unbound_exports(source: str) -> list[str]:
    """Entries of ``__all__`` that the module does not bind at top level."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    return [name for name in exported(tree) if name not in bound]


def readme_imports(text: str) -> list[str]:
    """Names that the README's python blocks import from the package."""
    names = []
    for block in re.findall(r"^```python\n(.*?)^```", text, re.M | re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "subspace_forecast":
                names += [alias.name for alias in node.names]
    return names


def test_the_scan_sees_the_modules():
    names = {p.name for p in SCANNED}
    assert {"estimators.py", "test_unused_imports.py", "make_synthetic_prices.py"} <= names


def test_the_scan_flags_an_unused_import():
    source = "import os\nimport sys as system\nfrom a import b, c\nprint(c)\n"
    assert unused_imports(source) == ["line 3: b", "line 1: os", "line 2: system"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def test_the_scan_flags_an_unbound_export():
    source = "import os\nX = 1\ndef f(): pass\nclass C: pass\n"
    source += "__all__ = ['os', 'X', 'f', 'C', 'gone']\n"
    assert unbound_exports(source) == ["gone"]


def test_every_export_of_a_package_module_is_bound():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        unbound = unbound_exports(path.read_text(encoding="utf-8"))
        if unbound:
            found[str(path.relative_to(ROOT))] = unbound
    assert found == {}


def test_no_unused_imports():
    found = {}
    for path in SCANNED:
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_every_readme_import_exists():
    names = readme_imports((ROOT / "README.md").read_text(encoding="utf-8"))
    assert {"run_backtest", "SubspaceLadder", "mc_bias"} <= set(names)
    assert [name for name in names if not hasattr(subspace_forecast, name)] == []
