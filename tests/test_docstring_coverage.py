"""Docstring coverage of the public surface, enforced without ruff.

The CI lint job runs ruff's D1 (undocumented-public-*) rules scoped to
the public surface packages (see ``ruff.toml``); this test mirrors that
contract with a stdlib AST walk so plain ``pytest`` runs — and
environments without ruff — catch a missing docstring too.  Scope and
exemptions match the ruff config: every public module, class, function,
method, and property in ``repro.api``, ``repro.chaos``,
``repro.eventlog``, and ``repro.stream`` needs a docstring;
underscore-private names, magic methods (D105), and ``__init__``
(D107) are exempt.

``repro.kernels`` is covered too: the kernels are the documented seam
between the slab-hash drivers and the data movement they schedule.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The packages whose public surface carries the documentation contract
#: (kept in sync with the D1 scope in ``ruff.toml``).
COVERED_PACKAGES = ("api", "chaos", "eventlog", "kernels", "stream")


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _missing_in(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    gaps = []
    if not ast.get_docstring(tree):
        gaps.append((path, 1, "<module>"))

    def walk(node, prefix=""):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not _is_public(child.name):
                continue
            if not ast.get_docstring(child):
                gaps.append((path, child.lineno, prefix + child.name))
            if isinstance(child, ast.ClassDef):
                walk(child, prefix=prefix + child.name + ".")

    walk(tree)
    return gaps


def test_public_surface_is_documented():
    gaps = []
    for pkg in COVERED_PACKAGES:
        for path in sorted((SRC / pkg).rglob("*.py")):
            gaps.extend(_missing_in(path))
    assert gaps == [], "undocumented public names:\n" + "\n".join(
        f"  {p.relative_to(SRC.parent.parent)}:{line}: {name}" for p, line, name in gaps
    )


def test_covered_packages_exist():
    for pkg in COVERED_PACKAGES:
        assert (SRC / pkg / "__init__.py").exists(), pkg
