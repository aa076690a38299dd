"""List public names (``__all__`` entries) under ``src/repro`` that nothing calls.

Usage:  python tools/unused_public.py [repo_root]

For every module under ``src/repro`` that defines ``__all__``, each listed
name (a package ``__init__``'s re-exports count as listed by the module
that defines them) must be referred to by at least one *caller*:

* another Python file under ``src/``, ``examples/`` or ``benchmarks/``
  (an identifier, an attribute access, an import of that name, or a string
  that is exactly the name, as ``getattr(module, "Name")`` passes —
  comments and docstrings do not count), or
* a markdown file under ``docs/`` or ``benchmarks/``, or ``README.md``
  (a whole-word mention).

The defining module itself is not a caller, nor are the ``from … import``
and ``__all__`` lines of a package ``__init__`` (a re-export is not a
use), nor is anything under ``tests/``: a name only its own tests import
is an orphan.  The names that may stay public without a caller are
``ALLOWED`` below, each with its reason; the tool exits 1 unless the
orphans it finds equal that list exactly, so a new orphan fails and so
does an allow-list entry that has gained a caller or lost its definition.
``tests/test_unused_public.py`` and the CI docs job run it.

Matching is by bare name, so a use of one module's ``foo`` vouches for every
other module's ``foo``; that errs towards keeping code, never towards
reporting a used name.

Stdlib only; prints one ``module.name`` per orphan.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

__all__ = ["ALLOWED", "unused_public", "main"]

#: Orphans that stay public on purpose, ``module.name -> reason``.
ALLOWED = {
    "repro.gpusim.wcws.insert_edges_reference": (
        "executable specification of Algorithm 1; tests/test_wcws_equivalence.py and "
        "test_counter_invariants.py compare the vectorised insert against it"
    ),
    "repro.gpusim.wcws.delete_edges_reference": (
        "executable specification of edge deletion (tests/test_wcws_equivalence.py)"
    ),
    "repro.gpusim.wcws.delete_vertices_reference": (
        "executable specification of Algorithm 2 (same two test files)"
    ),
    "repro.slabhash.stats.chain_lengths": "ROADMAP item 6 (stats surface) reads it",
    "repro.slabhash.stats.live_counts": "ROADMAP item 6 (stats surface) reads it",
}

#: Directories whose ``*.py`` files count as callers, and those whose
#: ``*.md`` files do (``README.md`` at the root is added to the latter).
_PY_DIRS = ("src", "examples", "benchmarks")
_MD_DIRS = ("docs", "benchmarks")


def _is_all_assignment(node: ast.stmt) -> bool:
    """``__all__ = [...]`` (the one form this repository uses)."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _all_names(tree: ast.Module) -> list[str]:
    """The entries of the module's ``__all__``."""
    lists = [node.value for node in tree.body if _is_all_assignment(node)]
    return [ast.literal_eval(entry) for value in lists for entry in value.elts]


def _imported_from(tree: ast.Module, path: Path, src: Path) -> dict[str, Path]:
    """``name -> file it is imported from`` for a package ``__init__``'s re-exports."""
    origin = {}
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        base = path.parents[node.level - 1] if node.level else src
        target = base.joinpath(*(node.module or "").split("."))
        module_file = target.with_suffix(".py")
        file = module_file if module_file.exists() else target / "__init__.py"
        for alias in node.names:
            origin[alias.asname or alias.name] = file
    return origin


def _identifiers(tree: ast.Module, is_init: bool) -> set[str]:
    """Every name the module's code mentions: identifiers, attributes, imports."""
    found = set()
    for top in tree.body:
        if _is_all_assignment(top) or (is_init and isinstance(top, ast.ImportFrom)):
            continue  # an export list or a package re-export is not a use
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():  # getattr(module, "Name")-style lookups
                    found.add(node.value)
    return found


def unused_public(root: Path) -> list[str]:
    """Sorted ``module.name`` of every ``__all__`` entry without a caller.

    A package ``__init__`` re-exporting a name declares it public too; it is
    reported under the module that defines it.
    """
    root = root.resolve()
    src = root / "src"
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for directory in _PY_DIRS
        for path in sorted((root / directory).rglob("*.py"))
    }
    mentions = {p: _identifiers(t, p.name == "__init__.py") for p, t in trees.items()}
    package = {p: t for p, t in trees.items() if (src / "repro") in p.parents}
    reexports = {
        p: _imported_from(t, p, src) for p, t in package.items() if p.name == "__init__.py"
    }
    public = set()  # (defining file, name)
    for path, tree in package.items():
        for name in _all_names(tree):
            home = path
            while name in reexports.get(home, {}) and reexports[home][name] in trees:
                home = reexports[home][name]
            public.add((home, name))

    words = set()
    for md in [root / "README.md", *(m for d in _MD_DIRS for m in (root / d).rglob("*.md"))]:
        if md.exists():
            words.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", md.read_text(encoding="utf-8")))

    orphans = []
    for home, name in public:
        if name in words or any(name in ids for p, ids in mentions.items() if p != home):
            continue
        module = ".".join(home.relative_to(src).with_suffix("").parts).removesuffix(".__init__")
        orphans.append(f"{module}.{name}")
    return sorted(orphans)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: print the orphans and allow-list drift, return the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    orphans = unused_public(root)
    unexpected = [name for name in orphans if name not in ALLOWED]
    stale = sorted(set(ALLOWED) - set(orphans))
    for name in unexpected:
        print(f"{name}: public but nothing outside its module and tests/ refers to it")
    for name in stale:
        print(f"{name}: allow-listed but no longer an orphan (or gone); drop the entry")
    if unexpected or stale:
        print(f"{len(unexpected)} orphan(s), {len(stale)} stale allow-list entr(y/ies)")
        return 1
    print(f"every public name has a caller ({len(orphans)} allow-listed with a reason)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
