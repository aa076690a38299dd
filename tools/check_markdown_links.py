"""Check intra-repo markdown links in the documentation tree.

Usage:  python tools/check_markdown_links.py [repo_root]

Scans ``README.md``, ``CHANGES.md``, ``ROADMAP.md`` and every ``*.md``
under ``docs/`` for inline markdown links (``[text](target)``) and
verifies that each **relative** target resolves to a file or directory
inside the repository (anchors and ``http(s)://`` / ``mailto:`` targets
are skipped).  It also scans every ``*.py`` under ``src/`` for markdown
file names cited in docstrings and comments (``docs/robustness.md``,
``README.md``) and verifies each is a path from the repository root that
exists.  A docs tree whose cross-links rot is worse than no docs
tree, so CI runs this via ``tests/test_docs_links.py`` and the docs job.

Stdlib only; exits 0 when every link and citation resolves, 1 otherwise,
printing one ``file:line: broken link`` diagnostic per failure.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

__all__ = ["broken_links", "broken_citations", "markdown_files", "main"]

#: Inline markdown links; images share the syntax (the leading ``!`` is
#: outside the capture).  Reference-style definitions ``[id]: target``
#: are rare here and intentionally out of scope.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

_SKIP_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

#: A markdown file name, optionally with a directory, as source text cites it.
_CITATION_RE = re.compile(r"[\w./-]*\w\.md\b")

#: Top-level files checked in addition to the ``docs/`` tree.
TOP_LEVEL = ("README.md", "CHANGES.md", "ROADMAP.md")


def markdown_files(root: Path) -> list[Path]:
    """The markdown files the checker covers, existing ones only."""
    files = [root / name for name in TOP_LEVEL if (root / name).exists()]
    docs = root / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.rglob("*.md")))
    return files


def _iter_links(text: str):
    """Yield ``(line_number, target)`` for every inline link, skipping
    fenced code blocks (targets inside ``` fences are illustrative)."""
    fenced = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            continue
        for match in _LINK_RE.finditer(line):
            yield lineno, match.group(1)


def broken_links(root: Path) -> list[tuple[Path, int, str]]:
    """All unresolvable relative links as ``(file, line, target)``."""
    root = root.resolve()
    problems = []
    for md in markdown_files(root):
        for lineno, target in _iter_links(md.read_text(encoding="utf-8")):
            if target.startswith(_SKIP_SCHEMES) or target.startswith("#"):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            base = root if path_part.startswith("/") else md.parent
            resolved = (base / path_part.lstrip("/")).resolve()
            if not str(resolved).startswith(str(root)):
                problems.append((md, lineno, target))  # escapes the repo
            elif not resolved.exists():
                problems.append((md, lineno, target))
    return problems


def broken_citations(root: Path) -> list[tuple[Path, int, str]]:
    """Markdown paths named in ``src/**/*.py`` that do not exist under the
    repository root, as ``(file, line, name)``."""
    root = root.resolve()
    problems = []
    for py in sorted((root / "src").rglob("*.py")):
        for lineno, line in enumerate(py.read_text(encoding="utf-8").splitlines(), start=1):
            for name in _CITATION_RE.findall(line):
                if not (root / name).is_file():
                    problems.append((py, lineno, name))
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: print diagnostics, return the exit code."""
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    problems = broken_links(root) + broken_citations(root)
    for path, lineno, target in problems:
        print(f"{path.relative_to(root.resolve())}:{lineno}: broken link -> {target}")
    checked = len(markdown_files(root))
    if problems:
        print(f"{len(problems)} broken link(s) across {checked} markdown file(s) and src/")
        return 1
    print(f"all intra-repo links resolve across {checked} markdown file(s) and src/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
