"""The docs tree's intra-repo markdown links must resolve.

Runs the stdlib link checker (``tools/check_markdown_links.py``) over
README/CHANGES/ROADMAP and ``docs/`` as part of tier-1, so a renamed
file or a typoed relative path fails CI instead of shipping a dead link —
and over the markdown files ``src/`` docstrings and comments cite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKER = ROOT / "tools" / "check_markdown_links.py"


def _load_checker():
    import importlib.util

    spec = importlib.util.spec_from_file_location("check_markdown_links", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_markdown_links_resolve():
    mod = _load_checker()
    problems = mod.broken_links(ROOT)
    assert problems == [], "broken markdown links:\n" + "\n".join(
        f"{md.relative_to(ROOT)}:{line}: {target}" for md, line, target in problems
    )


def test_markdown_files_cited_in_src_exist():
    mod = _load_checker()
    problems = mod.broken_citations(ROOT)
    assert problems == [], "src/ cites markdown files that do not exist:\n" + "\n".join(
        f"{py.relative_to(ROOT)}:{line}: {name}" for py, line, name in problems
    )


def test_checker_flags_unresolved_citations_in_src(tmp_path):
    mod = _load_checker()
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("x\n")
    (tmp_path / "README.md").write_text("x\n")
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(
        '"""See ``docs/guide.md`` and README.md; details in EXPERIMENTS.md."""\n'
        "#: tuned per DESIGN.md §2\n"
        "X = 1\n"
    )
    problems = mod.broken_citations(tmp_path)
    assert [(p.name, line, name) for p, line, name in problems] == [
        ("mod.py", 1, "EXPERIMENTS.md"),
        ("mod.py", 2, "DESIGN.md"),
    ]
    assert mod.main([str(tmp_path)]) == 1


def test_docs_tree_is_covered():
    mod = _load_checker()
    covered = {p.relative_to(ROOT).as_posix() for p in mod.markdown_files(ROOT)}
    assert "README.md" in covered
    assert "docs/architecture.md" in covered
    assert "docs/analytics.md" in covered
    assert "docs/benchmarks.md" in covered


def test_checker_flags_broken_and_escaping_links(tmp_path):
    mod = _load_checker()
    docs = tmp_path / "docs"
    docs.mkdir()
    (tmp_path / "README.md").write_text(
        "[ok](docs/a.md)\n"
        "[dead](docs/missing.md)\n"
        "[out](../outside.md)\n"
        "[web](https://example.com)\n"
        "[anchor](#section)\n"
        "```\n[fenced](docs/also-missing.md)\n```\n"
    )
    (docs / "a.md").write_text("[up](../README.md)\n[anchored](a.md#top)\n")
    problems = mod.broken_links(tmp_path)
    targets = sorted(t for _, _, t in problems)
    assert targets == ["../outside.md", "docs/missing.md"]


def test_cli_exit_codes(tmp_path):
    (tmp_path / "README.md").write_text("[dead](nope.md)\n")
    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "nope.md" in proc.stdout
    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(ROOT)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout
