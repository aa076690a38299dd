"""Every public name under ``src/repro`` has a caller outside ``tests/``.

Runs ``tools/unused_public.py`` on the repository as part of tier-1: an
``__all__`` entry nothing under ``src/``, ``examples/``, ``benchmarks/``,
``docs/`` or ``README.md`` refers to fails here, and so does an allow-list
entry that is no longer an orphan.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "unused_public.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("unused_public", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(tmp_path, files):
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


def test_repo_orphans_equal_the_reasoned_allow_list():
    mod = _load_tool()
    assert mod.unused_public(ROOT) == sorted(mod.ALLOWED)
    assert len(mod.ALLOWED) <= 12
    assert all(reason.strip() for reason in mod.ALLOWED.values())


def test_cli_passes_on_the_repo_and_fails_on_a_synthetic_orphan(tmp_path):
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout
    _tree(
        tmp_path,
        {
            "src/repro/__init__.py": "",
            "src/repro/mod.py": (
                '__all__ = ["used", "orphan"]\n'
                "def used(): return orphan()\n"
                "def orphan(): return 1\n"
            ),
            "src/repro/other.py": "from repro.mod import used\nused()\n",
        },
    )
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert "repro.mod.orphan" in proc.stdout
    assert "repro.mod.used:" not in proc.stdout


def test_a_stale_allow_list_entry_fails(monkeypatch, capsys):
    mod = _load_tool()
    monkeypatch.setitem(mod.ALLOWED, "repro.api.registry.create", "has callers, so stale")
    assert mod.main([str(ROOT)]) == 1
    out = capsys.readouterr().out
    assert "repro.api.registry.create: allow-listed but no longer an orphan" in out


def test_what_counts_as_a_caller(tmp_path):
    mod = _load_tool()
    _tree(
        tmp_path,
        {
            # Package re-exports and __all__ lists are not callers; a name a
            # package re-exports is public even when its module does not list it.
            "src/repro/__init__.py": (
                "from repro.mod import reexported, hidden\n"
                '__all__ = ["reexported", "hidden"]\n'
            ),
            "src/repro/mod.py": (
                '"""Docstrings mentioning only_in_docstring do not count."""\n'
                '__all__ = ["reexported", "by_attribute", "by_string", "in_docs",\n'
                '           "in_example", "only_in_docstring", "only_in_tests"]\n'
                "def reexported(): pass\n"
                "def hidden(): pass\n"
            ),
            "src/repro/user.py": (
                '"""only_in_docstring is described here."""\n'
                "import importlib\n"
                "from repro import mod\n"
                "mod.by_attribute()\n"
                'getattr(importlib.import_module("repro.mod"), "by_string")()\n'
            ),
            "docs/guide.md": "Call `in_docs()` first.\n",
            "examples/demo.py": "from repro.mod import in_example\n",
            "tests/test_mod.py": "from repro.mod import only_in_tests\n",
        },
    )
    assert mod.unused_public(tmp_path) == [
        "repro.mod.hidden",
        "repro.mod.only_in_docstring",
        "repro.mod.only_in_tests",
        "repro.mod.reexported",
    ]
