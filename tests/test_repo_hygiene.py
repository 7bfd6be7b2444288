"""Repository hygiene: no tracked bytecode, no rotten documentation.

Compiled ``.pyc`` files are host- and version-specific; once committed they
shadow real source changes and bloat every diff.  The tier-1 suite (and CI)
fails if any reappear in the index.  The docs checker
(``tools/check_docs.py``, also a CI step) keeps markdown links and the file
paths quoted in doc code fences and prose code spans pointing at files that
exist.
"""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tracked_files():
    result = subprocess.run(
        ["git", "ls-files"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.splitlines()


@pytest.mark.skipif(
    shutil.which("git") is None or not (REPO_ROOT / ".git").exists(),
    reason="not a git checkout",
)
def test_no_tracked_bytecode():
    offenders = [
        path
        for path in _tracked_files()
        if path.endswith((".pyc", ".pyo")) or "__pycache__" in path
    ]
    assert not offenders, (
        "generated bytecode is tracked by git (add it to .gitignore and "
        f"`git rm --cached` it): {offenders}"
    )


@pytest.mark.skipif(
    not (REPO_ROOT / ".gitignore").exists(), reason="no .gitignore"
)
def test_gitignore_covers_bytecode():
    ignored = (REPO_ROOT / ".gitignore").read_text()
    for pattern in ("__pycache__/", "*.pyc", ".pytest_cache/"):
        assert pattern in ignored, f".gitignore must cover {pattern}"


def test_docs_links_and_file_references():
    """The CI docs check must pass: no dead intra-repo markdown links, no
    code fences referencing files that do not exist."""
    result = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, (
        f"tools/check_docs.py found problems:\n{result.stdout}{result.stderr}"
    )


def _check_docs_module():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_check_flags_missing_paths_in_prose_code_spans():
    check_docs = _check_docs_module()
    lines = [
        "The stages live in `kernels/stages.py` and `src/repro/kernels/`.",
        "```sh",
        "echo `kernels/fenced_only.py`",
        "```",
        "A deleted module: `kernels/no_such.py`, and `docs/no_such.md`.",
    ]
    errors = check_docs.check_prose_paths(
        REPO_ROOT / "docs" / "example.md", lines
    )
    assert errors == [
        "docs/example.md:5: kernels/no_such.py names a missing path",
        "docs/example.md:5: docs/no_such.md names a missing path",
    ]
