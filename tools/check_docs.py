#!/usr/bin/env python3
"""Docs consistency check: dead links and stale file references.

Scans ``README.md``, ``PAPER.md`` and every ``docs/*.md`` for

* **intra-repo markdown links** — ``[text](target)`` where ``target`` is not
  an external URL or a bare anchor must resolve to an existing file or
  directory relative to the referencing document (fragments are stripped);
* **repo paths quoted in ``sh``/``python`` code fences** — any token that
  looks like a path into a tracked top-level directory (``src/…``,
  ``docs/…``, ``examples/…``, ``benchmarks/…``, ``tools/…``, ``tests/…``)
  or a root-level ``*.md``/``*.py`` file must exist, so quickstart commands
  and examples cannot silently rot;
* **repo paths in prose inline code spans** — a path into one of those
  directories, or into a ``repro`` subpackage written relative to
  ``src/repro/`` (``kernels/stages.py``), must exist, so prose cannot keep
  naming deleted modules;
* **backticked dotted ``repro.…`` names** — an inline code span that starts
  with a name such as ``repro.core.campaign.run_campaign`` must resolve:
  the longest importable module prefix is imported and the rest looked up
  with ``getattr``, so docs cannot keep naming deleted functions.

Exit status is non-zero if anything is dangling; every finding is printed
as ``file:line: message``.  Run locally or in CI from anywhere inside the
repository::

    python tools/check_docs.py
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Top-level directories whose paths inside code fences are checked.
CHECKED_DIRS = ("src", "docs", "examples", "benchmarks", "tools", "tests")

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_DIR_PATH_RE = re.compile(
    r"(?<![\w./-])(?:%s)/[\w.][\w./-]*" % "|".join(CHECKED_DIRS)
)
_ROOT_FILE_RE = re.compile(r"(?<![\w./@-])[A-Za-z][\w.-]*\.(?:md|py)\b")
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
#: ``repro`` subpackages whose paths prose may write relative to src/repro/.
SUBPACKAGES = tuple(sorted(
    path.name for path in PACKAGE_ROOT.iterdir()
    if (path / "__init__.py").exists()
))
_SUBPACKAGE_PATH_RE = re.compile(
    r"(?<![\w./-])(?:%s)/[\w.][\w./-]*" % "|".join(SUBPACKAGES)
)
_INLINE_CODE_RE = re.compile(r"`([^`]+)`")
_EXTERNAL = ("http://", "https://", "mailto:")
_CODE_SPAN_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`]*`")


def _documents():
    docs = [REPO_ROOT / "README.md", REPO_ROOT / "PAPER.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in docs if path.exists()]


def _exists(target: Path) -> bool:
    return target.exists()


def check_links(path: Path, lines) -> list:
    """Dead intra-repo markdown links (checked in prose and fences alike)."""
    errors = []
    for lineno, line in enumerate(lines, 1):
        for target in _LINK_RE.findall(line):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (path.parent / relative).resolve()
            if not _exists(resolved):
                try:
                    shown = resolved.relative_to(REPO_ROOT)
                except ValueError:
                    shown = resolved  # link escapes the repository root
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: dead link "
                    f"({target!r} -> missing {shown})"
                )
    return errors


def _fence_blocks(lines):
    """Yield (language, lineno, line) for every line inside a code fence."""
    language = None
    for lineno, line in enumerate(lines, 1):
        match = _FENCE_RE.match(line.strip())
        if match:
            language = match.group(1).lower() if language is None else None
            continue
        if language is not None:
            yield language, lineno, line


def check_fence_paths(path: Path, lines) -> list:
    """Stale repo-path references inside sh/python code fences."""
    errors = []
    for language, lineno, line in _fence_blocks(lines):
        if language not in ("sh", "bash", "shell", "python", "py"):
            continue
        candidates = set(_DIR_PATH_RE.findall(line))
        candidates.update(_ROOT_FILE_RE.findall(line))
        for candidate in candidates:
            cleaned = candidate.rstrip("/.,:;")
            # Both dir-prefixed paths and bare *.md / *.py names resolve
            # against the repo root (the working directory every documented
            # command assumes).
            resolved = REPO_ROOT / cleaned
            if not _exists(resolved):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: code fence "
                    f"references missing file {cleaned!r}"
                )
    return errors


def check_prose_paths(path: Path, lines) -> list:
    """Repo paths in inline code spans outside code fences that are gone."""
    errors = []
    fenced = {lineno for _language, lineno, _line in _fence_blocks(lines)}
    for lineno, line in enumerate(lines, 1):
        if lineno in fenced or _FENCE_RE.match(line.strip()):
            continue
        for span in _INLINE_CODE_RE.findall(line):
            candidates = [(REPO_ROOT, c) for c in _DIR_PATH_RE.findall(span)]
            candidates += [
                (PACKAGE_ROOT, c) for c in _SUBPACKAGE_PATH_RE.findall(span)
            ]
            for root, candidate in candidates:
                cleaned = candidate.rstrip("/.,:;")
                if not _exists(root / cleaned):
                    errors.append(
                        f"{path.relative_to(REPO_ROOT)}:{lineno}: {cleaned} "
                        "names a missing path"
                    )
    return errors


def resolves(name: str) -> bool:
    """Whether dotted ``name`` is an importable module or an attribute of one."""
    if str(REPO_ROOT / "src") not in sys.path:
        sys.path.insert(0, str(REPO_ROOT / "src"))
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            if not hasattr(target, attr):
                return False
            target = getattr(target, attr)
        return True
    return False


def check_dotted_names(path: Path, lines) -> list:
    """Backticked ``repro.…`` names that no longer resolve."""
    errors = []
    for lineno, line in enumerate(lines, 1):
        for name in _CODE_SPAN_RE.findall(line):
            if not resolves(name):
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}:{lineno}: {name!r} does "
                    "not resolve to a module or attribute"
                )
    return errors


def main() -> int:
    errors = []
    documents = _documents()
    for path in documents:
        lines = path.read_text(encoding="utf-8").splitlines()
        errors.extend(check_links(path, lines))
        errors.extend(check_fence_paths(path, lines))
        errors.extend(check_prose_paths(path, lines))
        errors.extend(check_dotted_names(path, lines))
    for error in sorted(errors):
        print(error)
    print(
        f"check_docs: {len(documents)} documents, "
        f"{len(errors)} problem(s)", file=sys.stderr
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
