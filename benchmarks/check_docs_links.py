"""Fail on broken intra-repo links (CI: the docs-link-check job).

Scans every tracked ``*.md`` file for inline markdown links and images,
keeps the relative (intra-repo) targets, and verifies each resolves to an
existing file or directory.  External links (``http(s)://``, ``mailto:``)
and pure in-page anchors (``#section``) are ignored; a ``path#anchor``
target is checked for the file part only.  Every ``benchmarks/…`` and
``tests/…`` path named in a CI workflow (``.github/workflows/*.yml``) must
exist too, so deleting a file a CI step runs fails here, not in a red run.

Usage::

    python benchmarks/check_docs_links.py [repo-root]

Exit status 0 when every link and path resolves, 1 otherwise (each broken
one is printed as ``file:line: target``).  ``tests/test_docs_links.py`` runs
the same check in the tier-1 suite.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: Inline markdown link/image: ``[text](target)`` / ``![alt](target)``.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Directories never scanned (no docs of ours live there).
SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", ".hypothesis", "node_modules"}

#: Targets that are not intra-repo file links.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "ftp://")

#: A repo path named in a workflow: ``benchmarks/…`` or ``tests/…`` (a
#: ``*`` is a glob, which must match at least one file).
WORKFLOW_PATH_RE = re.compile(r"(?<![\w./-])(?:benchmarks|tests)/[\w./*-]*[\w*]")


def markdown_files(root: Path) -> list[Path]:
    """Every ``*.md`` under ``root``, skipping bookkeeping directories."""
    return sorted(
        path
        for path in root.rglob("*.md")
        if not (SKIP_DIRS & set(part for part in path.relative_to(root).parts))
    )


def intra_repo_targets(text: str) -> list[tuple[int, str]]:
    """``(line_number, target)`` for every intra-repo link in ``text``."""
    out: list[tuple[int, str]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_PREFIXES) or target.startswith("#"):
                continue
            out.append((line_number, target))
    return out


def workflow_files(root: Path) -> list[Path]:
    """Every CI workflow under ``root/.github/workflows``."""
    directory = root / ".github" / "workflows"
    return sorted([*directory.glob("*.yml"), *directory.glob("*.yaml")])


def broken_links(root: Path) -> list[str]:
    """``file:line: target`` for every intra-repo link, and every path a
    workflow names, that does not resolve."""
    problems: list[str] = []
    for path in markdown_files(root):
        for line_number, target in intra_repo_targets(path.read_text(encoding="utf-8")):
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (root / file_part) if file_part.startswith("/") else (path.parent / file_part)
            if not resolved.exists():
                problems.append(f"{path.relative_to(root)}:{line_number}: {target}")
    for path in workflow_files(root):
        lines = path.read_text(encoding="utf-8").splitlines()
        for line_number, line in enumerate(lines, start=1):
            for target in WORKFLOW_PATH_RE.findall(line):
                if not any(root.glob(target)):
                    problems.append(f"{path.relative_to(root)}:{line_number}: {target}")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    root = Path(args[0]).resolve() if args else Path(__file__).resolve().parent.parent
    problems = broken_links(root)
    checked = len(markdown_files(root)) + len(workflow_files(root))
    if problems:
        print(f"broken intra-repo links ({len(problems)}):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print(f"all intra-repo links resolve ({checked} files checked)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
