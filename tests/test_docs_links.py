"""Tier-1 mirror of the docs-link-check CI job: intra-repo links, and the
repo paths CI workflows name, resolve."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs_links", REPO_ROOT / "benchmarks" / "check_docs_links.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_intra_repo_markdown_links_resolve():
    checker = load_checker()
    problems = checker.broken_links(REPO_ROOT)
    assert not problems, "broken intra-repo markdown links:\n" + "\n".join(problems)


def test_checker_sees_the_core_docs():
    checker = load_checker()
    names = {path.name for path in checker.markdown_files(REPO_ROOT)}
    assert {"README.md", "ROADMAP.md", "architecture.md", "serving.md"} <= names


def test_checker_flags_a_broken_link(tmp_path):
    checker = load_checker()
    (tmp_path / "index.md").write_text(
        "see [the missing page](nowhere.md) and [a real one](real.md) "
        "and [outside](https://example.com) and [an anchor](#here)",
        encoding="utf-8",
    )
    (tmp_path / "real.md").write_text("hello", encoding="utf-8")
    # A workflow step that runs a file which is gone, beside one that exists.
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "real.py").write_text("", encoding="utf-8")
    workflows = tmp_path / ".github" / "workflows"
    workflows.mkdir(parents=True)
    (workflows / "ci.yml").write_text(
        "jobs:\n  gate:\n    steps:\n"
        "      - run: python benchmarks/real.py && pytest tests/test_gone.py -q\n",
        encoding="utf-8",
    )
    problems = checker.broken_links(tmp_path)
    assert problems == ["index.md:1: nowhere.md", ".github/workflows/ci.yml:4: tests/test_gone.py"]
