"""Sanity tests of the public namespaces and of what importing them costs."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


def test_version_is_exposed():
    assert repro.__version__


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{package}.__all__ lists missing attribute {name!r}"


@pytest.mark.parametrize("entry_point", ["repro", "repro.core.platform", "repro.cli", "repro.api"])
def test_platform_import_does_not_load_networkx(entry_point):
    # A fresh interpreter: this process may have imported anything already.
    src = str(Path(repro.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {entry_point}; print('networkx' in sys.modules)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout.strip()
    assert loaded == "False"


#: Modules whose import means the library runs work off the caller's thread.
THREAD_MODULES = ("asyncio", "concurrent.futures")
#: ``threading`` callables that start a thread.
THREAD_STARTERS = {"Thread", "Timer"}


def _thread_uses(path: Path) -> list[str]:
    """Every import of a thread module and every thread start in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    threading_aliases: set[str] = set()
    starter_aliases: set[str] = set()
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append(alias.name)
                if alias.name == "threading":
                    threading_aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imported.append(node.module)
            imported.extend(f"{node.module}.{alias.name}" for alias in node.names)
            if node.module == "threading":
                starter_aliases.update(
                    alias.asname or alias.name
                    for alias in node.names if alias.name in THREAD_STARTERS
                )
    found = [
        f"imports {name}"
        for name in imported
        if any(name == banned or name.startswith(banned + ".") for banned in THREAD_MODULES)
    ]
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in THREAD_STARTERS
            and isinstance(func.value, ast.Name)
            and func.value.id in threading_aliases
        ) or (isinstance(func, ast.Name) and func.id in starter_aliases):
            found.append(f"starts a thread at line {node.lineno}")
    return found


def test_library_starts_no_thread_of_its_own():
    # Every request, scan and drain runs on the caller's thread: no module
    # imports asyncio or concurrent.futures, and none calls threading.Thread.
    root = Path(repro.__file__).resolve().parent
    offenders = {
        str(path.relative_to(root)): uses
        for path in sorted(root.rglob("*.py"))
        if (uses := _thread_uses(path))
    }
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    [
        "import asyncio\n",
        "from concurrent.futures import ThreadPoolExecutor\n",
        "from concurrent import futures\n",
        "import threading\nthreading.Thread(target=print).start()\n",
        "import threading as t\nt.Timer(1.0, print).start()\n",
        "from threading import Thread as Worker\nWorker(target=print).start()\n",
    ],
)
def test_thread_guard_catches_every_spelling(tmp_path, source):
    module = tmp_path / "module.py"
    module.write_text(source, encoding="utf-8")
    assert _thread_uses(module)


def test_thread_guard_allows_locks_and_events(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "import threading\nfrom .x import Thread\n"
        "lock = threading.Lock()\ndone = threading.Event()\nThread()\n",
        encoding="utf-8",
    )
    assert _thread_uses(module) == []


def test_key_entry_points_are_classes_or_callables():
    assert callable(repro.SciLensPlatform)
    assert callable(repro.IndicatorEngine)
    assert callable(repro.generate_covid_scenario)
    assert callable(repro.build_gateway)
    assert callable(repro.fuse_scores)


def test_core_reexports_match_shared_models():
    from repro.core import models as core_models
    from repro import models as shared_models

    assert core_models.Article is shared_models.Article
    assert core_models.RatingClass is shared_models.RatingClass
    assert core_models.ExpertReview is shared_models.ExpertReview
