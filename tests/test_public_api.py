"""Sanity tests of the public namespaces and of what importing them costs."""

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
