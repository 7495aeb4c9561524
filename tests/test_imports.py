"""The package's import footprint."""

import os
import subprocess
import sys
from pathlib import Path

import marketcells


def _loaded_by_fresh_import(module: str, package: str = "marketcells") -> bool:
    """Whether importing ``package`` in a fresh interpreter loads ``module``."""
    src = Path(marketcells.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = f"import sys, {package}; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_out():
    assert not _loaded_by_fresh_import("scipy")


def test_import_leaves_ssl_out():
    # the SVG writer's escaping once pulled in urllib.request, and with it
    # ssl: about 5 MB of resident memory on every import
    assert not _loaded_by_fresh_import("ssl")


def test_import_leaves_html_out():
    # SVG labels hold an integer id and a number, so nothing needs escaping
    assert not _loaded_by_fresh_import("html")


def test_every_export_resolves():
    missing = [name for name in marketcells.__all__ if not hasattr(marketcells, name)]
    assert missing == []
    namespace: dict = {}
    exec("from marketcells import *", namespace)
    assert set(marketcells.__all__) <= set(namespace)


def test_import_leaves_logging_out():
    # debug lines look their logger up only once something imported logging
    assert not _loaded_by_fresh_import("logging", "marketcells.cli")
