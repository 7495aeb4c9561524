"""The package's import footprint."""

import os
import subprocess
import sys
from pathlib import Path

import marketcells


def test_import_leaves_scipy_out():
    src = Path(marketcells.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, marketcells; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_import_leaves_ssl_out():
    # the SVG writer's escaping once pulled in urllib.request, and with it
    # ssl: about 5 MB of resident memory on every import
    src = Path(marketcells.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, marketcells; print('ssl' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_every_export_resolves():
    missing = [name for name in marketcells.__all__ if not hasattr(marketcells, name)]
    assert missing == []
    namespace: dict = {}
    exec("from marketcells import *", namespace)
    assert set(marketcells.__all__) <= set(namespace)


def test_import_leaves_logging_out():
    # debug lines look their logger up only once something imported logging
    src = Path(marketcells.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, marketcells.cli; print('logging' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
