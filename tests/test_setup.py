"""Packaging: ``setup.py`` declares the ``repro`` package, so
``pip install -e .`` installs it."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_names_the_repro_package():
    completed = subprocess.run([sys.executable, "setup.py", "--name"],
                               cwd=REPO_ROOT, capture_output=True, text=True,
                               check=True)
    assert completed.stdout.split() == ["repro"]
