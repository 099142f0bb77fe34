import os
import subprocess
import sys

import cavity_gates

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cavity_gates.__file__)))


def test_package_imports_without_scipy():
    """scipy is a test-only dependency: importing the package, its CLI and
    its figure builders must not load it."""
    code = ("import sys, cavity_gates, cavity_gates.cli, cavity_gates.figures; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
