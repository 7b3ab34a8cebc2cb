"""Package-level surface."""

import subprocess
import sys

import zdmn


def test_backend_name_is_numpy():
    # run records carry this name; every kernel is a numpy one
    assert zdmn.backend_name() == "numpy"


def test_import_leaves_scipy_unloaded():
    # only the analytic codebook method needs scipy, and it imports it itself
    code = "import sys, zdmn; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out == "[]\n"
