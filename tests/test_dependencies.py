"""numpy is the one runtime dependency ``pyproject.toml`` declares: importing
the package and its command line must load none of the test-only libraries."""

import os
import subprocess
import sys

import dpkf

TEST_ONLY = ("scipy", "mpmath", "hypothesis")


def test_package_and_cli_imports_load_no_test_only_library():
    code = (
        "import sys, dpkf, dpkf.cli; "
        f"print(sorted({{m.split('.')[0] for m in sys.modules}} & set({TEST_ONLY!r})))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dpkf.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
