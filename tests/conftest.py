import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_python():
    """Run `python FLAGS -c CODE ARGS` in a fresh interpreter on this
    checkout's src/, with PYTHONOPTIMIZE unset unless passed as a keyword
    argument."""

    def run(code, *flags, args=(), **env):
        full = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
        full.update(PYTHONPATH=str(SRC), **env)
        return subprocess.run([sys.executable, *flags, "-c", code, *args], env=full,
                              capture_output=True, text=True, timeout=300)

    return run
