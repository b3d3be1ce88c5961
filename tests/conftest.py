import os
import signal
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


@pytest.fixture
def deadline():
    """Fail the test once it has run 60 s, where SIGALRM exists: the fold loops
    of fundamentalize and dominant_conjugate have no step bound, so a fold
    that moves a point the wrong way would otherwise hang the suite."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail("still running after 60 s: a fold loop did not end")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
