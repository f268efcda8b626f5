"""Fixtures shared by the test modules."""

import os
import signal
import subprocess
import sys

import pytest

from iqgalois.survey import persist

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def deadline(request):
    """Fail the test with TimeoutError when its body runs for more than 2 s.

    A SIGALRM timer, so it stops pure-Python loops that never return; it
    needs the main thread, where pytest runs tests.
    """

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.name} did not return within 2 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def csv_bytes(tmp_path):
    """The bytes that survey.persist, the one CSV writer, writes for rows."""
    path = tmp_path / "csv_bytes.csv"

    def write(rows) -> bytes:
        persist(rows, str(path), "csv")
        return path.read_bytes()

    return write


@pytest.fixture
def run_optimized():
    """Run a Python script under python -O with this checkout's src on the path."""

    def run(script: str) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=SRC)
        command = [sys.executable, "-O", "-c", script]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)

    return run
