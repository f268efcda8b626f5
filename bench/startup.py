"""Time a fresh interpreter's start-up and one CLI classify, parent against change.

    python3 bench/startup.py --parent DIR > BENCH_N.json

Each library's package is copied, without byte-code caches, to a temporary
directory, and every call runs it in a fresh interpreter under
PYTHONDONTWRITEBYTECODE=1, so each run compiles the package's source as a
fresh checkout does (the setting of perfbench's runs).  The calls of the
two libraries are taken in turn (bench/_entry.py).  The blocks:

- setup: perfbench's set-up body, `import iqgalois` and classify(-23),
  timed inside the child from before the import to after the call;
- cli D: `python -m iqgalois.cli classify -d D` for each D in FIELDS, its
  wall time from start to exit, and the sha256 of its stdout, which must
  agree between the two libraries.

Each block records the median and minimum of REPEATS runs and every run's
time.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from _entry import run, sha256, stats, timed_alternating

FIELDS = (-23, -100000007, -1000000007)
REPEATS = 21
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import iqgalois
iqgalois.classify(-23)
print(time.perf_counter() - t0)
"""


def _child(path: Path, *argv: str) -> str:
    """The stdout of a fresh interpreter run with argv, the package under path."""
    env = dict(os.environ, PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return proc.stdout


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, lib in libs.items():
            paths[name] = Path(tmp) / name
            shutil.copytree(
                Path(lib.__file__).parent,
                paths[name] / "iqgalois",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        timed = timed_alternating(
            [lambda path=path: _child(path, "-c", SETUP_CODE) for path in paths.values()], REPEATS
        )
        for name, (outputs, _) in zip(libs, timed):
            entries[name].append({"run": "setup", **stats([float(out) for out in outputs])})
        for D in FIELDS:
            argv = ("-m", "iqgalois.cli", "classify", "-d", str(D))
            timed = timed_alternating(
                [lambda path=path: _child(path, *argv) for path in paths.values()], REPEATS
            )
            for name, (outputs, timing) in zip(libs, timed):
                (stdout,) = set(outputs)  # every run must print the same
                entries[name].append(
                    {"run": f"cli {D}", "stdout_sha256": sha256(stdout.encode()), **timing}
                )
    return entries


if __name__ == "__main__":
    run(__doc__, "fresh-interpreter import + classify(-23), and CLI classify", measure)
