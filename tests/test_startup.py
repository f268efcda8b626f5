"""Start-up loads only what the command runs.

Importing the package and classifying one field load neither the survey
harness, nor the lane kernels of its blocks, nor verify's oracles, and no
command but a pooled scan imports the process pool.  The survey names
still resolve from the package, on first use.  The survey module sits in sys.modules from the start as a lazy
module, a subclass of ModuleType, until its first attribute access runs
its code; a module counts as loaded here when sys.modules holds a plain
module under its name.
"""

import json
import os
import subprocess
import sys

import pytest

import iqgalois

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
POOL = ["multiprocessing", "concurrent.futures.process"]
# the survey harness and its int64 lane kernels
BLOCK_ROUTE = ["iqgalois.survey", "iqgalois.lanes"]


def _loaded_in_child(code: str, names: list[str]) -> list[str]:
    """Those of names that a fresh interpreter has loaded after running code."""
    script = (
        f"import json, sys, types\n{code}\n"
        f"print(json.dumps([n for n in {names!r} if type(sys.modules.get(n)) is types.ModuleType]))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "code, names",
    [
        ("import iqgalois; iqgalois.classify(-23)", [*BLOCK_ROUTE, "iqgalois.verify", *POOL]),
        (
            "from iqgalois.cli import main; main(['classify', '-d', '-23'])",
            [*BLOCK_ROUTE, "iqgalois.verify", *POOL],
        ),
        ("from iqgalois.cli import main; main(['tables', '--table', '1', '--bound', '100'])", POOL),
        ("import iqgalois; list(iqgalois.scan(iqgalois.SurveyConfig(d_max=100)))", POOL),
    ],
    ids=["classify", "cli-classify", "cli-tables", "one-worker-scan"],
)
def test_a_command_loads_only_what_it_runs(code, names):
    assert _loaded_in_child(code, names) == []


def test_survey_loads_at_first_use_of_its_module():
    # code that reaches the module through sys.modules (a tracer, say) gets it whole
    code = "import iqgalois; sys.modules['iqgalois.survey'].scan"
    assert _loaded_in_child(code, ["iqgalois.survey"]) == ["iqgalois.survey"]


def test_every_export_resolves_and_is_listed():
    names = [*iqgalois.__all__, "survey"]
    for name in names:
        assert getattr(iqgalois, name) is not None, name
    assert iqgalois.scan is iqgalois.survey.scan
    star: dict = {}
    exec("from iqgalois import *", star)
    assert set(iqgalois.__all__) <= set(star)
    assert set(names) <= set(dir(iqgalois))
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        iqgalois.nothing
