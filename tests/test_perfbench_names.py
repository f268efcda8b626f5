"""The library names that perfbench's tracer and workloads call must exist.

perfbench reaches into iqgalois by name from outside the package, so a
renamed or deleted function breaks `perfbench/run.py --trace` with no
failure anywhere else.  tracer.py imports only the standard library and is
loaded by path.
"""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# what perfbench/workloads.py calls, and the compose that tracer.counting_compose wraps
CALLED = {
    "survey": ("SurveyConfig", "scan", "persist", "table3", "BLOCK_SIZE"),
    "quadform": ("enumerate_reduced_forms", "compose"),
    "discriminant": ("validate",),
    "localtest": ("two_direct_check",),
    "classify": ("classify",),
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_and_called_names_resolve():
    tracer = _tracer()
    wanted = [
        (module, name)
        for table in (tracer.SPANNED, tracer.COUNTED, CALLED)
        for module, names in table.items()
        for name in names
    ]
    missing = [
        f"iqgalois.{module}.{name}"
        for module, name in wanted
        if not hasattr(importlib.import_module(f"iqgalois.{module}"), name)
    ]
    assert not missing, missing
