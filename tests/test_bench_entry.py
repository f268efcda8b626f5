"""The bench harness loads a second checkout beside this one and gates the digests.

Every bench script measures through bench/_entry.run, which is loaded by
path like the scripts load it.  A measure whose libraries disagree on a
*_sha256 field must end the run with no BENCH document on stdout.  Every
timed call runs with the cyclic collector paused, restored after it.  Each
bench script, shrunk to a tiny band, must still run end to end against this
checkout: they reach private library names that a rename could break.
"""

import gc
import importlib.util
import json
import statistics
import sys
from pathlib import Path

import pytest

import iqgalois

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def entry(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_entry", REPO / "bench" / "_entry.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["bench", "--parent", str(REPO)])
    yield module
    for name in [name for name in sys.modules if name.startswith("iqgalois_parent")]:
        del sys.modules[name]


def fake_measure(parent_digest: str, parent_passes=(0.1,), change_passes=(0.1,)):
    def measure(libs):
        def block(lib, digest, passes):
            h = lib.quadform.class_number(-23)
            median = statistics.median(passes)
            return {"D": -23, "h": h, "x_sha256": digest, "median_s": median, "passes_s": passes}

        return {
            "parent": [block(libs["parent"], parent_digest, list(parent_passes))],
            "change": [block(libs["change"], "a", list(change_passes))],
        }

    return measure


def test_load_parent_gives_a_second_package(entry):
    parent = entry.load_parent(REPO)
    assert parent.__name__ == "iqgalois_parent"
    assert parent.quadform is not iqgalois.quadform
    assert parent.quadform.__name__ == "iqgalois_parent.quadform"
    assert parent.quadform.class_number(-23) == 3


def test_unequal_digests_exit_without_json(entry, capsys):
    with pytest.raises(SystemExit) as stop:
        entry.run("doc", "layer", fake_measure("b"))
    assert stop.value.code not in (0, None)
    assert capsys.readouterr().out == ""


def test_equal_digests_print_both_entries(entry, capsys):
    entry.run("doc", "layer", fake_measure("a"))
    captured = capsys.readouterr()
    document = json.loads(captured.out)
    assert document["layer"] == "layer"
    assert set(document["entries"]) == {"parent", "change"}
    for record in document["entries"].values():
        assert record["blocks"] == [
            {"D": -23, "h": 3, "x_sha256": "a", "median_s": 0.1, "passes_s": [0.1]}
        ]
    assert "change faster in 0/1 passes" in captured.err


@pytest.mark.parametrize(
    "change_passes, spread",
    [
        # medians 1.15 and 1.25 differ by 0.1, inside the parent's IQR 0.15
        ((1.1, 1.2, 1.3, 1.4), "inside"),
        # medians 1.15 and 0.65 differ by 0.5
        ((0.5, 0.6, 0.7, 0.8), "outside"),
    ],
)
def test_report_gives_each_spread_and_compares_with_the_parents(
    entry, capsys, change_passes, spread
):
    entry.run("doc", "layer", fake_measure("a", (1.0, 1.1, 1.2, 1.3), change_passes))
    err = capsys.readouterr().err
    assert "IQR 0.15 -> 0.15 s" in err
    assert f"{spread} the parent's spread" in err


def test_timed_calls_pause_the_collector_and_restore_it(entry):
    seen = []

    def probe():
        seen.append(gc.isenabled())

    assert gc.isenabled()
    entry.timed_alternating([probe, probe], 2)
    assert seen == [False] * 4 and gc.isenabled()
    gc.disable()
    try:
        entry.timed_alternating([probe], 1)
        assert not gc.isenabled()
    finally:
        gc.enable()

    def failing():
        raise RuntimeError("injected")

    with pytest.raises(RuntimeError, match="injected"):
        entry.timed_alternating([probe, failing], 1)
    assert gc.isenabled()


def test_sub_millisecond_passes_keep_their_spread(entry, capsys):
    # passes 100-130 us: the parent's interquartile range is 15 us, not 0
    passes = (0.00010, 0.00011, 0.00012, 0.00013)
    entry.run("doc", "layer", fake_measure("a", passes, passes))
    assert "IQR 1.5e-05 -> 1.5e-05 s" in capsys.readouterr().err


# the size constants of each bench script, shrunk so that all seven run in seconds
TINY = {
    "sieve": {"BLOCKS": ((10**6, 300), (10**7 + 1, 7)), "REPEATS": 1},
    "classgroup": {"STARTS": (10**6,), "WIDTH": 300, "REPEATS": 1},
    "scan": {"STARTS": (10**6,), "WIDTH": 300, "REPEATS": 1},
    "classnumber": {"FIELDS": (-100000007,), "REPEATS": 1},
    "tables": {"BOUNDS": (20000,), "REPEATS": 1},
    "startup": {"FIELDS": (-23,), "REPEATS": 1},
    "generator": {
        "BANDS": ((10**6, 10**6 + 300),),
        "REPEATS": 1,
        "CLASSIFY": (-100000007,),
        "CLASSIFY_REPEATS": 1,
    },
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_bench_script_runs_on_a_tiny_band(entry, monkeypatch, capsys, name):
    # the script imports _entry as it does when run from bench/: it gets the fixture's module
    monkeypatch.syspath_prepend(str(REPO / "bench"))
    monkeypatch.setitem(sys.modules, "_entry", entry)
    spec = importlib.util.spec_from_file_location(f"bench_{name}", REPO / "bench" / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    for constant, value in TINY[name].items():
        monkeypatch.setattr(script, constant, value)  # raises if the script lost the name
    script.run(script.__doc__, name, script.measure)
    document = json.loads(capsys.readouterr().out)
    assert document["layer"] == name
    blocks = [record["blocks"] for record in document["entries"].values()]
    assert len(blocks) == 2 and blocks[0] and len(blocks[0]) == len(blocks[1])
