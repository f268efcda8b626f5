"""The bench harness loads a second checkout, gates the digests and pairs the timings.

Every bench script measures through bench/_entry.run, which is loaded by
path like the scripts load it.  A measure whose libraries disagree on a
*_sha256 field must end the run with no BENCH document on stdout.  Every
timing is judged by one rule, on its passes taken as pairs: "faster" or
"slower" only from at least 10 pairs, 9 in 10 of them won (or lost), and
a median gap past the parent's interquartile range.  Every timed call runs
with the cyclic collector paused, restored after it.  counted() wraps library
globals only while its function runs.  Each bench script,
shrunk to a tiny band, must still run end to end against this checkout:
they reach private library names that a rename could break.
"""

import gc
import importlib.util
import json
import statistics
import sys
import types
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
    block = {"D": -23, "h": 3, "x_sha256": "a", "median_s": 0.1, "passes_s": [0.1]}
    assert document["entries"]["parent"]["blocks"] == [block]
    paired = {"paired_ratio_median": 1.0, "paired_wins": "0/1", "verdict": "unresolved"}
    assert document["entries"]["change"]["blocks"] == [{**block, **paired}]
    assert "change won 0/1 pairs: unresolved" in captured.err


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
    assert f"gap {spread} the parent's IQR" in err


# ten parent passes: median 1.045 s, interquartile range 0.045 s
PARENT = [1.0 + 0.01 * i for i in range(10)]


@pytest.mark.parametrize(
    "parent, change, wins, verdict",
    [
        # every pair won, the medians 0.1 apart: past the parent's IQR
        (PARENT, [p - 0.1 for p in PARENT], "10/10", "faster"),
        (PARENT, [p + 0.1 for p in PARENT], "0/10", "slower"),
        # 9 of 10 won, but the medians only 0.01 apart: inside the parent's IQR
        (PARENT, [p - 0.01 for p in PARENT[:9]] + [PARENT[9] + 0.01], "9/10", "unresolved"),
        # won and lost in turn
        (
            PARENT,
            [p + (0.1 if i % 2 else -0.1) for i, p in enumerate(PARENT)],
            "5/10",
            "unresolved",
        ),
        # every pair won, but fewer than 10 pairs
        (PARENT[:9], [p - 0.1 for p in PARENT[:9]], "9/9", "unresolved"),
    ],
)
def test_pairs_are_judged_by_the_acceptance_rule(entry, parent, change, wins, verdict):
    fields, line = entry.paired(parent, change)
    assert fields["paired_wins"] == wins and fields["verdict"] == verdict
    assert line.endswith(f"change won {wins} pairs: {verdict}")


def test_a_parent_pass_of_0_is_a_tie_and_stays_out_of_the_ratio(entry):
    parent = [0.0] + PARENT[1:]
    change = [0.000001] + [p - 0.1 for p in PARENT[1:]]
    fields, _ = entry.paired(parent, change)
    # 9 won and one tie: no loss, so 9 in 10 and a gap past the IQR read faster
    assert fields["paired_wins"] == "9/10" and fields["verdict"] == "faster"
    ratios = [(p - 0.1) / p for p in PARENT[1:]]
    assert fields["paired_ratio_median"] == round(statistics.median(ratios), 4)


def test_nested_and_flat_timings_get_their_own_paired_fields(entry, capsys):
    def measure(libs):
        def blocks(shift):
            passes = [p + shift for p in PARENT]
            timing = {"median_s": statistics.median(passes), "passes_s": passes}
            # a flat block (as startup's) and a block with a nested timing (as classgroup's)
            return [{"run": "setup", **timing}, {"start": 1, "class_group": dict(timing)}]

        return {"parent": blocks(0.0), "change": blocks(-0.1)}

    entry.run("doc", "layer", measure)
    captured = capsys.readouterr()
    entries = json.loads(captured.out)["entries"]
    flat, nested = entries["change"]["blocks"]
    for timing in (flat, nested["class_group"]):
        assert timing["paired_wins"] == "10/10" and timing["verdict"] == "faster"
        assert timing["paired_ratio_median"] < 1
    assert "verdict" not in nested
    assert all("verdict" not in block for block in entries["parent"]["blocks"])
    lines = captured.err.splitlines()  # one per timing
    assert [line.split(":")[0] for line in lines] == ["run=setup", "start=1 class_group"]
    assert all(line.endswith("change won 10/10 pairs: faster") for line in lines)


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


def counting_targets(entry):
    """An owner with two functions and a class with a method, and counted() targets on them."""

    class Walks:
        def start(self, rows):
            return len(rows)

    owner = types.SimpleNamespace(kernel=lambda a, n: a * n, other=lambda: None)
    targets = [
        ("calls", owner, "kernel", lambda args: 1),
        # a second label on one attribute, as _power_lanes counts calls and lanes
        ("lanes", owner, "kernel", lambda args: args[0]),
        # a second attribute on one label, as state_products counts two functions
        ("lanes", Walks, "start", lambda args: len(args[1])),
        ("unused", owner, "other", lambda args: 1),
    ]
    return owner, Walks, targets


def test_counted_adds_each_weight_to_its_label(entry):
    owner, Walks, targets = counting_targets(entry)

    def fn():
        assert owner.kernel(3, 2) == 6 and owner.kernel(4, 1) == 4
        assert Walks().start([1, 2]) == 2

    assert entry.counted(fn, targets) == {"calls": 2, "lanes": 3 + 4 + 2, "unused": 0}


def test_counted_restores_every_original_also_when_fn_raises(entry):
    owner, Walks, targets = counting_targets(entry)

    def attributes():
        return owner.kernel, owner.other, Walks.start

    originals = attributes()

    def failing():
        owner.kernel(1, 1)
        raise RuntimeError("injected")

    assert entry.counted(lambda: None, targets) == {"calls": 0, "lanes": 0, "unused": 0}
    assert all(now is before for now, before in zip(attributes(), originals))
    with pytest.raises(RuntimeError, match="injected"):
        entry.counted(failing, targets)
    assert all(now is before for now, before in zip(attributes(), originals))


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
    "tables": {"BOUNDS": (20000,), "REPEATS": 1, "TABLE1": ((7, 3000),)},
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
