"""The bench harness loads a second checkout beside this one and gates the digests.

Every bench script measures through bench/_entry.run, which is loaded by
path like the scripts load it.  A measure whose libraries disagree on a
*_sha256 field must end the run with no BENCH document on stdout.
"""

import importlib.util
import json
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


def fake_measure(parent_digest: str):
    def measure(libs):
        def block(lib, digest):
            h = lib.quadform.class_number(-23)
            return {"D": -23, "h": h, "x_sha256": digest, "median_s": 0.1, "passes_s": [0.1]}

        return {
            "parent": [block(libs["parent"], parent_digest)],
            "change": [block(libs["change"], "a")],
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
