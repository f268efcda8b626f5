"""Byte-identity gate: sha256 digests of CLI output pinned from a known-good tree.

Any change to `scan` CSV, survey JSON or `classify --json` output shows up
here.  The primes list is deliberately unsorted: rows are keyed by sorted,
deduplicated primes.  The generator digest pins the ring elements behind
the verdicts, not only the verdicts: a change to the ideal products that
kept every class but moved a generator would show up there.  The classify
records of the 240 fields of perfbench/classify_pool.json (D = -q, q near
1.1e8) must keep the h and the digest of compact sorted JSON stored there.
"""

import hashlib
import json
from pathlib import Path

import pytest

from iqgalois.classify import classify
from iqgalois.cli import main
from iqgalois.idealgen import explicit_power_generator
from iqgalois.verify import generator_jobs

CLASSIFY_DIGESTS = {
    -4: "540e809eb215af20431a411a2b86fc58fbaca9682a9bc86d78bd549d81c6122f",
    -8: "4b01a86217dca247dc5c56639f277915d7a3fa71211782eb663ad05cd671ad6b",
    -107: "9218083612d7b4c3a3dced9350127c9038022bb61458d6956d07413eaabb08b1",
    -420: "8dd046669a3cd750a3e4dceea3b54b1aeb39f0b0b7ebd5fbd74203c28f90bb12",
    -455: "5dba5d5f9d89c0b68307e949768a6fe9f4bbb7d939f634c3dc8e98239c23d764",
    # |D| > 200,000: pinned when h came from the heuristic prime-form subgroup
    # count; class_number's exact count must leave them unchanged
    -200003: "5a47a24ff8496e86b6175afceb0b11a299edd1dbabe95043a4d1692fdfea3085",
    -200063: "b12b10d01b55f0a0f406eb7f988587dbb1aca5923820c692e09b778a450c0e7e",
    -202243: "ae591414babc6682bc5348127c83b73c22efc23fbadd94bfb60036a9e40ac1fe",
}


def _file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_golden_survey_csv_unsorted_primes(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["survey", "--max", "30000", "--primes", "7,3,2,5", "--out", str(out)]) == 0
    assert _file_digest(out) == "617d9d4f0183d35f7588d4f9cb2dd6536a3fd49536e50e63422bedb677b6d770"


def test_golden_survey_json(tmp_path):
    out = tmp_path / "rows.json"
    assert main(["survey", "--max", "2000", "--format", "json", "--out", str(out)]) == 0
    assert _file_digest(out) == "22fe42508c09acc472120c7c62a042c7dadbd769166afe1af8169260fda7e828"


@pytest.mark.parametrize("D", sorted(CLASSIFY_DIGESTS))
def test_golden_classify_json(D, capsys):
    assert main(["classify", "-d", str(D), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_DIGESTS[D]


def test_golden_torsion_power_generators():
    # (D, p, u, v) of every explicit generator at odd p over the fundamental
    # |D| < 20,000; verify.generators checks the compact images against them
    data = []
    for d, form, p in generator_jobs(3, 20_000):
        alpha = explicit_power_generator(form, p)
        data.append([d.value, p, alpha.u, alpha.v])
    blob = json.dumps(data, separators=(",", ":")).encode()
    assert len(data) == 6185
    assert hashlib.sha256(blob).hexdigest() == (
        "33198363c1f98f8a5b1d6b4bef6fe3f6aa04d09769174897d5c69ed1b066984c"
    )


def test_golden_classify_pool():
    pool = Path(__file__).resolve().parent.parent / "perfbench" / "classify_pool.json"
    fields = json.loads(pool.read_text())["fields"]
    assert len(fields) == 240
    for entry in fields:
        record = classify(-entry["q"])
        blob = json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":")).encode()
        assert (record.h, hashlib.sha256(blob).hexdigest()) == (entry["h"], entry["sha256"])
