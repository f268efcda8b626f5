"""Byte-identity gate: sha256 digests of CLI output pinned from a known-good tree.

Any change to `scan` CSV, survey JSON or `classify --json` output shows up
here.  The primes list is deliberately unsorted: rows are keyed by sorted,
deduplicated primes.
"""

import hashlib

import pytest

from iqgalois.cli import main

CLASSIFY_DIGESTS = {
    -4: "540e809eb215af20431a411a2b86fc58fbaca9682a9bc86d78bd549d81c6122f",
    -8: "4b01a86217dca247dc5c56639f277915d7a3fa71211782eb663ad05cd671ad6b",
    -107: "9218083612d7b4c3a3dced9350127c9038022bb61458d6956d07413eaabb08b1",
    -420: "8dd046669a3cd750a3e4dceea3b54b1aeb39f0b0b7ebd5fbd74203c28f90bb12",
    -455: "5dba5d5f9d89c0b68307e949768a6fe9f4bbb7d939f634c3dc8e98239c23d764",
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
