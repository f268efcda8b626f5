import json
import os

import pytest

from iqgalois import survey
from iqgalois.discriminant import NotFundamental, NotImaginary, validate
from iqgalois.quadform import enumerate_reduced_forms
from iqgalois.survey import (
    CSV_HEADER,
    InvalidConfig,
    SurveyConfig,
    class_numbers_range,
    fundamental_mask,
    independence_probe,
    persist,
    read_rows,
    rows_to_csv,
    scan,
    single_factor_fields,
    table1,
    table3,
)


def test_fundamental_mask_matches_validate():
    mask = fundamental_mask(3, 2000)
    for i, m in enumerate(range(3, 2000)):
        try:
            validate(-m)
            ok = True
        except (NotFundamental, NotImaginary):
            ok = False
        assert bool(mask[i]) == ok, m


def test_bulk_class_numbers_match_enumeration():
    for m, h in class_numbers_range(3, 1500):
        assert h == len(enumerate_reduced_forms(-m)), m


def test_bulk_class_numbers_block_boundaries():
    whole = dict(class_numbers_range(3, 25000))
    split_up = {}
    for lo in (3, 9000, 10000, 20000):
        hi = {3: 9000, 9000: 10000, 10000: 20000, 20000: 25000}[lo]
        split_up.update(dict(class_numbers_range(lo, hi)))
    assert whole == split_up


def test_scan_example_ranges():
    rows = list(scan(SurveyConfig(d_min=3, d_max=500, primes=(2,))))
    h2 = [r for r in rows if r.record.h == 2]
    assert len(h2) == 18
    noninjective = [r for r in h2 if r.record.status_at(2) == "noninjective"]
    assert len(noninjective) == 10
    rows1000 = list(scan(SurveyConfig(d_min=3, d_max=1000, primes=(3,))))
    assert sum(1 for r in rows1000 if r.record.h == 3) == 16
    # rows stream in ascending |D|
    ds = [-r.record.discriminant for r in rows1000]
    assert ds == sorted(ds)


def test_scan_rejects_empty_range():
    with pytest.raises(InvalidConfig):
        SurveyConfig(d_min=10, d_max=10)


def test_config_rejects_composite_primes_and_sorts():
    with pytest.raises(InvalidConfig):
        SurveyConfig(primes=(2, 4))
    with pytest.raises(InvalidConfig):
        SurveyConfig(primes=(1,))
    assert SurveyConfig(primes=(7, 2, 2)).primes == (2, 7)


def test_table3_rejects_composite_p():
    # a composite p used to hang in Tonelli-Shanks instead of failing
    with pytest.raises(InvalidConfig):
        table3(4, 10, 5000)


def test_scan_range_without_fields_is_empty():
    # a valid range containing no fundamental discriminant yields no rows
    assert list(scan(SurveyConfig(d_min=5, d_max=6))) == []


def test_table2_rejects_zero_sample():
    # the Table 2 census is table3(...).overall
    with pytest.raises(InvalidConfig):
        table3(3, 0, 1000)


def test_csv_format():
    rows = list(scan(SurveyConfig(d_min=3, d_max=120, primes=(2, 3))))
    lines = rows_to_csv(rows)
    assert lines[0] == CSV_HEADER
    assert lines[0] == "D,h,class_group,two_rank,p,local_behavior,status,verdict,assumes_converse"
    by_d = {}
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 9
        by_d.setdefault(int(fields[0]), []).append(fields)
    # -84 has class group C2 x C2: factors joined by 'x'
    assert by_d[-84][0][2] == "2x2"
    assert by_d[-3][0][2] == "1"
    # every field appears once per tracked prime
    assert all(len(v) == 2 for v in by_d.values())


def test_worker_invariance_small():
    base = rows_to_csv(scan(SurveyConfig(d_min=3, d_max=12000, primes=(2, 3))))
    multi = rows_to_csv(scan(SurveyConfig(d_min=3, d_max=12000, primes=(2, 3), workers=3)))
    assert base == multi


def test_checkpoint_resume_byte_identical(tmp_path):
    ck = str(tmp_path / "ckpt")
    cfg = dict(d_min=3, d_max=25000, primes=(2, 3))
    partial = list(scan(SurveyConfig(**cfg, checkpoint_path=ck), _max_blocks=1))
    assert partial  # one block processed before the simulated interruption
    assert os.path.exists(ck) and os.path.exists(ck + ".rows")
    resumed = rows_to_csv(scan(SurveyConfig(**cfg, checkpoint_path=ck)))
    clean = rows_to_csv(scan(SurveyConfig(**cfg)))
    assert resumed == clean


def test_checkpoint_torn_write_keeps_finished_blocks(tmp_path, monkeypatch):
    # a crash after the rows append but before the state file is replaced
    # leaves bytes past rows_bytes; the finished blocks must survive
    ck = str(tmp_path / "ckpt")
    config = SurveyConfig(d_min=3, d_max=25000, primes=(2,), checkpoint_path=ck)
    list(scan(config, _max_blocks=2))
    with open(ck + ".rows", "a", encoding="utf-8") as fh:
        fh.write('{"discriminant":-20003,"h":1}\n{"torn')
    computed = []
    scan_block = survey._scan_block
    monkeypatch.setattr(survey, "_scan_block", lambda b: computed.append(b) or scan_block(b))
    resumed = rows_to_csv(scan(config))
    assert [lo for lo, _, _ in computed] == [20003]  # blocks 1 and 2 were kept
    clean = rows_to_csv(scan(SurveyConfig(d_min=3, d_max=25000, primes=(2,))))
    assert resumed == clean


def test_checkpoint_rejects_short_rows_and_old_version(tmp_path):
    ck = str(tmp_path / "ckpt")
    config = SurveyConfig(d_min=3, d_max=2000, primes=(2,), checkpoint_path=ck)
    list(scan(config))
    with open(ck, encoding="utf-8") as fh:
        state = fh.read()
    assert state.startswith("version=2\n")
    with open(ck, "w", encoding="utf-8") as fh:
        fh.write(state.replace("version=2", "version=1"))
    assert survey._Checkpoint(ck, config).load() is None
    with open(ck, "w", encoding="utf-8") as fh:
        fh.write(state)
    size = os.path.getsize(ck + ".rows")
    os.truncate(ck + ".rows", size - 1)
    assert survey._Checkpoint(ck, config).load() is None


def test_checkpoint_config_mismatch_restarts(tmp_path):
    ck = str(tmp_path / "ckpt")
    list(scan(SurveyConfig(d_min=3, d_max=9000, primes=(2,), checkpoint_path=ck)))
    # different range: the stale checkpoint must not leak rows
    rows = list(scan(SurveyConfig(d_min=3, d_max=400, primes=(2,), checkpoint_path=ck)))
    assert max(-r.record.discriminant for r in rows) <= 400


def test_persist_round_trip(tmp_path):
    rows = list(scan(SurveyConfig(d_min=3, d_max=400, primes=(2, 3))))
    path = str(tmp_path / "rows.json")
    persist(rows, path, "json")
    assert read_rows(path, "json") == rows
    csv_path = str(tmp_path / "rows.csv")
    persist(rows, csv_path, "csv")
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines == rows_to_csv(rows)


def test_persist_bad_path_and_format(tmp_path):
    rows = list(scan(SurveyConfig(d_min=3, d_max=200)))
    with pytest.raises(OSError):
        persist(rows, str(tmp_path / "missing" / "x.csv"), "csv")
    with pytest.raises(InvalidConfig):
        persist(rows, str(tmp_path / "x.bin"), "parquet")


def test_table1_rows():
    rows = table1(3, 1000)
    assert rows[3].count == 16 and rows[3].nonsplit == 13
    assert rows[3].split_discriminants == (107, 331, 643)
    assert rows[2].count == 18 and rows[2].nonsplit == 8


def test_single_factor_selection():
    fields = single_factor_fields(3, 2000, 25)
    assert len(fields) == 25
    for m, h in fields:
        assert m > 2000 and h % 3 == 0 and h % 9 != 0
    with pytest.raises(InvalidConfig):
        single_factor_fields(3, 1000, 0)


def test_table2_smoke():
    r = table3(3, 40, 20000)
    assert r.n_fields == 40 and 0.0 <= r.overall <= 3.0


def test_table3_smoke_and_absent_stratum():
    r = table3(3, 30, 20000)
    assert set(r.by_behavior) == {"split", "inert", "ramified"}
    assert sum(r.counts.values()) == 30
    # a tiny sample usually misses a stratum; absent must be None, not zero
    tiny = table3(7, 2, 3000)
    for tag, value in tiny.by_behavior.items():
        if tiny.counts[tag] == 0:
            assert value is None


def test_independence_probe_runs():
    rows = list(scan(SurveyConfig(d_min=3, d_max=15000, primes=(2, 3))))
    report = independence_probe(rows, 2, 3)
    assert report.n_fields > 50
    assert report.joint is not None and report.product is not None


def test_json_objects_mirror_record(tmp_path):
    rows = list(scan(SurveyConfig(d_min=3, d_max=200, primes=(2,))))
    path = str(tmp_path / "r.json")
    persist(rows, path, "json")
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    keys = {
        "discriminant", "h", "class_group", "two_rank",
        "per_prime", "verdict", "assumes_converse", "torsion", "local_behavior",
    }
    assert all(set(obj) == keys for obj in data)
