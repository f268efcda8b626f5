import hashlib
import itertools
import json
import multiprocessing
import os
import signal
import time
import tracemalloc
from concurrent import futures
from concurrent.futures import Future, ProcessPoolExecutor

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
    persist,
    scan,
    single_factor_fields,
    table1,
    table3,
)


def test_fundamental_mask_matches_validate():
    for lo, hi in ((3, 2000), (10**6, 10**6 + 20_000)):
        mask = fundamental_mask(lo, hi)
        for i, m in enumerate(range(lo, hi)):
            try:
                validate(-m)
                ok = True
            except (NotFundamental, NotImaginary):
                ok = False
            assert bool(mask[i]) == ok, m
    # both squarefree failures keep their own message
    with pytest.raises(NotFundamental, match=r"^D = -75 is not squarefree"):
        validate(-75)
    with pytest.raises(NotFundamental, match=r"^D/4 = -18 is not squarefree"):
        validate(-72)


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
        SurveyConfig(d_min=11, d_max=10)


def test_scan_of_one_discriminant():
    # the range is closed: d_min = d_max = 3 is the field of D = -3 alone
    rows = list(scan(SurveyConfig(d_min=3, d_max=3)))
    assert [r.record.discriminant for r in rows] == [-3]
    assert rows == list(scan(SurveyConfig(d_min=3, d_max=4)))[:1]


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


def test_csv_format(csv_bytes):
    rows = list(scan(SurveyConfig(d_min=3, d_max=120, primes=(2, 3))))
    lines = csv_bytes(rows).decode().splitlines()
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


def test_worker_invariance_small(csv_bytes):
    base = csv_bytes(scan(SurveyConfig(d_min=3, d_max=12000, primes=(2, 3))))
    multi = csv_bytes(scan(SurveyConfig(d_min=3, d_max=12000, primes=(2, 3), workers=3)))
    assert base == multi


def _record_pool_sizes(monkeypatch, cpus: int) -> list[int]:
    """Replace the process pool by an in-process fake that records max_workers.

    The host reports `cpus` CPUs; no process is started.
    """
    seen = []

    class RecordingPool:
        def __init__(self, max_workers, **options):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(survey, "BLOCK_SIZE", 100)
    # _pooled_blocks imports the pool class from concurrent.futures as it starts one
    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(survey.os, "cpu_count", lambda: cpus)
    return seen


def test_pool_never_exceeds_pending_blocks(monkeypatch, csv_bytes):
    # workers=8 on a two-block band must not start six idle processes
    seen = _record_pool_sizes(monkeypatch, cpus=8)
    config = SurveyConfig(d_min=3, d_max=150, primes=(2, 3), workers=8)
    rows = csv_bytes(scan(config))
    assert seen == [2]
    assert rows == csv_bytes(scan(SurveyConfig(d_min=3, d_max=150, primes=(2, 3))))


def test_pool_never_exceeds_cpu_count(monkeypatch, csv_bytes):
    # the pool starts all its processes at once, min(workers, blocks) of
    # them; a huge --workers must stop at the CPUs
    seen = _record_pool_sizes(monkeypatch, cpus=2)
    config = SurveyConfig(d_min=3, d_max=250, primes=(2, 3), workers=10**6)
    rows = csv_bytes(scan(config))
    assert seen == [2]
    assert rows == csv_bytes(scan(SurveyConfig(d_min=3, d_max=250, primes=(2, 3))))


@pytest.mark.parametrize("workers", [1, 2])
def test_first_row_of_the_largest_range_comes_at_once(workers, monkeypatch):
    # [3, 1e13] is 1e9 blocks: the scan must start on the first without
    # listing the rest, in the parent process of a pool too
    peaks = []

    def setup_over() -> None:  # when the first block starts or is submitted
        if not peaks:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    if workers == 1:
        scan_block = survey._scan_block
        monkeypatch.setattr(survey, "_scan_block", lambda args: setup_over() or scan_block(args))
    else:

        class Pool(ProcessPoolExecutor):
            def submit(self, fn, *args):
                setup_over()
                return super().submit(fn, *args)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", Pool)

    def expire(signum, frame):
        raise TimeoutError("no first row within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        start = time.perf_counter()
        tracemalloc.start()
        rows = scan(SurveyConfig(d_min=3, d_max=10**13, workers=workers))
        first = next(rows)
        elapsed = time.perf_counter() - start
        rows.close()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        tracemalloc.stop()
    assert first.record.discriminant == -3 and elapsed < 5
    assert peaks[0] < 1 << 20, peaks
    # closing a pooled scan early stops its processes
    assert multiprocessing.active_children() == []


def test_pool_keeps_two_blocks_per_worker_submitted(monkeypatch):
    # blocks are drawn as rows are taken: at most 2 * workers ahead
    submitted = []

    class Pool(ProcessPoolExecutor):
        def submit(self, fn, args):
            submitted.append(args[0])
            return super().submit(fn, args)

    monkeypatch.setattr(survey, "BLOCK_SIZE", 100)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(survey.os, "cpu_count", lambda: 2)
    config = SurveyConfig(d_min=3, d_max=10**6, primes=(2, 3), workers=2)
    rows = scan(config)
    first = [next(rows) for _ in range(len(class_numbers_range(3, 103)))]
    assert submitted == [3, 103, 203, 303]
    rows.close()
    assert submitted == [3, 103, 203, 303]
    assert multiprocessing.active_children() == []
    assert first == list(scan(SurveyConfig(d_min=3, d_max=102, primes=(2, 3))))


# The first, middle and last blocks of `survey --min 3 --max 10000000`, with
# the sha256 of the CSV that persist writes for each block's rows (primes
# 2, 3, 5, 7); the digests were computed before the sieve's mask was rewritten.
CENSUS_BLOCKS = [
    (3, 10_003, "c30cb33f41c09ff9865cf5b4d1a483711f68494b3ab3dc20a4e62224f7ce87f1"),
    (5_000_003, 5_010_003, "90fe396dff7f222664969d897146535d8e6109e7261efe5813237e7b5f1dd094"),
    (9_990_003, 10_000_001, "cd5745b034c4317e9d6f0780f0334511f9cf57a3cdd8eab6062e5be4662bbe1c"),
]


@pytest.mark.parametrize("lo, hi, digest", CENSUS_BLOCKS)
def test_census_block_matches_pinned_digest(lo, hi, digest, csv_bytes):
    rows = csv_bytes(survey._scan_block((lo, hi, (2, 3, 5, 7))))
    assert hashlib.sha256(rows).hexdigest() == digest


def test_checkpoint_line_is_the_sorted_json_dump():
    # local-behaviour keys past 7 sort as strings ("11" before "2"); the last
    # block holds rank overflows (-3321607 at 3)
    rows = survey._scan_block((3, 20_003, (2, 3, 5, 7, 11, 13)))
    rows += survey._scan_block((3321600, 3321700, (2, 3, 5, 7)))
    assert [r.record.discriminant for r in rows[:4]] == [-3, -4, -7, -8]
    assert any(tag == "rank_overflow" for r in rows for _, tag in r.record.per_prime)
    for row in rows:
        line = json.dumps(row.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        assert survey._checkpoint_line(row) == line


def test_checkpoint_resume_byte_identical(tmp_path, csv_bytes):
    ck = str(tmp_path / "ckpt")
    cfg = dict(d_min=3, d_max=25000, primes=(2, 3))
    # stop after the rows of the first block: the simulated interruption
    first_block = len(class_numbers_range(3, 10_003))
    partial = list(itertools.islice(scan(SurveyConfig(**cfg, checkpoint_path=ck)), first_block))
    assert len(partial) == first_block
    assert os.path.exists(ck) and os.path.exists(ck + ".rows")
    resumed = csv_bytes(scan(SurveyConfig(**cfg, checkpoint_path=ck)))
    clean = csv_bytes(scan(SurveyConfig(**cfg)))
    assert resumed == clean


def test_checkpoint_torn_write_keeps_finished_blocks(tmp_path, monkeypatch, csv_bytes):
    # a crash after the rows append but before the state file is replaced
    # leaves bytes past rows_bytes; the finished blocks must survive
    ck = str(tmp_path / "ckpt")
    config = SurveyConfig(d_min=3, d_max=25000, primes=(2,), checkpoint_path=ck)
    list(itertools.islice(scan(config), len(class_numbers_range(3, 20_003))))
    with open(ck + ".rows", "a", encoding="utf-8") as fh:
        fh.write('{"discriminant":-20003,"h":1}\n{"torn')
    computed = []
    scan_block = survey._scan_block
    monkeypatch.setattr(survey, "_scan_block", lambda b: computed.append(b) or scan_block(b))
    resumed = csv_bytes(scan(config))
    assert [lo for lo, _, _ in computed] == [20003]  # blocks 1 and 2 were kept
    clean = csv_bytes(scan(SurveyConfig(d_min=3, d_max=25000, primes=(2,))))
    assert resumed == clean


def test_checkpoint_resume_streams_stored_rows(tmp_path, monkeypatch):
    # a resume decodes the stored rows as it yields them, not all up front
    monkeypatch.setattr(survey, "BLOCK_SIZE", 100)
    ck = str(tmp_path / "ckpt")
    config = SurveyConfig(d_min=3, d_max=302, primes=(2, 3), checkpoint_path=ck)
    clean = list(scan(config))
    with open(ck, encoding="utf-8") as fh:
        assert "blocks_done=3\n" in fh.read()
    calls = []
    from_dict = survey.SurveyRow.from_dict
    counting = classmethod(lambda cls, data: calls.append(1) or from_dict(data))
    monkeypatch.setattr(survey.SurveyRow, "from_dict", counting)
    resumed = scan(config)
    assert next(resumed) == clean[0]
    assert len(calls) == 1
    assert [clean[0], *resumed] == clean and len(calls) == len(clean)


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


def _change_one_rows_byte(ck: str) -> None:
    with open(ck + ".rows", "r+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        fh.seek(size // 2)
        byte = fh.read(1)
        fh.seek(size // 2)
        fh.write(b"1" if byte == b"0" else b"0")
    assert os.path.getsize(ck + ".rows") == size


def _spoil_rows_bytes(ck: str) -> None:
    with open(ck, encoding="utf-8") as fh:
        state = fh.read()
    with open(ck, "w", encoding="utf-8") as fh:
        fh.write(state.replace("rows_bytes=", "rows_bytes=x"))


@pytest.mark.parametrize("spoil", [_change_one_rows_byte, _spoil_rows_bytes])
def test_checkpoint_bad_digest_or_length_restarts(spoil, tmp_path, monkeypatch, csv_bytes):
    # a rows file of the vouched length whose digest differs, or a rows_bytes
    # that is no integer: the scan starts again from its first block
    monkeypatch.setattr(survey, "BLOCK_SIZE", 100)
    ck = str(tmp_path / "ckpt")
    config = SurveyConfig(d_min=3, d_max=302, primes=(2, 3), checkpoint_path=ck)
    list(itertools.islice(scan(config), len(class_numbers_range(3, 203))))
    spoil(ck)
    computed = []
    scan_block = survey._scan_block
    monkeypatch.setattr(survey, "_scan_block", lambda b: computed.append(b) or scan_block(b))
    resumed = csv_bytes(scan(config))
    assert [lo for lo, _, _ in computed] == [3, 103, 203]
    assert resumed == csv_bytes(scan(SurveyConfig(d_min=3, d_max=302, primes=(2, 3))))


def test_checkpoint_config_mismatch_restarts(tmp_path):
    ck = str(tmp_path / "ckpt")
    list(scan(SurveyConfig(d_min=3, d_max=9000, primes=(2,), checkpoint_path=ck)))
    # different range: the stale checkpoint must not leak rows
    rows = list(scan(SurveyConfig(d_min=3, d_max=400, primes=(2,), checkpoint_path=ck)))
    assert max(-r.record.discriminant for r in rows) <= 400


def test_persist_round_trip(tmp_path, csv_bytes):
    rows = list(scan(SurveyConfig(d_min=3, d_max=400, primes=(2, 3))))
    path = str(tmp_path / "rows.json")
    assert persist(rows, path, "json") == len(rows)
    with open(path, encoding="utf-8") as fh:
        assert [survey.SurveyRow.from_dict(obj) for obj in json.load(fh)] == rows
    csv_path = str(tmp_path / "rows.csv")
    assert persist(iter(rows), csv_path, "csv") == len(rows)
    with open(csv_path, "rb") as fh:
        assert fh.read() == csv_bytes(rows)


def test_persist_bad_path_and_format(tmp_path):
    rows = list(scan(SurveyConfig(d_min=3, d_max=200)))
    with pytest.raises(OSError):
        persist(rows, str(tmp_path / "missing" / "x.csv"), "csv")
    with pytest.raises(InvalidConfig):
        persist(rows, str(tmp_path / "x.bin"), "parquet")
    assert list(tmp_path.iterdir()) == []


def test_persist_failed_stream_leaves_no_file(tmp_path):
    rows = list(scan(SurveyConfig(d_min=3, d_max=200, primes=(2,))))

    def failing():
        yield from rows
        raise ValueError("scan failed")

    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="scan failed"):
            persist(failing(), str(tmp_path / f"rows.{fmt}"), fmt)
    assert list(tmp_path.iterdir()) == []


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
    with pytest.raises(InvalidConfig):
        single_factor_fields(3, -1, 5)


def test_single_factor_fields_block_cap_and_early_stop(monkeypatch):
    calls = []
    real = survey.class_numbers_range
    monkeypatch.setattr(
        survey, "class_numbers_range", lambda lo, hi: calls.append((lo, hi)) or real(lo, hi)
    )
    monkeypatch.setattr(survey, "BLOCK_SIZE", 50)
    # 200 blocks, then the cap: far too few fields for the request
    with pytest.raises(InvalidConfig):
        single_factor_fields(3, 0, 10**6)
    assert len(calls) == 200 and calls[-1] == (9951, 10001)
    # enough fields in the first two blocks: no third sieve
    calls.clear()
    assert len(single_factor_fields(3, 1000, 7)) == 7
    assert len(calls) == 2


def whole_block_walk(p, lower_bound, n_fields):
    """single_factor_fields as a walk over whole BLOCK_SIZE blocks, the first n fields."""
    out = []
    start = lower_bound + 1
    for lo in range(start, start + 200 * survey.BLOCK_SIZE, survey.BLOCK_SIZE):
        for m, h in class_numbers_range(lo, lo + survey.BLOCK_SIZE):
            if h % p == 0 and h // p % p != 0:
                out.append((m, h))
                if len(out) == n_fields:
                    return out
    raise AssertionError("too few fields")


@pytest.mark.parametrize(
    "p, lower_bound, n_fields", [(3, 10**7, 100), (5, 10**6, 100), (7, 2000, 30), (3, 0, 1)]
)
def test_single_factor_fields_windows_match_whole_blocks(p, lower_bound, n_fields):
    expected = whole_block_walk(p, lower_bound, n_fields)
    assert single_factor_fields(p, lower_bound, n_fields) == expected


def test_table3_sieves_only_the_window_it_reads(monkeypatch):
    calls = []
    real = survey.class_numbers_range
    monkeypatch.setattr(
        survey, "class_numbers_range", lambda lo, hi: calls.append((lo, hi)) or real(lo, hi)
    )
    table3(3, 100, 10**7)
    assert calls[0][0] == 10**7 + 1
    assert all(prev[1] == nxt[0] for prev, nxt in zip(calls, calls[1:]))
    assert sum(hi - lo for lo, hi in calls) < survey.BLOCK_SIZE


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


def test_json_stream_matches_one_dump(tmp_path):
    # persist writes the JSON list row by row; the bytes are those of one dump
    rows = list(scan(SurveyConfig(d_min=3, d_max=30, primes=(2, 3))))
    for part in ([], rows[:1]):
        path = str(tmp_path / "r.json")
        assert persist(part, path, "json") == len(part)
        expected = json.dumps([row.to_dict() for row in part], indent=1, sort_keys=True) + "\n"
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == expected


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
