"""The block passes of a scan block against the per-field routes they replace.

The local tags of survey._local_tags must be kronecker_at's, with a prime
past int64 on kronecker_at itself.  The groups that lanes.class_groups
assembles straight from (h, r) must be class_group's, every field that
fails a bulk condition must take _assemble, and a broken entry must raise
_assemble's message at its own field.  The fields that leave the array
lanes, and take class_group whole, are pinned per window by reason, and
so is the most kernel calls that class_groups may take per window.
_csv_lines must write the lines of the per-line f-string it replaced, kept
here as its oracle, and torsion_descriptor must share one generic
descriptor.
"""

import collections

import pytest

from iqgalois import lanes, quadform, survey
from iqgalois.arith import InvariantViolation, is_prime
from iqgalois.classify import classify_validated
from iqgalois.discriminant import GENERIC, SPECIAL2, TorsionDescriptor, kronecker_at
from iqgalois.discriminant import torsion_descriptor, validate
from iqgalois.lanes import WHOLE, class_groups
from iqgalois.quadform import class_group
from iqgalois.survey import class_numbers_range

WIDTH = survey.BLOCK_SIZE
RANGES = ((3, 20_000), (10**6, 10**6 + WIDTH), (10**7, 10**7 + WIDTH))
BIG = 2**63 + 29  # the first prime past int64


def _fields(lo: int, hi: int) -> list:
    return [(validate(-m), h) for m, h in class_numbers_range(lo, hi)]


@pytest.fixture(scope="module")
def blocks() -> list:
    return [_fields(lo, hi) for lo, hi in RANGES]


def test_local_tags_are_kronecker_at(blocks, monkeypatch):
    assert is_prime(BIG) and all(map(is_prime, (65537, 1000003)))
    primes = (2, 3, 5, 7, 65537, 1000003, BIG)
    calls = []
    scalar = survey.kronecker_at

    def recording(d, p):
        calls.append(p)
        return scalar(d, p)

    monkeypatch.setattr(survey, "kronecker_at", recording)
    for fields in blocks:
        ds = [d for d, _ in fields]
        calls.clear()
        got = survey._local_tags(ds, primes)
        # only the prime past int64 takes the scalar route, once per field
        assert calls == [BIG] * len(ds)
        assert got == [tuple((p, kronecker_at(d, p)) for p in primes) for d in ds]
    assert survey._local_tags(ds, ()) == [()] * len(ds)


def _recording_assembly(monkeypatch) -> tuple[list, list]:
    """Record the D of every _assemble call: class_group's, and that of class_groups apart too."""
    assembled, on_lanes = [], []
    assemble = quadform._assemble

    def recording(D, h, sylow):
        assembled.append(D)
        return assemble(D, h, sylow)

    def lane_recording(D, h, sylow):
        on_lanes.append(D)
        return recording(D, h, sylow)

    monkeypatch.setattr(quadform, "_assemble", recording)
    monkeypatch.setattr(lanes, "_assemble", lane_recording)
    return assembled, on_lanes


def test_bulk_assembly_is_class_group(blocks, monkeypatch):
    assembled, on_lanes = _recording_assembly(monkeypatch)
    for fields in blocks:
        assembled.clear()
        got = list(class_groups(fields))
        direct = len(fields) - len(assembled)
        assert direct > 0.9 * len(fields)
        assert got == [class_group(d, known_h=h) for d, h in fields]
    assert on_lanes


def test_fields_off_the_lanes_take_class_group_by_reason(blocks, monkeypatch):
    # per window, the walks of two generators that the odd lanes start and
    # the fields that take class_group whole, by reason; every group is
    # class_group's
    codes, walks = [], []
    lane_sylow, start = lanes._lane_sylow, lanes._Walks.start

    def recording(fields):
        out = lane_sylow(fields)
        codes.extend(out[1])
        return out

    def starting(self, rows):
        walks.append(rows.shape[1])
        return start(self, rows)

    monkeypatch.setattr(lanes, "_lane_sylow", recording)
    monkeypatch.setattr(lanes._Walks, "start", starting)
    counts = []
    for fields in blocks:
        codes.clear()
        walks.clear()
        assert list(class_groups(fields)) == [class_group(d, known_h=h) for d, h in fields]
        counts.append((sum(walks), collections.Counter(WHOLE[code] for code in codes if code)))
    assert counts == [
        (162, {"2-part": 52, "h = 1": 9}),
        (160, {"2-part": 84, "third generator": 7}),
        (186, {"2-part": 113, "ran out": 4, "third generator": 2}),
    ]


def test_class_groups_takes_few_kernel_calls(blocks, monkeypatch):
    # one _power_lanes call per round: the rungs of the first candidates,
    # then y^q beside the tables and rungs of the walks, then the tests of
    # their basis forms, with the candidates that follow a projection x = 1
    calls = []
    kernel = lanes._power_lanes

    def counting(a, b, c, n):
        calls.append(a.size)
        return kernel(a, b, c, n)

    monkeypatch.setattr(lanes, "_power_lanes", counting)
    counts = []
    for fields in [_fields(3, 10_003), _fields(10_003, 20_003), *blocks[1:]]:
        calls.clear()
        list(class_groups(fields))
        counts.append(len(calls))
    assert all(0 < n <= most for n, most in zip(counts, (4, 4, 5, 5))), counts


def test_fallbacks_take_assemble(monkeypatch):
    # h = 1 at |D| = 3, 4, 7, 8, fields that class_group assembles whole;
    # -4027 has a 3-part of rank 2, which a walk of two generators ends on
    # the arrays; -23 and -1000003 are bulk
    fields = [(validate(D), 1) for D in (-3, -4, -7, -8)]
    fields += [(validate(-4027), 9), (validate(-23), 3), (validate(-1000003), 105)]
    assert class_group(validate(-1000003)).h == 105
    assembled, on_lanes = _recording_assembly(monkeypatch)
    got = list(class_groups(fields))
    assert assembled == [-3, -4, -7, -8, -4027] and on_lanes == [-4027]
    assert [cg.invariant_factors for cg in got] == [(), (), (), (), (3, 3), (3,), (105,)]
    assert got == [class_group(d, known_h=h) for d, h in fields]
    # a field with a genus-parity exception raises it at its field, after
    # the groups before it, and never reaches either assembly
    assembled.clear()
    out = []
    broken = fields[5:] + [(validate(-23), 2)] + fields[:5]
    with pytest.raises(InvariantViolation, match="genus parity violated: prime discriminant -23"):
        out.extend(class_groups(broken))
    assert out == got[5:] and assembled == []


@pytest.mark.parametrize("broken", ["dropped", "extra"])
def test_broken_entry_raises_at_its_field(broken, monkeypatch):
    # factorize is patched for one h: dropping its 3, that field's parts all
    # end on the arrays but their orders no longer multiply to h, so it fails
    # the bulk check and _assemble raises its message there; with an extra
    # prime 11, that part leaves the arrays and its field raises on class_group
    fields = _fields(10**6, 10**6 + 2000)
    hs = [h for _, h in fields]
    k = next(k for k in range(100, len(fields)) if hs.count(hs[k]) == 1 and hs[k] % 66 == 6)
    d, h = fields[k]
    factorize = quadform.factorize

    def patched(n):
        parts = factorize(n)
        if n != h:
            return parts
        return [(q, e) for q, e in parts if q != 3] if broken == "dropped" else parts + [(11, 1)]

    monkeypatch.setattr(quadform, "factorize", patched)
    monkeypatch.setattr(lanes, "factorize", patched)
    with pytest.raises(Exception) as want:
        class_group(d, known_h=h)
    if broken == "dropped":
        assert type(want.value) is InvariantViolation
        assert str(want.value) == f"Sylow orders do not multiply to h = {h}"
    got = []
    with pytest.raises(type(want.value)) as raised:
        got.extend(class_groups(fields))
    assert str(raised.value) == str(want.value)
    monkeypatch.setattr(quadform, "factorize", factorize)
    monkeypatch.setattr(lanes, "factorize", factorize)
    assert got == [class_group(d, known_h=h) for d, h in fields[:k]]


def _old_csv_lines(row) -> list[str]:
    """The per-line f-string that _csv_lines replaced: the oracle."""
    rec = row.record
    cg = "x".join(str(d) for d in rec.class_group) if rec.class_group else "1"
    return [
        f"{rec.discriminant},{rec.h},{cg},{rec.two_rank},{p},{tag},"
        f"{rec.status_at(p)},{rec.verdict},{str(rec.assumes_converse).lower()}"
        for p, tag in row.local_behavior
    ]


def test_csv_lines_match_the_old_f_string():
    # -3, -4, -7 and -8 have h = 1; 11 and 13 divide few h here, so most
    # rows carry a tracked prime that does not divide h ("skipped")
    primes = (2, 3, 5, 7, 11, 13)
    rows = survey._scan_block((3, 2000, primes)) + survey._scan_block((10**6, 10**6 + 500, primes))
    assert [row.record.discriminant for row in rows[:4]] == [-3, -4, -7, -8]
    skipped = sum(row.record.status_at(13) == "skipped" for row in rows)
    assert skipped > 0.8 * len(rows)
    for row in rows:
        assert survey._csv_lines(row) == _old_csv_lines(row)
    # a record built outside a block, from classify_validated
    d = validate(-4027)
    record = classify_validated(d, short_circuit=False)
    row = survey.SurveyRow(record, tuple((p, kronecker_at(d, p)) for p in primes))
    assert survey._csv_lines(row) == _old_csv_lines(row)


def test_generic_torsion_is_shared():
    generic = [torsion_descriptor(validate(D)) for D in (-3, -7, -20, -23, -1000003)]
    assert all(t is generic[0] for t in generic)
    assert generic[0] == TorsionDescriptor(w=1)
    assert generic[0].describe() == "prod_n Z/nZ"
    four, eight = torsion_descriptor(validate(-4)), torsion_descriptor(validate(-8))
    assert four == TorsionDescriptor(w=4, excluded_summands=frozenset({2}), shape=GENERIC)
    assert eight == TorsionDescriptor(w=8, excluded_summands=frozenset({4}), shape=SPECIAL2)
