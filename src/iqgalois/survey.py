"""Range scans over fundamental discriminants with persistence and tables.

Class numbers for a whole block of discriminants come from one bulk count
of reduced forms, which doubles as an independent oracle for the
per-discriminant quadform.class_number.  It walks the (a, c) cells of each
first coefficient a, finds the b of each cell from two float64 square
roots, exact below 2^52, and takes a in runs of about _RUN_ELEMENTS scratch
elements, each run one numpy scatter of its (b, c) pairs that land in the
block.  The census of tables 2 and 3 sieves in windows
that grow from its sample size, so it counts little past its last field.
Scans proceed in contiguous blocks of 10^4 |D|-values; each block is
classified independently (pure functions), so worker count cannot change
the output, and a checkpoint after every block makes interrupted scans
resumable without recomputation.  Its lines are each row's compact JSON
with sorted keys, written by one f-string over the record's fields
(_checkpoint_line) with no dict in between.  A scan draws its blocks as
its rows are taken, and a pool holds at most two blocks per worker, so a
range of any length starts at once.  A block factors all its |D| with one
slice sieve (block_factors) and builds the class groups of all its fields
with one call of lanes.class_groups, whose powers run in lock-step on
int64 lanes up to |D| = lanes.LANE_LIMIT (4.5e9); past it, and
wherever a lane cannot finish, a field takes class_group whole.  It then
decides the status at every odd p of every field with one call of
lanes.lane_statuses: the images in O/p^2 of the generators of the
torsion basis forms come from products of states in lock-step while they
fit int64, and their local test from one lock-step ring power; both
powers, like those of the class groups, run on
lanes._square_and_multiply_lanes.  A (field, p) the lanes leave is
classify.status_at_odd_prime at its field.  The local tags of every
(field, p) come from one array pass per p (_local_tags).  The rows are
those of classifying each field alone, with class_group,
status_at_odd_prime and kronecker_at as the oracles.  The verify sweeps
classify field by field on the scalar route.  All three tables decide a
field at one prime p on its p-Sylow subgroup alone (splitting_status),
which at table 1's h = p is the whole group.
"""

import bisect
import collections
import contextlib
import gc
import hashlib
import json
import math
import os
import signal
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .arith import is_prime, large_factors, small_primes
from .classify import INJECTIVE, NONINJECTIVE, SKIPPED, ClassificationRecord, classify_validated
from .classify import status_at_prime
from .discriminant import INERT, RAMIFIED, SPLIT, FundamentalDiscriminant, kronecker_at, validate
from .lanes import _jacobi_lanes, class_groups, lane_statuses
from .quadform import CLASS_NUMBER_LIMIT, ClassGroupStructure, RankOverflow, p_torsion_basis
from .quadform import sylow_subgroup

BLOCK_SIZE = 10_000
# Scratch elements of one run of a in reduced_form_counts: its (a, c) cells plus its expected pairs
_RUN_ELEMENTS = 1 << 14
CSV_HEADER = "D,h,class_group,two_rank,p,local_behavior,status,verdict,assumes_converse"


class InvalidConfig(ValueError):
    """Raised for inconsistent survey parameters."""


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise InvalidConfig(f"{p} is not a prime")


@dataclass(frozen=True)
class SurveyConfig:
    d_min: int = 3
    d_max: int = 10_000
    primes: tuple[int, ...] = (2, 3, 5, 7)  # stored sorted and deduplicated
    workers: int = 1
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.d_min < 0:
            raise InvalidConfig(f"d_min {self.d_min} is negative")
        if self.d_min > self.d_max:
            raise InvalidConfig(f"empty |D| range [{self.d_min}, {self.d_max}]")
        if not self.primes:
            raise InvalidConfig("no primes to track")
        for p in self.primes:
            _require_prime(p)
        object.__setattr__(self, "primes", tuple(sorted(set(self.primes))))
        if self.workers < 1:
            raise InvalidConfig("workers must be at least 1")

    def identity(self) -> str:
        return f"{self.d_min}:{self.d_max}:{','.join(map(str, self.primes))}"


@dataclass(frozen=True)
class SurveyRow:
    record: ClassificationRecord
    local_behavior: tuple[tuple[int, str], ...]

    def to_dict(self) -> dict:
        out = self.record.to_dict()
        out["local_behavior"] = {str(p): tag for p, tag in self.local_behavior}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SurveyRow":
        """Inverse of to_dict."""
        behavior = tuple(sorted((int(p), tag) for p, tag in data["local_behavior"].items()))
        return cls(ClassificationRecord.from_dict(data), behavior)


# |D| = 0..15 mod 16: the classes of fundamental |D| before odd squares are struck out
_RESIDUES_16 = np.array([m % 4 == 3 or m in (4, 8) for m in range(16)])


def fundamental_mask(lo: int, hi: int) -> np.ndarray:
    """Which |D| in [lo, hi) are fundamental imaginary quadratic discriminants.

    Exactly those with |D| = 3 (mod 4) or |D| = 4, 8 (mod 16) that no odd square divides.
    The offsets of the first multiples of the odd squares d^2 <= hi - 1 come
    from one numpy remainder; only the d^2 with a multiple in the window
    take a slice, so a narrow window costs no loop over all d.
    """
    if hi < lo:
        raise ValueError(f"|D| range [{lo}, {hi}) ends before it starts")
    mask = np.resize(np.roll(_RESIDUES_16, -lo), hi - lo)  # mask[j] for |D| = lo + j
    squares = np.arange(3, math.isqrt(hi - 1) + 1, 2, dtype=np.int64) ** 2
    offsets = -lo % squares
    hit = offsets < hi - lo
    for start, step in zip(offsets[hit].tolist(), squares[hit].tolist()):
        mask[start::step] = False
    return mask


def _expand(n: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges of n[i] consecutive integers from first[i], end to end, and where each starts."""
    starts = np.cumsum(n) - n
    values = np.repeat(first - starts, n)
    values += np.arange(values.size)
    return values, starts


def _b_range(x: np.ndarray, top: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per x >= 0, the least b >= 0 and the greatest b <= top with 0 <= x - b^2 < width.

    Its float64 square roots are exact for x below 2^52 (reduced_form_counts).
    """
    root = x.astype(np.float64)
    high = np.minimum(top, np.sqrt(root).astype(np.int64))  # truncation is floor here
    root -= width - 1
    np.maximum(root, 0, out=root)
    low = np.ceil(np.sqrt(root, out=root), out=root).astype(np.int64)
    return low, high


def reduced_form_counts(lo: int, hi: int) -> np.ndarray:
    """Count reduced forms per |D| in [lo, hi), with one numpy scatter per run of a.

    A reduced form (a, b, c) has |b| <= a <= c, with b >= 0 when |b| = a or
    a = c, and |D| = 4ac - b^2.  The loop over a enumerates (a, c) cells:
    for each a <= amax = isqrt((hi - 1) / 3), c runs from max(a, ceil(lo / 4a))
    to floor((hi - 1 + a^2) / 4a), about a / 4 + width / 4a cells where a
    loop over b would take a + 1 steps.  The b of a cell are the integers in
    [ceil(sqrt(max(0, 4ac - hi + 1))), min(a, floor(sqrt(4ac - lo)))], each
    with |D| = 4ac - b^2.  A pair (b, c) stands for (a, +-b, c), weight 2,
    except when b = 0, b = a or c = a, which count once: (a, b, a) is its own
    mirror.  A run's cells are expanded into their pairs with np.repeat, and
    one weighted bincount adds them, at weight 1 for b = 0 and b = a and 2
    for every other b.  The cells c = a, at most one per a, have their other
    b taken off once more by one bincount before the runs.

    Runs of a are cut where the running sum of cells plus expected pairs
    (width / 4 per a) crosses a multiple of _RUN_ELEMENTS, so a run's
    scratch stays under _RUN_ELEMENTS plus the cost of its first a whatever
    the block, never the size of the whole block's pairs.

    The square roots are float64, and floor(sqrt(x)) is exact for integers
    0 <= x < 2^52, which float64 holds exactly.  Let k = isqrt(x).  sqrt is
    correctly rounded, and rounding is monotone, so the result lies in
    [k, k + 1].  It is k + 1 only if x = (k + 1)^2, or if rounding moves
    sqrt(x) up by (k + 1) - sqrt((k + 1)^2 - 1) > 1 / (2(k + 1)); but it
    moves it by at most half an ulp, (k + 1) 2^-53 <= 1 / (2(k + 1)) for
    k + 1 <= 2^26.  So sqrt(x) is an integer exactly when x is a square, and
    its ceil is exact too.  Every 4ac - lo here is at most
    hi - 1 + amax^2 - lo < 4/3 quadform.CLASS_NUMBER_LIMIT < 2^44, as |D|
    is refused past the limit.

    At fundamental discriminants every form is automatically primitive, so
    the count is exactly the class number there; other entries are not
    meaningful and are never read.
    """
    if lo < 3:
        raise ValueError("counting starts at |D| = 3")
    if hi < lo:
        raise ValueError(f"|D| range [{lo}, {hi}) ends before it starts")
    if hi - 1 > CLASS_NUMBER_LIMIT:
        raise ValueError(f"|D| up to {hi - 1} exceeds the class-number limit {CLASS_NUMBER_LIMIT}")
    width = hi - lo
    counts = np.zeros(width)  # float64 like bincount's weighted sums; exact integers
    if width == 0:
        return counts.astype(np.int64)
    a = np.arange(1, math.isqrt((hi - 1) // 3) + 1)
    cmin = np.maximum(a, -(-lo // (4 * a)))
    cells = np.maximum((hi - 1 + a * a) // (4 * a) - cmin + 1, 0)
    # the b with 0 < b < a of the cells c = a, which the runs add at weight 2, count once
    diagonal = a[cmin == a]
    x = 4 * diagonal * diagonal - lo
    low, high = _b_range(x, diagonal - 1, width)
    low = np.maximum(low, 1)
    n = np.maximum(high - low + 1, 0)
    b, _ = _expand(n, low)
    counts -= np.bincount(np.repeat(x, n) - b * b, minlength=width)
    cost = np.cumsum(cells + width // 4)
    cuts = np.searchsorted(cost, np.arange(_RUN_ELEMENTS, cost[-1], _RUN_ELEMENTS), "right")
    bounds = sorted({0, *cuts.tolist(), a.size})  # not np.unique: its first call adds 1.5 MB of RSS
    for first, end in zip(bounds, bounds[1:]):
        n = cells[first:end]
        x, _ = _expand(n, cmin[first:end])  # the c of each cell
        cell_a = np.repeat(a[first:end], n)
        x *= 4 * cell_a
        x -= lo  # 4ac - lo, the |D| - lo of b = 0
        low, high = _b_range(x, cell_a, width)
        n = np.maximum(high - low + 1, 0)
        b, starts = _expand(n, low)
        weights = np.full(b.size, 2.0)
        weights[starts[low == 0]] = 1.0  # b = 0
        weights[(starts + n - 1)[(high == cell_a) & (n > 0)]] = 1.0  # b = a
        del cell_a, high, starts  # the pairs' scratch takes their place
        b *= b
        np.subtract(np.repeat(x, n), b, out=b)  # the |D| - lo of each pair
        counts += np.bincount(b, weights=weights, minlength=width)
    return counts.astype(np.int64)


def class_numbers_range(lo: int, hi: int) -> list[tuple[int, int]]:
    """(|D|, h) for every fundamental |D| in [lo, hi), ascending."""
    lo = max(lo, 3)
    if hi <= lo:
        return []
    counts = reduced_form_counts(lo, hi)
    index = np.flatnonzero(fundamental_mask(lo, hi))
    return list(zip((index + lo).tolist(), counts[index].tolist()))


def block_factors(ms: list[int]) -> list[list[tuple[int, int]]]:
    """arith.factorize(m) for each m of the ascending list ms, from one slice sieve.

    Every prime q up to min(isqrt(max ms), 65521) strikes the multiples of q
    in [ms[0], max ms] at once, from the offset of its first multiple, as
    fundamental_mask strikes its squares: one np.repeat for all primes.  The
    exponent of q in each m it hits comes from dividing by q while it
    divides.  What is left of m has no prime factor up to the bound, so it
    is 1 or a prime when it is below 65521^2, and otherwise goes to
    arith.large_factors, factorize's own Pollard rho tail.
    """
    if not ms:
        return []
    lo, hi = ms[0], ms[-1] + 1
    m = np.array(ms, dtype=np.int64)
    field = np.full(hi - lo, -1)  # field[j]: the index in ms of |D| = lo + j, or -1
    field[m - lo] = np.arange(m.size)
    primes = small_primes()
    q = np.array(primes[: bisect.bisect_right(primes, math.isqrt(hi - 1))], dtype=np.int64)
    first = -lo % q
    n = np.maximum((hi - lo - 1 - first) // q + 1, 0)  # the multiples of q in the window
    k, _ = _expand(n, np.zeros_like(n))
    q, k = np.repeat(q, n), field[np.repeat(first, n) + np.repeat(q, n) * k]
    q, k = q[k >= 0], k[k >= 0]
    order = np.argsort(k, kind="stable")  # by field, each field's primes ascending
    q, k = q[order], k[order]
    e, v = np.ones_like(q), m[k] // q
    while (more := v % q == 0).any():
        e += more
        v[more] //= q[more]
    rest = m.copy()  # m over its factors up to the bound
    np.floor_divide.at(rest, k, q**e)
    out: list[list[tuple[int, int]]] = [[] for _ in ms]
    for i, p, j in zip(k.tolist(), q.tolist(), e.tolist()):
        out[i].append((p, j))
    left = np.nonzero(rest > 1)[0]
    for i, r in zip(left.tolist(), rest[left].tolist()):
        out[i] += large_factors(r) if r > primes[-1] ** 2 else [(r, 1)]
    return out


def _blocks(lo: int, hi: int, width: int, first: int | None = None) -> Iterator[tuple[int, int]]:
    """The consecutive [start, end) blocks of at most width |D| that cover [lo, hi).

    The first block holds `first` |D| (default width), each later one twice
    as many as the one before, up to width.  Refuses |D| past
    quadform.CLASS_NUMBER_LIMIT before the first block.
    """
    if hi - 1 > CLASS_NUMBER_LIMIT:
        raise ValueError(f"|D| up to {hi - 1} exceeds the class-number limit {CLASS_NUMBER_LIMIT}")
    step = width if first is None else first
    while lo < hi:
        yield lo, min(lo + step, hi)
        lo += step
        step = min(2 * step, width)


def _odd_bases(cg: ClassGroupStructure) -> Iterator[tuple[int, list]]:
    """(p, p_torsion_basis(cg, p)) at each odd p | h whose basis does not overflow its rank."""
    for p in cg.sylow:
        if p != 2:
            try:
                yield p, p_torsion_basis(cg, p)
            except RankOverflow:
                pass


def _local_tags(
    ds: list[FundamentalDiscriminant], primes: tuple[int, ...]
) -> list[tuple[tuple[int, str], ...]]:
    """tuple((p, kronecker_at(d, p)) for p in primes) for each d of ds, one array pass per p.

    Ramified where p | D; at p = 2 an odd D (1 mod 4) splits at D = 1 mod 8
    and is inert at 5; an odd p splits where lanes._jacobi_lanes gives
    (D mod p / p) = 1.  A p past int64 takes kronecker_at at each field.
    The rows share their (p, tag) pairs.
    """
    D = np.fromiter((d.value for d in ds), np.int64, len(ds))
    columns = []
    for p in primes:
        if p >= 2**63:
            columns.append([(p, kronecker_at(d, p)) for d in ds])
            continue
        if p == 2:
            tag = (D % 8 == 5).astype(np.int64)
        else:
            tag = (1 - _jacobi_lanes(D % p, np.full_like(D, p))) // 2  # 1 -> 0, -1 -> 1
        tag[D % p == 0] = 2
        items = ((p, SPLIT), (p, INERT), (p, RAMIFIED))
        columns.append(list(map(items.__getitem__, tag.tolist())))
    return list(zip(*columns)) if columns else [()] * len(ds)


def _block_rows(
    fields: list[tuple[FundamentalDiscriminant, int]],
    groups: list[ClassGroupStructure | None],
    primes: tuple[int, ...],
) -> list[SurveyRow]:
    """The rows of fields on their class groups, in field order, each group released as used.

    The status at every odd p of the block whose torsion basis does not
    overflow its rank comes from one call of lanes.lane_statuses;
    classify_validated takes them by p, and runs status_at_prime at any p
    without one (2, a rank overflow, or a None of lane_statuses).  The local
    tags of every (field, p) come from one _local_tags pass.  groups[k] is
    set to None once row k is made, so the rows take the groups' place in
    memory.
    """
    bases = [list(_odd_bases(cg)) for cg in groups]
    tests = [(d, cg, p, b) for (d, _), cg, odd in zip(fields, groups, bases) for p, b in odd]
    statuses = iter(lane_statuses(tests))
    del tests
    tags = _local_tags([d for d, _ in fields], primes)
    rows = []
    for k, ((d, _), cg) in enumerate(zip(fields, groups)):
        # bases[k] first: zip stops at its end without drawing from statuses
        known = {p: s for (p, _), s in zip(bases[k], statuses) if s is not None}
        record = classify_validated(d, short_circuit=False, cg=cg, statuses=known)
        rows.append(SurveyRow(record, tags[k]))
        groups[k] = bases[k] = None
    return rows


def _scan_block(args: tuple[int, int, tuple[int, ...]]) -> list[SurveyRow]:
    """The rows of one block: its class groups built at once, then its rows by _block_rows.

    The fields are the sieve's fundamental |D| with their h, each validated
    on its factors from one block_factors sieve in place of a factorize of
    its own.  lanes.class_groups builds the class groups, and _block_rows
    the generator images and the rows, in field order.  So the first
    exception raised is the one a loop over the fields raises first: one of
    class_groups at a field comes after the rows of the fields before it.
    A block makes no reference cycles, but it keeps thousands of objects
    alive at once (the fields, the lanes and entries of class_groups, the
    rows), which the cyclic collector would walk again and again without
    freeing any: it pauses for the block.
    """
    lo, hi, primes = args
    collecting = gc.isenabled()
    gc.disable()
    try:
        sieved = class_numbers_range(lo, hi)
        factors = block_factors([m for m, _ in sieved])
        fields = [(validate(-m, factors=f), h) for (m, h), f in zip(sieved, factors)]
        del sieved, factors  # their memory goes to the class groups
        groups, failed = [], None
        try:
            groups.extend(class_groups(fields))
        except Exception as exc:  # raised below, after the rows of the fields before its own
            failed = exc
        rows = _block_rows(fields, groups, primes)
        if failed is not None:
            raise failed
        return rows
    finally:
        if collecting:
            gc.enable()


def _checkpoint_line(row: SurveyRow) -> str:
    """json.dumps(row.to_dict(), sort_keys=True, separators=(",", ":")) + "\n", from one f-string.

    The keys are written in sorted order, and the local-behaviour keys
    sorted as strings ("11" before "2"), as json.dumps sorts them: the
    sorted '"p":"tag"' items are in that order, since the closing quote
    sorts before every digit.  Every string value is a fixed ASCII word (a
    verdict, a shape, a status or a local tag), which JSON writes between
    quotes as it is, so no dict is built.
    """
    rec, tors = row.record, row.record.torsion
    per_prime = ",".join([f'[{p},"{status}"]' for p, status in rec.per_prime])
    behavior = ",".join(sorted([f'"{p}":"{tag}"' for p, tag in row.local_behavior]))
    return (
        f'{{"assumes_converse":{"true" if rec.assumes_converse else "false"},'
        f'"class_group":[{",".join(map(str, rec.class_group))}],"discriminant":{rec.discriminant},'
        f'"h":{rec.h},"local_behavior":{{{behavior}}},"per_prime":[{per_prime}],'
        f'"torsion":{{"excluded_summands":[{",".join(map(str, sorted(tors.excluded_summands)))}],'
        f'"shape":"{tors.shape}","special_case":{"true" if tors.special_case else "false"},'
        f'"w":{tors.w}}},"two_rank":{rec.two_rank},"verdict":"{rec.verdict}"}}\n'
    )


class _Checkpoint:
    """Block-granular resume state: serialized rows plus their length and digest.

    The rows file is appended before the state file is replaced, so a crash
    in between leaves extra bytes past rows_bytes; load() cuts them off and
    keeps every block the state file vouches for.
    """

    VERSION = "2"
    _CHUNK = 1 << 20

    def __init__(self, path: str, config: SurveyConfig):
        self.path = path
        self.rows_path = path + ".rows"
        self.identity = config.identity()
        self.blocks_done = 0
        self.rows_bytes = 0
        self.digest = hashlib.sha256()

    def load(self) -> Iterator[SurveyRow] | None:
        """Rows of the finished blocks, or None when there is nothing to resume.

        The rows file is hashed in chunks and checked against the state file
        before this returns; the rows are then read back one line at a time.
        """
        if not (os.path.exists(self.path) and os.path.exists(self.rows_path)):
            return None
        state = {}
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.strip().partition("=")
                state[key] = value
        if state.get("version") != self.VERSION or state.get("config") != self.identity:
            return None
        try:
            rows_bytes = int(state["rows_bytes"])
            blocks_done = int(state["blocks_done"])
        except (KeyError, ValueError):
            return None
        digest = hashlib.sha256()
        with open(self.rows_path, "r+b") as fh:
            size = fh.seek(0, os.SEEK_END)
            if size < rows_bytes:
                return None
            if size > rows_bytes:
                fh.truncate(rows_bytes)
            fh.seek(0)
            while chunk := fh.read(self._CHUNK):
                digest.update(chunk)
        if digest.hexdigest() != state.get("rows_digest"):
            return None
        self.blocks_done, self.rows_bytes, self.digest = blocks_done, rows_bytes, digest
        return self._stored_rows(rows_bytes)

    def _stored_rows(self, size: int) -> Iterator[SurveyRow]:
        with open(self.rows_path, "rb") as fh:
            while fh.tell() < size:
                yield SurveyRow.from_dict(json.loads(fh.readline()))

    def append_block(self, rows: list[SurveyRow]) -> None:
        """Append a block's rows, one _checkpoint_line each, then replace the state file.

        Each line goes to the rows file and the digest as it is made, so no
        copy of the whole block's serialization is ever held.
        """
        with open(self.rows_path, "ab") as fh:
            for row in rows:
                data = _checkpoint_line(row).encode()
                fh.write(data)
                self.digest.update(data)
                self.rows_bytes += len(data)
        self.blocks_done += 1
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"version={self.VERSION}\n")
            fh.write(f"config={self.identity}\n")
            fh.write(f"blocks_done={self.blocks_done}\n")
            fh.write(f"rows_bytes={self.rows_bytes}\n")
            fh.write(f"rows_digest={self.digest.hexdigest()}\n")
        os.replace(tmp, self.path)

    def reset(self) -> None:
        """Delete the files of a checkpoint that load() refused."""
        for p in (self.path, self.rows_path):
            if os.path.exists(p):
                os.remove(p)


def scan(config: SurveyConfig) -> Iterator[SurveyRow]:
    """Classify every fundamental discriminant with d_min <= |D| <= d_max.

    Rows stream in ascending |D|.  The blocks are walked as rows are taken,
    so the first row of any range comes after one block's work; the pool of
    workers > 1 has at most 2 * workers blocks submitted (_pooled_blocks)
    and no more processes than blocks or CPUs.  Each block's checkpoint is
    written before its rows are yielded, so a consumer that stops early can
    resume from the checkpoint where it stopped.
    """
    ckpt = _Checkpoint(config.checkpoint_path, config) if config.checkpoint_path else None
    if ckpt is not None:
        done = ckpt.load()
        if done is None:
            ckpt.reset()
        else:
            yield from done
    start = config.d_min + (ckpt.blocks_done if ckpt else 0) * BLOCK_SIZE
    end = config.d_max + 1
    blocks = ((lo, hi, config.primes) for lo, hi in _blocks(start, end, BLOCK_SIZE))
    # the pool starts all its processes at once: no more than blocks or CPUs
    workers = min(config.workers, -(-(end - start) // BLOCK_SIZE), os.cpu_count() or 1)
    for rows in _pooled_blocks(blocks, workers) if workers > 1 else map(_scan_block, blocks):
        if ckpt is not None:
            ckpt.append_block(rows)
        yield from rows


def _pooled_blocks(blocks: Iterator[tuple], workers: int) -> Iterator[list[SurveyRow]]:
    """_scan_block of each block on a pool of workers processes, in block order.

    Blocks are drawn from the iterator as results are taken, at most
    2 * workers of them submitted at a time, so a range of any length costs
    the same to start.  Closing the generator cancels the blocks not yet
    started, and the pool's exit waits for the running ones.  The workers
    ignore SIGINT, so a Ctrl-C reaches the caller alone, as KeyboardInterrupt.
    The pool's module is imported here, so a scan on one worker never loads it.
    """
    from concurrent.futures import ProcessPoolExecutor

    sigint = (signal.SIGINT, signal.SIG_IGN)
    with ProcessPoolExecutor(workers, initializer=signal.signal, initargs=sigint) as pool:
        futures: collections.deque = collections.deque()
        try:
            for args in blocks:
                futures.append(pool.submit(_scan_block, args))
                if len(futures) == 2 * workers:
                    yield futures.popleft().result()
            while futures:
                yield futures.popleft().result()
        finally:
            for future in futures:
                future.cancel()


def _csv_lines(row: SurveyRow) -> list[str]:
    """The CSV lines of one row: one per tracked prime, fixed column order.

    The head D,h,class_group,two_rank, and the tail ,verdict,assumes_converse
    are made once per row, and each status is read from one dict of
    per_prime, "skipped" where the prime is absent, as status_at reads it.
    """
    rec = row.record
    cg = "x".join(map(str, rec.class_group)) if rec.class_group else "1"
    head = f"{rec.discriminant},{rec.h},{cg},{rec.two_rank},"
    tail = f",{rec.verdict},{str(rec.assumes_converse).lower()}"
    status = dict(rec.per_prime)
    return [f"{head}{p},{tag},{status.get(p, SKIPPED)}{tail}" for p, tag in row.local_behavior]


def persist(rows: Iterable[SurveyRow], path: str, fmt: str = "csv") -> int:
    """Write rows as CSV lines or as one JSON list, as they arrive; return their number.

    Each row's lines or JSON object take one write.  The file is path +
    ".tmp" until complete, so a failed scan leaves no file at path.
    """
    if fmt not in ("csv", "json"):
        raise InvalidConfig(f"unknown format {fmt!r}")
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            if fmt == "csv":
                fh.write(CSV_HEADER + "\n")
                n = 0
                for n, row in enumerate(rows, 1):
                    fh.write("".join([line + "\n" for line in _csv_lines(row)]))
            else:
                # json.dumps(list, indent=1, sort_keys=True), one row at a time
                fh.write("[")
                n = 0
                for n, row in enumerate(rows, 1):
                    item = json.dumps(row.to_dict(), indent=1, sort_keys=True)
                    fh.write(("\n " if n == 1 else ",\n ") + item.replace("\n", "\n "))
                fh.write("\n]\n" if n else "]\n")
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    os.replace(tmp, path)
    return n


@dataclass(frozen=True)
class Table1Row:
    p: int
    count: int
    nonsplit: int
    split_discriminants: tuple[int, ...]


def table1(max_p: int, bound: int) -> dict[int, Table1Row]:
    """Per-prime census of fields with h = p and |D| <= bound.

    'split' fields are those where the class-group extension splits over a
    subgroup: the NOT_MINIMAL verdicts, whose splitting_status at p = h is
    not injective (the p-part is the whole group).  The table lists their -D.
    """
    for name, value in (("max_p", max_p), ("bound", bound)):
        if value < 0:
            raise InvalidConfig(f"{name} {value} is negative")
    per_p: dict[int, list[tuple[int, str]]] = {}
    # Blocks bound the memory of the sieve and of the (|D|, h) lists; they are
    # wider than a scan block because each block repeats the sieve's loop over a.
    for lo, hi in _blocks(3, bound + 1, 10 * BLOCK_SIZE):
        for m, h in class_numbers_range(lo, hi):
            if h <= max_p and is_prime(h):
                per_p.setdefault(h, []).append((m, splitting_status(validate(-m), h, h)))
    out = {}
    for p in sorted(per_p):
        entries = per_p[p]
        split = tuple(m for m, status in entries if status != INJECTIVE)
        out[p] = Table1Row(p, len(entries), len(entries) - len(split), split)
    return out


def single_factor_fields(p: int, lower_bound: int, n_fields: int) -> list[tuple[int, int]]:
    """First n fields with |D| > lower_bound whose h is divisible by p once, within 200 blocks.

    The search sieves in windows: the first holds min(BLOCK_SIZE, 16 n) |D|,
    each later one twice as many, up to BLOCK_SIZE, and it stops at the n-th
    field.  It still ends at lower_bound + 200 BLOCK_SIZE.  Every h is the
    exact count of reduced forms whatever window holds |D|, so the fields
    are those a walk over whole blocks finds.
    """
    if n_fields < 1:
        raise InvalidConfig("sample size must be at least 1")
    if lower_bound < 0:
        raise InvalidConfig(f"lower bound {lower_bound} is negative")
    out: list[tuple[int, int]] = []
    start = lower_bound + 1
    windows = _blocks(start, start + 200 * BLOCK_SIZE, BLOCK_SIZE, min(BLOCK_SIZE, 16 * n_fields))
    for lo, hi in windows:
        for m, h in class_numbers_range(lo, hi):
            if h % p == 0 and (h // p) % p != 0:
                out.append((m, h))
                if len(out) == n_fields:
                    return out
    raise InvalidConfig(f"only {len(out)} qualifying fields below the scan cap")


def splitting_status(d: FundamentalDiscriminant, h: int, p: int) -> str:
    """Injectivity status at one prime p | h, h the exact class number, on the p-part alone.

    The test at p reads only the p-torsion of Cl(D), so only the p-Sylow
    subgroup is built (sylow_subgroup), at p = 2 too, where the status reads
    no form but _two_sylow_orders checks the 2-part of h: a wrong one raises
    ClassNumberAmbiguous wherever the 4-rank is at most 2.
    """
    return status_at_prime(d, p, sylow_subgroup(d, h, p))


@dataclass(frozen=True)
class Table3Result:
    p: int
    n_fields: int
    lower_bound: int
    overall: float
    by_behavior: dict[str, float | None]
    counts: dict[str, int]


def table3(p: int, n_fields: int, lower_bound: int) -> Table3Result:
    """Splitting at p among fields with a single factor p in h.

    overall is p * f_p, the normalized split fraction over all fields (the
    census of `tables --table 2`); by_behavior gives the same quantity per
    local behavior of p.  Strata with no members report None rather than a
    zero fraction.
    """
    _require_prime(p)
    fields = single_factor_fields(p, lower_bound, n_fields)
    totals: dict[str, int] = {"split": 0, "inert": 0, "ramified": 0}
    splits: dict[str, int] = {"split": 0, "inert": 0, "ramified": 0}
    for m, h in fields:
        d = validate(-m)
        tag = kronecker_at(d, p)
        totals[tag] += 1
        if splitting_status(d, h, p) == NONINJECTIVE:
            splits[tag] += 1
    by_behavior = {
        tag: (p * splits[tag] / totals[tag] if totals[tag] else None) for tag in totals
    }
    return Table3Result(
        p, n_fields, lower_bound, p * sum(splits.values()) / n_fields, by_behavior, dict(totals)
    )
