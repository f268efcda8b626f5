"""Range scans over fundamental discriminants with persistence and tables.

Class numbers for a whole block of discriminants come from one bulk count
of reduced forms (a triple loop vectorized over the inner variable), which
doubles as an independent oracle for the per-discriminant backends.  Scans
proceed in contiguous blocks of 10^4 |D|-values; each block is classified
independently (pure functions), so worker count cannot change the output,
and a checkpoint after every block makes interrupted scans resumable
without recomputation.
"""

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .arith import is_prime
from .classify import ClassificationRecord, classify_validated, status_at_prime
from .discriminant import FundamentalDiscriminant, kronecker_at, validate

BLOCK_SIZE = 10_000
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
        if self.d_min >= self.d_max:
            raise InvalidConfig(f"empty |D| range [{self.d_min}, {self.d_max}]")
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

    def behavior_at(self, p: int) -> str:
        for q, tag in self.local_behavior:
            if q == p:
                return tag
        raise KeyError(p)

    def to_dict(self) -> dict:
        out = self.record.to_dict()
        out["local_behavior"] = {str(p): tag for p, tag in self.local_behavior}
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "SurveyRow":
        """Inverse of to_dict."""
        behavior = tuple(sorted((int(p), tag) for p, tag in data["local_behavior"].items()))
        return cls(ClassificationRecord.from_dict(data), behavior)


def _squarefree_mask(lo: int, hi: int) -> np.ndarray:
    mask = np.ones(hi - lo, dtype=bool)
    d = 2
    while d * d < hi:
        step = d * d
        start = -(-lo // step) * step
        mask[start - lo :: step] = False
        d += 1
    return mask


def fundamental_mask(lo: int, hi: int) -> np.ndarray:
    """Which |D| in [lo, hi) are fundamental imaginary quadratic discriminants."""
    ms = np.arange(lo, hi, dtype=np.int64)
    sq = _squarefree_mask(lo, hi)
    out = (ms % 4 == 3) & sq
    qlo, qhi = -(-lo // 4), (hi - 1) // 4 + 1
    if qhi > qlo:
        sq4 = _squarefree_mask(qlo, qhi)
        idx = np.nonzero(ms % 4 == 0)[0]
        q = ms[idx] // 4
        ok = ((q % 4 == 1) | (q % 4 == 2)) & sq4[q - qlo]
        out[idx] = ok
    return out


def reduced_form_counts(lo: int, hi: int) -> np.ndarray:
    """Count reduced forms per |D| in [lo, hi) in one sweep.

    At fundamental discriminants every form is automatically primitive, so
    the count is exactly the class number there; other entries are not
    meaningful and are never read.
    """
    if lo < 3:
        raise ValueError("counting starts at |D| = 3")
    counts = np.zeros(hi - lo, dtype=np.int64)
    amax = math.isqrt((hi - 1) // 3)
    for a in range(1, amax + 1):
        fa = 4 * a
        for b in range(0, a + 1):
            cmin = max(a, -(-(lo + b * b) // fa))
            cmax = (hi - 1 + b * b) // fa
            if cmax < cmin:
                continue
            ms = np.arange(cmin, cmax + 1, dtype=np.int64) * fa - b * b
            w = 2 if 0 < b < a else 1
            counts[ms - lo] += w
            if w == 2 and cmin == a:
                # (a, b, a) is its own mirror: counted once, not twice
                counts[a * fa - b * b - lo] -= 1
    return counts


def class_numbers_range(lo: int, hi: int) -> list[tuple[int, int]]:
    """(|D|, h) for every fundamental |D| in [lo, hi), ascending."""
    lo = max(lo, 3)
    if hi <= lo:
        return []
    counts = reduced_form_counts(lo, hi)
    mask = fundamental_mask(lo, hi)
    return [(int(m + lo), int(counts[m])) for m in np.nonzero(mask)[0]]


def _classify_row(m: int, h: int, primes: tuple[int, ...]) -> SurveyRow:
    d = validate(-m)
    record = classify_validated(d, known_h=h, short_circuit=False)
    tags = tuple((p, kronecker_at(d, p)) for p in primes)
    return SurveyRow(record, tags)


def _scan_block(args: tuple[int, int, tuple[int, ...]]) -> list[SurveyRow]:
    lo, hi, primes = args
    return [_classify_row(m, h, primes) for m, h in class_numbers_range(lo, hi)]


class _Checkpoint:
    """Block-granular resume state: serialized rows plus their length and digest.

    The rows file is appended before the state file is replaced, so a crash
    in between leaves extra bytes past rows_bytes; load() cuts them off and
    keeps every block the state file vouches for.
    """

    VERSION = "2"

    def __init__(self, path: str, config: SurveyConfig):
        self.path = path
        self.rows_path = path + ".rows"
        self.identity = config.identity()
        self.blocks_done = 0
        self.rows_bytes = 0
        self.digest = hashlib.sha256()

    def load(self) -> list[SurveyRow] | None:
        """Rows of the finished blocks, or None when there is nothing to resume."""
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
        with open(self.rows_path, "r+b") as fh:
            data = fh.read()
            if len(data) < rows_bytes:
                return None
            if len(data) > rows_bytes:
                fh.truncate(rows_bytes)
                data = data[:rows_bytes]
        digest = hashlib.sha256(data)
        if digest.hexdigest() != state.get("rows_digest"):
            return None
        self.blocks_done, self.rows_bytes, self.digest = blocks_done, rows_bytes, digest
        return [SurveyRow.from_dict(json.loads(line)) for line in data.decode().splitlines()]

    def append_block(self, rows: list[SurveyRow]) -> None:
        data = "".join(
            json.dumps(row.to_dict(), sort_keys=True, separators=(",", ":")) + "\n" for row in rows
        ).encode()
        with open(self.rows_path, "ab") as fh:
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


def scan(config: SurveyConfig, _max_blocks: int | None = None) -> Iterator[SurveyRow]:
    """Classify every fundamental discriminant with d_min <= |D| <= d_max.

    Rows stream in ascending |D|.  _max_blocks stops early after that many
    blocks (a testing hook simulating an interrupted run); the checkpoint
    then lets the next call resume where this one stopped.
    """
    blocks = []
    lo = config.d_min
    while lo <= config.d_max:
        hi = min(lo + BLOCK_SIZE, config.d_max + 1)
        blocks.append((lo, hi, config.primes))
        lo = hi

    ckpt = _Checkpoint(config.checkpoint_path, config) if config.checkpoint_path else None
    if ckpt is not None:
        done = ckpt.load()
        if done is None:
            ckpt.reset()
        else:
            yield from done
    start = ckpt.blocks_done if ckpt else 0
    pending = blocks[start:]
    if _max_blocks is not None:
        pending = pending[: max(0, _max_blocks - start)]

    def finish(rows: list[SurveyRow]) -> list[SurveyRow]:
        if ckpt is not None:
            ckpt.append_block(rows)
        return rows

    if config.workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            for rows in pool.map(_scan_block, pending):
                yield from finish(rows)
    else:
        for block in pending:
            yield from finish(_scan_block(block))


def rows_to_csv(rows: Iterable[SurveyRow]) -> list[str]:
    """One line per (field, tracked prime), fixed column order."""
    lines = [CSV_HEADER]
    for row in rows:
        rec = row.record
        cg = "x".join(str(d) for d in rec.class_group) if rec.class_group else "1"
        for p, tag in row.local_behavior:
            lines.append(
                f"{rec.discriminant},{rec.h},{cg},{rec.two_rank},{p},{tag},"
                f"{rec.status_at(p)},{rec.verdict},{str(rec.assumes_converse).lower()}"
            )
    return lines


def persist(rows: Iterable[SurveyRow], path: str, fmt: str = "csv") -> None:
    """Write rows to disk as CSV (one line per tracked prime) or JSON."""
    if fmt == "csv":
        with open(path, "w", encoding="utf-8") as fh:
            for line in rows_to_csv(rows):
                fh.write(line + "\n")
    elif fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([row.to_dict() for row in rows], fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        raise InvalidConfig(f"unknown format {fmt!r}")


def read_rows(path: str, fmt: str = "json") -> list[SurveyRow]:
    """Read back what persist wrote (JSON only; CSV flattens the record)."""
    if fmt != "json":
        raise InvalidConfig("round-trip reading is supported for JSON")
    with open(path, encoding="utf-8") as fh:
        return [SurveyRow.from_dict(obj) for obj in json.load(fh)]


@dataclass(frozen=True)
class Table1Row:
    p: int
    count: int
    nonsplit: int
    split_discriminants: tuple[int, ...]


def table1(max_p: int, bound: int) -> dict[int, Table1Row]:
    """Per-prime census of fields with h = p and |D| <= bound.

    'split' fields are those where the class-group extension splits over a
    subgroup, i.e. the NOT_MINIMAL verdicts; the table lists their -D.
    """
    per_p: dict[int, list[tuple[int, str]]] = {}
    for m, h in class_numbers_range(3, bound + 1):
        if h <= max_p and is_prime(h):
            d = validate(-m)
            record = classify_validated(d, known_h=h)
            per_p.setdefault(h, []).append((m, record.verdict))
    out = {}
    for p in sorted(per_p):
        entries = per_p[p]
        split = tuple(m for m, v in entries if v == "NOT_MINIMAL")
        out[p] = Table1Row(p, len(entries), len(entries) - len(split), split)
    return out


def single_factor_fields(p: int, lower_bound: int, n_fields: int) -> list[tuple[int, int]]:
    """First n fields with |D| > lower_bound whose h is divisible by p once."""
    if n_fields < 1:
        raise InvalidConfig("sample size must be at least 1")
    out: list[tuple[int, int]] = []
    lo = lower_bound + 1
    hard_cap = lower_bound + 200 * BLOCK_SIZE
    while len(out) < n_fields and lo < hard_cap:
        hi = lo + BLOCK_SIZE
        for m, h in class_numbers_range(lo, hi):
            if h % p == 0 and (h // p) % p != 0:
                out.append((m, h))
                if len(out) == n_fields:
                    break
        lo = hi
    if len(out) < n_fields:
        raise InvalidConfig(f"only {len(out)} qualifying fields below the scan cap")
    return out


def splitting_status(d: FundamentalDiscriminant, h: int, p: int) -> str:
    """Injectivity status at one prime p | h, independent of other primes."""
    return status_at_prime(d, p, known_h=h)


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
    split_total = 0
    for m, h in fields:
        d = validate(-m)
        tag = kronecker_at(d, p)
        totals[tag] += 1
        if splitting_status(d, h, p) == "noninjective":
            splits[tag] += 1
            split_total += 1
    by_behavior = {
        tag: (p * splits[tag] / totals[tag] if totals[tag] else None) for tag in totals
    }
    return Table3Result(
        p, n_fields, lower_bound, p * split_total / n_fields, by_behavior, dict(totals)
    )


@dataclass(frozen=True)
class IndependenceReport:
    p: int
    q: int
    n_fields: int
    joint: float | None
    product: float | None
    standard_error: float | None
    consistent: bool | None


def independence_probe(rows: Iterable[SurveyRow], p: int, q: int) -> IndependenceReport:
    """Diagnostic: is splitting at p independent of splitting at q?

    Among fields where both p and q divide h exactly once, compares the
    joint split fraction with the product of the marginals; three standard
    errors is the reporting threshold, not a hard test.
    """
    joint = mp = mq = n = 0
    for row in rows:
        h = row.record.h
        if any(h % r or (h // r) % r == 0 for r in (p, q)):
            continue
        n += 1
        sp = row.record.status_at(p) == "noninjective"
        sq = row.record.status_at(q) == "noninjective"
        mp += sp
        mq += sq
        joint += sp and sq
    if n == 0:
        return IndependenceReport(p, q, 0, None, None, None, None)
    fj, prod = joint / n, (mp / n) * (mq / n)
    se = math.sqrt(max(fj * (1 - fj), 1e-12) / n)
    return IndependenceReport(p, q, n, fj, prod, se, abs(fj - prod) <= 3 * se)
