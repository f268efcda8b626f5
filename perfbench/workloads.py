"""The benchmark's three workloads: inputs from a seed, one timed operation,
and the checks on its output.

Each workload is a closed loop from one caller with workers=1.  An operation
("op") is the unit that is timed: one scan of a 1e4-block plus persist,
one table3 pass, or one classify of a single field.  README.md records why
each workload was chosen.
"""

import hashlib
import importlib
import json
import math
import os
import random
import shutil
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent

SCAN_BASE = 1_000_000
SCAN_BLOCKS = 8  # block starts 1e6 + k * 1e4, k < SCAN_BLOCKS
SCAN_PRIMES = (2, 3, 5, 7)
TABLE_P, TABLE_N, TABLE_BASE = 3, 100, 10_000_000
TABLE_OFFSETS = 16  # B = 1e7 + j * 1e4, j < TABLE_OFFSETS
CLASSIFY_STRATA = 48


def layer(name: str):
    """The iqgalois submodule `name`.

    `import iqgalois.classify` would give the function that the package
    re-exports under that name, not the submodule.
    """
    return importlib.import_module(f"iqgalois.{name}")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def record_digest(record) -> str:
    return sha256(canonical(record.to_dict()))


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text())


def record_problems(record, full: bool) -> list[str]:
    """Invariants every ClassificationRecord must satisfy.

    full=True means every prime of h was evaluated (short_circuit=False).
    """
    out = []
    if math.prod(record.class_group) != record.h:
        out.append(f"class group {record.class_group} does not multiply to h={record.h}")
    primes = [p for p, _ in record.per_prime]
    if any(record.h % p for p in primes):
        out.append(f"per_prime {primes} has a prime not dividing h={record.h}")
    h_primes = sorted({p for p in _prime_divisors(record.h)})
    if full and primes != h_primes:
        out.append(f"per_prime {primes} != prime divisors {h_primes} of h")
    statuses = [s for _, s in record.per_prime]
    first_fail = next((i for i, s in enumerate(statuses) if s != "injective"), None)
    if not full:
        # short_circuit=True stops right after the first failing prime
        tested = len(h_primes) if first_fail is None else first_fail + 1
        if primes != h_primes[:tested]:
            out.append(f"per_prime {primes} is not the first {tested} of {h_primes}")
    if record.verdict == "EXCEPTIONAL":
        return out
    expected = "MINIMAL" if first_fail is None else "NOT_MINIMAL"
    if record.verdict != expected:
        out.append(f"verdict {record.verdict} disagrees with statuses {statuses}")
    if record.assumes_converse != (record.verdict == "NOT_MINIMAL"):
        out.append("assumes_converse does not match the verdict")
    return out


def _prime_divisors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


class Workload:
    """Inputs for one seed; ops() names the ops of one pass."""

    name = ""
    op_label = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def describe(self) -> str:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def run(self, key):
        """The timed call into the library."""
        raise NotImplementedError

    def collect(self, key, raw) -> dict:
        """Untimed: turn an op's raw result into {digest, fields, ...}."""
        raise NotImplementedError

    def pinned(self, key) -> str:
        """The sha256 of this op's output at the commit that added the benchmark."""
        raise NotImplementedError

    def spot_checks(self, outputs: dict) -> list[tuple[str, bool, str]]:
        """(name, ok, detail) for each untimed check on the first pass's outputs."""
        raise NotImplementedError

    def warm_up(self) -> None:
        layer("classify").classify(-23)

    def guard(self, outputs: dict) -> list[tuple[str, bool, str]]:
        """Checks that need more library calls after the timed passes."""
        return []


class ScanWorkload(Workload):
    """scan + persist over one whole 1e4-block starting near |D| = 1e6."""

    name = "scan_1e6"
    op_label = "one scan+persist of a 1e4-block"
    GUARD_TAIL = 1_000  # |D| values past the block in the worker guard's band

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.block = layer("survey").BLOCK_SIZE
        self.start = SCAN_BASE + self.block * self.rng.randrange(SCAN_BLOCKS)

    def describe(self):
        return f"block [{self.start}, {self.start + self.block}) primes {SCAN_PRIMES}"

    def ops(self):
        return ["block"]

    def _scan_to_csv(self, lo: int, hi: int, workers: int) -> tuple[list, bytes, int]:
        """Rows, CSV bytes and checkpoint bytes of a scan of [lo, hi)."""
        survey = layer("survey")
        tmp = tempfile.mkdtemp(prefix="scan-", dir=self.workdir)
        try:
            ckpt = os.path.join(tmp, "scan.ckpt")
            config = survey.SurveyConfig(
                d_min=lo, d_max=hi - 1, primes=SCAN_PRIMES, workers=workers, checkpoint_path=ckpt
            )
            rows = list(survey.scan(config))
            survey.persist(rows, os.path.join(tmp, "rows.csv"), "csv")
            csv = Path(tmp, "rows.csv").read_bytes()
            ckpt_bytes = os.path.getsize(ckpt) + os.path.getsize(ckpt + ".rows")
        finally:
            shutil.rmtree(tmp)
        return rows, csv, ckpt_bytes

    def run(self, key):
        return self._scan_to_csv(self.start, self.start + self.block, workers=1)

    def collect(self, key, raw):
        rows, csv, ckpt_bytes = raw
        return {
            "digest": sha256(csv),
            "fields": len(rows),
            "rows": rows,
            "csv": csv,
            "checkpoint_bytes": ckpt_bytes,
        }

    def pinned(self, key):
        return load_pins()[self.name].get(str(self.start))

    def spot_checks(self, outputs):
        rows = outputs["block"]["rows"]
        quadform, localtest = layer("quadform"), layer("localtest")
        discriminant = layer("discriminant")
        checks = []
        for row in rows:
            problems = record_problems(row.record, full=True)
            if problems:
                checks.append((f"record D={row.record.discriminant}", False, "; ".join(problems)))
        checks.append((f"record invariants on {len(rows)} rows", not checks, ""))
        for row in self.rng.sample(rows, 3):
            D, h = row.record.discriminant, row.record.h
            n = len(quadform.enumerate_reduced_forms(D))
            checks.append((f"h by enumeration D={D}", n == h, f"enumerated {n}, row says {h}"))
        rank_one = [r for r in rows if r.record.two_rank == 1]
        for row in self.rng.sample(rank_one, min(3, len(rank_one))):
            d = discriminant.validate(row.record.discriminant)
            direct = localtest.two_direct_check(d)
            checks.append(
                (
                    f"p=2 direct check D={d.value}",
                    direct == row.record.status_at(2),
                    f"direct {direct}, row says {row.record.status_at(2)}",
                )
            )
        return checks

    def guard(self, outputs):
        """Scan the block plus a short tail block with workers=2.

        Two blocks are the least that makes scan use its process pool.  The
        workers=1 CSV of that band is the timed block's CSV followed by the
        rows of a workers=1 scan of the tail block alone, since scan
        classifies each block on its own and writes rows in block order.
        """
        lo, mid = self.start, self.start + self.block
        hi = mid + self.GUARD_TAIL
        _, csv2, _ = self._scan_to_csv(lo, hi, workers=2)
        _, tail_csv, _ = self._scan_to_csv(mid, hi, workers=1)
        header, _, tail_rows = tail_csv.partition(b"\n")
        csv1 = outputs["block"]["csv"] + tail_rows
        ok = csv1.startswith(header + b"\n") and csv2 == csv1
        return [(f"workers=2 CSV equals workers=1 CSV on [{lo}, {hi})", ok, "CSV differs")]


class TablesWorkload(Workload):
    """table3 at p = 3 with N = 100 fields just above B ~ 1e7."""

    name = "tables_1e7"
    op_label = "one table3 pass"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.bound = TABLE_BASE + 10_000 * self.rng.randrange(TABLE_OFFSETS)

    def describe(self):
        return f"table3(p={TABLE_P}, N={TABLE_N}, B={self.bound})"

    def ops(self):
        return ["table"]

    def run(self, key):
        return layer("survey").table3(TABLE_P, TABLE_N, self.bound)

    def collect(self, key, raw):
        fields = {
            "p": raw.p,
            "n_fields": raw.n_fields,
            "lower_bound": raw.lower_bound,
            "overall": raw.overall,
            "by_behavior": raw.by_behavior,
            "counts": raw.counts,
        }
        return {"digest": sha256(canonical(fields)), "fields": raw.n_fields, "result": raw}

    def pinned(self, key):
        return load_pins()[self.name].get(str(self.bound))

    def spot_checks(self, outputs):
        r = outputs["table"]["result"]
        problems = []
        if (r.p, r.n_fields, r.lower_bound) != (TABLE_P, TABLE_N, self.bound):
            problems.append("parameters not echoed")
        if sum(r.counts.values()) != r.n_fields:
            problems.append(f"strata {r.counts} do not add up to N={r.n_fields}")
        split = 0
        for tag, count in r.counts.items():
            frac = r.by_behavior[tag]
            if count == 0:
                if frac is not None:
                    problems.append(f"empty stratum {tag} reports {frac}")
                continue
            k = frac * count / r.p
            if abs(k - round(k)) > 1e-9 or not 0 <= round(k) <= count:
                problems.append(f"stratum {tag}: {frac} is not p * k / {count}")
            split += round(k)
        if abs(r.overall - r.p * split / r.n_fields) > 1e-9:
            problems.append(f"overall {r.overall} disagrees with strata ({split} split)")
        return [("table3 invariants", not problems, "; ".join(problems))]


class ClassifyWorkload(Workload):
    """One classify(D) per field, D = -q with q = 3 mod 4 prime, 1e8 <= q < 1.25e8.

    The fields come from classify_pool.json, sorted by their latency at the
    commit that defined the benchmark.  The pool is cut into CLASSIFY_STRATA
    strata of consecutive entries and the seed draws one field from each, so
    every sample holds the same share of slow fields, the slowest stratum
    included.  No field is dropped or capped for its latency.
    """

    name = "classify_large"
    op_label = "one classify(D) of a single field"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        pool = json.loads((HERE / "classify_pool.json").read_text())["fields"]
        n, k = len(pool), CLASSIFY_STRATA
        picks = [pool[self.rng.randrange(i * n // k, (i + 1) * n // k)] for i in range(k)]
        self.rng.shuffle(picks)
        self.fields = [e["q"] for e in picks]
        self.pins = {e["q"]: e["sha256"] for e in picks}

    def describe(self):
        return f"{len(self.fields)} fields D = -q, one per latency stratum of the pool"

    def ops(self):
        return self.fields

    def run(self, key):
        return layer("classify").classify(-key)

    def collect(self, key, raw):
        return {"digest": record_digest(raw), "fields": 1, "record": raw}

    def pinned(self, key):
        return self.pins[key]

    def spot_checks(self, outputs):
        checks = []
        for q, out in outputs.items():
            problems = record_problems(out["record"], full=False)
            if out["record"].h % 2 == 0:
                problems.append("h is even for a prime discriminant")
            checks.append((f"record invariants D=-{q}", not problems, "; ".join(problems)))
        return checks


WORKLOADS = {w.name: w for w in (ScanWorkload, TablesWorkload, ClassifyWorkload)}


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count), or None below 11 samples.
    """
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n, n
