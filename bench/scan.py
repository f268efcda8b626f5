"""Time a scan block stage by stage, parent against change.

    python3 bench/scan.py --parent DIR > BENCH_N.json

For each start in STARTS it runs survey._scan_block((start, start + WIDTH,
PRIMES)) with the library of the checkout DIR and with this checkout's, in
turn, REPEATS times, each with the cyclic collector paused
(bench/_entry.py), and after each block makes every row's checkpoint line
and CSV lines, as a scan with a checkpoint and persist do.  Wrappers on the
module globals of survey, installed around each block, time its stages:

- sieve: class_numbers_range;
- factors_validate: block_factors and every validate call;
- class_groups: lanes.class_groups, run to its end;
- lane_statuses: lanes.lane_statuses;
- rows: the rest of the block (torsion bases, classify_validated, the row
  objects);
- lines: _checkpoint_line and _csv_lines of every row, after the block.

scan_block is the whole _scan_block call, wrappers included.  Each block
records per stage the median and minimum time and every pass's time, and
two sha256 digests, which must agree between the two libraries: of the
rows (as bench/classgroup.py digests them) and of the lines.  scan_block
also records its compositions, counted over one more pass with no
wrapper but compositions()'s (bench/_entry.py), after the timed ones.
"""

import contextlib
import time
from unittest import mock

from _entry import compositions, run, sha256, stats, timed_alternating

STARTS = (10**4, 10**6, 10**7)
WIDTH = 10**4
PRIMES = (2, 3, 5, 7)
REPEATS = 10
# the stages that are one survey global each: stage -> the globals it wraps
WRAPPED = {
    "sieve": ("class_numbers_range",),
    "factors_validate": ("block_factors", "validate"),
    "class_groups": ("class_groups",),
    "lane_statuses": ("lane_statuses",),
}


def staged_scan(lib, start: int):
    """A pass over the block at start with lib: its rows, its lines and the time of each stage."""
    survey = lib.survey

    def timing(stage, fn, spent):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return list(out) if stage == "class_groups" else out
            finally:
                spent[stage] += time.perf_counter() - t0

        return wrapper

    def scan():
        spent = dict.fromkeys(WRAPPED, 0.0)
        with contextlib.ExitStack() as stack:
            for stage, names in WRAPPED.items():
                for name in names:
                    wrapper = timing(stage, getattr(survey, name), spent)
                    stack.enter_context(mock.patch.object(survey, name, wrapper))
            t0 = time.perf_counter()
            rows = survey._scan_block((start, start + WIDTH, PRIMES))
            spent["scan_block"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        lines = [
            survey._checkpoint_line(row) + "".join(line + "\n" for line in survey._csv_lines(row))
            for row in rows
        ]
        spent["lines"] = time.perf_counter() - t0
        spent["rows"] = spent["scan_block"] - sum(spent[stage] for stage in WRAPPED)
        return rows, lines, spent

    return scan


def measure(libs: dict) -> dict:
    entries = {name: [] for name in libs}
    for start in STARTS:
        timed = timed_alternating([staged_scan(lib, start) for lib in libs.values()], REPEATS)
        for name, (results, _) in zip(libs, timed):
            rows, lines, _ = results[-1]
            times = [spent for *_, spent in results]
            timings = {stage: stats([t[stage] for t in times]) for stage in times[0]}
            block = (start, start + WIDTH, PRIMES)
            lib = libs[name]
            timings["scan_block"]["compositions"] = compositions(
                lib, lambda: lib.survey._scan_block(block)
            )
            entries[name].append(
                {
                    "start": start,
                    "width": WIDTH,
                    "fields": len(rows),
                    **timings,
                    "rows_sha256": sha256([row.to_dict() for row in rows]),
                    "lines_sha256": sha256("".join(lines).encode()),
                }
            )
    return entries


if __name__ == "__main__":
    layer = "survey._scan_block by stage, and its checkpoint and CSV lines, on 1e4-blocks"
    run(__doc__, layer, measure)
