"""The BENCH_*.json format and the timing loop shared by the bench scripts.

A file holds one layer name and, under "entries", one entry per --label:
the host it ran on and the measured blocks.  Entries with other labels are
kept, so one file holds a before and an after measured on the same machine.
"""

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np


def label_from_argv(description: str) -> str:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    return parser.parse_args().label


def timed(fn, repeats: int) -> tuple[list, dict]:
    """Call fn() repeats times: its results, and the median_s, min_s and repeats fields."""
    return timed_alternating([fn], repeats)[0]


def timed_alternating(fns: list, repeats: int) -> list[tuple[list, dict]]:
    """timed() for each of fns, calling them in turn on every pass.

    A drift in the host's pace during the passes then moves all of them alike.
    """
    results, times = [[] for _ in fns], [[] for _ in fns]
    for _ in range(repeats):
        for fn, out, spent in zip(fns, results, times):
            t0 = time.perf_counter()
            out.append(fn())
            spent.append(time.perf_counter() - t0)
    stats = [
        {
            "median_s": round(statistics.median(spent), 4),
            "min_s": round(min(spent), 4),
            "repeats": repeats,
        }
        for spent in times
    ]
    return list(zip(results, stats))


def write_entry(out: Path, layer: str, label: str, blocks: list[dict]) -> None:
    data = json.loads(out.read_text()) if out.exists() else {}
    data.setdefault("layer", layer)
    data.setdefault("entries", {})[label] = {
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "blocks": blocks,
    }
    out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
