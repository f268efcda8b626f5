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

    Every other pass runs them in reverse order, so a drift in the host's
    pace during the passes moves all of them alike.  The stats also hold
    each pass's time under passes_s, in the order of the passes.
    """
    results, times = [[] for _ in fns], [[] for _ in fns]
    order = list(zip(fns, results, times))
    for i in range(repeats):
        for fn, out, spent in order if i % 2 == 0 else order[::-1]:
            t0 = time.perf_counter()
            out.append(fn())
            spent.append(time.perf_counter() - t0)
    stats = [
        {
            "median_s": round(statistics.median(spent), 4),
            "min_s": round(min(spent), 4),
            "passes_s": [round(t, 4) for t in spent],
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
