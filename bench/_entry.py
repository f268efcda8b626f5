"""The one A/B harness of the bench scripts: parent and change timed in one process.

    python3 bench/SCRIPT.py --parent DIR > BENCH_N.json

run() loads DIR/src/iqgalois as iqgalois_parent and this checkout's
src/iqgalois as iqgalois, side by side, so a drift in the host's pace lands
on both alike.  It hands both to the script's measure(), which returns one
list of blocks per library.  Every block field ending in _sha256 must be
equal between the two; otherwise run() exits 1 and prints no JSON.  It
reports on stderr, for each timing, both medians, each side's interquartile
range of its passes_s, how many passes the change won, and whether the
medians differ by no more than the parent's interquartile range ("inside
the parent's spread") or by more ("outside").  It prints the BENCH document
on stdout: the layer and, under "entries", the "parent" and the "change"
entry, each with the host it ran on and its blocks.
`--parent .` measures this checkout against itself.
"""

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
DECIMALS = 6  # times are kept to 1 us, so sub-millisecond timings keep their spread


def load_parent(checkout: Path, name: str = "iqgalois_parent"):
    """The iqgalois package of checkout/src, imported as the package called name."""
    package = Path(checkout) / "src" / "iqgalois"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def lane_module(lib, old: str):
    """lib's module lanes, of the int64 lane kernels, or its module old for a library without one.

    A library from before the lane kernels had a module of their own keeps
    them in quadform, idealgen, localtest and classify.
    """
    try:
        return importlib.import_module(f"{lib.__name__}.lanes")
    except ModuleNotFoundError:
        return importlib.import_module(f"{lib.__name__}.{old}")


def sha256(data) -> str:
    """Hex digest of bytes, or of the compact JSON of anything else."""
    if not isinstance(data, bytes):
        data = json.dumps(data, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


def timed_alternating(fns: list, repeats: int) -> list[tuple[list, dict]]:
    """Call each of fns repeats times, in turn on every pass: per fn, its results and stats.

    Every other pass runs them in reverse order, so a drift in the host's
    pace during the passes moves all of them alike.  Each call runs with
    the cyclic collector paused, and its state is restored after the call,
    also when it raises: a collection that the garbage of earlier passes
    triggers would land on whichever call is running.  The stats are
    those of stats() over each fn's passes.
    """
    results, times = [[] for _ in fns], [[] for _ in fns]
    order = list(zip(fns, results, times))
    for i in range(repeats):
        for fn, out, spent in order if i % 2 == 0 else order[::-1]:
            collecting = gc.isenabled()
            gc.disable()
            try:
                t0 = time.perf_counter()
                out.append(fn())
                spent.append(time.perf_counter() - t0)
            finally:
                if collecting:
                    gc.enable()
    return list(zip(results, map(stats, times)))


def stats(spent: list[float]) -> dict:
    """The median_s, min_s, passes_s (in pass order) and repeats of one timing's passes."""
    return {
        "median_s": round(statistics.median(spent), DECIMALS),
        "min_s": round(min(spent), DECIMALS),
        "passes_s": [round(t, DECIMALS) for t in spent],
        "repeats": len(spent),
    }


def _iqr(passes: list[float]) -> float:
    """Interquartile range of pass times, by linear interpolation; 0 for one pass."""
    q1, q3 = np.percentile(passes, [25, 75])
    return round(float(q3 - q1), DECIMALS)


def _leaves(record: dict, path: tuple = ()):
    """(path, value) for every non-dict value of a nested block."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def run(doc: str, layer: str, measure) -> None:
    """Parse --parent, measure both libraries, gate their digests, print the BENCH document."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument(
        "--parent", type=Path, required=True, help="checkout to compare with (. for this one)"
    )
    parent = load_parent(parser.parse_args().parent)
    # a process that has imported iqgalois already (the tests) keeps its module objects
    change = sys.modules.get("iqgalois") or load_parent(REPO, "iqgalois")
    entries = measure({"parent": parent, "change": change})
    report = []
    for p_block, c_block in zip(entries["parent"], entries["change"], strict=True):
        p_leaves, c_leaves = dict(_leaves(p_block)), dict(_leaves(c_block))
        ident = "{}={}".format(*next(iter(c_block.items())))
        for path in sorted(set(p_leaves) | set(c_leaves)):
            *prefix, key = path
            where = " ".join((ident, *prefix))
            if key.endswith("_sha256") and p_leaves.get(path) != c_leaves.get(path):
                sys.exit(f"{where}: {key} differs between parent and change")
            if key == "passes_s":
                median = (*prefix, "median_s")
                p_median, c_median = p_leaves[median], c_leaves[median]
                p_iqr, c_iqr = _iqr(p_leaves[path]), _iqr(c_leaves[path])
                wins = sum(c < p for p, c in zip(p_leaves[path], c_leaves[path]))
                side = "inside" if round(abs(c_median - p_median), DECIMALS) <= p_iqr else "outside"
                report.append(
                    f"{where}: median {p_median} -> {c_median} s, "
                    f"IQR {p_iqr} -> {c_iqr} s, "
                    f"change faster in {wins}/{len(c_leaves[path])} passes, "
                    f"{side} the parent's spread"
                )
    print("\n".join(report), file=sys.stderr)
    host = {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    document = {
        "layer": layer,
        "entries": {name: {"host": host, "blocks": blocks} for name, blocks in entries.items()},
    }
    print(json.dumps(document, indent=1, sort_keys=True))
