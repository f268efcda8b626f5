"""The one A/B harness of the bench scripts: parent and change timed in one process.

    python3 bench/SCRIPT.py --parent DIR > BENCH_N.json

run() loads DIR/src/iqgalois as iqgalois_parent and this checkout's
src/iqgalois as iqgalois, side by side, so a drift in the host's pace lands
on both alike.  It hands both to the script's measure(), which returns one
list of blocks per library.  Every block field ending in _sha256 must be
equal between the two; otherwise run() exits 1 and prints no JSON.  Every
timing (a dict with passes_s) that both sides have is judged by paired():
pass i of the change against pass i of the parent, which timed_alternating
takes in the same pass.  The change's timing gets the fields
paired_ratio_median, paired_wins and verdict, and stderr one line with both
medians, both interquartile ranges, the ratio, the wins and the verdict.
It prints the BENCH document on stdout: the layer and, under "entries", the
"parent" and the "change" entry, each with the host it ran on and its
blocks.  `--parent .` measures this checkout against itself.  counted()
is the one way the scripts count calls, through wrappers on library globals;
compositions() counts with it the products of forms a call makes.
"""

import argparse
import contextlib
import functools
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
from unittest import mock

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


def counted(fn, targets) -> dict:
    """Run fn() with each (label, owner, name, weight) of targets wrapped: the counts by label.

    Each call of owner.name during fn() adds weight(args), args the call's
    positional arguments, to counts[label].  Two targets on one attribute
    both count: the second wraps the first.  Every original is restored
    when fn() returns or raises.
    """
    counts = {}

    def counting(label, orig, weight):
        def wrapper(*args, **kwargs):
            counts[label] += weight(args)
            return orig(*args, **kwargs)

        return wrapper

    with contextlib.ExitStack() as stack:
        for label, owner, name, weight in targets:
            counts.setdefault(label, 0)
            wrapper = counting(label, getattr(owner, name), weight)
            stack.enter_context(mock.patch.object(owner, name, wrapper))
        fn()
    return counts


def compositions(lib, fn) -> int:
    """The compositions of forms made by fn(), with lib: calls and lanes, counted().

    The calls of compose_unreduced, the scalar composition formula, through
    its module globals in quadform and idealgen, plus the lanes of every
    call of lanes._compose_lanes, the lock-step kernel of lanes.class_groups
    and of lanes._generator_lanes.  A job that leaves the generator lanes for
    the scalar route counts its products on both.
    """
    targets = [
        ("compositions", module, "compose_unreduced", lambda args: 1)
        for module in (lib.quadform, lib.idealgen)
    ]
    targets.append(("compositions", lib.lanes, "_compose_lanes", lambda args: args[0][0].size))
    return counted(fn, targets)["compositions"]


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


def paired(parent: list[float], change: list[float]) -> tuple[dict, str]:
    """The change's passes against the parent's, pass i with pass i: paired fields and report.

    paired_ratio_median is the median of change/parent over the pairs, and
    paired_wins "k/n": the change won k of the n pairs.  A tie counts for
    neither side, and so does a pair whose parent pass is 0 (below the 1 us
    the times are kept to), which also stays out of the ratio.  The verdict
    is the rule a gain is accepted by: "faster" when n >= 10, the change won
    at least 0.9 n of the pairs and its median lies below the parent's by
    more than the parent's interquartile range; "slower" in the mirror case;
    "unresolved" otherwise.
    """
    pairs = [(p, c) for p, c in zip(parent, change, strict=True) if p > 0]
    n = len(parent)
    wins, losses = sum(c < p for p, c in pairs), sum(c > p for p, c in pairs)
    p_median = round(statistics.median(parent), DECIMALS)
    c_median = round(statistics.median(change), DECIMALS)
    p_iqr, c_iqr = _iqr(parent), _iqr(change)
    gap = round(c_median - p_median, DECIMALS)
    verdict = "unresolved"
    if n >= 10 and wins >= 0.9 * n and -gap > p_iqr:
        verdict = "faster"
    elif n >= 10 and losses >= 0.9 * n and gap > p_iqr:
        verdict = "slower"
    ratio = round(statistics.median(c / p for p, c in pairs), 4) if pairs else None
    fields = {"paired_ratio_median": ratio, "paired_wins": f"{wins}/{n}", "verdict": verdict}
    side = "inside" if abs(gap) <= p_iqr else "outside"
    report = (
        f"median {p_median} -> {c_median} s, IQR {p_iqr} -> {c_iqr} s, "
        f"gap {side} the parent's IQR, paired ratio {ratio}, change won {wins}/{n} pairs: {verdict}"
    )
    return fields, report


def _leaves(record: dict, path: tuple = ()):
    """(path, value) for every non-dict value of a nested block."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _leaves(value, path + (key,))
        else:
            yield path + (key,), value


def run(doc: str, layer: str, measure) -> None:
    """Parse --parent, measure both libraries, gate digests, pair timings, print the document."""
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
            if key == "passes_s" and path in p_leaves and path in c_leaves:
                fields, line = paired(p_leaves[path], c_leaves[path])
                # into the change's dict that holds these passes
                functools.reduce(dict.__getitem__, prefix, c_block).update(fields)
                report.append(f"{where}: {line}")
    print("\n".join(report), file=sys.stderr)
    host = {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
    document = {
        "layer": layer,
        "entries": {name: {"host": host, "blocks": blocks} for name, blocks in entries.items()},
    }
    print(json.dumps(document, indent=1, sort_keys=True))
