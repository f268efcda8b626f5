"""The BENCH_*.json format shared by the bench scripts.

A file holds one layer name and, under "entries", one entry per --label:
the host it ran on and the measured blocks.  Entries with other labels are
kept, so one file holds a before and an after measured on the same machine.
"""

import argparse
import json
import os
import platform
from pathlib import Path

import numpy as np


def label_from_argv(description: str) -> str:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--label", required=True, help="entry name, e.g. parent or change")
    return parser.parse_args().label


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
