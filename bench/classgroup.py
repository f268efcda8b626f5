"""Time class-group assembly and the whole scan of two 1e4-blocks, parent against change.

    PYTHONPATH=src python3 bench/classgroup.py --parent PARENT_CHECKOUT

Loads this checkout's iqgalois and PARENT_CHECKOUT/src/iqgalois, under the
second package name iqgalois_parent, into one process, so that a drift in
the host's pace lands on both libraries alike.  For each start in STARTS it
times, with either library, quadform.class_group(validate(-m), known_h=h)
over every fundamental |D| of the block [start, start + 1e4), with h from
the survey sieve, and the whole survey._scan_block of the same block
(sieve, class groups, generators, local images, rows) with the primes
PRIMES.  The four passes are taken in turn, REPEATS times, in reverse
order on every other round.  The result goes to BENCH_17.json at the
repository root, as the entries "parent" and "change".

Each block records the median and minimum wall time of either kind of
pass, every pass's time, the number of compositions, and three sha256
digests, which must agree between the two libraries (the script stops
otherwise): of the odd-q Sylow data (q, orders and basis forms per field),
of the 2-Sylow orders, and of the scan rows.  The 2-Sylow basis is left
out: any basis of exact orders is correct, and the verdict at p = 2 does
not read it.  It also counts the even-h fields by the route their 2-orders
took, read from the shape of sylow[2]: genus theory (no basis) with 4-rank
0, 1 or 2, or a walk (an entry with a basis: the table walk at 4-rank 3 or
more, or the 2-Sylow chain walk of older versions).  Compositions are
counted as calls of compose_unreduced, the one composition formula, through
wrappers on its module globals in quadform and idealgen: once over a
class-group pass and once over a scan pass.
"""

import argparse
import collections
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from _entry import timed_alternating, write_entry
import iqgalois
from iqgalois.survey import BLOCK_SIZE

STARTS = (10**6, 10**7)
PRIMES = (2, 3, 5, 7)
REPEATS = 8
OUT = Path(__file__).resolve().parent.parent / "BENCH_17.json"


def load_parent(checkout: Path):
    """The iqgalois package of another checkout, imported as iqgalois_parent."""
    package = checkout / "src" / "iqgalois"
    spec = importlib.util.spec_from_file_location(
        "iqgalois_parent", package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def sha256(data) -> str:
    return hashlib.sha256(json.dumps(data, separators=(",", ":")).encode()).hexdigest()


def odd_sylow_data(cg) -> list:
    return [cg.discriminant] + [
        [q, list(orders), [[f.a, f.b, f.c] for f in basis]]
        for q, (orders, basis) in sorted(cg.sylow.items())
        if q != 2
    ]


def two_sylow_orders(cg) -> list:
    return [cg.discriminant, list(cg.sylow[2][0]) if 2 in cg.sylow else []]


def two_part_route(cg) -> str:
    orders, basis = cg.sylow[2]
    if basis is not None:
        return "walk"
    return f"r4={sum(o >= 4 for o in orders)}"


def count_products(lib, fn) -> int:
    """compose_unreduced calls made by fn(), counted through wrappers on lib's module globals."""
    quadform, idealgen = lib.quadform, lib.idealgen
    orig = quadform.compose_unreduced
    calls = 0

    def counting(f, g):
        nonlocal calls
        calls += 1
        return orig(f, g)

    quadform.compose_unreduced = idealgen.compose_unreduced = counting
    try:
        fn()
    finally:
        quadform.compose_unreduced = idealgen.compose_unreduced = orig
    return calls


def passes(lib, start: int) -> tuple:
    """The class-group pass and the scan pass of one block, with lib."""
    survey = lib.survey
    sieved = survey.class_numbers_range(start, start + BLOCK_SIZE)
    fields = [(lib.discriminant.validate(-m), h) for m, h in sieved]

    def groups():
        return [lib.quadform.class_group(d, known_h=h) for d, h in fields]

    def scan():
        return survey._scan_block((start, start + BLOCK_SIZE, PRIMES))

    return len(fields), groups, scan


def measure(libs: dict, start: int) -> dict:
    """One block's record for each library, keyed as libs is."""
    runs = {name: passes(lib, start) for name, lib in libs.items()}
    timed = timed_alternating([fn for _, *fns in runs.values() for fn in fns], REPEATS)
    out = {}
    for (name, lib), (cgs, cg_timing), (rows, scan_timing) in zip(
        libs.items(), timed[0::2], timed[1::2]
    ):
        fields, groups, scan = runs[name]
        out[name] = {
            "start": start,
            "width": BLOCK_SIZE,
            "fields": fields,
            "class_group": {**cg_timing, "compositions": count_products(lib, groups)},
            "scan_block": {**scan_timing, "compositions": count_products(lib, scan)},
            "odd_sylow_sha256": sha256([odd_sylow_data(cg) for cg in cgs[-1]]),
            "two_sylow_orders_sha256": sha256([two_sylow_orders(cg) for cg in cgs[-1]]),
            "rows_sha256": sha256([row.to_dict() for row in rows[-1]]),
            "two_part_routes": dict(
                collections.Counter(two_part_route(cg) for cg in cgs[-1] if 2 in cg.sylow)
            ),
        }
    for key in ("odd_sylow_sha256", "two_sylow_orders_sha256", "rows_sha256"):
        if len({record[key] for record in out.values()}) != 1:
            sys.exit(f"|D| from {start}: {key} differs between the libraries")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout to compare with")
    libs = {"parent": load_parent(parser.parse_args().parent), "change": iqgalois}
    blocks = [measure(libs, start) for start in STARTS]
    for b in blocks:
        for name, rec in b.items():
            cg, scan = rec["class_group"], rec["scan_block"]
            print(
                f"{name}: |D| from {rec['start']}: {rec['fields']} fields; class_group median "
                f"{cg['median_s']} s, {cg['compositions']} compositions; _scan_block median "
                f"{scan['median_s']} s, {scan['compositions']} compositions; "
                f"2-part routes {rec['two_part_routes']}"
            )
        wins = [
            sum(c < p for c, p in zip(b["change"][k]["passes_s"], b["parent"][k]["passes_s"]))
            for k in ("class_group", "scan_block")
        ]
        print(f"change faster: class_group {wins[0]}/{REPEATS}, _scan_block {wins[1]}/{REPEATS}")
    layer = (
        "quadform.class_group(known_h) and survey._scan_block, "
        "every fundamental |D| of a 1e4-block"
    )
    for name in libs:
        write_entry(OUT, layer, name, [b[name] for b in blocks])


if __name__ == "__main__":
    main()
