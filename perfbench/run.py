"""Benchmark of iqgalois: survey scans, census tables and single-field classify.

Run from the repository root:

    python3 perfbench/run.py --workload scan_1e6 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

--trace 0 times the workload with tracing off and prints the end-to-end
metrics; --trace 1 makes one plain pass, one pass that only counts compose
calls and one traced pass, and prints the per-layer metrics.  Every run checks the
outputs; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every op and every
check passed, 1 when one failed, and 2 when the checkout has no iqgalois
package under src/.  README.md describes the workloads and metrics.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
NAMES = ("scan_1e6", "tables_1e7", "classify_large")
SETUP_REPEATS = 9
# Prints the set-up wall time, then three kernel times taken right after it
# in the same process, which measure that process's pace (calib.py).
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import iqgalois
iqgalois.classify(-23)
t1 = time.perf_counter()
sys.path.insert(0, sys.argv[2])
import calib
print(t1 - t0, *(calib.kernel_seconds() for _ in range(3)))
"""
LAYERS = ("survey", "quadform", "idealgen", "localtest", "classify", "discriminant")
# Printed beside the BENCHMARK.json metrics, each by one workload.
WORKLOAD_NAMES = (
    "scan_fields_per_s",
    "tables_wall_s",
    "classify_p50_s",
    "classify_tail_s",
    "classify_total_s",
)

# Per-layer metrics in BENCHMARK.json: (name, unit).  Times are self times
# in the traced pass.
PER_LAYER = (
    ("quadform.class_group_s", "s"),
    ("quadform.p_torsion_basis_s", "s"),
    ("quadform.self_s", "s"),
    ("idealgen.ideal_power_s", "s"),
    ("idealgen.principal_generator_s", "s"),
    ("idealgen.self_s", "s"),
    ("localtest.local_image_s", "s"),
    ("classify.self_s", "s"),
    ("discriminant.validate_s", "s"),
    ("survey.sieve_s", "s"),
    ("survey.mask_s", "s"),
    ("survey.scan_self_s", "s"),
    ("survey.persist_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("survey.sieve_calls", "count"),
    ("survey.checkpoint_bytes", "bytes"),
    ("quadform.class_group_calls", "count"),
    ("quadform.h_source.sieve", "count"),
    ("quadform.h_source.enumerate", "count"),
    ("quadform.h_source.bsgs", "count"),
    ("quadform.compose_calls", "count"),
    ("idealgen.generator_calls", "count"),
    ("idealgen.generator_bits_max", "bits"),
    ("idealgen.generator_bits_sum", "bits"),
    ("localtest.closed_form_calls", "count"),
    ("localtest.engine_calls", "count"),
    ("localtest.two_family_calls", "count"),
    ("classify.primes_tested", "count"),
    ("classify.rank_overflow", "count"),
    ("discriminant.validate_calls", "count"),
)
# Printed and kept in the report, but not in BENCHMARK.json.
PRINTED_ONLY = (
    ("survey.self_s", "s"),
    ("trace.unattributed_s", "s"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package() -> None:
    """Import iqgalois from this checkout's src/, or exit 2."""
    if not (SRC / "iqgalois" / "__init__.py").is_file():
        print(f"perfbench: no iqgalois package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import iqgalois

    if Path(iqgalois.__file__).resolve().parent != (SRC / "iqgalois").resolve():
        print(f"perfbench: imported iqgalois from {iqgalois.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Checks:
    """Ops and output checks; every failure counts in fail_ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAIL {name}: {detail}", file=sys.stderr)

    def run_checks(self, name: str, fn, *args) -> None:
        """Record the (name, ok, detail) triples fn returns; an exception fails."""
        try:
            results = fn(*args)
        except Exception:
            self.record(name, False, traceback.format_exc())
            return
        for check, ok, detail in results:
            self.record(check, ok, detail)


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import iqgalois and finish its first call.

    Returns (calibrated, wall) seconds; each child calibrates itself.
    """
    import calib

    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            check=True,
            capture_output=True,
            text=True,
            timeout=60,
        )
        t, *kernel = map(float, out.stdout.split())
        wall.append(t)
        scaled.append(t * calib.REFERENCE_S / statistics.median(kernel))
    return statistics.median(scaled), statistics.median(wall)


def run_pass(wl, checks: Checks, tracer=None, deadline=None) -> tuple[dict, dict]:
    """A pass over the workload's ops: ({op: (start, end)}, {op: output}).

    With a deadline the pass stops at the first op that would start after it.
    """
    intervals, outputs = {}, {}
    for key in wl.ops():
        if deadline is not None and time.perf_counter() >= deadline:
            break
        span = tracer.open("bench.op") if tracer else None
        start = time.perf_counter()
        try:
            raw = wl.run(key)
        except Exception:
            checks.record(f"op {key}", False, traceback.format_exc())
            continue
        finally:
            end = time.perf_counter()
            if tracer:
                tracer.close(span)
        try:
            outputs[key] = wl.collect(key, raw)
        except Exception:
            checks.record(f"op {key}", False, traceback.format_exc())
            continue
        checks.record(f"op {key}", True)
        intervals[key] = (start, end)
    return intervals, outputs


def check_outputs(wl, passes: list[dict], checks: Checks) -> None:
    """Pinned and repeat digests over every pass, spot checks and the guard."""
    first = passes[0]
    for outputs in passes:  # a later pass may stop short at the deadline
        for key, out in outputs.items():
            pin = wl.pinned(key)
            checks.record(f"pinned digest {key}", out["digest"] == pin, f"{out['digest']} != {pin}")
            if out is not first[key]:
                same = out["digest"] == first[key]["digest"]
                checks.record(f"repeat digest {key}", same, "passes differ")
    checks.run_checks("spot checks", wl.spot_checks, first)
    checks.run_checks("guard", wl.guard, first)


def timed_passes(wl, seconds: float, checks: Checks, cal) -> tuple[list, dict, dict, float]:
    """One whole pass, then more ops in pass order until `seconds` have gone by.

    Returns the passes' outputs, per op its wall and calibrated times, and
    the peak RSS in MB at the end of the first pass.  The harness holds on
    to each pass's outputs, so a later reading would grow with the number
    of passes, which a faster library raises.
    """
    passes, timed = [], []
    with cal:
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            intervals, outputs = run_pass(wl, checks, deadline=deadline if passes else None)
            passes.append(outputs)
            timed.append(intervals)
            if len(passes) == 1:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                if len(outputs) < len(wl.ops()):
                    break
    wall, scaled = {}, {}
    for intervals in timed:
        for key, (start, end) in intervals.items():
            wall.setdefault(key, []).append(cal.unscaled(start, end))
            scaled.setdefault(key, []).append(cal.scale(start, end))
    return passes, wall, scaled, rss_mb


def end_to_end(wl, wall: dict, scaled: dict, fields: dict, setup: tuple, rss_mb: float) -> tuple:
    """The BENCHMARK.json metrics, and the workload's own names printed beside them.

    Each op counts with the median of its passes, and op_p50_cal_s is the
    median of those over the ops.  Times are in calibrated seconds
    (calib.py); the wall-clock median is printed beside them.
    """
    per_op = {key: statistics.median(v) for key, v in scaled.items()}
    op_p50 = statistics.median(per_op.values())
    metrics = {
        "op_p50_cal_s": (op_p50, "s"),
        "setup_s": (setup[0], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    named = {}
    if wl.name == "scan_1e6":
        named["scan_fields_per_s"] = (sum(fields.values()) / sum(per_op.values()), "fields/s")
    elif wl.name == "tables_1e7":
        named["tables_wall_s"] = (op_p50, "s")
    else:
        import workloads

        named["classify_p50_s"] = (op_p50, "s")
        tail = workloads.tail(list(per_op.values()))
        if tail is not None:
            named["classify_tail_s"] = (tail[0], f"s (p{tail[1]:.0f} of {tail[2]} fields)")
        named["classify_total_s"] = (sum(per_op.values()), "s")
    wall_p50 = statistics.median(statistics.median(v) for v in wall.values())
    named["op_p50_wall_s"] = (wall_p50, "s (uncalibrated)")
    named["setup_wall_s"] = (setup[1], "s (uncalibrated)")
    return metrics, named


def traced_passes(wl, checks: Checks, spans_path: Path, cal) -> tuple[list, dict]:
    """A plain pass, a count-only pass and a traced pass; returns the per-layer values.

    Per-layer times are wall seconds of the traced pass, less the time of
    the calibration kernels that interrupted it.  The overhead ratio
    compares the calibrated times of the traced and the plain pass, so that
    a change of the machine's pace between the two does not show as
    tracing cost.
    """
    import tracer as tracing

    t0 = time.perf_counter()
    tr = tracing.Tracer()
    with cal:
        # Nothing wrapped: the reference for the tracing overhead.
        untraced, plain = run_pass(wl, checks)
        # Only compose wrapped, for its count; this pass is not timed.
        with tr.counting_compose():
            _, counted = run_pass(wl, checks)
        tr.install()
        try:
            tr.recording = True
            traced_at, traced = run_pass(wl, checks, tr)
        finally:
            tr.recording = False
            tr.uninstall()
    traced_wall = sum(cal.unscaled(*i) for i in traced_at.values())
    untraced_cal = sum(cal.scale(*i) for i in untraced.values())
    overhead = sum(cal.scale(*i) for i in traced_at.values()) / untraced_cal if untraced else 0.0
    tr.write(spans_path, t0)
    tr.counts["survey.checkpoint_bytes"] = sum(o.get("checkpoint_bytes", 0) for o in traced.values())

    own = tr.self_times(cal.samples)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, t in own.items():
        if name.split(".")[0] in by_layer:
            by_layer[name.split(".")[0]] += t
    values = {
        "survey.sieve_s": own.get("survey.reduced_form_counts", 0.0),
        "survey.mask_s": own.get("survey.fundamental_mask", 0.0),
        "survey.scan_self_s": own.get("survey.scan", 0.0),
        "survey.persist_s": own.get("survey.persist", 0.0),
        "survey.self_s": by_layer["survey"],
        "quadform.class_group_s": own.get("quadform.class_group", 0.0),
        "quadform.p_torsion_basis_s": own.get("quadform.p_torsion_basis", 0.0),
        "quadform.self_s": by_layer["quadform"],
        "idealgen.ideal_power_s": own.get("idealgen.ideal_power", 0.0),
        "idealgen.principal_generator_s": own.get("idealgen.principal_generator", 0.0),
        "idealgen.self_s": by_layer["idealgen"],
        "localtest.local_image_s": by_layer["localtest"],
        "classify.self_s": by_layer["classify"],
        "discriminant.validate_s": own.get("discriminant.validate", 0.0),
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": overhead,
        "trace.unattributed_s": own.get("bench.op", 0.0),
    }
    for name, unit in PER_LAYER:
        values.setdefault(name, tr.counts[name])
    print(f"spans: {len(tr.spans)} written to {spans_path.relative_to(ROOT)}")
    return [plain, counted, traced], values


def print_metrics(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def report_path(name: str, args) -> Path:
    return WORKDIR / f"report-{name}-seed{args.seed}-trace{args.trace}.json"


def run_workload(args) -> int:
    import_package()
    sys.path.insert(0, str(HERE))
    import calib
    import workloads

    WORKDIR.mkdir(exist_ok=True)
    checks = Checks()
    wl = workloads.WORKLOADS[args.workload](args.seed, WORKDIR)
    print(f"{wl.name} seed={args.seed}: {wl.describe()}; op = {wl.op_label}")
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "inputs": wl.describe()}
    cal = calib.Calibrator()
    setup = None if args.trace else measure_setup()
    wl.warm_up()
    if args.trace:
        spans_path = WORKDIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
        passes, values = traced_passes(wl, checks, spans_path, cal)
    else:
        passes, wall, scaled, rss_mb = timed_passes(wl, args.seconds, checks, cal)
    # The guard forks scan's pool workers, which would print a copy of any
    # output still buffered here.
    sys.stdout.flush()
    if len(passes[0]) == len(wl.ops()):
        check_outputs(wl, passes, checks)

    metrics = {}
    if checks.failed == 0 and not args.trace:
        fields = {key: out["fields"] for key, out in passes[0].items()}
        metrics, named = end_to_end(wl, wall, scaled, fields, setup, rss_mb)
        named["calibration_factor"] = (cal.median_factor(), "median over ops")
        fail_ratio = checks.failed / checks.attempted
        named["fail_ratio"] = (fail_ratio, f"ratio ({checks.failed}/{checks.attempted})")
        print_metrics(f"end-to-end ({len(passes)} passes)", {**named, **metrics})
        report["named"] = as_json(named)
        report["passes"] = len(passes)
    elif checks.failed == 0:
        units = dict(PER_LAYER + PRINTED_ONLY)
        layer_metrics = {k: (values[k], u) for k, u in units.items()}
        print_metrics("per-layer (traced pass)", layer_metrics)
        wall = values["trace.wall_s"]
        shares = {
            f"share.{name}": (values[key] / wall, "of traced wall")
            for name, key in (
                ("sieve", "survey.sieve_s"),
                ("survey", "survey.self_s"),
                ("quadform", "quadform.self_s"),
                ("idealgen", "idealgen.self_s"),
                ("localtest", "localtest.local_image_s"),
                ("classify", "classify.self_s"),
                ("discriminant", "discriminant.validate_s"),
                ("unattributed", "trace.unattributed_s"),
            )
        }
        print_metrics("shares", shares)
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
        report["per_layer"] = as_json(layer_metrics)
        report["shares"] = as_json(shares)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": as_json(metrics),
    }
    report.update(result)
    report_path(wl.name, args).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if checks.failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process so that peak RSS is its own.

    The last line carries the workload-specific names (WORKLOAD_NAMES) as
    they are, every other metric prefixed by its workload, and fail_ratio
    over all three.
    """
    import_package()
    WORKDIR.mkdir(exist_ok=True)
    attempted = failed = 0
    metrics = {}
    for name in NAMES:
        path = report_path(name, args)
        path.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code = subprocess.run(cmd, check=False).returncode
        if not path.is_file():
            attempted, failed = attempted + 1, failed + 1
            continue
        report = json.loads(path.read_text())
        attempted += report["attempted"]
        failed += report["failed"] + (code != 0 and report["failed"] == 0)
        for key, value in {**report.get("named", {}), **report["metrics"]}.items():
            if key in WORKLOAD_NAMES:
                metrics[key] = value
            elif key != "fail_ratio":
                metrics[f"{name}.{key}"] = value
    metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
