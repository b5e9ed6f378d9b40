"""Benchmark of the markoff package: three seeded workloads, one per process.

    python3 bench/run.py --workload census_grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 0 --seconds 30 [--record FILE]

A run imports the package from `src/` beside this directory, generates the
workload's operations from the seed, and repeats the operation list (a pass)
at least MIN_PASSES times, and again while one more pass still ends within
`--seconds`.  Each operation's latency is its mean over the passes, so a
latency percentile spreads over the whole run, as the wall time of a pass
does, instead of resting on single samples taken at single moments of a
machine whose speed drifts.  Operations run in-process and single-threaded,
through `markoff.cli.main` with stdout captured or through public library
functions.  Outputs are checked after the timed passes; a later pass must
reproduce the first pass's outputs exactly.

The host's speed drifts by up to 45% over seconds to minutes, because other
tenants share its cores; that is more than the bounds allow.  An untraced
pass therefore times a fixed pure-Python loop between operations, at most
every CALIBRATION_EVERY_S, and the end-to-end times are scaled by
CALIBRATION_REF_S over the mean of those loop times without their fastest and
slowest tenth: they are the times the run would have taken at the speed where
the loop takes CALIBRATION_REF_S.  The speed flips between a fast and a slow
state within a second; the mean follows the share of time spent in each, as
an operation's time does, where a median would jump from one state to the
other, and the trimmed tenths drop loops that a preemption stretched.
The program does not run inside the loop, so a change to the program moves
the scaled times as it moves the measured ones.  The measured times and the
scale factor are printed to stderr.

`--trace 0` reports the end-to-end metrics, measured with tracing off.
`--trace 1` runs a traced, an untraced and a traced pass, reports the
per-layer metrics from the spans, writes the spans to `bench/out/`, and
fails the run when an exact work count differs between the traced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `--all` runs every workload in its own
process, traced and untraced, prints every metric with its unit, and with
`--record` writes them as one point of the benchmark trajectory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("census_grid", "deep_orbit", "count_sweep")
# One pass takes about 16 s, 10 s and 6 s on a 2-vCPU x86_64 machine with
# Python 3.11, so a 30-second run makes 2, 2-3 and 3-5 passes there.
MIN_PASSES = 2
CALIBRATION_EVERY_S = 0.1
CALIBRATION_REF_S = 1.2e-3  # the loop's time on that machine when it runs fast
SETUP_REPEATS = 3  # fresh processes before each pass and after the last
P90_MIN_BEYOND = 10  # samples beyond the 90th percentile for it to be meaningful

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
)

PER_LAYER = (
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("poly.parse_s", "s"),
    ("poly.parse_chars", "count"),
    ("poly.mul_calls", "count"),
    ("poly.mul_s", "s"),
    ("poly.mul_coeff_products", "count"),
    ("poly.render_s", "s"),
    ("poly.kernel_mul_calls", "count"),
    ("poly.kernel_mul_s", "s"),
    ("poly.sqrt_calls", "count"),
    ("poly.sqrt_s", "s"),
    ("poly.sqrt_hit_ratio", "ratio"),
    ("poly.self_s", "s"),
    ("field.sqrt_calls", "count"),
    ("field.sqrt_s", "s"),
    ("field.sqrt_residue_ratio", "ratio"),
    ("field.self_s", "s"),
    ("triples.is_solution_calls", "count"),
    ("triples.is_solution_s", "s"),
    ("triples.descend_calls", "count"),
    ("triples.descend_steps", "count"),
    ("triples.descend_s", "s"),
    ("triples.tree_nodes", "count"),
    ("triples.tree_s", "s"),
    ("triples.export_s", "s"),
    ("triples.self_s", "s"),
    ("oracle.enumerate_s", "s"),
    ("oracle.solutions", "count"),
    ("oracle.pair_bound", "count"),
    ("oracle.yield_ratio", "ratio"),
    ("oracle.classify_s", "s"),
    ("oracle.jsonl_s", "s"),
    ("oracle.jsonl_bytes", "bytes"),
    ("oracle.tree_oracle_s", "s"),
    ("oracle.self_s", "s"),
    ("counting.calls", "count"),
    ("counting.s", "s"),
    ("counting.factorize_calls", "count"),
    ("counting.divisor_terms", "count"),
    ("counting.self_s", "s"),
    ("euclid.layer_s", "s"),
    ("euclid.layer_triples", "count"),
    ("euclid.membership_s", "s"),
    ("euclid.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

# Exact work counts that must repeat between two traced passes.
EXACT_COUNTS = (
    "poly.mul_calls",
    "poly.sqrt_calls",
    "field.sqrt_calls",
    "triples.descend_steps",
    "triples.tree_nodes",
    "oracle.solutions",
    "counting.divisor_terms",
)

# The first CLI call of a fresh process finishes lazy set-up (the parser,
# the sqrt(-1) cache); users pay all of it on every CLI call.
SETUP_CODE = """
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import markoff, markoff.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = markoff.cli.main(["verify", "--p", "13", "--A", "1",
                           "--triple", "(t; t+2*i; t^2+2*i*t-2)"])
elapsed = time.perf_counter() - t0
if rc != 0 or '"solution": true' not in out.getvalue():
    sys.exit("set-up call failed")
print(repr(elapsed))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="with --all: write the results")
    parser.add_argument("--label", default="", help="with --record: what was measured")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return args


def import_package():
    """Import markoff from src/ beside the benchmark, never from elsewhere."""
    if not (SRC / "markoff" / "__init__.py").is_file():
        raise SystemExit(f"error: no markoff package under {SRC}")
    sys.path.insert(0, str(SRC))
    import markoff.cli

    if Path(markoff.__file__).resolve().parent != SRC / "markoff":
        raise SystemExit(f"error: imported markoff from {markoff.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# measuring


def measure_setup():
    """Set-up times of fresh processes: import plus the first CLI call."""
    code = SETUP_CODE.format(src=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up process failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def calibration_loop():
    """Time one fixed pure-Python loop of integer arithmetic."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


class Runner:
    """Runs passes over one operation list and checks their outputs."""

    def __init__(self, workloads, ops):
        self.workloads = workloads
        self.ops = ops
        self.first = {}  # op id -> output of the first pass
        self.bad = {}  # op id -> why it failed
        self.passes = 0
        self.failures = set()  # (pass, op id) of every failed execution

    @property
    def attempted(self):
        return self.passes * len(self.ops)

    @property
    def failed(self):
        return len(self.failures)

    def run_pass(self, tracer=None, reverse=False, calibrations=None):
        """One pass, in list order or reversed; returns each operation's
        latency in seconds, in list order.  With a `calibrations` list, times
        the calibration loop into it between operations."""
        execute, file_digest = self.workloads.execute, self.workloads.file_digest
        latencies = [0.0] * len(self.ops)
        calibrated = -math.inf
        for k in reversed(range(len(self.ops))) if reverse else range(len(self.ops)):
            op = self.ops[k]
            if calibrations is not None and time.perf_counter() - calibrated >= CALIBRATION_EVERY_S:
                calibrations.append(calibration_loop())
                calibrated = time.perf_counter()
            if tracer is not None:
                tracer.open_op(op.id)
            start = time.perf_counter()
            try:
                result = execute(op)
            except Exception:  # an operation that raises counts as failed
                result = None
                error = traceback.format_exc(limit=3)
            else:
                error = None
            latencies[k] = time.perf_counter() - start
            if tracer is not None:
                tracer.close_op()
            if error is None and op.out_file is not None:
                result = (result, file_digest(op.out_file))
            if error is None and op.id not in self.first:
                self.first[op.id] = result
            elif error is None and result != self.first[op.id]:
                error = "output differs from the first pass"
            if error is not None:
                self.failures.add((self.passes, op.id))
                self.bad.setdefault(op.id, error)
        self.passes += 1
        return latencies

    def check(self, seed):
        """Check every first-pass output; a wrong output fails in every pass."""
        rng = random.Random(seed)
        for op in self.ops:
            if op.id not in self.first:
                continue
            try:
                self.workloads.check(op, self.first[op.id], self.first, rng)
            except self.workloads.CHECK_ERRORS as exc:
                self.bad.setdefault(op.id, f"{op.kind}: {type(exc).__name__}: {exc}")
                self.failures.update((k, op.id) for k in range(self.passes))
        for op_id, why in sorted(self.bad.items())[:5]:
            print(f"op {op_id} failed: {why}", file=sys.stderr)


def trimmed_mean(values, share=0.1):
    """Mean without the lowest and the highest `share` of the values."""
    ordered = sorted(values)
    cut = int(len(ordered) * share)
    return statistics.mean(ordered[cut:len(ordered) - cut])


def percentile(values, share):
    """Nearest-rank percentile: never interpolates across a gap in the data."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def run_untraced(runner, seconds):
    # set-up samples are spread over the run, so that their median does not
    # rest on one moment of a machine whose speed drifts; passes alternate
    # their order, so that an operation's mean latency samples the run's
    # middle, not the moment its place in the list falls on
    setups, walls, per_op, calibrations = [], [], [[] for _ in runner.ops], []
    start = time.perf_counter()
    while (len(walls) < MIN_PASSES
           or time.perf_counter() - start + statistics.mean(walls) <= seconds):
        setups.extend(measure_setup())
        lat = runner.run_pass(reverse=len(walls) % 2 == 1, calibrations=calibrations)
        walls.append(sum(lat))
        for samples, latency in zip(per_op, lat):
            samples.append(latency)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups.extend(measure_setup())
    op_means = [statistics.mean(samples) for samples in per_op]
    measured = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(op_means) * 1e3,
        "op_p90_ms": percentile(op_means, 0.9) * 1e3,
    }
    loop_s = trimmed_mean(calibrations)
    scale = CALIBRATION_REF_S / loop_s
    print(f"calibration loop: trimmed mean {loop_s * 1e3:.4f} ms over {len(calibrations)} timings; "
          f"times scaled by {scale:.4f}", file=sys.stderr)
    for name, value in measured.items():
        print(f"measured {name} {value}", file=sys.stderr)
    values = {name: value * scale for name, value in measured.items()}
    values["peak_rss_mb"] = peak_rss_mb
    return values, len(walls)


def layer_metrics(tracer, summary):
    calls, busy, c = summary["name_calls"], summary["name_busy"], tracer.counters
    NAME, PARENT, BUSY = tracing.NAME, tracing.PARENT, tracing.BUSY
    spans = tracer.spans
    census = {i for i, r in enumerate(spans) if r[NAME] == "oracle.census"}
    enumerate_in_census = sum(
        r[BUSY] for r in spans if r[NAME] == "oracle.enumerate" and r[PARENT] in census
    )

    def ratio(hits, total):
        return hits / total if total else 0.0

    m = {
        "cli.calls": calls["cli.main"],
        "poly.parse_s": busy["poly.parse"],
        "poly.parse_chars": c["poly.parse_chars"],
        "poly.mul_calls": calls["poly.mul"],
        "poly.mul_s": busy["poly.mul"],
        "poly.mul_coeff_products": c["poly.mul_coeff_products"],
        "poly.render_s": busy["poly.render"],
        "poly.kernel_mul_calls": calls["poly.kernel_mul"],
        "poly.kernel_mul_s": busy["poly.kernel_mul"],
        "poly.sqrt_calls": calls["poly.sqrt"],
        "poly.sqrt_s": busy["poly.sqrt"],
        "poly.sqrt_hit_ratio": ratio(c["poly.sqrt_hits"], calls["poly.sqrt"]),
        "field.sqrt_calls": calls["field.sqrt"],
        "field.sqrt_s": busy["field.sqrt"],
        "field.sqrt_residue_ratio": ratio(c["field.sqrt_residues"], calls["field.sqrt"]),
        "triples.is_solution_calls": calls["triples.is_solution"],
        "triples.is_solution_s": busy["triples.is_solution"],
        "triples.descend_calls": calls["triples.descend"],
        "triples.descend_steps": c["triples.descend_steps"],
        "triples.descend_s": busy["triples.descend"],
        "triples.tree_nodes": c["triples.tree_nodes"],
        "triples.tree_s": busy["triples.tree"],
        "triples.export_s": busy["triples.export"],
        "oracle.enumerate_s": busy["oracle.enumerate"],
        "oracle.solutions": c["oracle.solutions"],
        "oracle.pair_bound": c["oracle.pair_bound"],
        "oracle.yield_ratio": ratio(c["oracle.solutions"], calls["poly.sqrt"]),
        "oracle.classify_s": busy["oracle.census"] - enumerate_in_census,
        "oracle.jsonl_s": busy["oracle.jsonl"],
        "oracle.jsonl_bytes": c["oracle.jsonl_bytes"],
        "oracle.tree_oracle_s": busy["oracle.tree_oracle"],
        "counting.calls": sum(
            n for name, n in calls.items()
            if name.startswith("counting.") and name != "counting.factorize"
        ),
        "counting.s": summary["layer_busy"]["counting"],
        "counting.factorize_calls": calls["counting.factorize"],
        "counting.divisor_terms": c["counting.divisor_terms"],
        "euclid.layer_s": busy["euclid.layer"],
        "euclid.layer_triples": c["euclid.layer_triples"],
        "euclid.membership_s": busy["euclid.membership"],
    }
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = summary["layer_self"][layer]
    return m


def self_shares(metrics):
    """Each layer's share of the self time spent in the package's layers."""
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    shares = {layer: metrics[f"{layer}.self_s"] / total for layer in tracing.LAYERS}
    return ", ".join(f"{layer} {share:.3f}" for layer, share in
                     sorted(shares.items(), key=lambda kv: -kv[1]))


def run_traced(runner, workload, seed):
    results, walls = [], []
    for k in (1, 2):
        if k == 2:
            # the untraced pass sits between the traced ones, so that a drift
            # in machine speed cancels out of the overhead ratio
            untraced_wall = sum(runner.run_pass())
        tracer = tracing.Tracer()
        restore, absent = tracing.install(tracer)
        try:
            walls.append(sum(runner.run_pass(tracer)))
        finally:
            tracing.uninstall(restore)
        results.append(layer_metrics(tracer, tracer.summary()))
        with open(OUT / f"trace-{workload}-seed{seed}-pass{k}.jsonl", "w") as fp:
            tracer.write(fp)
    for target in absent:
        print(f"trace target absent: {target}", file=sys.stderr)
    for name, errors in tracer.counter_errors.items():
        print(f"trace counter failed {errors} times: {name}", file=sys.stderr)
    repeat_ok = True
    for name in EXACT_COUNTS:
        if results[0][name] != results[1][name]:
            print(f"exact count {name} differs: {results[0][name]} != {results[1][name]}",
                  file=sys.stderr)
            repeat_ok = False
    metrics = {}
    for name, unit in PER_LAYER[:-1]:
        # times are the mean of the two traced passes; counts are equal
        if unit == "s":
            metrics[name] = statistics.mean(r[name] for r in results)
        else:
            metrics[name] = results[0][name]
    metrics["trace.overhead_ratio"] = statistics.mean(walls) / untraced_wall
    print(f"self time share: {self_shares(metrics)}", file=sys.stderr)
    return metrics, repeat_ok


# ----------------------------------------------------------------------
# entry points


def run_workload(args):
    import_package()
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        ops = workloads.GENERATORS[args.workload](args.seed, tmpdir)
        runner = Runner(workloads, ops)
        if args.trace:
            values, repeat_ok = run_traced(runner, args.workload, args.seed)
            units = dict(PER_LAYER)
        else:
            values, passes = run_untraced(runner, args.seconds)
            repeat_ok = True
            units = dict(END_TO_END)
        runner.check(args.seed)
    if not args.trace:
        values["ok_rate"] = 1 - runner.failed / runner.attempted
        print(f"{args.workload}: {len(ops)} operations x {passes} passes = "
              f"{len(ops) * passes} latency samples, {len(ops)} per-operation means",
              file=sys.stderr)
        if len(ops) < P90_MIN_BEYOND * 10:
            print(f"op_p90_ms rests on {len(ops)} operations, fewer than "
                  f"{P90_MIN_BEYOND} lie beyond it", file=sys.stderr)
    for name, value in values.items():
        print(f"{name} {value} {units[name]}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and repeat_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    report = {
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    ok = True
    for workload in WORKLOADS:
        entry = report["workloads"][workload] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and result["correct"]
            entry["end_to_end" if trace == 0 else "per_layer"] = result["metrics"]
            entry.setdefault("attempted", result["attempted"])
            entry.setdefault("failed", result["failed"])
            print(f"== {workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            if trace == 0:
                lines = proc.stderr.splitlines()
                entry["samples"] = next(line for line in lines if "latency samples" in line)
                entry["calibration"] = next(
                    line for line in lines if line.startswith("calibration loop"))
                entry["measured"] = {
                    name: float(value) for _, name, value in
                    (line.split() for line in lines if line.startswith("measured "))}
                entry["error_rate"] = result["failed"] / result["attempted"]
                print(f"  {entry['samples']}")
                print(f"  {entry['calibration']}")
                for name, value in entry["measured"].items():
                    print(f"  measured {name} {value}")
                print(f"  error_rate {entry['error_rate']} ratio")
            else:
                entry["self_time_share"] = self_shares(
                    {name: m["value"] for name, m in result["metrics"].items()})
                print(f"  self time share: {entry['self_time_share']}")
            for name, metric in result["metrics"].items():
                print(f"  {name} {metric['value']} {metric['unit']}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fp:
            json.dump(report, fp, indent=2)
            fp.write("\n")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
