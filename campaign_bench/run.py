"""Campaign benchmark: analyzed experiments per second, end to end.

Run from the repository root::

    python3 campaign_bench/run.py --workload registry-serial --seed 0 --seconds 25 --trace 0

``--trace 0`` measures with no instrumentation and prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced ops and prints the
per-layer metrics (``README.md`` next to this file lists them all).  The
last line of standard output is the result object; the line before it is
the machine and noise stamp.  Both, and the traced spans, are also written
to ``campaign_bench/_work/``.

The program is imported from ``src/`` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import EVERY_S, calibrate, reference_seconds  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
REFERENCE = BENCH_DIR / "reference.json"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Start no op after this many seconds, so that a slow host still finishes
#: well inside 180 seconds.
WALL_LIMIT_S = 100.0
MIN_OPS = 2


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--experiments", type=int, default=None,
        help="experiments per scenario in one op (default: the benchmark's size)",
    )
    return parser.parse_args(argv)


def quartiles(values: list[float]) -> dict:
    """Sample count, median and quartiles of one metric's samples."""
    if not values:
        return {"n": 0}
    if len(values) == 1:
        return {"n": 1, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def percentile(values: list[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def machine_stamp() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "loadavg_at_start": os.getloadavg(),
    }


def child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class OpRecord:
    """Timing and output of one op."""

    def __init__(self, kind: str) -> None:
        self.kind = kind  # "warmup", "untraced" or "traced"
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.child_cpu_s = 0.0
        self.calibration_s = 0.0
        self.gaps_s: list[float] = []
        self.output = None
        self.error: str | None = None
        self.tracer = None
        self.injections = 0
        self.injections_accepted = 0
        self.result_bytes = 0

    @property
    def host_rate(self) -> float:
        """Analyzed experiments per host second."""
        return self.output.experiments / self.wall_s

    @property
    def rate(self) -> float:
        """Analyzed experiments per reference second."""
        return self.output.experiments / reference_seconds(self.wall_s, self.calibration_s)


def run_op(workload, kind: str, switch, *, measure_bytes: bool = False) -> OpRecord:
    """Run one op; only the program's work is timed, the output check after."""
    from tracer import Tracer, installed
    from workloads import checked_output, result_bytes

    record = OpRecord(kind)
    stamps: list[float] = []

    def progress(study: str, done: int, total: int) -> None:
        stamps.append(time.perf_counter())

    cpu0, child0, start = time.process_time(), child_cpu_s(), time.perf_counter()
    try:
        if kind == "traced":
            record.tracer = Tracer()
            with installed(switch):
                switch.tracer = record.tracer
                try:
                    cpu0, child0, start = time.process_time(), child_cpu_s(), time.perf_counter()
                    with record.tracer.span("op"):
                        produced = workload.op(progress)
                finally:
                    switch.tracer = None
        else:
            produced = workload.op(progress)
        record.wall_s = time.perf_counter() - start
        record.cpu_s = time.process_time() - cpu0
        record.child_cpu_s = child_cpu_s() - child0
        record.gaps_s = [later - earlier for earlier, later in zip([start] + stamps, stamps)]
        analysis = produced[0]
        record.output = workload.check_fields(checked_output(*produced))
        for study in analysis.studies.values():
            for experiment in study.experiments:
                verdicts = experiment.verification.verdicts
                record.injections += len(verdicts)
                record.injections_accepted += sum(1 for verdict in verdicts if verdict.correct)
        if measure_bytes:
            record.result_bytes = result_bytes(analysis)
    except Exception:  # an op that raises is a failed op, not a failed benchmark
        record.wall_s = record.wall_s or time.perf_counter() - start
        record.error = traceback.format_exc()
        print(f"{kind} op failed:\n{record.error}", file=sys.stderr)
    return record


def measure(workload, switch, seconds: float, trace: int, calibration_s: float):
    """Run ops for ``seconds`` of op time; with tracing, alternate untraced
    and traced ops.  Returns the op records and every calibration time."""
    kinds = ("untraced",) if trace == 0 else ("untraced", "traced")
    records: list[OpRecord] = []
    calibrations = [calibration_s]
    uncalibrated: list[OpRecord] = []

    def calibrate_pending() -> None:
        calibrations.append(calibrate(max(workload.workers, 1)))
        for record in uncalibrated:
            record.calibration_s = (calibrations[-2] + calibrations[-1]) / 2
        uncalibrated.clear()

    while time.perf_counter() - START < WALL_LIMIT_S and (
        sum(record.wall_s for record in records) < seconds
        or len(records) < MIN_OPS * len(kinds)
    ):
        kind = kinds[len(records) % len(kinds)]
        record = run_op(workload, kind, switch, measure_bytes=trace == 1 and not records)
        records.append(record)
        uncalibrated.append(record)
        if sum(record.wall_s for record in uncalibrated) >= EVERY_S:
            calibrate_pending()
    if uncalibrated:
        calibrate_pending()
    return records, calibrations


def op_failure(record: OpRecord, expected: int, digest: str, fingerprint: str | None) -> str | None:
    """Why an op's output is wrong, or ``None`` when it passes the check."""
    if record.error is not None:
        return "raised"
    output = record.output
    if output.experiments != expected:
        return f"returned {output.experiments} of {expected} experiments"
    if output.digest != digest:
        return f"digest {output.digest[:12]} != reference {digest[:12]}"
    if output.fingerprint not in (None, fingerprint):
        return f"store fingerprint {output.fingerprint[:12]} != {fingerprint[:12]}"
    return None


def expected_outputs(workload, warmup: OpRecord, seed: int, experiments: int) -> dict:
    """The digest and store fingerprint every op must reproduce.

    The default seed's pinned values when this run uses it (the serial
    reference must then agree with the pin too); otherwise a serial
    in-memory run of the same seed, and the warm-up op's fingerprint.
    """
    digest, fingerprint = workload.reference()
    if digest is None and warmup.output is not None:
        digest = warmup.output.digest
    pin = json.loads(REFERENCE.read_text(encoding="utf-8"))
    pinned = pin["seed"] == seed and pin["experiments"] == experiments
    agrees = True
    if pinned:
        agrees = digest == pin["digest"] and fingerprint in (None, pin["fingerprint"])
        digest, fingerprint = pin["digest"], pin["fingerprint"]
    if fingerprint is None and warmup.output is not None:
        fingerprint = warmup.output.fingerprint
    return {"digest": digest, "fingerprint": fingerprint, "pinned": pinned, "pin_agrees": agrees}


def layer_metrics(record: OpRecord) -> dict[str, float]:
    """Per-layer metrics of one traced op: self times, counts, ratios."""
    from tracer import LAYER_SPANS

    tracer = record.tracer
    self_s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    n = record.output.experiments
    simulated = counts["experiments_simulated"]
    runtime_s = self_s["runtime.experiment"] + self_s["runtime.sync"]

    def per_exp_ms(name: str) -> float:
        return self_s[name] * 1000.0 / n

    def per_simulated(name: str) -> float:
        return counts[name] / simulated if simulated else 0.0

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {
        "scenarios.build_ms": ratio(self_s["scenarios.build"] * 1000.0, calls["scenarios.build"]),
        "runtime.experiment_ms": per_exp_ms("runtime.experiment"),
        "runtime.sync_ms": per_exp_ms("runtime.sync"),
        "sim.host_us_per_event": ratio(runtime_s * 1e6, counts["sim.events"]),
        "sim.sim_s_per_host_s": ratio(counts["sim.seconds"], runtime_s),
        "analysis.clock_sync_ms": per_exp_ms("analysis.clock_sync"),
        "analysis.timeline_ms": per_exp_ms("analysis.timeline"),
        "analysis.verify_ms": per_exp_ms("analysis.verify"),
        "analysis.injections": record.injections / n,
        "analysis.injections_accepted": record.injections_accepted / n,
        "analysis.exp_accept_ratio": record.output.accepted / n,
        "measures.apply_ms": per_exp_ms("measures.apply"),
        "measures.estimate_ms": per_exp_ms("measures.estimate"),
        "store.append_ms": ratio(self_s["store.append"] * 1000.0, calls["store.append"]),
        "store.load_ms": ratio(self_s["store.load"] * 1000.0, counts["store.records_loaded"]),
        "exec.other_ms": per_exp_ms("op"),
        "trace.attributed_frac": sum(self_s[name] for name in LAYER_SPANS) / sum(self_s.values()),
    }
    for name in (
        "runtime.sync_messages", "runtime.sync_events", "sim.events", "sim.app_messages",
        "sim.msgs_lost", "sim.msgs_lost.lost", "sim.msgs_lost.partitioned",
        "sim.msgs_lost.link-down", "sim.msgs_lost.dead-target",
        "sim.msgs_duplicated", "sim.msgs_reordered",
    ):
        metrics[name] = per_simulated(name)
    return metrics


def summarize(records: list[OpRecord], workers: int) -> dict[str, list[float]]:
    """Every metric's samples over the successful timed ops."""
    good = [record for record in records if record.error is None]
    untraced = [record for record in good if record.kind == "untraced"]
    traced = [record for record in good if record.kind == "traced"]
    samples: dict[str, list[float]] = {
        "exp_per_s": [record.rate for record in untraced],
        "host.exp_per_s": [record.host_rate for record in untraced],
        "exec.coord_cpu_s": [record.cpu_s for record in untraced],
        "exec.worker_cpu_s": [record.child_cpu_s for record in untraced],
        "exec.worker_idle_frac": [
            1.0 - record.child_cpu_s / (workers * record.wall_s) if workers else 0.0
            for record in untraced
        ],
        "exec.retries": [float(sum(record.output.retries for record in good))],
        "exec.result_bytes_per_exp": [
            record.result_bytes / record.output.experiments
            for record in good if record.result_bytes
        ],
        "store.bytes_per_exp": [
            record.output.store_bytes / record.output.experiments for record in good
        ],
    }
    gaps_ms = [gap * 1000.0 for record in untraced for gap in record.gaps_s]
    samples["exp_ms_p50"] = [percentile(gaps_ms, 0.50) if gaps_ms else 0.0]
    samples["exp_ms_p95"] = [percentile(gaps_ms, 0.95) if gaps_ms else 0.0]
    samples["exp_ms.n"] = [float(len(gaps_ms))]
    for record in traced:
        for name, value in layer_metrics(record).items():
            samples.setdefault(name, []).append(value)
    if traced and untraced:
        traced_rate = statistics.median(record.rate for record in traced)
        untraced_rate = statistics.median(samples["exp_per_s"])
        samples["trace.overhead_frac"] = [1.0 - traced_rate / untraced_rate]
    return samples


def run_benchmark(args, *, expected_digest: str | None = None) -> dict:
    """Set up, measure and check one workload; returns stamp, result and spans.

    ``expected_digest`` replaces the reference digest: the self-tests use it
    to show that a wrong output fails every op.
    """
    from benchmark_spec import metric_units
    from tracer import TraceSwitch
    from workloads import EXPERIMENTS, WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    experiments = args.experiments or EXPERIMENTS
    stamp = machine_stamp()
    switch = TraceSwitch()
    make = WORKLOADS[args.workload]
    processes = max(make.workers, 1)
    imports_s = time.perf_counter() - START
    setup_calibrations = [calibrate(processes)]
    warmups: list[OpRecord] = []
    setups_host_s: list[float] = []
    setups_s: list[float] = []
    workload = None
    try:
        # Set up afresh each time: registry build, archive, warm-up op.
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            if workload is not None:
                workload.close()
            workload = make(args.seed, experiments, WORK / f"{args.workload}-{os.getpid()}", switch)
            start = time.perf_counter()
            workload.prepare()
            warmups.append(run_op(workload, "warmup", switch))
            setups_host_s.append(imports_s + time.perf_counter() - start)
            setup_calibrations.append(calibrate(processes))
            setups_s.append(reference_seconds(
                setups_host_s[-1], (setup_calibrations[-2] + setup_calibrations[-1]) / 2
            ))
        records, calibrations = measure(
            workload, switch, args.seconds, args.trace, setup_calibrations[-1]
        )
        peak_mb = peak_rss_mb()
        expected = expected_outputs(workload, warmups[-1], args.seed, experiments)
    finally:
        if workload is not None:
            workload.close()
    if expected_digest is not None:
        expected["digest"] = expected_digest

    failures = {}
    count = workload.expected_experiments()
    for index, record in enumerate(warmups + records):
        why = op_failure(record, count, expected["digest"], expected["fingerprint"])
        if why is not None:
            failures[f"{record.kind}-{index}"] = why

    samples = summarize(records, workload.workers)
    samples["host.calibration_s"] = setup_calibrations[:-1] + calibrations
    samples["setup_s"] = setups_s
    samples["host.setup_s"] = setups_host_s
    samples["peak_rss_mb"] = [peak_mb]

    units = metric_units("end_to_end" if args.trace == 0 else "per_layer")
    metrics = {
        name: {"value": statistics.median(samples[name]), "unit": unit}
        for name, unit in units.items()
        if samples.get(name)
    }
    result = {
        "correct": not failures and expected["pin_agrees"] and len(metrics) == len(units),
        "attempted": len(warmups) + len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    good = [record for record in records if record.error is None]
    stamp.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "experiments_per_op": count,
        "ops": {
            kind: sum(1 for record in good if record.kind == kind)
            for kind in ("untraced", "traced")
        },
        "expected": expected,
        "failures": failures,
        "setups_s": setups_s,
        "samples": {name: quartiles(values) for name, values in samples.items()},
    })
    spans = [
        {"op": index, "spans": record.tracer.records()}
        for index, record in enumerate(good) if record.tracer is not None
    ]
    return {"stamp": stamp, "result": result, "spans": spans}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"campaign_bench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    outcome = run_benchmark(args)
    WORK.mkdir(exist_ok=True)
    tag = f"{args.workload}-trace{args.trace}"
    (WORK / f"result-{tag}.json").write_text(
        json.dumps({"stamp": outcome["stamp"], "result": outcome["result"]}, indent=1)
    )
    if outcome["spans"]:
        (WORK / f"spans-{args.workload}.json").write_text(json.dumps(outcome["spans"]))
    print(json.dumps({"stamp": outcome["stamp"]}))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
