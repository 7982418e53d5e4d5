"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one figure or evaluation of the paper
and prints the series it produces (paper-vs-measured shape comparisons are
recorded in EXPERIMENTS.md).  The pytest-benchmark fixture times the
representative computation of each artifact, and the session-finish hook
below writes every fixture timing into the machine-readable trajectory
file ``BENCH_analysis.json`` (see ``bench_record.py``) so each PR leaves a
comparable perf record.
"""

from __future__ import annotations

from bench_record import record_benchmarks
from repro.core.execution import ExecutionConfig


def usable_cpus() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    return ExecutionConfig().resolved_workers()


def round_trip_messages(
    reference_clock,
    other_clock,
    rng,
    *,
    reference: str = "ref",
    other: str = "other",
    phases=(0.0, 1.0),
    count: int = 50,
    delay: float = 200e-6,
    jitter: float = 50e-6,
):
    """Bidirectional getstamps round trips between two clocked hosts.

    The shared generator for every bench that needs a synthetic sync-phase
    message set: ``count`` round trips (two messages each) per mini-phase.
    """
    from repro.analysis.clock_sync import SyncMessageRecord

    messages = []
    for phase_start in phases:
        for index in range(count):
            send = phase_start + index * 0.001
            receive = send + delay + rng.random() * jitter
            messages.append(
                SyncMessageRecord(
                    reference, other,
                    reference_clock.read(send), other_clock.read(receive),
                )
            )
            send += 0.0005
            receive = send + delay + rng.random() * jitter
            messages.append(
                SyncMessageRecord(
                    other, reference,
                    other_clock.read(send), reference_clock.read(receive),
                )
            )
    return messages


def _trajectory_name(bench) -> str:
    """The name a benchmark's trajectory entry is recorded under.

    Defaults to the pytest fullname.  A benchmark can claim a stable,
    distinct name by setting ``benchmark.extra_info["trajectory_name"]`` —
    used e.g. by the store-backed analysis bench so its entry never
    collides with (or overwrites) the in-memory analysis-phase entries and
    the trajectory stays comparable entry-by-entry across PRs.
    """
    extra = getattr(bench, "extra_info", None) or {}
    return extra.get("trajectory_name", bench.fullname)


def pytest_sessionfinish(session, exitstatus):
    """Record every pytest-benchmark timing into ``BENCH_analysis.json``."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None:  # pytest-benchmark absent or disabled
        return
    record_benchmarks(
        (_trajectory_name(bench), stats.mean, stats.rounds)
        for bench in getattr(bench_session, "benchmarks", [])
        if (stats := getattr(bench, "stats", None))
    )


def print_table(title: str, headers: list[str], rows: list[list[str]]) -> None:
    """Print a small fixed-width table under a title banner."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(header)), *(len(str(row[i])) for row in rows)) if rows else len(header)
              for i, header in enumerate(headers)]
    print("  ".join(str(header).ljust(width) for header, width in zip(headers, widths)))
    for row in rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
