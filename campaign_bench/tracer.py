"""Span tracing for the campaign benchmark, installed from outside the program.

The benchmark wraps the public entry point of each layer (the runtime's
``CampaignRunner.run_experiment`` and ``run_sync_phase``, the analysis
functions ``analyze_experiment`` calls, the store's ``append`` and
``load_study_records``) for the duration of a traced run, and records one
span per call: name, start, end, parent span and experiment id.  Spans stay
in memory and are written out when the run ends.  A layer's self time is
its spans' durations minus the time covered by their child spans.

Counts are taken at the same boundaries (kernel events, sync messages,
delivery anomalies, records loaded), so per-experiment ratios are measured
where the work happens.  Only the process that installed the wrappers records:
forked pool workers inherit the wrappers, but their spans would stay in the
workers' memory, so they skip recording altogether.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

#: Delivery-event kinds that mean a message never reached its target.
LOSS_KINDS = ("lost", "partitioned", "link-down", "dead-target")

#: Span names whose self time is reported as a named layer.  ``op`` (the
#: benchmark's own root span around one campaign op) and
#: ``analysis.experiment`` (``analyze_experiment``, caller of the analysis layers) are
#: recorded for structure but are not layers of their own.
LAYER_SPANS = (
    "scenarios.build",
    "runtime.experiment",
    "runtime.sync",
    "analysis.clock_sync",
    "analysis.timeline",
    "analysis.verify",
    "measures.apply",
    "measures.estimate",
    "store.append",
    "store.load",
)


class Tracer:
    """Span and count recorder for one traced op."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.pid = os.getpid()
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.experiment: str | None = None
        self.environment = None
        self.sync_events_before = 0
        self._open: list[list] = []

    def begin(self, name: str) -> list:
        frame = [name, self.clock(), 0.0, len(self.spans)]
        # Reserve the span's slot now so children can name it as parent.
        self.spans.append((name, frame[1], frame[1], self._parent(), self.experiment))
        self._open.append(frame)
        return frame

    def end(self, frame: list) -> None:
        name, start, child_s, slot = frame
        end = self.clock()
        popped = self._open.pop()
        assert popped is frame, "spans must close in LIFO order"
        duration = end - start
        self.self_s[name] += duration - child_s
        self.calls[name] += 1
        if self._open:
            self._open[-1][2] += duration
        self.spans[slot] = (name, start, end, self.spans[slot][3], self.spans[slot][4])

    def _parent(self) -> int:
        return self._open[-1][3] if self._open else -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def records(self) -> list[dict]:
        """Spans as JSON-ready dictionaries (times in seconds)."""
        return [
            {"name": name, "start": start, "end": end, "parent": parent, "experiment": exp}
            for name, start, end, parent, exp in self.spans
        ]


class TraceSwitch:
    """Holds the tracer of the op in progress; ``None`` records nothing."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None

    def active(self) -> Tracer | None:
        tracer = self.tracer
        if tracer is None or tracer.pid != os.getpid():
            return None
        return tracer


def _wrap(switch: TraceSwitch, name: str, function, before=None, after=None):
    def traced(*args, **kwargs):
        tracer = switch.active()
        if tracer is None:
            return function(*args, **kwargs)
        if before is not None:
            before(tracer, args)
        frame = tracer.begin(name)
        try:
            value = function(*args, **kwargs)
        finally:
            tracer.end(frame)
        if after is not None:
            after(tracer, args, value)
        return value

    traced.__wrapped__ = function
    return traced


def _experiment_of(tracer: Tracer, args) -> None:
    _, study, index = args
    tracer.experiment = f"{study.name}:{index}"


def _after_experiment(tracer: Tracer, args, result) -> None:
    environment = tracer.environment
    counts = tracer.counts
    counts["experiments_simulated"] += 1
    counts["sim.app_messages"] += result.stats.get("application_messages", 0)
    if environment is None:
        return
    counts["sim.events"] += environment.kernel.events_processed
    counts["sim.seconds"] += environment.kernel.now
    for event in environment.delivery_events:
        if event.kind in LOSS_KINDS:
            counts["sim.msgs_lost"] += 1
            counts[f"sim.msgs_lost.{event.kind}"] += 1
        elif event.kind in ("duplicated", "reordered"):
            counts[f"sim.msgs_{event.kind}"] += 1
    tracer.environment = None


def _before_sync(tracer: Tracer, args) -> None:
    tracer.environment = args[0]
    tracer.sync_events_before = args[0].kernel.events_processed


def _after_sync(tracer: Tracer, args, messages) -> None:
    tracer.counts["runtime.sync_messages"] += len(messages)
    tracer.counts["runtime.sync_events"] += (
        args[0].kernel.events_processed - tracer.sync_events_before
    )


def _experiment_of_result(tracer: Tracer, args) -> None:
    result = args[0]
    tracer.experiment = f"{result.study}:{result.index}"


def _after_load(tracer: Tracer, args, records) -> None:
    tracer.counts["store.records_loaded"] += len(records)


@contextmanager
def installed(switch: TraceSwitch) -> Iterator[None]:
    """Wrap every traced entry point for the duration of the block."""
    import repro.core.campaign as campaign
    import repro.pipeline as pipeline
    from repro.store.campaign_store import CampaignStore

    targets = [
        (campaign.CampaignRunner, "run_experiment", "runtime.experiment",
         _experiment_of, _after_experiment),
        (campaign, "run_sync_phase", "runtime.sync", _before_sync, _after_sync),
        (pipeline, "analyze_experiment", "analysis.experiment", _experiment_of_result, None),
        (pipeline, "estimate_all_bounds", "analysis.clock_sync", None, None),
        (pipeline, "build_global_timeline", "analysis.timeline", None, None),
        (pipeline, "verify_experiment", "analysis.verify", None, None),
        (CampaignStore, "append", "store.append", None, None),
        (CampaignStore, "load_study_records", "store.load", None, _after_load),
    ]
    originals = []
    try:
        for owner, attribute, name, before, after in targets:
            original = owner.__dict__[attribute]
            originals.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(switch, name, original, before, after))
        yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
