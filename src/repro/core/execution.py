"""Campaign execution engine: serial and process-pool backends.

Loki evaluations need thousands of experiments per study to estimate
correct-injection probabilities and coverage measures, and every experiment
is an independent unit of work: it derives its own seed from the public
:meth:`repro.sim.rng.RandomStreams.derive` API, builds its own
:class:`~repro.sim.environment.Environment`, and never shares state with
its siblings.  That makes experiment-level parallelism embarrassingly
available, and this module supplies it behind a small engine:

* :class:`ExecutionConfig` selects a backend (``"serial"`` or
  ``"process-pool"``), a worker count, a chunk size, and the retry knobs
  (retry budget, backoff base);
* :class:`SerialExecutor` runs experiments in-process in index order
  (bit-identical to the historical ``CampaignRunner.run`` loop);
* :class:`ProcessPoolExecutor` fans experiments out across a
  ``concurrent.futures`` fork pool, surviving worker crashes by rebuilding
  the pool and re-running the lost chunks within the configured budget.

Each worker re-derives its experiment seed from the study seed and
experiment index, so scheduling order cannot change any outcome: both
backends produce identical per-experiment seeds, timelines, and measure
values — even across crashes and retries, since a re-run chunk is
bit-identical to its first attempt and a future resolves exactly once.
A hung worker is not detected: a chunk that never returns stalls the
campaign until it is interrupted, and with a store attached a rerun
resumes from the experiments already persisted.

The engine exposes two entry points.  :meth:`ExperimentExecutor.run_campaign`
performs only the runtime phase and returns a full
:class:`~repro.core.campaign.CampaignResult` (raw timelines included).
:meth:`ExperimentExecutor.run_and_analyze` fuses the analysis phase into
the workers via :func:`run_and_analyze_experiment`, and — uniformly on
*every* backend, so the backends stay structurally interchangeable — the
large ``LocalTimeline`` / sync-message payloads are reduced to analyzed
summaries once analysis has consumed them (before they would cross a
process boundary); set ``ExecutionConfig(keep_raw_results=True)`` to
retain them.

Both entry points accept an optional :class:`~repro.store.CampaignStore`.
With a store attached the engine streams every completed experiment's
payload to disk *as it finishes* — through a completion sink invoked in
the coordinating process on every backend — and, on a later run of the
same campaign, loads the experiments whose records already exist (matching
configuration fingerprint and derived seed) instead of re-running them.
That turns any campaign into a durable, resumable, analyze-many artifact;
see :mod:`repro.store`.

The process-pool backend requires the ``fork`` start method (study
configurations carry application factories — often closures — that cannot
be pickled; forked workers inherit them through process memory instead).
On platforms without ``fork`` the backend raises
:class:`~repro.errors.RuntimeConfigurationError`; use
:func:`available_backends` to pick dynamically.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from concurrent import futures as _futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.errors import ExecutionInterrupted, RuntimeConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.campaign import (
        CampaignConfig,
        CampaignResult,
        ExperimentResult,
        StudyConfig,
        StudyResult,
    )
    from repro.pipeline import AnalyzedExperiment, CampaignAnalysis
    from repro.store import CampaignStore

#: Backend name: run every experiment in the calling process, in order.
SERIAL = "serial"

#: Backend name: fan experiments out across a ``multiprocessing`` fork pool.
PROCESS_POOL = "process-pool"

#: Callback signature for progress streaming: ``(study_name, done, total)``.
ProgressCallback = Callable[[str, int, int], None]

#: Callback signature for completion sinks: ``(study_index, experiment_index,
#: value)``, invoked in the coordinating process for every finished task as
#: it completes — before progress is reported — on every backend.  This is
#: the seam the campaign store streams through: each completed experiment is
#: persisted (and its raw payload released) the moment it arrives, instead
#: of accumulating until the campaign ends.
CompletionSink = Callable[[int, int, object], None]


def available_backends() -> tuple[str, ...]:
    """The execution backends usable on this platform."""
    if "fork" in multiprocessing.get_all_start_methods():
        return (SERIAL, PROCESS_POOL)
    return (SERIAL,)


@dataclass(frozen=True)
class ExecutionConfig:
    """How a campaign's experiments are executed.

    Parameters
    ----------
    backend:
        ``"serial"`` or ``"process-pool"``.
    workers:
        Worker processes for the pool backend; ``None`` uses the CPUs this
        process may run on (its affinity mask, so ``taskset`` and cpusets
        are honored).  Ignored by the serial backend.
    chunk_size:
        How many experiments each pool task carries.  Larger chunks
        amortize IPC overhead for campaigns of many fast experiments.
        ``None`` (the default) picks ``max(1, tasks // (4 * workers))``
        automatically — about four waves of chunks per worker, so large
        campaigns stop paying per-task IPC overhead while load stays
        balanced; explicit values are honored unchanged.
    keep_raw_results:
        Fused run-and-analyze execution normally strips the raw
        ``local_timelines`` / ``sync_messages`` payloads from each analyzed
        experiment once the analysis phase has consumed them (they dominate
        the data volume of large campaigns).  Set ``True`` to keep them.
    progress:
        Optional callback invoked after every finished experiment with
        ``(study_name, completed_in_study, total_in_study)``.  Never
        pickled: it runs in the coordinating process only.
    max_retries:
        How many times the pool backend rebuilds itself and re-runs the
        chunks lost to a crashed worker before giving up with
        :class:`~repro.errors.ExecutionInterrupted`.  ``0`` disables
        retries; determinism makes every retry bit-safe.
    retry_backoff_base_s:
        First-retry backoff delay; successive retries double it, up to
        five seconds.
    """

    backend: str = SERIAL
    workers: int | None = None
    chunk_size: int | None = None
    keep_raw_results: bool = False
    progress: ProgressCallback | None = field(default=None, compare=False)
    max_retries: int = 2
    retry_backoff_base_s: float = 0.05

    def __post_init__(self) -> None:
        if self.backend not in (SERIAL, PROCESS_POOL):
            raise RuntimeConfigurationError(
                f"unknown execution backend {self.backend!r}; "
                f"expected {SERIAL!r} or {PROCESS_POOL!r}"
            )
        if self.workers is not None and self.workers < 1:
            raise RuntimeConfigurationError(
                f"execution needs at least one worker (got {self.workers})"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise RuntimeConfigurationError(
                f"execution chunk size must be positive (got {self.chunk_size})"
            )
        if self.max_retries < 0:
            raise RuntimeConfigurationError(
                f"max_retries must be >= 0 (got {self.max_retries})"
            )
        if self.retry_backoff_base_s <= 0:
            raise RuntimeConfigurationError(
                f"retry backoff base must be positive (got {self.retry_backoff_base_s})"
            )

    @staticmethod
    def serial(**kwargs) -> "ExecutionConfig":
        """A serial-backend configuration."""
        return ExecutionConfig(backend=SERIAL, **kwargs)

    @staticmethod
    def process_pool(workers: int | None = None, **kwargs) -> "ExecutionConfig":
        """A process-pool configuration with ``workers`` processes."""
        return ExecutionConfig(backend=PROCESS_POOL, workers=workers, **kwargs)

    def resolved_workers(self) -> int:
        """The concrete worker count the pool backend will use.

        ``None`` resolves to the CPUs this process may run on, not the
        machine's CPU count, so a pinned campaign does not oversubscribe.
        """
        if self.workers is not None:
            return self.workers
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    def resolved_chunk_size(self, task_count: int, workers: int) -> int:
        """The concrete pool chunk size for a campaign of ``task_count`` tasks.

        An explicit ``chunk_size`` is honored as-is; the ``None`` default
        aims for roughly four chunks per worker so per-task IPC overhead
        is amortized without starving the pool of work to balance.
        """
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, task_count // (4 * max(workers, 1)))


# ---------------------------------------------------------------------------
# Task functions
# ---------------------------------------------------------------------------
#
# A task is identified by (study_index, experiment_index) — a pair of small
# picklable integers.  The campaign configuration itself never crosses the
# process boundary: the pool is created with the fork start method after
# the configuration has been published in ``_WORKER_STATE``, so workers
# inherit it through copy-on-write process memory.  This is what lets
# studies carry arbitrary (unpicklable) application factories.

_WORKER_STATE: dict = {}


def run_and_analyze_experiment(
    study: "StudyConfig",
    index: int,
    *,
    keep_raw_results: bool = True,
    runner_class: type | None = None,
) -> "AnalyzedExperiment":
    """Run one experiment and immediately run its analysis phase.

    This is the fused runtime+analysis task the execution engine ships to
    workers: fusing means only the analyzed summary — clock bounds, global
    timeline, verification verdicts — needs to travel back to the
    coordinating process.  With ``keep_raw_results=False`` the raw
    ``local_timelines`` and ``sync_messages`` payloads are dropped from the
    returned experiment once analysis has consumed them.  ``runner_class``
    selects the :class:`~repro.core.campaign.CampaignRunner` (sub)class
    whose ``run_experiment`` performs the run.
    """
    from repro.core.campaign import CampaignRunner
    from repro.pipeline import analyze_experiment

    runner = runner_class or CampaignRunner
    result = runner.run_experiment_of(study, index)
    analyzed = analyze_experiment(result, study.fault_specifications())
    if not keep_raw_results:
        analyzed.result = replace(result, local_timelines={}, sync_messages=[])
    return analyzed


def _runtime_task(task: tuple[int, int]) -> tuple[int, int, "ExperimentResult"]:
    study_index, experiment_index = task
    study = _WORKER_STATE["campaign"].studies[study_index]
    result = _WORKER_STATE["runner"].run_experiment_of(study, experiment_index)
    return study_index, experiment_index, result


def _fused_task(task: tuple[int, int]) -> tuple[int, int, "AnalyzedExperiment"]:
    study_index, experiment_index = task
    study = _WORKER_STATE["campaign"].studies[study_index]
    analyzed = run_and_analyze_experiment(
        study,
        experiment_index,
        keep_raw_results=_WORKER_STATE["keep_raw_results"],
        runner_class=_WORKER_STATE["runner"],
    )
    return study_index, experiment_index, analyzed


def _chunk_task(task, chunk: list[tuple[int, int]]) -> list:
    """One pool submission: a chunk of tasks, completed together."""
    return [task(item) for item in chunk]


def _describe_tasks(
    campaign: "CampaignConfig", tasks: Sequence[tuple[int, int]], limit: int = 5
) -> str:
    """Name the first few ``(study, index)`` tasks for error messages."""
    names = [
        f"{campaign.studies[study_index].name}:{experiment_index}"
        for study_index, experiment_index in tasks[:limit]
    ]
    suffix = f", ... (+{len(tasks) - limit} more)" if len(tasks) > limit else ""
    return ", ".join(names) + suffix


def _resume_hint(store: "CampaignStore") -> str:
    """What a crashed campaign's operator should do next."""
    return (
        f"completed experiments are already persisted in the campaign store at "
        f"{store.path}; re-running the same campaign with this store attached "
        "resumes from them instead of restarting"
    )


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class ExperimentExecutor:
    """Base class of the pluggable execution backends."""

    def __init__(self, config: ExecutionConfig) -> None:
        self.config = config

    # -- public API --------------------------------------------------------------------
    #
    # ``runner_class`` lets CampaignRunner subclasses (instrumented or
    # otherwise specialized runners) keep their run_experiment override in
    # the dispatch path; it defaults to the stock CampaignRunner.

    def run_campaign(
        self,
        campaign: "CampaignConfig",
        runner_class: type | None = None,
        store: "CampaignStore | None" = None,
    ) -> "CampaignResult":
        """Runtime phase only: every experiment of every study.

        With a ``store``, every completed experiment is streamed to disk as
        it finishes, and experiments whose records already exist (matching
        configuration fingerprint and seed) are loaded instead of re-run.
        """
        from repro.core.campaign import CampaignResult

        if store is None:
            slots = self._run(campaign, _runtime_task, runner_class)
        else:
            cached, pending, offsets = self._partition_cached(campaign, store)

            def sink(study_index: int, experiment_index: int, result) -> None:
                store.append(result)

            try:
                slots = self._run(
                    campaign, _runtime_task, runner_class,
                    tasks=pending, sink=sink, done_offsets=offsets,
                )
            except ExecutionInterrupted as error:
                error.add_note(_resume_hint(store))
                raise
            for (study_index, experiment_index), result in cached.items():
                slots[study_index][experiment_index] = result
        result = CampaignResult(config=campaign)
        for study, experiments in zip(campaign.studies, slots):
            result.studies[study.name] = self._study_result(study, experiments)
        return result

    def run_study(
        self, study: "StudyConfig", runner_class: type | None = None
    ) -> "StudyResult":
        """Runtime phase of a single study outside a campaign."""
        from repro.core.campaign import CampaignConfig

        campaign = CampaignConfig(name=f"campaign-{study.name}", studies=[study])
        slots = self._run(campaign, _runtime_task, runner_class)
        return self._study_result(study, slots[0])

    def run_and_analyze(
        self,
        campaign: "CampaignConfig",
        runner_class: type | None = None,
        store: "CampaignStore | None" = None,
    ) -> "CampaignAnalysis":
        """Fused runtime + analysis phases for a whole campaign.

        With a ``store``, the campaign becomes durable and resumable:

        * experiments whose records already exist in the store (with the
          study's configuration fingerprint and the engine's derived seed)
          are **loaded and analyzed from disk** — the simulator never runs
          for them — and the rest execute normally;
        * every freshly completed experiment's raw payload is appended to
          the store the moment it reaches the coordinator, then released
          (unless ``keep_raw_results``), so memory stays flat while the
          disk accumulates the run-once/analyze-many archive.

        Workers keep their raw payloads only when a store needs them; the
        returned analysis is slimmed identically on every backend, so
        attaching a store never changes any analyzed value.
        """
        from repro.core.campaign import CampaignResult
        from repro.pipeline import CampaignAnalysis, StudyAnalysis, analyze_experiment

        if store is None:
            slots = self._run(campaign, _fused_task, runner_class)
        else:
            cached, pending, offsets = self._partition_cached(campaign, store)
            keep_raw = self.config.keep_raw_results

            def sink(study_index: int, experiment_index: int, analyzed) -> None:
                store.append(analyzed.result)
                if not keep_raw:
                    analyzed.result = replace(
                        analyzed.result, local_timelines={}, sync_messages=[]
                    )

            # Workers must keep raw payloads so the coordinator can persist
            # them; the sink above re-applies the configured slimming.
            try:
                slots = self._run(
                    campaign, _fused_task, runner_class,
                    tasks=pending, sink=sink, done_offsets=offsets,
                    keep_raw_override=True,
                )
            except ExecutionInterrupted as error:
                error.add_note(_resume_hint(store))
                raise
            # Analyze the cached records in the coordinator, releasing each
            # raw payload as soon as its analysis (and slimming) is done so
            # the resume path does not hold the whole archive in memory.
            while cached:
                (study_index, experiment_index), result = cached.popitem()
                study = campaign.studies[study_index]
                analyzed = analyze_experiment(result, study.fault_specifications())
                if not keep_raw:
                    analyzed.result = replace(
                        analyzed.result, local_timelines={}, sync_messages=[]
                    )
                slots[study_index][experiment_index] = analyzed
        campaign_result = CampaignResult(config=campaign)
        analysis = CampaignAnalysis(campaign=campaign_result)
        for study, analyzed in zip(campaign.studies, slots):
            study_result = self._study_result(
                study, [experiment.result for experiment in analyzed]
            )
            campaign_result.studies[study.name] = study_result
            analysis.studies[study.name] = StudyAnalysis(
                study=study_result, experiments=list(analyzed)
            )
        return analysis

    # -- helpers -----------------------------------------------------------------------

    @staticmethod
    def _study_result(study: "StudyConfig", experiments: Sequence) -> "StudyResult":
        from repro.core.campaign import StudyResult

        missing = [index for index, value in enumerate(experiments) if value is None]
        if missing:  # pragma: no cover - defensive: a worker died mid-campaign
            raise RuntimeConfigurationError(
                f"study {study.name!r} lost experiments {missing} during execution"
            )
        return StudyResult(config=study, experiments=list(experiments))

    @staticmethod
    def _tasks(campaign: "CampaignConfig") -> list[tuple[int, int]]:
        return [
            (study_index, experiment_index)
            for study_index, study in enumerate(campaign.studies)
            for experiment_index in range(study.experiments)
        ]

    @staticmethod
    def _partition_cached(
        campaign: "CampaignConfig", store: "CampaignStore"
    ) -> tuple[dict[tuple[int, int], "ExperimentResult"], list[tuple[int, int]], list[int]]:
        """Split a campaign into store-cached and still-pending experiments.

        Attaches the store (creating or fingerprint-validating the
        manifest), then returns ``(cached, pending, done_offsets)``:
        records that may be reused keyed by task id, the tasks that must
        actually run, and the per-study count of reused records (so
        progress reporting counts skipped experiments as already done).

        The cached records are decoded eagerly (seed validation needs the
        payload), so peak memory on resume is proportional to the reused
        portion of the archive; callers release each record as they consume
        it.  A two-pass streaming reader that validates seeds first and
        re-decodes lazily would trade that peak for double decode cost —
        the right move once archives outgrow memory.
        """
        store.attach(campaign)
        cached: dict[tuple[int, int], "ExperimentResult"] = {}
        offsets = [0] * len(campaign.studies)
        for study_index, study in enumerate(campaign.studies):
            for experiment_index, result in store.resumable_records(study).items():
                if 0 <= experiment_index < study.experiments:
                    cached[(study_index, experiment_index)] = result
                    offsets[study_index] += 1
        pending = [
            task for task in ExperimentExecutor._tasks(campaign) if task not in cached
        ]
        return cached, pending, offsets

    def _collect(
        self,
        campaign: "CampaignConfig",
        completions: Iterable[tuple[int, int, object]],
        sink: CompletionSink | None = None,
        done_offsets: Sequence[int] | None = None,
    ) -> list[list]:
        """Slot streamed completions into per-study index-ordered lists.

        ``sink`` is invoked for every completion as it arrives (before the
        progress callback) — the streaming seam the campaign store writes
        through.  ``done_offsets`` pre-counts experiments satisfied from
        the store so progress reports completed-of-total over the whole
        study, not just the freshly executed remainder.
        """
        slots: list[list] = [[None] * study.experiments for study in campaign.studies]
        done = list(done_offsets) if done_offsets is not None else [0] * len(campaign.studies)
        progress = self.config.progress
        for study_index, experiment_index, value in completions:
            slots[study_index][experiment_index] = value
            if sink is not None:
                sink(study_index, experiment_index, value)
            done[study_index] += 1
            if progress is not None:
                study = campaign.studies[study_index]
                progress(study.name, done[study_index], study.experiments)
        return slots

    def _publish_state(
        self,
        campaign: "CampaignConfig",
        runner_class: type | None,
        keep_raw_override: bool | None = None,
    ) -> None:
        from repro.core.campaign import CampaignRunner

        _WORKER_STATE["campaign"] = campaign
        _WORKER_STATE["keep_raw_results"] = (
            self.config.keep_raw_results if keep_raw_override is None else keep_raw_override
        )
        _WORKER_STATE["runner"] = runner_class or CampaignRunner

    def _run(
        self,
        campaign: "CampaignConfig",
        task,
        runner_class: type | None,
        tasks: list[tuple[int, int]] | None = None,
        sink: CompletionSink | None = None,
        done_offsets: Sequence[int] | None = None,
        keep_raw_override: bool | None = None,
    ) -> list[list]:
        raise NotImplementedError


class SerialExecutor(ExperimentExecutor):
    """Run every experiment in the calling process, in index order."""

    def _run(
        self,
        campaign: "CampaignConfig",
        task,
        runner_class: type | None,
        tasks: list[tuple[int, int]] | None = None,
        sink: CompletionSink | None = None,
        done_offsets: Sequence[int] | None = None,
        keep_raw_override: bool | None = None,
    ) -> list[list]:
        self._publish_state(campaign, runner_class, keep_raw_override)
        items = self._tasks(campaign) if tasks is None else tasks
        try:
            return self._collect(
                campaign,
                (task(item) for item in items),
                sink=sink,
                done_offsets=done_offsets,
            )
        finally:
            _WORKER_STATE.clear()


class ProcessPoolExecutor(ExperimentExecutor):
    """Fan experiments out across a ``concurrent.futures`` fork pool.

    Determinism is preserved by construction: every experiment derives its
    seed from ``RandomStreams(study.seed).derive(f"experiment:{name}:{i}")``
    inside the worker and runs in a private environment, so neither the
    number of workers nor the completion order can alter any result, and
    completions are re-slotted by experiment index before aggregation.

    A crashed worker (OOM-killed, segfaulted, SIGKILLed) breaks the whole
    pool; instead of surfacing the raw ``BrokenProcessPool`` traceback and
    abandoning the campaign, the executor keeps every chunk that finished,
    rebuilds a fresh pool, and retries the lost chunks — up to the
    configured ``max_retries``, with exponential backoff — before giving
    up with :class:`~repro.errors.ExecutionInterrupted` naming the lost
    experiments (and, when a campaign store is attached, how to resume).
    Determinism makes re-running a lost chunk bit-safe.
    """

    def _run(
        self,
        campaign: "CampaignConfig",
        task,
        runner_class: type | None,
        tasks: list[tuple[int, int]] | None = None,
        sink: CompletionSink | None = None,
        done_offsets: Sequence[int] | None = None,
        keep_raw_override: bool | None = None,
    ) -> list[list]:
        if PROCESS_POOL not in available_backends():
            raise RuntimeConfigurationError(
                "the process-pool backend needs the 'fork' multiprocessing start "
                "method, which this platform does not provide; use the serial backend"
            )
        items = self._tasks(campaign) if tasks is None else tasks
        if not items:
            # Fully resumed campaign: nothing to fork for.
            return self._collect(campaign, (), sink=sink, done_offsets=done_offsets)
        # Publish the campaign (and runner class) before forking: workers
        # inherit them through process memory, so unpicklable study contents
        # never cross the process boundary (only (study, experiment) index
        # pairs do).
        self._publish_state(campaign, runner_class, keep_raw_override)
        completions = self._pool_completions(campaign, task, items)
        try:
            return self._collect(
                campaign, completions, sink=sink, done_offsets=done_offsets
            )
        finally:
            # A raising sink or progress callback must not leave the pool
            # running the rest of the campaign until garbage collection.
            completions.close()
            _WORKER_STATE.clear()

    def _pool_completions(
        self, campaign: "CampaignConfig", task, items: list[tuple[int, int]]
    ) -> Iterator[tuple[int, int, object]]:
        """Stream completions, surviving broken pools within the retry budget.

        Work is submitted in chunks; a chunk either completes atomically
        or is still pending when the pool breaks, so the retry set is
        exactly the unfinished chunks — nothing finished is re-run, and
        nothing pending is lost.
        """
        max_retries = self.config.max_retries
        context = multiprocessing.get_context("fork")
        pending = list(items)
        attempt = 0
        while pending:
            workers = min(self.config.resolved_workers(), len(pending))
            chunk_size = self.config.resolved_chunk_size(len(pending), workers)
            chunks = [
                pending[offset:offset + chunk_size]
                for offset in range(0, len(pending), chunk_size)
            ]
            finished = [False] * len(chunks)
            broken: BrokenProcessPool | None = None
            pool = _futures.ProcessPoolExecutor(max_workers=workers, mp_context=context)
            submitted: list[_futures.Future] = []
            try:
                for chunk in chunks:
                    try:
                        submitted.append(pool.submit(_chunk_task, task, chunk))
                    except BrokenProcessPool as error:
                        # A worker died while chunks were still being handed
                        # out; the unsubmitted chunks join the retry set.
                        broken = error
                        break
                positions = {future: index for index, future in enumerate(submitted)}
                if broken is None:
                    for future in _futures.as_completed(submitted):
                        try:
                            completions = future.result()
                        except BrokenProcessPool as error:
                            broken = error
                            break
                        finished[positions[future]] = True
                        yield from completions
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
            if broken is None:
                return
            # The shutdown joined the pool's manager thread, so every future
            # is final now.  Chunks that finished before the break still
            # count; a future the broken pool never resolved (on Python 3.11
            # a submit racing the break can be dropped) is unfinished rather
            # than waited on forever.
            for index, future in enumerate(submitted):
                if finished[index] or not future.done() or future.cancelled():
                    continue
                try:
                    completions = future.result()
                except BrokenProcessPool:
                    continue
                finished[index] = True
                yield from completions
            pending = [
                item
                for index, chunk in enumerate(chunks)
                if not finished[index]
                for item in chunk
            ]
            attempt += 1
            if attempt > max_retries:
                raise ExecutionInterrupted(
                    f"a process-pool worker died and {len(pending)} experiment(s) "
                    f"were still unfinished after {max_retries} retries: "
                    f"{_describe_tasks(campaign, pending)}",
                    pending=[
                        (campaign.studies[study_index].name, experiment_index)
                        for study_index, experiment_index in pending
                    ],
                ) from broken
            warnings.warn(
                f"a process-pool worker died with {len(pending)} experiment(s) "
                f"in flight ({_describe_tasks(campaign, pending)}); rebuilding "
                f"the pool (retry {attempt} of {max_retries})"
            )
            backoff = min(self.config.retry_backoff_base_s * 2 ** (attempt - 1), 5.0)
            # repro-lint: disable=R006 paces real pool rebuilds, never simulated time
            time.sleep(backoff)


_EXECUTORS = {
    SERIAL: SerialExecutor,
    PROCESS_POOL: ProcessPoolExecutor,
}


def build_executor(config: ExecutionConfig | None) -> ExperimentExecutor:
    """Instantiate the executor class selected by ``config``."""
    config = config or ExecutionConfig()
    return _EXECUTORS[config.backend](config)
