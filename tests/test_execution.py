"""Tests of the campaign execution engine and the seed-derivation contract."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.toggle import build_toggle_study
from repro.core.campaign import (
    CampaignConfig,
    CampaignRunner,
    run_campaign,
    run_single_study,
)
from repro.scenarios import DEFAULT_REGISTRY
from repro.core.execution import (
    PROCESS_POOL,
    SERIAL,
    ExecutionConfig,
    ProcessPoolExecutor,
    SerialExecutor,
    available_backends,
    build_executor,
    run_and_analyze_experiment,
)
from repro.errors import RuntimeConfigurationError
from repro.measures import MeasureStep, StateTuple, StudyMeasure, TotalDuration
from repro.pipeline import run_and_analyze
from repro.sim.rng import RandomStreams

needs_pool = pytest.mark.skipif(
    PROCESS_POOL not in available_backends(),
    reason="process-pool backend needs the fork start method",
)


def build_campaign(experiments: int = 3) -> CampaignConfig:
    study_a = build_toggle_study(
        "alpha", dwell_time=0.02, timeslice=0.002, cycles=3,
        experiments=experiments, seed=11,
    )
    study_b = build_toggle_study(
        "beta", dwell_time=0.03, timeslice=0.002, cycles=3,
        experiments=experiments, seed=22,
    )
    return CampaignConfig(name="engine-test", studies=[study_a, study_b])


# ---------------------------------------------------------------------------
# Seed derivation: the public API and its pinned sequence
# ---------------------------------------------------------------------------


class TestSeedDerivation:
    #: Frozen values of RandomStreams(0).derive("experiment:toggle:i").
    #: These pin the seed-derivation contract: the process-pool backend
    #: re-derives each experiment's seed in the worker, so the sequence
    #: must never change between library versions (or between backends).
    PINNED_SEQUENCE = (
        13078646609861432629,
        6009498735873911444,
        14558700756124061471,
        2401916815302495391,
    )

    def test_pinned_seed_sequence(self):
        streams = RandomStreams(0)
        derived = tuple(streams.derive(f"experiment:toggle:{i}") for i in range(4))
        assert derived == self.PINNED_SEQUENCE

    def test_runner_uses_public_derivation(self):
        study = build_toggle_study("study", dwell_time=0.02, experiments=1, seed=7)
        seed = CampaignRunner._experiment_seed(study, 0)
        assert seed == RandomStreams(7).derive("experiment:study:0")
        assert seed == 6224796762065466819

    def test_experiment_results_carry_derived_seeds(self):
        campaign = build_campaign(experiments=2)
        result = run_campaign(campaign)
        for study in campaign.studies:
            expected = [
                RandomStreams(study.seed).derive(f"experiment:{study.name}:{i}")
                for i in range(study.experiments)
            ]
            actual = [e.seed for e in result.studies[study.name].experiments]
            assert actual == expected


# ---------------------------------------------------------------------------
# ExecutionConfig validation
# ---------------------------------------------------------------------------


class TestExecutionConfig:
    def test_defaults_to_serial(self):
        config = ExecutionConfig()
        assert config.backend == SERIAL
        assert isinstance(build_executor(None), SerialExecutor)
        assert isinstance(build_executor(config), SerialExecutor)

    def test_process_pool_constructor(self):
        config = ExecutionConfig.process_pool(workers=3, chunk_size=2)
        assert config.backend == PROCESS_POOL
        assert config.resolved_workers() == 3
        assert isinstance(build_executor(config), ProcessPoolExecutor)

    @pytest.mark.parametrize("backend", ["gpu", "distributed"])
    def test_unknown_backend_rejected(self, backend):
        with pytest.raises(RuntimeConfigurationError, match="unknown execution backend"):
            ExecutionConfig(backend=backend)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"max_retries": -1}, "max_retries"),
            ({"retry_backoff_base_s": 0.0}, "backoff"),
            ({"retry_backoff_base_s": -0.5}, "backoff"),
        ],
    )
    def test_retry_knob_validation(self, kwargs, match):
        with pytest.raises(RuntimeConfigurationError, match=match):
            ExecutionConfig(**kwargs)

    def test_retry_knobs_participate_in_config_equality(self):
        assert ExecutionConfig(max_retries=1) != ExecutionConfig(max_retries=2)
        assert ExecutionConfig(retry_backoff_base_s=0.1) != ExecutionConfig(
            retry_backoff_base_s=0.2
        )
        assert ExecutionConfig(max_retries=3) == ExecutionConfig(max_retries=3)

    def test_default_workers_follow_the_affinity_mask(self, monkeypatch):
        # Pinned to one CPU (taskset, a cpuset): one worker, however many
        # CPUs the machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert ExecutionConfig().resolved_workers() == 1

    def test_default_workers_fall_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert ExecutionConfig().resolved_workers() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert ExecutionConfig().resolved_workers() == 1

    def test_invalid_workers_rejected(self):
        with pytest.raises(RuntimeConfigurationError):
            ExecutionConfig(workers=0)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(RuntimeConfigurationError):
            ExecutionConfig(chunk_size=0)

    def test_serial_backend_is_always_available(self):
        assert SERIAL in available_backends()

    def test_default_chunk_size_uses_heuristic(self):
        config = ExecutionConfig()
        assert config.chunk_size is None
        # max(1, tasks // (4 * workers)): four waves of chunks per worker.
        assert config.resolved_chunk_size(1000, 4) == 62
        assert config.resolved_chunk_size(200, 4) == 12
        assert config.resolved_chunk_size(16, 4) == 1

    def test_small_campaigns_keep_chunk_size_one(self):
        config = ExecutionConfig()
        assert config.resolved_chunk_size(1, 8) == 1
        assert config.resolved_chunk_size(0, 8) == 1

    def test_explicit_chunk_size_honored(self):
        config = ExecutionConfig(chunk_size=7)
        assert config.resolved_chunk_size(1000, 4) == 7
        assert config.resolved_chunk_size(2, 4) == 7


# ---------------------------------------------------------------------------
# Serial / process-pool equivalence
# ---------------------------------------------------------------------------


def seeds_of(analysis):
    return {
        name: [e.result.seed for e in study.experiments]
        for name, study in analysis.studies.items()
    }


def measure_values_of(analysis):
    measure = StudyMeasure(
        name="driver-active",
        steps=(MeasureStep(StateTuple("driver", "ACTIVE"), TotalDuration("T")),),
    )
    return {name: study.measure_values(measure) for name, study in analysis.studies.items()}


@needs_pool
class TestBackendEquivalence:
    def test_campaign_results_identical(self):
        campaign = build_campaign()
        serial = run_campaign(campaign, ExecutionConfig.serial())
        pooled = run_campaign(campaign, ExecutionConfig.process_pool(workers=2))
        for study in campaign.studies:
            serial_experiments = serial.studies[study.name].experiments
            pooled_experiments = pooled.studies[study.name].experiments
            assert [e.seed for e in serial_experiments] == [e.seed for e in pooled_experiments]
            assert [e.completed for e in serial_experiments] == [
                e.completed for e in pooled_experiments
            ]
            for left, right in zip(serial_experiments, pooled_experiments):
                left_records = [
                    (r.kind, r.time) for r in left.local_timelines["observer"].records
                ]
                right_records = [
                    (r.kind, r.time) for r in right.local_timelines["observer"].records
                ]
                assert left_records == right_records

    def test_fused_analysis_identical(self):
        campaign = build_campaign()
        serial = run_and_analyze(campaign, ExecutionConfig.serial())
        pooled = run_and_analyze(campaign, ExecutionConfig.process_pool(workers=2))
        assert seeds_of(serial) == seeds_of(pooled)
        assert serial.acceptance_summary() == pooled.acceptance_summary()
        assert measure_values_of(serial) == measure_values_of(pooled)

    def test_chunked_execution_identical(self):
        campaign = build_campaign()
        serial = run_and_analyze(campaign, ExecutionConfig.serial())
        pooled = run_and_analyze(
            campaign, ExecutionConfig.process_pool(workers=2, chunk_size=3)
        )
        assert seeds_of(serial) == seeds_of(pooled)
        assert serial.acceptance_summary() == pooled.acceptance_summary()

    def test_pool_slims_raw_payloads_by_default(self):
        campaign = build_campaign(experiments=1)
        pooled = run_and_analyze(campaign, ExecutionConfig.process_pool(workers=2))
        experiment = pooled.study("alpha").experiments[0]
        assert experiment.result.local_timelines == {}
        assert experiment.result.sync_messages == []
        # The analyzed artifacts survive the slimming.
        assert experiment.global_timeline.entries
        assert experiment.clock_bounds

    def test_keep_raw_results_preserves_payloads(self):
        campaign = build_campaign(experiments=1)
        pooled = run_and_analyze(
            campaign, ExecutionConfig.process_pool(workers=2, keep_raw_results=True)
        )
        experiment = pooled.study("alpha").experiments[0]
        assert set(experiment.result.local_timelines) == {"driver", "observer"}
        assert experiment.result.sync_messages


# ---------------------------------------------------------------------------
# Registry-driven smoke test: every scenario, every backend
# ---------------------------------------------------------------------------


def analyzed_fingerprint(analysis, scenario):
    """Everything the analysis phase derives for one study, comparably."""
    study = next(iter(analysis.studies.values()))
    fingerprint = {
        "seeds": [e.result.seed for e in study.experiments],
        "completed": [e.result.completed for e in study.experiments],
        "accepted": [e.accepted for e in study.experiments],
        "verdicts": [
            [(v.fault, v.machine, v.correct) for v in e.verification.verdicts]
            for e in study.experiments
        ],
        "timeline_sizes": [len(e.global_timeline.entries) for e in study.experiments],
    }
    if scenario.measure_factory is not None:
        fingerprint["measure"] = study.measure_values(scenario.measure_factory())
    return fingerprint


@pytest.mark.parametrize("scenario_name", DEFAULT_REGISTRY.names())
class TestScenarioRegistrySmoke:
    """Every registered scenario builds, runs, and analyzes on every backend."""

    EXPERIMENTS = 2
    SEED = 17

    def campaign_for(self, scenario_name):
        study = DEFAULT_REGISTRY.build(
            scenario_name, experiments=self.EXPERIMENTS, seed=self.SEED
        )
        return CampaignConfig(name=f"smoke-{scenario_name}", studies=[study])

    def test_scenario_runs_end_to_end_serial(self, scenario_name):
        scenario = DEFAULT_REGISTRY.get(scenario_name)
        analysis = run_and_analyze(self.campaign_for(scenario_name), ExecutionConfig.serial())
        study = next(iter(analysis.studies.values()))
        assert len(study.experiments) == self.EXPERIMENTS
        assert all(e.global_timeline.entries for e in study.experiments)
        assert all(e.clock_bounds for e in study.experiments)
        if scenario.measure_factory is not None:
            assert len(study.measure_values(scenario.measure_factory())) == len(
                study.accepted()
            )

    @needs_pool
    def test_scenario_serial_and_pool_results_identical(self, scenario_name):
        scenario = DEFAULT_REGISTRY.get(scenario_name)
        campaign = self.campaign_for(scenario_name)
        serial = run_and_analyze(campaign, ExecutionConfig.serial())
        pooled = run_and_analyze(campaign, ExecutionConfig.process_pool(workers=2))
        assert analyzed_fingerprint(serial, scenario) == analyzed_fingerprint(
            pooled, scenario
        )


# ---------------------------------------------------------------------------
# Engine plumbing
# ---------------------------------------------------------------------------


class TestEnginePlumbing:
    def test_run_and_analyze_experiment_matches_campaign_path(self):
        campaign = build_campaign(experiments=1)
        study = campaign.studies[0]
        direct = run_and_analyze_experiment(study, 0)
        via_engine = run_and_analyze(campaign, ExecutionConfig.serial())
        engine_experiment = via_engine.study(study.name).experiments[0]
        assert direct.result.seed == engine_experiment.result.seed
        assert direct.accepted == engine_experiment.accepted

    def test_progress_callback_streams_per_study(self):
        campaign = build_campaign(experiments=2)
        events = []
        config = ExecutionConfig(progress=lambda name, done, total: events.append((name, done, total)))
        run_campaign(campaign, config)
        assert events.count(("alpha", 2, 2)) == 1
        assert events.count(("beta", 2, 2)) == 1
        assert len(events) == 4

    def test_study_execution_override_used_by_run_single_study(self):
        study = build_toggle_study(
            "override", dwell_time=0.02, cycles=3, experiments=1, seed=3,
        )
        study.execution = ExecutionConfig.serial()
        result = run_single_study(study)
        assert len(result.experiments) == 1

    def test_run_experiment_of_is_standalone(self):
        study = build_toggle_study("solo", dwell_time=0.02, cycles=3, experiments=1, seed=5)
        experiment = CampaignRunner.run_experiment_of(study, 0)
        assert experiment.seed == RandomStreams(5).derive("experiment:solo:0")
        assert experiment.index == 0

    def test_subclass_run_experiment_override_is_dispatched(self):
        calls = []

        class InstrumentedRunner(CampaignRunner):
            def run_experiment(self, study, index):
                calls.append((study.name, index))
                return super().run_experiment(study, index)

        campaign = build_campaign(experiments=1)
        result = InstrumentedRunner(campaign).run()
        assert sorted(calls) == [("alpha", 0), ("beta", 0)]
        assert set(result.studies) == {"alpha", "beta"}


# ---------------------------------------------------------------------------
# Event-cap backstop
# ---------------------------------------------------------------------------


class TestEventCap:
    def test_event_cap_marks_experiment_aborted(self):
        study = build_toggle_study("capped", dwell_time=0.02, cycles=3,
                                   experiments=1, seed=1)
        study.max_events = 50
        result = run_single_study(study)
        experiment = result.experiments[0]
        assert experiment.aborted
        assert experiment.abort_reason == "event cap reached (50 events)"
        assert not experiment.completed

    def test_default_cap_does_not_trigger(self):
        study = build_toggle_study("uncapped", dwell_time=0.02, cycles=3,
                                   experiments=1, seed=1)
        result = run_single_study(study)
        experiment = result.experiments[0]
        assert experiment.completed
        assert experiment.abort_reason is None

    def test_nonpositive_cap_rejected(self):
        from dataclasses import replace

        study = build_toggle_study("bad", dwell_time=0.02, experiments=1)
        with pytest.raises(RuntimeConfigurationError):
            replace(study, max_events=0)


# ---------------------------------------------------------------------------
# Pool worker crashes: survive, report, resume
# ---------------------------------------------------------------------------


class SuicidalRunner(CampaignRunner):
    """SIGKILLs its own worker process at alpha:1 — once, gated by a
    sentinel file, so the retried attempt succeeds.  Results are otherwise
    identical to the plain runner (only scheduling is disturbed)."""

    sentinel = ""  # set by each test before running

    @classmethod
    def run_experiment_of(cls, study, index):
        import os as _os
        import signal as _signal
        from pathlib import Path as _Path

        if study.name == "alpha" and index == 1 and not _os.path.exists(cls.sentinel):
            _Path(cls.sentinel).write_text("died once")
            _os.kill(_os.getpid(), _signal.SIGKILL)
        return super().run_experiment_of(study, index)


class AlwaysCrashingRunner(CampaignRunner):
    """SIGKILLs its worker at alpha:1 on every attempt (an unretriable
    fault, e.g. a deterministic OOM kill)."""

    @classmethod
    def run_experiment_of(cls, study, index):
        import os as _os
        import signal as _signal

        if study.name == "alpha" and index == 1:
            _os.kill(_os.getpid(), _signal.SIGKILL)
        return super().run_experiment_of(study, index)


@needs_pool
class TestPoolCrashRecovery:
    def test_worker_crash_is_retried_and_campaign_completes(self, tmp_path):
        campaign = build_campaign()
        serial = run_and_analyze(campaign, ExecutionConfig.serial())
        SuicidalRunner.sentinel = str(tmp_path / "died")
        config = ExecutionConfig.process_pool(
            workers=2, max_retries=2, retry_backoff_base_s=0.01
        )
        with pytest.warns(UserWarning, match="rebuilding the pool"):
            pooled = build_executor(config).run_and_analyze(
                campaign, runner_class=SuicidalRunner
            )
        assert (tmp_path / "died").exists(), "chaos never fired"
        assert seeds_of(pooled) == seeds_of(serial)
        assert measure_values_of(pooled) == measure_values_of(serial)
        assert pooled.acceptance_summary() == serial.acceptance_summary()

    def test_exhausted_retries_report_the_dead_experiments(self):
        from repro.errors import ExecutionInterrupted

        campaign = build_campaign()
        config = ExecutionConfig.process_pool(
            workers=2, max_retries=0, retry_backoff_base_s=0.01
        )
        with pytest.raises(ExecutionInterrupted, match="process-pool worker died") as info:
            build_executor(config).run_and_analyze(
                campaign, runner_class=AlwaysCrashingRunner
            )
        # The report names what was lost, not just that something was.
        assert info.value.pending
        assert ("alpha", 1) in info.value.pending
        assert "alpha:1" in str(info.value)

    def test_crash_with_store_hints_at_resume_and_heals(self, tmp_path):
        from repro.errors import ExecutionInterrupted
        from repro.store import CampaignStore

        campaign = build_campaign()
        serial = run_and_analyze(
            campaign, ExecutionConfig.serial(), store=CampaignStore(tmp_path / "s")
        )
        SuicidalRunner.sentinel = str(tmp_path / "died-with-store")
        config = ExecutionConfig.process_pool(
            workers=2, max_retries=0, retry_backoff_base_s=0.01, chunk_size=1
        )
        with pytest.raises(ExecutionInterrupted) as info:
            build_executor(config).run_and_analyze(
                campaign, runner_class=SuicidalRunner, store=CampaignStore(tmp_path / "d")
            )
        assert any("campaign store" in note for note in info.value.__notes__)
        # Following the hint heals: the sentinel now exists, so the rerun
        # (same store) resumes past the persisted records and completes.
        resumed = build_executor(config).run_and_analyze(
            campaign, runner_class=SuicidalRunner, store=CampaignStore(tmp_path / "d")
        )
        assert seeds_of(resumed) == seeds_of(serial)
        assert measure_values_of(resumed) == measure_values_of(serial)
        assert (
            CampaignStore(tmp_path / "d").content_fingerprint()
            == CampaignStore(tmp_path / "s").content_fingerprint()
        )

    @pytest.mark.parametrize("raiser", ["progress", "store"])
    def test_raising_sink_shuts_the_pool_down(self, raiser, tmp_path):
        import multiprocessing

        from repro.store import CampaignStore

        class CoordinatorKilled(RuntimeError):
            pass

        def die_at_first_completion(*args):
            raise CoordinatorKilled()

        class DyingStore(CampaignStore):
            append = die_at_first_completion

        campaign = build_campaign(experiments=6)
        config = ExecutionConfig.process_pool(
            workers=2, chunk_size=1,
            progress=die_at_first_completion if raiser == "progress" else None,
        )
        store = DyingStore(tmp_path / "s") if raiser == "store" else None
        with pytest.raises(CoordinatorKilled) as info:
            build_executor(config).run_and_analyze(campaign, store=store)
        # The traceback (kept alive by ``info``) references the run's
        # frames; the pool must be gone anyway, not computing the rest of
        # the campaign until garbage collection.
        assert info.traceback
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Pool equivalence: shapes, stores, progress
# ---------------------------------------------------------------------------


def build_sized_campaign(sizes) -> CampaignConfig:
    studies = [
        build_toggle_study(
            f"s{study_index}", dwell_time=0.02, timeslice=0.002, cycles=3,
            experiments=size, seed=100 + study_index,
        )
        for study_index, size in enumerate(sizes)
    ]
    return CampaignConfig(name="shape-test", studies=studies)


def identities_of(result):
    return {
        name: [(e.index, e.seed, e.completed) for e in study.experiments]
        for name, study in result.studies.items()
    }


def observer_records_of(result):
    return {
        name: [
            [(r.kind, r.time) for r in e.local_timelines["observer"].records]
            for e in study.experiments
        ]
        for name, study in result.studies.items()
    }


@needs_pool
class TestPoolEquivalence:
    #: (study sizes, workers, chunk size): one chunk, one experiment per
    #: chunk, ragged tails, chunks larger than a study, more workers than
    #: chunks, and the default heuristic.
    SHAPES = (
        ((1,), 1, None),
        ((7,), 2, 3),
        ((8,), 1, 8),
        ((5, 5), 2, 2),
        ((3, 1, 9), 2, 4),
        ((2, 2, 2, 2), 3, 1),
        ((20,), 2, None),
    )

    @pytest.mark.parametrize("sizes,workers,chunk_size", SHAPES)
    def test_every_experiment_completes_exactly_once(self, sizes, workers, chunk_size):
        campaign = build_sized_campaign(sizes)
        events = []
        config = ExecutionConfig.process_pool(
            workers=workers, chunk_size=chunk_size,
            progress=lambda *event: events.append(event),
        )
        pooled = run_campaign(campaign, config)
        serial = run_campaign(campaign, ExecutionConfig.serial())
        for study in campaign.studies:
            done = [done for name, done, total in events if name == study.name]
            assert done == list(range(1, study.experiments + 1))
        assert identities_of(pooled) == identities_of(serial)

    def test_store_streaming_matches_serial_store(self, tmp_path):
        from repro.store import CampaignStore

        campaign = build_campaign(experiments=3)
        serial = run_and_analyze(
            campaign, ExecutionConfig.serial(), store=CampaignStore(tmp_path / "s")
        )
        pooled = run_and_analyze(
            campaign,
            ExecutionConfig.process_pool(workers=2, chunk_size=2),
            store=CampaignStore(tmp_path / "p"),
        )
        assert measure_values_of(pooled) == measure_values_of(serial)
        pool_store = CampaignStore(tmp_path / "p")
        assert (
            pool_store.content_fingerprint()
            == CampaignStore(tmp_path / "s").content_fingerprint()
        )
        reports = pool_store.verify()
        assert all(report.valid == 3 and report.corrupt == 0 for report in reports.values())

    def test_run_study_matches_serial(self):
        study = build_toggle_study(
            "lone", dwell_time=0.02, timeslice=0.002, cycles=3, experiments=3, seed=9,
        )
        serial = build_executor(ExecutionConfig.serial()).run_study(study)
        pooled = build_executor(ExecutionConfig.process_pool(workers=2)).run_study(study)
        assert [(e.index, e.seed, e.completed) for e in pooled.experiments] == [
            (e.index, e.seed, e.completed) for e in serial.experiments
        ]


# ---------------------------------------------------------------------------
# Resume: a store with holes runs exactly the missing experiments
# ---------------------------------------------------------------------------


#: Which (study, experiment) records an earlier, interrupted run persisted.
PERSISTED_SETS = {
    "nothing": (),
    "alpha-prefix": (("alpha", 0), ("alpha", 1)),
    "alternating": (("alpha", 0), ("alpha", 2), ("beta", 1), ("beta", 3)),
    "tails": (("alpha", 3), ("beta", 3)),
    "one-whole-study": tuple(("beta", index) for index in range(4)),
    "everything": tuple(
        (name, index) for name in ("alpha", "beta") for index in range(4)
    ),
}


@needs_pool
@pytest.mark.parametrize("persisted", list(PERSISTED_SETS))
def test_pool_resume_runs_exactly_the_missing_experiments(persisted, tmp_path):
    from repro.store import CampaignStore

    campaign = build_campaign(experiments=4)
    serial_analysis = run_and_analyze(
        campaign, ExecutionConfig.serial(), store=CampaignStore(tmp_path / "reference")
    )
    reference = CampaignStore(tmp_path / "reference")
    # Write the earlier run's records through the public store API.
    partial = CampaignStore(tmp_path / "partial")
    partial.attach(campaign)
    records = {
        study.name: reference.resumable_records(study) for study in campaign.studies
    }
    for name, index in PERSISTED_SETS[persisted]:
        partial.append(records[name][index])

    events: list[tuple[str, int, int]] = []
    config = ExecutionConfig.process_pool(
        workers=2, chunk_size=1, progress=lambda *event: events.append(event)
    )
    resumed = build_executor(config).run_and_analyze(
        campaign, store=CampaignStore(tmp_path / "partial")
    )
    for study in campaign.studies:
        offset = sum(1 for name, _ in PERSISTED_SETS[persisted] if name == study.name)
        done = [done for name, done, total in events if name == study.name]
        assert done == list(range(offset + 1, study.experiments + 1))
    assert seeds_of(resumed) == seeds_of(serial_analysis)
    assert measure_values_of(resumed) == measure_values_of(serial_analysis)
    healed = CampaignStore(tmp_path / "partial")
    assert healed.content_fingerprint() == reference.content_fingerprint()
    # Nothing persisted was run (and appended) a second time.
    assert all(
        report.valid == 4 and report.corrupt == 0 and report.superseded == 0
        for report in healed.verify().values()
    )


@needs_pool
def test_fully_resumed_pool_campaign_forks_nothing(tmp_path, monkeypatch):
    import concurrent.futures

    from repro.store import CampaignStore

    campaign = build_campaign(experiments=2)
    serial = run_and_analyze(
        campaign, ExecutionConfig.serial(), store=CampaignStore(tmp_path / "s")
    )

    def no_pool(*args, **kwargs):
        raise AssertionError("a fully resumed campaign started a pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    resumed = run_and_analyze(
        campaign,
        ExecutionConfig.process_pool(workers=2),
        store=CampaignStore(tmp_path / "s"),
    )
    assert measure_values_of(resumed) == measure_values_of(serial)


# ---------------------------------------------------------------------------
# Pool crash recovery: schedules, loss reports, every entry point
# ---------------------------------------------------------------------------


@needs_pool
class TestPoolRetryBudget:
    @pytest.mark.parametrize(
        "base,max_retries,expected",
        [
            (0.05, 1, [0.05]),
            (0.5, 4, [0.5, 1.0, 2.0, 4.0]),
            (2.0, 3, [2.0, 4.0, 5.0]),
            (3.0, 2, [3.0, 5.0]),
            (10.0, 2, [5.0, 5.0]),
            (0.25, 0, []),
        ],
    )
    def test_retry_schedule_and_warnings(self, base, max_retries, expected, monkeypatch):
        import time
        import warnings

        from repro.errors import ExecutionInterrupted

        delays: list[float] = []
        monkeypatch.setattr(time, "sleep", delays.append)
        config = ExecutionConfig.process_pool(
            workers=2, max_retries=max_retries, retry_backoff_base_s=base
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ExecutionInterrupted, match=f"after {max_retries} retries"):
                build_executor(config).run_and_analyze(
                    build_campaign(experiments=2), runner_class=AlwaysCrashingRunner
                )
        assert delays == expected
        rebuilds = [str(w.message) for w in caught if "rebuilding the pool" in str(w.message)]
        assert len(rebuilds) == max_retries
        for attempt, message in enumerate(rebuilds, start=1):
            assert f"retry {attempt} of {max_retries}" in message

    @pytest.mark.parametrize("chunk_size", [1, 2, 3])
    def test_lost_experiments_are_exactly_the_unpersisted_ones(self, chunk_size, tmp_path):
        from repro.errors import ExecutionInterrupted
        from repro.store import CampaignStore

        campaign = build_campaign(experiments=4)
        config = ExecutionConfig.process_pool(
            workers=2, chunk_size=chunk_size, max_retries=0, retry_backoff_base_s=0.01
        )
        with pytest.raises(ExecutionInterrupted) as info:
            build_executor(config).run_campaign(
                campaign,
                runner_class=AlwaysCrashingRunner,
                store=CampaignStore(tmp_path / "store"),
            )
        store = CampaignStore(tmp_path / "store")
        persisted = {
            (study.name, index)
            for study in campaign.studies
            for index in store.resumable_records(study)
        }
        lost = info.value.pending
        everything = {
            (study.name, index)
            for study in campaign.studies
            for index in range(study.experiments)
        }
        assert ("alpha", 1) in lost
        assert len(lost) == len(set(lost))
        assert not set(lost) & persisted
        assert set(lost) | persisted == everything

    def test_worker_dying_while_chunks_are_submitted_is_retried(self, tmp_path, monkeypatch):
        import concurrent.futures
        import time

        # Hold the coordinator after it hands out alpha:1's chunk until that
        # worker has died, so the pool breaks under ``submit`` itself rather
        # than under an already-submitted future.
        original_submit = concurrent.futures.ProcessPoolExecutor.submit
        submits = []

        def submit_then_wait_for_the_crash(pool, *args, **kwargs):
            future = original_submit(pool, *args, **kwargs)
            submits.append(pool)
            if len(submits) == 2:
                deadline = time.monotonic() + 30
                while not (tmp_path / "died").exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.5)
            return future

        monkeypatch.setattr(
            concurrent.futures.ProcessPoolExecutor, "submit", submit_then_wait_for_the_crash
        )
        campaign = build_campaign(experiments=4)
        serial = run_campaign(campaign, ExecutionConfig.serial())
        SuicidalRunner.sentinel = str(tmp_path / "died")
        config = ExecutionConfig.process_pool(
            workers=2, chunk_size=1, max_retries=1, retry_backoff_base_s=0.01
        )
        with pytest.warns(UserWarning, match="rebuilding the pool"):
            pooled = build_executor(config).run_campaign(
                campaign, runner_class=SuicidalRunner
            )
        assert (tmp_path / "died").exists(), "chaos never fired"
        # The first pool broke at its third submit, not under a future.
        assert submits.count(submits[0]) == 2
        assert identities_of(pooled) == identities_of(serial)
        assert observer_records_of(pooled) == observer_records_of(serial)

    @pytest.mark.parametrize(
        "count,expected",
        [
            (1, "alpha:0"),
            (5, "alpha:0, alpha:1, alpha:2, beta:0, beta:1"),
            (6, "alpha:0, alpha:1, alpha:2, beta:0, beta:1, ... (+1 more)"),
        ],
    )
    def test_loss_report_names_the_first_five(self, count, expected):
        from repro.core.execution import _describe_tasks

        campaign = build_campaign(experiments=3)
        tasks = ProcessPoolExecutor._tasks(campaign)[:count]
        assert _describe_tasks(campaign, tasks) == expected


class TestForkUnavailable:
    def test_only_the_serial_backend_is_offered(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert available_backends() == (SERIAL,)

    def test_pool_run_is_refused_with_a_pointer_to_serial(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        config = ExecutionConfig.process_pool(workers=2)
        with pytest.raises(RuntimeConfigurationError, match="'fork'.*serial backend"):
            run_campaign(build_campaign(experiments=1), config)


class TestExecutionConfigIdentity:
    def test_progress_callback_is_not_part_of_equality(self):
        assert ExecutionConfig(progress=print) == ExecutionConfig()

    def test_config_is_frozen(self):
        from dataclasses import FrozenInstanceError

        with pytest.raises(FrozenInstanceError):
            ExecutionConfig().max_retries = 5

    @given(tasks=st.integers(min_value=0, max_value=5000), workers=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_default_chunking_gives_each_worker_four_to_eight_chunks(self, tasks, workers):
        size = ExecutionConfig().resolved_chunk_size(tasks, workers)
        assert size >= 1
        chunks = -(-tasks // size)
        if tasks >= 4 * workers:
            assert 4 * workers <= chunks <= 8 * workers
        else:
            assert chunks == tasks
