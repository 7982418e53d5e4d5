"""Chaos tests: fault injection into the process pool that runs campaigns.

The paper's methodology — inject faults, observe whether the system's
behaviour stays within its specification — applied to the backend that
runs the paper's campaigns.  Each test injects a real fault into a live
fork pool (a worker SIGKILLed mid-chunk, two workers lost at different
experiments, a coordinator that dies while a worker is also being killed)
and then asserts the *strongest* possible specification: the recovered
campaign's measures and its store fingerprint are **bit-identical** to an
undisturbed serial run.  The seed-derivation contract is what makes that
assertion possible — every experiment's seed is a pure function of
(study, index), so no matter which worker re-ran what, the merged records
must match exactly.

The faults come from ``runner_class`` seams: a runner that SIGKILLs its
own worker process at chosen experiments, once per sentinel file, so the
retried attempt runs clean.  The library carries no chaos hooks.

This module is self-contained (the ``tests/chaos/`` directory is its own
rootdir for imports) so CI's ``chaos-smoke`` job can run it in isolation.
"""

from __future__ import annotations

import os
import signal
import warnings
from pathlib import Path

import pytest

from repro.apps.toggle import build_toggle_study
from repro.core.campaign import CampaignConfig, CampaignRunner
from repro.core.execution import (
    PROCESS_POOL,
    ExecutionConfig,
    available_backends,
    build_executor,
)
from repro.measures import (
    MeasureStep,
    SimpleSamplingMeasure,
    StateTuple,
    StudyMeasure,
    TotalDuration,
    estimate_campaign_measure,
)
from repro.pipeline import run_and_analyze
from repro.store import CampaignStore

needs_fork = pytest.mark.skipif(
    PROCESS_POOL not in available_backends(),
    reason="the process-pool backend needs the fork start method",
)

#: Near-instant retries, so each test finishes in well under a second.
CHAOS_BACKOFF_S = 0.01


def build_campaign(experiments: int = 8) -> CampaignConfig:
    study_a = build_toggle_study(
        "alpha", dwell_time=0.02, timeslice=0.002, cycles=3,
        experiments=experiments, seed=11,
    )
    study_b = build_toggle_study(
        "beta", dwell_time=0.03, timeslice=0.002, cycles=3,
        experiments=experiments, seed=22,
    )
    return CampaignConfig(name="chaos-test", studies=[study_a, study_b])


DRIVER_MEASURE = StudyMeasure(
    name="driver-active",
    steps=(MeasureStep(StateTuple("driver", "ACTIVE"), TotalDuration("T")),),
)


def campaign_measures_of(analysis) -> dict:
    """Every downstream quantity, in exactly comparable (bit-exact) form."""
    study_measures = {name: DRIVER_MEASURE for name in analysis.studies}
    estimate = estimate_campaign_measure(
        SimpleSamplingMeasure("driver-active"), analysis, study_measures
    )
    return {
        "values": analysis.measure_values(study_measures),
        "acceptance": analysis.acceptance_summary(),
        "seeds": {
            name: [e.result.seed for e in study.experiments]
            for name, study in analysis.studies.items()
        },
        "estimate": estimate.to_dict(),
    }


def serial_baseline(campaign, tmp_path):
    """The undisturbed run every chaos run must match bit for bit."""
    store = CampaignStore(tmp_path / "serial")
    analysis = run_and_analyze(campaign, ExecutionConfig.serial(), store=store)
    return campaign_measures_of(analysis), store.content_fingerprint()


def suicidal_runner(kill_at: dict[tuple[str, int], Path]) -> type[CampaignRunner]:
    """A runner whose worker SIGKILLs itself at each ``(study, index)`` key.

    Each kill fires once: the dying worker first writes its pid into the
    key's sentinel file, and a present sentinel disarms the kill, so the
    pool's retry runs the experiment clean.  Results are otherwise those
    of the plain runner — only scheduling is disturbed.
    """

    class SuicidalRunner(CampaignRunner):
        @classmethod
        def run_experiment_of(cls, study, index):
            sentinel = kill_at.get((study.name, index))
            if sentinel is not None and not sentinel.exists():
                sentinel.write_text(str(os.getpid()))
                os.kill(os.getpid(), signal.SIGKILL)
            return super().run_experiment_of(study, index)

    return SuicidalRunner


def run_with_chaos(campaign, config, runner_class, store):
    """One chaos run, returning (analysis, pool rebuilds)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        analysis = build_executor(config).run_and_analyze(
            campaign, runner_class=runner_class, store=store
        )
    rebuilds = sum("rebuilding the pool" in str(w.message) for w in caught)
    return analysis, rebuilds


@needs_fork
class TestWorkerSigkill:
    def test_sigkill_mid_chunk_recovers_bit_identical(self, tmp_path):
        # The worker holding chunk alpha:0-3 dies at alpha:2, after it has
        # already finished alpha:0 and alpha:1.  A chunk returns whole or
        # not at all, so those two are lost with it and must be re-run —
        # never double-written to the store.
        sentinel = tmp_path / "killed-alpha-2"
        campaign = build_campaign(experiments=8)
        baseline, base_print = serial_baseline(campaign, tmp_path)
        config = ExecutionConfig.process_pool(
            workers=2, chunk_size=4, retry_backoff_base_s=CHAOS_BACKOFF_S
        )
        store = CampaignStore(tmp_path / "chaos")
        analysis, rebuilds = run_with_chaos(
            campaign, config, suicidal_runner({("alpha", 2): sentinel}), store
        )
        assert sentinel.exists(), "chaos never fired"
        assert rebuilds >= 1
        assert campaign_measures_of(analysis) == baseline
        assert store.content_fingerprint() == base_print

    def test_sigkill_two_workers_still_converges(self, tmp_path):
        # Two kill points, each in its own chunk: two distinct worker
        # processes die, the same campaign may break the pool twice, and
        # the raised retry budget must absorb both.
        sentinels = {
            ("alpha", 1): tmp_path / "killed-alpha-1",
            ("beta", 4): tmp_path / "killed-beta-4",
        }
        campaign = build_campaign(experiments=8)
        baseline, base_print = serial_baseline(campaign, tmp_path)
        config = ExecutionConfig.process_pool(
            workers=2, chunk_size=3, max_retries=4, retry_backoff_base_s=CHAOS_BACKOFF_S
        )
        store = CampaignStore(tmp_path / "chaos")
        analysis, rebuilds = run_with_chaos(
            campaign, config, suicidal_runner(sentinels), store
        )
        pids = {path.read_text() for path in sentinels.values() if path.exists()}
        assert len(pids) == 2, "expected two distinct workers to die"
        assert rebuilds >= 1
        assert campaign_measures_of(analysis) == baseline
        assert store.content_fingerprint() == base_print


@needs_fork
class TestCoordinatorDeath:
    def test_killed_coordinator_heals_from_store_under_chaos(self, tmp_path):
        # Compound fault: the first worker SIGKILLs itself at alpha:0, so
        # the pool is rebuilt, AND the coordinating process dies after five
        # completions (simulated by raising out of the progress callback,
        # which tears down the run exactly like a crash would).  A rerun
        # against the same store must heal to the serial baseline,
        # resimulating only what is missing.
        class CoordinatorKilled(RuntimeError):
            pass

        sentinel = tmp_path / "killed-alpha-0"
        campaign = build_campaign(experiments=6)
        baseline, base_print = serial_baseline(campaign, tmp_path)
        store_path = tmp_path / "chaos"

        completions = 0

        def die_after_five(name: str, done: int, total: int) -> None:
            nonlocal completions
            completions += 1
            if completions >= 5:
                raise CoordinatorKilled()

        first = ExecutionConfig.process_pool(
            workers=2, chunk_size=3, progress=die_after_five,
            retry_backoff_base_s=CHAOS_BACKOFF_S,
        )
        with pytest.raises(CoordinatorKilled):
            run_with_chaos(
                campaign, first, suicidal_runner({("alpha", 0): sentinel}),
                CampaignStore(store_path),
            )
        assert sentinel.exists(), "chaos never fired"
        persisted = sum(
            report.valid for report in CampaignStore(store_path).verify().values()
        )
        assert 5 <= persisted < 12

        # The restarted campaign: no chaos this time, same store.
        rerun = ExecutionConfig.process_pool(workers=2, chunk_size=3)
        analysis = run_and_analyze(campaign, rerun, store=CampaignStore(store_path))
        assert campaign_measures_of(analysis) == baseline
        assert CampaignStore(store_path).content_fingerprint() == base_print
