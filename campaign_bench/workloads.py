"""The benchmark's three workloads and the digest every op's output is checked by.

One *op* is one closed-loop campaign from a single client: build the
campaign from ``DEFAULT_REGISTRY.build_campaign(seed=...)`` (all 22
scenarios), run or load and analyze it, apply each scenario's study measure
to its accepted experiments, and estimate one campaign measure.  The next op
starts when the previous one has returned.

* ``registry-serial``: the serial backend, in memory, no store.  Kernel,
  delivery, runtime, sync mini-phases and analysis do all the work in one
  process; dispatch and store do nothing.
* ``pool-archive``: the process-pool backend (two workers) with a fresh
  default-codec ``CampaignStore`` attached, so the coordinator encodes and
  appends every record: the dispatch and store-write paths.
* ``store-reanalyze``: set-up archives the campaign once into a columnar
  store; each op re-analyzes it through a fresh store object.  No simulator
  call at all: decode, analysis and measures.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.execution import ExecutionConfig
from repro.measures import SimpleSamplingMeasure, estimate_campaign_measure
from repro.pipeline import run_and_analyze
from repro.scenarios import DEFAULT_REGISTRY
from repro.store import CampaignStore

from tracer import TraceSwitch

#: Experiments per scenario in one op: 22 scenarios x 10 = 220 experiments.
EXPERIMENTS = 10
POOL_WORKERS = 2


@dataclass
class OpOutput:
    """What one op produced, as the output check sees it."""

    experiments: int
    accepted: int
    digest: str
    fingerprint: str | None = None
    store_bytes: int = 0
    retries: int = 0


def _hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(item) for item in value]
    return value


def output_digest(analysis, values, estimate) -> str:
    """SHA-256 over per-study acceptance, every verdict and every measure value.

    Floats enter as ``float.hex``, so the digest pins results bit for bit.
    """
    digest = hashlib.sha256()
    for name, study in analysis.studies.items():
        digest.update(f"study {name} {len(study.accepted())} {len(study.experiments)}\n".encode())
        for experiment in study.experiments:
            for verdict in experiment.verification.verdicts:
                digest.update(
                    f"verdict {name} {experiment.result.index} {verdict.machine} "
                    f"{verdict.fault} {verdict.correct} {verdict.reason}\n".encode()
                )
    canonical = {"values": _hexed(values), "estimate": _hexed(estimate.to_dict())}
    digest.update(json.dumps(canonical, sort_keys=True).encode())
    return digest.hexdigest()


def measure_phase(analysis, span=lambda name: nullcontext()):
    """Each scenario's study measure over its accepted experiments, then one
    campaign measure pooling them."""
    measures = {
        scenario.name: scenario.measure_factory()
        for scenario in DEFAULT_REGISTRY
        if scenario.measure_factory is not None
    }
    with span("measures.apply"):
        values = analysis.measure_values(measures)
    with span("measures.estimate"):
        estimate = estimate_campaign_measure(
            SimpleSamplingMeasure("campaign"), analysis, measures
        )
    return values, estimate


def checked_output(analysis, values, estimate) -> OpOutput:
    """The fields of an op's output that the check compares."""
    studies = analysis.studies.values()
    return OpOutput(
        experiments=sum(len(study.experiments) for study in studies),
        accepted=sum(len(study.accepted()) for study in studies),
        digest=output_digest(analysis, values, estimate),
    )


def result_bytes(analysis) -> int:
    """Pickled size of the analyzed experiments an op returns."""
    return len(pickle.dumps(
        [study.experiments for study in analysis.studies.values()],
        protocol=pickle.HIGHEST_PROTOCOL,
    ))


def directory_bytes(path: Path) -> int:
    return sum(item.stat().st_size for item in path.rglob("*") if item.is_file())


class Workload:
    """One benchmark workload: a set-up and a repeatable campaign op."""

    name = ""
    #: Pool worker processes (0: the op runs in this process alone).
    workers = 0

    def __init__(self, seed: int, experiments: int, workdir: Path, switch: TraceSwitch) -> None:
        self.seed = seed
        self.experiments = experiments
        self.workdir = workdir
        self.switch = switch
        self.ops = 0

    def span(self, name: str):
        tracer = self.switch.active()
        return tracer.span(name) if tracer is not None else nullcontext()

    def build(self):
        with self.span("scenarios.build"):
            return DEFAULT_REGISTRY.build_campaign(experiments=self.experiments, seed=self.seed)

    def expected_experiments(self) -> int:
        return len(DEFAULT_REGISTRY) * self.experiments

    def prepare(self) -> None:
        """Workload set-up beyond imports; nothing by default."""

    def op(self, progress: Callable) -> tuple:
        """One timed campaign op: returns (analysis, measure values, estimate)."""
        self.ops += 1
        analysis = self.analyze(self.build(), progress)
        values, estimate = measure_phase(analysis, self.span)
        return analysis, values, estimate

    def analyze(self, campaign, progress: Callable):
        raise NotImplementedError

    def check_fields(self, output: OpOutput) -> OpOutput:
        """Add workload-specific check fields after the timed part of an op."""
        return output

    def reference(self) -> tuple[str | None, str | None]:
        """Digest of a serial in-memory run of this seed, and the store
        fingerprint when the workload has one to offer."""
        campaign = DEFAULT_REGISTRY.build_campaign(experiments=self.experiments, seed=self.seed)
        analysis = run_and_analyze(campaign, ExecutionConfig.serial())
        return checked_output(analysis, *measure_phase(analysis)).digest, None

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class RegistrySerial(Workload):
    name = "registry-serial"

    def reference(self):
        """Every op is itself a serial in-memory run: the warm-up op is the
        reference."""
        return None, None

    def analyze(self, campaign, progress):
        return run_and_analyze(campaign, ExecutionConfig.serial(progress=progress))


class PoolArchive(Workload):
    name = "pool-archive"
    workers = POOL_WORKERS

    def _store_path(self) -> Path:
        return self.workdir / f"op-{self.ops}"

    def analyze(self, campaign, progress):
        path = self._store_path()
        shutil.rmtree(path, ignore_errors=True)
        execution = ExecutionConfig.process_pool(workers=POOL_WORKERS, progress=progress)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with CampaignStore(path) as store:
                analysis = run_and_analyze(campaign, execution, store=store)
        self._retries = sum(
            1 for warning in caught if "rebuilding the pool" in str(warning.message)
        )
        return analysis

    def check_fields(self, output):
        path = self._store_path()
        output.fingerprint = CampaignStore(path).content_fingerprint()
        output.store_bytes = directory_bytes(path)
        output.retries = self._retries
        shutil.rmtree(path, ignore_errors=True)
        return output


class StoreReanalyze(Workload):
    name = "store-reanalyze"

    def prepare(self) -> None:
        """Archive the campaign once, serially, into a columnar store."""
        self.archive = self.workdir / "archive"
        shutil.rmtree(self.archive, ignore_errors=True)
        campaign = self.build()
        with CampaignStore(self.archive, codec="columnar") as store:
            self._archived = run_and_analyze(campaign, ExecutionConfig.serial(), store=store)

    def analyze(self, campaign, progress):
        return CampaignStore(self.archive).load_analysis(campaign)

    def check_fields(self, output):
        output.store_bytes = directory_bytes(self.archive)
        return output

    def reference(self):
        """The set-up run's in-memory analysis is the serial reference; its
        archive's fingerprint is checked against the pin."""
        analysis = self._archived
        digest = checked_output(analysis, *measure_phase(analysis)).digest
        return digest, CampaignStore(self.archive).content_fingerprint()


WORKLOADS = {cls.name: cls for cls in (RegistrySerial, PoolArchive, StoreReanalyze)}
