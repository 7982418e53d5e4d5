"""The on-disk campaign store: append-only records, run once / analyze many.

A :class:`CampaignStore` owns one campaign directory::

    <path>/
        manifest.json          # campaign name, git SHA, per-study fingerprints
        records/
            <study-slug>.jsonl # one self-checksummed record per experiment

and gives the evaluation pipeline the durability the paper's decoupled
offline analysis implies: the runtime phase is executed once, every
completed experiment is streamed to disk as it finishes, and the analysis
and measure phases can then be re-run any number of times — with different
measures, time policies, or estimator changes — without ever touching the
simulator again.

Three workflows hang off the class:

* **Recording.**  ``run_and_analyze(campaign, store=CampaignStore(path))``
  attaches the store to the execution engine; the engine streams each
  completed experiment's payload into :meth:`append` as it finishes (on the
  serial and process-pool backends alike) instead of accumulating raw
  payloads in memory.
* **Resuming.**  On attach, experiments whose records already exist with
  matching configuration fingerprint and per-experiment seed are loaded
  from disk and *skipped* by the runtime phase; only the missing ones run.
  Because record round trips are bit-exact and analysis is a pure function
  of the payload, a resumed campaign's measures are bit-identical to an
  uninterrupted run's.
* **Re-analysis.**  :meth:`load_results` / :meth:`load_analysis` rebuild
  campaign results straight from disk — zero simulator invocations — so
  measure-phase iteration costs seconds, not campaign-hours.

Records are append-only; a re-run experiment appends a new record and the
reader keeps the *last valid* record per experiment index.  Lines that fail
their checksum (torn writes from a killed campaign) are treated as absent.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Mapping

from repro.core.campaign import CampaignConfig, ExperimentResult
from repro.errors import StoreError, StoreIntegrityError
from repro.store.columnar import MAGIC_LINE, encode_block, scan_blocks
from repro.store.format import decode_record, encode_record
from repro.store.manifest import Manifest, expected_seeds

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.core.campaign import CampaignResult, StudyConfig
    from repro.pipeline import CampaignAnalysis

_SLUG_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _study_slug(name: str) -> str:
    """A filesystem-safe, collision-free file stem for a study name."""
    cleaned = _SLUG_SAFE.sub("-", name).strip("-") or "study"
    digest = hashlib.sha256(name.encode("utf-8")).hexdigest()[:8]
    return f"{cleaned}-{digest}"


@dataclass(frozen=True)
class StoredStudyConfig:
    """Stand-in study configuration for results loaded without the original.

    A campaign directory does not archive application factories (they are
    arbitrary Python callables), so a study loaded purely from disk cannot
    re-run the simulator — and this stub enforces that: it carries exactly
    what the analysis and measure phases consume (name, seed, declared
    experiment count, per-machine fault specifications, weight) and nothing
    the runtime phase would need.
    """

    name: str
    seed: int
    experiments: int
    weight: float = 1.0
    faults_by_machine: Mapping[str, object] = field(default_factory=dict)

    def fault_specifications(self) -> dict[str, object]:
        """Fault specification per state machine, as recorded in the timelines."""
        return dict(self.faults_by_machine)


@dataclass
class StoreReport:
    """Outcome of scanning one study's record file (see ``verify``)."""

    study: str
    valid: int = 0
    corrupt: int = 0
    superseded: int = 0


class CampaignStore:
    """Append-only on-disk store for one campaign's experiment records.

    Parameters
    ----------
    path:
        The campaign directory.  Created (with parents) on first write.
    fsync:
        When true, every appended record is fsync'd before :meth:`append`
        returns.  Defaults to false: the record checksums already make torn
        writes detectable, and the resume machinery re-runs anything that
        did not land, so durability-vs-throughput is the caller's choice.
    codec:
        The codec new records are written with: ``"jsonl"`` (the default —
        one self-checksummed JSON line per experiment) or ``"columnar"``
        (numpy structured-array blocks, see :mod:`repro.store.columnar`).
        Reading is always transparent across codecs: both files are
        merged, so a campaign recorded as JSONL can be resumed and grown
        columnar (where both hold a record for the same index, the
        columnar one wins — codec migration is one-way by design).
    """

    CODECS = ("jsonl", "columnar")

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: bool = False,
        codec: str = "jsonl",
    ) -> None:
        if codec not in self.CODECS:
            raise StoreError(
                f"unknown store codec {codec!r} (supported: {', '.join(self.CODECS)})"
            )
        self._path = Path(path)
        self._fsync = fsync
        self._codec = codec
        # Persistent columnar writers, one per study file: the torn-tail
        # scan happens once at open, not per append, which is what makes
        # streaming millions of records affordable.
        self._writers: dict[Path, BinaryIO] = {}

    # -- layout ------------------------------------------------------------------------

    @property
    def path(self) -> Path:
        """The campaign directory this store owns."""
        return self._path

    @property
    def manifest_path(self) -> Path:
        """Location of ``manifest.json``."""
        return self._path / "manifest.json"

    @property
    def codec(self) -> str:
        """The codec this store writes new records with."""
        return self._codec

    def records_path(self, study_name: str) -> Path:
        """Location of one study's JSONL record file."""
        return self._path / "records" / f"{_study_slug(study_name)}.jsonl"

    def columnar_path(self, study_name: str) -> Path:
        """Location of one study's columnar record file."""
        return self._path / "records" / f"{_study_slug(study_name)}.columnar"

    def exists(self) -> bool:
        """Whether the directory already holds a campaign manifest."""
        return self.manifest_path.is_file()

    # -- manifest ----------------------------------------------------------------------

    def read_manifest(self) -> Manifest:
        """Load the campaign manifest; error if the store is uninitialized."""
        try:
            data = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StoreError(
                f"{self._path} holds no campaign manifest; "
                "attach a campaign (or record into it) first"
            ) from None
        except ValueError as error:
            raise StoreIntegrityError(
                f"{self.manifest_path} is not valid JSON: {error}"
            ) from None
        return Manifest.from_dict(data)

    def _write_manifest(self, manifest: Manifest) -> None:
        self._path.mkdir(parents=True, exist_ok=True)
        (self._path / "records").mkdir(exist_ok=True)
        text = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
        # Write-then-rename so a crash never leaves a half-written manifest.
        temporary = self.manifest_path.with_suffix(".json.tmp")
        temporary.write_text(text, encoding="utf-8")
        os.replace(temporary, self.manifest_path)

    def attach(self, campaign: CampaignConfig) -> Manifest:
        """Bind the store to ``campaign``, creating or validating the manifest.

        A fresh directory gets a new manifest.  An existing one is checked
        for compatibility — same campaign name, same per-study
        configuration fingerprints (:class:`~repro.errors.StoreIntegrityError`
        otherwise) — and extended with entries for studies the campaign
        gained since the store was created.
        """
        if self.exists():
            manifest = self.read_manifest()
            manifest.check_compatible(campaign)
            manifest = manifest.merged_with(campaign)
        else:
            manifest = Manifest.of(campaign)
        manifest.codec = self._codec
        self._write_manifest(manifest)
        return manifest

    # -- writing -----------------------------------------------------------------------

    def append(self, result: ExperimentResult) -> None:
        """Append one completed experiment's record via the store's codec.

        Either codec writes whole self-checksummed records, so concurrent
        readers always see a prefix of valid records and a killed writer
        leaves at most one torn (checksum-failing, hence ignored) tail.
        """
        if not result.local_timelines and not result.sync_messages:
            raise StoreError(
                f"experiment {result.study}:{result.index} carries no raw payload "
                "(was it slimmed before reaching the store?)"
            )
        if self._codec == "columnar":
            self._append_columnar(result)
            return
        path = self.records_path(result.study)
        path.parent.mkdir(parents=True, exist_ok=True)
        line = encode_record(result) + "\n"
        with open(path, "a+b") as handle:
            # A torn previous write (killed campaign) can leave the file
            # without a trailing newline; writing straight after it would
            # corrupt this record too.  Heal the boundary first.
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(line.encode("utf-8"))
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())

    def _append_columnar(self, result: ExperimentResult) -> None:
        path = self.columnar_path(result.study)
        writer = self._writers.get(path)
        if writer is None:
            writer = self._open_columnar_writer(path)
            self._writers[path] = writer
        writer.write(encode_block(result))
        writer.flush()
        if self._fsync:
            os.fsync(writer.fileno())

    def _open_columnar_writer(self, path: Path) -> BinaryIO:
        """Open a persistent append handle, healing any torn trailing block.

        The file is scanned once: a torn tail (killed writer) is truncated
        back to the end of the valid prefix so the next block starts on a
        clean frame.  A file that is not a columnar store at all raises
        instead of being truncated.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "a+b")
        try:
            handle.seek(0, os.SEEK_END)
            if handle.tell() == 0:
                handle.write(MAGIC_LINE)
                handle.flush()
            else:
                handle.seek(0)
                scan = scan_blocks(handle.read())
                handle.truncate(scan.valid_end)
                handle.seek(0, os.SEEK_END)
        except BaseException:
            handle.close()
            raise
        return handle

    def flush(self) -> None:
        """Flush every persistent writer (records become readable/durable)."""
        for writer in self._writers.values():
            writer.flush()
            if self._fsync:
                os.fsync(writer.fileno())

    def close(self) -> None:
        """Close every persistent writer; appends after this reopen them."""
        for writer in self._writers.values():
            writer.close()
        self._writers.clear()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- reading -----------------------------------------------------------------------

    def load_study_records(
        self,
        study_name: str,
        expected: Mapping[int, int] | None = None,
    ) -> dict[int, ExperimentResult]:
        """All valid records of one study, keyed by experiment index.

        Reads are codec-transparent: the study's JSONL file and its
        columnar file are both consulted, whatever codec the store writes
        with.  Later records supersede earlier ones for the same index
        within each file (both are append-only), and a columnar record
        supersedes a JSONL record for the same index — codec migration is
        jsonl→columnar one-way, so the columnar file is always the newer
        writer.  Corrupt lines/blocks are skipped — they are what a
        killed campaign leaves behind and are simply re-run on resume.
        When ``expected`` maps indices to seeds, records whose seed does
        not match are dropped as well: they were produced by a different
        derivation and must not be resumed into this campaign.
        """
        records: dict[int, ExperimentResult] = {}

        def admit(result: ExperimentResult) -> None:
            if result.study != study_name:
                return
            if expected is not None and expected.get(result.index) != result.seed:
                return
            records[result.index] = result

        path = self.records_path(study_name)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            lines = []
        for line in lines:
            if not line.strip():
                continue
            try:
                result = decode_record(line)
            except StoreIntegrityError:
                continue
            admit(result)
        columnar = self.columnar_path(study_name)
        if columnar.is_file():
            for result in scan_blocks(columnar.read_bytes()).results:
                admit(result)
        return records

    def content_fingerprint(self) -> str:
        """A stable digest of every experiment the store holds.

        The SHA-256 of the canonical JSON of ``{study: {index: payload}}``
        over all valid records, after per-index supersede resolution —
        independent of codec, record order, append history, and duplicated
        deliveries.  Two stores fingerprint identically exactly when they
        hold bit-identical experiment payloads, which is what the chaos
        harness asserts: a campaign that survived worker crashes, pool
        rebuilds, and a resumed coordinator must fingerprint the same as
        one that ran serially.
        """
        from repro.store.format import result_to_dict

        manifest = self.read_manifest()
        content: dict[str, dict[str, object]] = {}
        for name in sorted(manifest.studies):
            records = self.load_study_records(name)
            content[name] = {
                str(index): result_to_dict(records[index])
                for index in sorted(records)
            }
        canonical = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def verify(self) -> dict[str, StoreReport]:
        """Scan every record file and report valid/corrupt/superseded counts.

        Covers both codecs' files: every JSONL line and every columnar
        block of a study count toward the same report.
        """
        manifest = self.read_manifest()
        reports: dict[str, StoreReport] = {}
        for name in manifest.studies:
            report = StoreReport(study=name)
            path = self.records_path(name)
            seen: dict[int, int] = {}
            if path.is_file():
                for line in path.read_text(encoding="utf-8").splitlines():
                    if not line.strip():
                        continue
                    try:
                        result = decode_record(line)
                    except StoreIntegrityError:
                        report.corrupt += 1
                        continue
                    report.valid += 1
                    seen[result.index] = seen.get(result.index, 0) + 1
            columnar = self.columnar_path(name)
            if columnar.is_file():
                scan = scan_blocks(columnar.read_bytes())
                report.valid += scan.valid
                report.corrupt += scan.corrupt
                for result in scan.results:
                    seen[result.index] = seen.get(result.index, 0) + 1
            report.superseded = sum(count - 1 for count in seen.values())
            reports[name] = report
        return reports

    # -- run once, analyze many --------------------------------------------------------

    def load_results(self, campaign: CampaignConfig | None = None) -> "CampaignResult":
        """Rebuild a :class:`~repro.core.campaign.CampaignResult` from disk.

        With ``campaign`` given, its configurations are validated against
        the manifest and used in the result (so downstream code sees the
        real :class:`StudyConfig` objects).  Without it, each study gets a
        :class:`StoredStudyConfig` stub reconstructed from the manifest and
        the recorded timelines — sufficient for the analysis and measure
        phases, incapable of re-running the simulator by construction.

        Either way the simulator is never invoked: everything comes off
        disk, ordered by experiment index.
        """
        from repro.core.campaign import CampaignResult, StudyResult

        manifest = self.read_manifest()
        if campaign is not None:
            manifest.check_compatible(campaign)
            result = CampaignResult(config=campaign)
            for study in campaign.studies:
                records = self.load_study_records(study.name, expected_seeds(study))
                result.studies[study.name] = StudyResult(
                    config=study,
                    experiments=[records[index] for index in sorted(records)],
                )
            return result

        # No campaign configuration: reconstruct stub configs from the
        # manifest and the fault specifications the recorded timelines carry.
        # CampaignConfig is bypassed via __new__ because its validation is
        # meaningless for stubs that exist only to name the loaded studies.
        stub_campaign = CampaignConfig.__new__(CampaignConfig)
        stub_campaign.name = manifest.campaign
        stub_campaign.studies = []
        stub_campaign.execution = None  # type: ignore[assignment]
        result = CampaignResult(config=stub_campaign)
        for name, entry in manifest.studies.items():
            records = self.load_study_records(name)
            faults_by_machine: dict[str, object] = {}
            for record in records.values():
                for machine, timeline in record.local_timelines.items():
                    faults_by_machine.setdefault(machine, timeline.faults)
            stub = StoredStudyConfig(
                name=name,
                seed=entry.seed,
                experiments=entry.experiments,
                faults_by_machine=faults_by_machine,
            )
            stub_campaign.studies.append(stub)  # type: ignore[arg-type]
            result.studies[name] = StudyResult(
                config=stub,  # type: ignore[arg-type]
                experiments=[records[index] for index in sorted(records)],
            )
        return result

    def load_analysis(self, campaign: CampaignConfig | None = None) -> "CampaignAnalysis":
        """Run the analysis phase over the stored records — zero simulation.

        This is the post-hoc re-analysis entry point: iterate on measures,
        time policies, or verification logic against an archived campaign
        without paying any simulation cost.  Returns the same
        :class:`~repro.pipeline.CampaignAnalysis` the live pipeline would.
        """
        from repro.pipeline import analyze_campaign

        return analyze_campaign(self.load_results(campaign))

    # -- resume support (used by the execution engine) ---------------------------------

    def resumable_records(
        self, study: "StudyConfig"
    ) -> dict[int, ExperimentResult]:
        """Stored experiments of ``study`` that a resumed run may reuse.

        Only records whose seed matches the engine's seed-derivation
        contract for their index qualify; the study's fingerprint is
        checked separately at :meth:`attach` time.
        """
        return self.load_study_records(study.name, expected_seeds(study))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CampaignStore({str(self._path)!r})"
