"""Golden pin of full experiment-record content.

The other goldens pin what the analysis phase derives from a run —
durations, acceptance counts and measure values — but not the raw records
themselves: every timeline event, every synchronization-message record,
every stat.  This test runs every registry scenario through a serial
JSONL store and pins :meth:`CampaignStore.content_fingerprint`, the
SHA-256 of the canonical content of every stored record, so a single bit
of drift anywhere in any record (a sync-message timestamp, a local clock
reading, a counter) fails tier-1.

It also pins every registry study's configuration fingerprint — the hash
a store checks on attach before it resumes an archive — so a change to a
config class's ``repr`` that would make earlier archives unresumable fails
tier-1 too.

Regenerating either pin is a behaviour change and must be called out as
such.
"""

import hashlib

from repro.core.campaign import run_campaign
from repro.core.execution import ExecutionConfig
from repro.scenarios import DEFAULT_REGISTRY
from repro.store import CampaignStore
from repro.store.manifest import study_fingerprint

EXPERIMENTS = 2
SEED = 17

#: Fingerprint of the serial JSONL store of every registry scenario,
#: ``EXPERIMENTS`` experiments each, campaign seed ``SEED``.
GOLDEN_FINGERPRINT = "5f1e89042a805e8b2a77201f852d39186690bf6c5037b90c50668fdd2d02b9ef"

#: The registry the pin was generated over; a new scenario changes the
#: campaign, so it must come with a regenerated pin.
GOLDEN_SCENARIO_COUNT = 22

#: SHA-256 of the newline-joined ``study_fingerprint`` of every registry
#: study, in registry order, at campaign seed ``SEED``.
GOLDEN_STUDY_FINGERPRINTS = "2f2cbe903d83ba1ea96aed476166a90657336fb9c3a8a531a4b2aae1c81e5751"


def test_serial_store_content_matches_golden(tmp_path):
    assert len(DEFAULT_REGISTRY.names()) == GOLDEN_SCENARIO_COUNT
    campaign = DEFAULT_REGISTRY.build_campaign(experiments=EXPERIMENTS, seed=SEED)
    with CampaignStore(tmp_path / "store", codec="jsonl") as store:
        run_campaign(campaign, ExecutionConfig.serial(), store=store)
    assert CampaignStore(tmp_path / "store").content_fingerprint() == GOLDEN_FINGERPRINT


def test_study_fingerprints_match_golden():
    campaign = DEFAULT_REGISTRY.build_campaign(experiments=EXPERIMENTS, seed=SEED)
    assert len(campaign.studies) == GOLDEN_SCENARIO_COUNT
    joined = "\n".join(study_fingerprint(study) for study in campaign.studies)
    assert hashlib.sha256(joined.encode("utf-8")).hexdigest() == GOLDEN_STUDY_FINGERPRINTS
