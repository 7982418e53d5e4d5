"""Write ``reference.json``: the pinned output of the benchmark's default seed.

Run from the repository root after a change that is meant to alter results::

    python3 campaign_bench/pin_reference.py

It sets up the ``store-reanalyze`` workload at the default seed and size,
which runs the campaign serially into a store, and pins that workload's own
reference: the output digest and the store fingerprint (the fingerprint does
not depend on the codec).  Every workload's ops at that seed are then
checked against both values.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from tracer import TraceSwitch  # noqa: E402
from workloads import EXPERIMENTS, StoreReanalyze  # noqa: E402

DEFAULT_SEED = 0


def main() -> int:
    workload = StoreReanalyze(DEFAULT_SEED, EXPERIMENTS, BENCH_DIR / "_work" / "pin", TraceSwitch())
    try:
        workload.prepare()
        digest, fingerprint = workload.reference()
    finally:
        workload.close()
    pin = {"seed": DEFAULT_SEED, "experiments": EXPERIMENTS, "digest": digest,
           "fingerprint": fingerprint}
    (BENCH_DIR / "reference.json").write_text(json.dumps(pin, indent=2) + "\n")
    print(json.dumps(pin))
    return 0


if __name__ == "__main__":
    sys.exit(main())
