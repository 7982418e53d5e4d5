"""``BENCHMARK.json``: the metric names and units the benchmark reports.

The file at the repository root declares the command, the workloads and the
end-to-end and per-layer metrics.  The runner takes its metric names and
units from it, so the two cannot drift apart.
"""

from __future__ import annotations

import json
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def metric_units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``"end_to_end"`` or ``"per_layer"``."""
    return {metric["name"]: metric["unit"] for metric in load()[section]}
