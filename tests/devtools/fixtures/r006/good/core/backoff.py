"""Good: the one deliberate real-time wait carries a reasoned suppression."""

import time


def pace_retry(attempt: int, base_s: float) -> None:
    delay = min(base_s * 2 ** (attempt - 1), 5.0)
    time.sleep(delay)  # repro-lint: disable=R006 paces real worker-process restarts, never simulated time
