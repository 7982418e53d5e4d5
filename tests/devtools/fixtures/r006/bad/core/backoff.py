"""Bad: library code sleeping on the real clock without saying why."""

import asyncio
import time
from time import sleep


def pace_retry(delay: float) -> None:
    time.sleep(delay)  # R006: bare time.sleep under src/repro


def stall(delay: float) -> None:
    sleep(delay)  # R006: via `from time import sleep` above


async def supervise_tick(interval: float) -> None:
    await asyncio.sleep(interval)  # R006: bare asyncio.sleep under src/repro
