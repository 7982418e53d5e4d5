"""Host-speed calibration: a fixed loop timed between ops.

The hosts this benchmark runs on share their cores with other tenants, and
their speed drifts by a quarter or more over minutes, so raw host seconds
of two runs minutes apart are not comparable.  The benchmark therefore times
this fixed, standard-library-only loop next to the ops and scales every
end-to-end time to a *reference second*: the time the loop would need on a
host where it takes :data:`NOMINAL_S`.  The loop imitates the program's hot
path (a heap-ordered event queue, small message objects, dictionary
counters) so it slows down with the program when the host does.  It is part
of the benchmark, not the program, so no change to the program moves it.
Raw host-second figures are kept in the result stamp.
"""

from __future__ import annotations

import heapq
import os
import random
import struct
import time

#: Loop duration that defines one reference second (the loop's time on the
#: 2-CPU host the bounds were tuned on, rounded).
NOMINAL_S = 0.2
STEPS = 90_000
#: Ops run between two calibrations for at least this many seconds; each op
#: is scaled by the mean of the calibrations on either side of it.
EVERY_S = 1.5


class _Message:
    __slots__ = ("source", "destination", "payload")

    def __init__(self, source: int, destination: int, payload: dict) -> None:
        self.source = source
        self.destination = destination
        self.payload = payload


def calibrate(processes: int = 1) -> float:
    """Seconds the fixed loop takes on this host right now.

    A workload that keeps several processes busy is calibrated with as many
    copies of the loop run at once in forked children (the mean of their
    times): every core it uses, and the contention between them, then shows.
    """
    if processes == 1:
        return _loop()
    children = []
    for _ in range(processes):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                os.write(write_end, struct.pack("d", _loop()))
            finally:
                os._exit(0)
        os.close(write_end)
        children.append((pid, read_end))
    times = []
    for pid, read_end in children:
        with os.fdopen(read_end, "rb") as pipe:
            times.append(struct.unpack("d", pipe.read(8))[0])
        os.waitpid(pid, 0)
    return sum(times) / len(times)


def _loop(steps: int = STEPS) -> float:
    rng = random.Random(12345)
    queue: list = []
    for index in range(64):
        message = _Message(index % 8, index * 3 % 8, {"k": index})
        heapq.heappush(queue, (rng.random(), index, message))
    counters: dict = {}
    log: list = []
    sequence = 64
    start = time.perf_counter()
    for step in range(steps):
        when, _, message = heapq.heappop(queue)
        key = (message.source, message.destination)
        counters[key] = counters.get(key, 0) + len(message.payload)
        if step % 4 == 0:
            log.append((when, key, f"{message.source}->{message.destination}"))
            if len(log) > 5000:
                log.clear()
        sequence += 1
        destination = (message.destination * 5 + step) % 8
        heapq.heappush(
            queue,
            (when + rng.expovariate(10.0), sequence,
             _Message(message.destination, destination, {"k": step, "v": when})),
        )
    return time.perf_counter() - start


def reference_seconds(host_seconds: float, calibration_s: float) -> float:
    """Host seconds scaled to reference seconds."""
    return host_seconds * NOMINAL_S / calibration_s
