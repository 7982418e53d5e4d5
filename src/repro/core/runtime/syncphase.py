"""Synchronization-message mini-phases (Sections 2.3 and 2.5).

Before and after every experiment, the campaign runner exchanges a burst of
small timestamped messages between the reference machine and every other
machine.  Each message contributes a half-plane constraint to the offline
clock-synchronization algorithm, so bidirectional traffic both *before and
after* the experiment is what makes the drift (``beta``) bounds tight.

The messages are kept outside the experiment itself so they do not intrude
on the application (the paper's ``getstamps`` tool runs separately from the
system under study).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.clock_sync import SyncMessageRecord
from repro.sim.environment import Environment


@dataclass(frozen=True)
class SyncPhaseConfig:
    """Parameters of one synchronization-message mini-phase.

    Attributes
    ----------
    messages_per_phase:
        Number of message *pairs* (one in each direction) exchanged between
        the reference host and every other host.
    interval:
        Spacing between successive message pairs, in seconds.
    """

    messages_per_phase: int = 25
    interval: float = 0.001


def run_sync_phase(
    environment: Environment,
    reference: str,
    hosts: tuple[str, ...],
    config: SyncPhaseConfig | None = None,
) -> list[SyncMessageRecord]:
    """Exchange synchronization messages and return the timestamp records.

    Each message records the sender's clock at transmission and the
    receiver's clock at reception, after the sampled LAN delay plus the
    receiver's context-switch cost — the receiving timestamp process is
    blocked waiting for the message, as the paper's ``getstamps`` tool is
    — exactly the quantities a real ``getstamps`` run would log.

    No Loki or application process takes part, and a record depends only
    on its send time, the ``"sync-phase"`` stream and the host clocks, so
    the exchange is computed in closed form rather than stepped through
    the event kernel: sends are visited in kernel order (time, then
    schedule order), each draws one delay in that order, and records are
    returned in kernel order of their receptions (arrival time, then send
    order).  Only receptions the phase's time horizon covers are recorded.
    The kernel then runs to the end of the phase, so events the
    experiment left behind still execute within it.
    """
    config = config or SyncPhaseConfig()
    sample_delay = environment.lan_profile.sample_delay
    rng = environment.streams.stream("sync-phase")
    start = environment.kernel.now
    interval = config.interval
    phase_end = start + config.messages_per_phase * interval + 0.010
    clocks = {host: environment.host(host).clock.read for host in hosts}
    wakeups = {host: environment.host(host).scheduler.context_switch_cost for host in hosts}

    others = [host for host in hosts if host != reference]
    sends: list[tuple[float, int, str, str]] = []
    for round_index in range(config.messages_per_phase):
        when = round_index * interval
        for host in others:
            sends.append((start + when, len(sends), reference, host))
            sends.append((start + (when + interval / 2.0), len(sends), host, reference))
    sends.sort()

    receptions: list[tuple[float, int, SyncMessageRecord]] = []
    for order, (sent_at, _, sender, receiver) in enumerate(sends):
        arrival = sent_at + (sample_delay(rng) + wakeups[receiver])
        if arrival <= phase_end:
            record = SyncMessageRecord(
                sender, receiver, clocks[sender](sent_at), clocks[receiver](arrival)
            )
            receptions.append((arrival, order, record))
    receptions.sort()

    environment.run(until=phase_end)
    return [record for _, _, record in receptions]
