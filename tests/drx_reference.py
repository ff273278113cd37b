"""Reference UE DRX state machine and a slow event-by-event simulator on it.

The engine (``drxsim.engine.simulate``) never steps a state machine: it
resolves DRX timing arithmetically from the cycle geometry.  This module
keeps the explicit machine as an oracle for it.  ``advance`` applies one
timer or release event, ``enter_countdown`` arms the inactivity timer when
the queue drains, and ``reference_run`` drives both through a queue one
event at a time.  ``tests/test_differential.py`` compares the two.

Timeline convention: a DRX cycle of length L consists of a low-power period
of ``L - t_on`` followed by an on-duration of ``t_on`` that closes the cycle.
``UeState.cycle_index`` counts *completed* cycles since DRX was enabled, so it
is incremented when an on-duration ends.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

from drxsim.drx import DrxConfig, Policy, PolicyKind


class ProtocolError(RuntimeError):
    """An illegal (mode, event) pair reached the UE state machine.

    This always signals a bug in the caller (the simulator), never a property
    of the simulated scenario, so it must not be swallowed.
    """


class Mode(Enum):
    ACTIVE = "active"
    INACTIVITY_COUNTDOWN = "inactivity_countdown"
    SLEEPING = "sleeping"
    ON_DURATION = "on_duration"


class DrxEvent(Enum):
    INACTIVITY_EXPIRY = "inactivity_expiry"
    ON_DURATION_START = "on_duration_start"
    ON_DURATION_END = "on_duration_end"
    RELEASE_TRIGGERED = "release_triggered"


@dataclass(frozen=True, slots=True)
class UeState:
    """Snapshot of the UE DRX machine.

    ``cycle_index`` is the number of completed DRX cycles since DRX was last
    enabled; it resets to 0 whenever DRX is disabled.  ``next_event_at`` is
    the absolute time (ms) of the next scheduled autonomous transition, or
    ``inf`` when the next event is driven by traffic instead of a timer.
    """

    mode: Mode
    cycle_index: int = 0
    next_event_at: float = math.inf


def initial_state(cfg: DrxConfig, now: float = 0.0) -> UeState:
    """State at simulation start: idle, inactivity timer running from `now`."""
    return UeState(Mode.INACTIVITY_COUNTDOWN, 0, now + cfg.t_in)


def next_cycle_length(cycle_index: int, cfg: DrxConfig) -> float:
    """Length of the DRX cycle that follows `cycle_index` completed cycles."""
    if cycle_index < 0:
        raise ValueError(f"cycle_index must be >= 0, got {cycle_index}")
    return cfg.t_short if cycle_index < cfg.n_short else cfg.t_long


def release_condition(
    queue_len: int, policy: Policy, current_q_w: float | None = None
) -> bool:
    """Should the eNB start transmitting to a UE with `queue_len` packets queued?

    Standard DRX transmits on any backlog.  Coalescing policies hold traffic
    until the backlog reaches the threshold; the threshold is a positive real
    (the adaptive controller produces reals) and the comparison quantizes it
    with a ceiling only here, at the comparison.
    """
    if queue_len < 0:
        raise ValueError(f"queue_len must be >= 0, got {queue_len}")
    if policy.kind is PolicyKind.STANDARD:
        return queue_len >= 1
    if policy.kind is PolicyKind.FIXED_COALESCING:
        return queue_len >= math.ceil(policy.q_w)
    # adaptive: threshold owned by the controller, supplied by the caller
    if current_q_w is None:
        raise ValueError("adaptive policy needs the controller's current q_w")
    return queue_len >= math.ceil(current_q_w)


def advance(state: UeState, event: DrxEvent, cfg: DrxConfig) -> UeState:
    """Apply one DRX event and return the successor state.

    Legal pairs only:

    ==========================  =======================================
    event                       legal in mode
    ==========================  =======================================
    INACTIVITY_EXPIRY           INACTIVITY_COUNTDOWN
    ON_DURATION_START           SLEEPING
    ON_DURATION_END             ON_DURATION
    RELEASE_TRIGGERED           ON_DURATION or ACTIVE
    ==========================  =======================================

    Timer events are assumed to fire exactly at ``state.next_event_at``; the
    returned state carries the next timer deadline so cycles chain without
    the caller re-deriving the cycle geometry.
    """
    mode = state.mode
    if event is DrxEvent.INACTIVITY_EXPIRY:
        if mode is not Mode.INACTIVITY_COUNTDOWN:
            raise ProtocolError(f"{event} illegal in {mode}")
        t0 = state.next_event_at
        first = next_cycle_length(0, cfg)
        return UeState(Mode.SLEEPING, 0, t0 + first - cfg.t_on)
    if event is DrxEvent.ON_DURATION_START:
        if mode is not Mode.SLEEPING:
            raise ProtocolError(f"{event} illegal in {mode}")
        return UeState(Mode.ON_DURATION, state.cycle_index,
                       state.next_event_at + cfg.t_on)
    if event is DrxEvent.ON_DURATION_END:
        if mode is not Mode.ON_DURATION:
            raise ProtocolError(f"{event} illegal in {mode}")
        done = state.cycle_index + 1
        nxt = next_cycle_length(done, cfg)
        return UeState(Mode.SLEEPING, done, state.next_event_at + nxt - cfg.t_on)
    if event is DrxEvent.RELEASE_TRIGGERED:
        if mode not in (Mode.ON_DURATION, Mode.ACTIVE):
            raise ProtocolError(f"{event} illegal in {mode}")
        return UeState(Mode.ACTIVE, 0, math.inf)
    raise ProtocolError(f"unknown event {event!r}")


def enter_countdown(state: UeState, last_tx_end: float, cfg: DrxConfig) -> UeState:
    """Transition Active -> InactivityCountdown when the queue drains.

    Not an ``advance`` event: it is driven by the queue emptying, not by a
    DRX timer.  The inactivity deadline is measured from the end of the last
    transmission, matching the empty-period accounting of the delay model.
    """
    if state.mode is not Mode.ACTIVE:
        raise ProtocolError(f"countdown entry illegal in {state.mode}")
    return replace(state, mode=Mode.INACTIVITY_COUNTDOWN,
                   next_event_at=last_tx_end + cfg.t_in)


@dataclass(frozen=True, slots=True)
class ReferenceRun:
    """What ``reference_run`` observed over [0, horizon).

    ``records`` holds one (arrival, tx_start, cycle_index) triple per served
    packet, with the engine's meaning of ``cycle_index``: the number of
    DRX-enable instants before the transmission.
    """

    records: tuple[tuple[float, float, int], ...]
    boundaries: tuple[float, ...]
    sleep_fraction: float


def reference_run(arrivals: Sequence[float], cfg: DrxConfig, policy: Policy,
                  horizon: float, psf: float = 1.0) -> ReferenceRun:
    """Simulate standard or fixed-threshold DRX one event at a time.

    Three event sources compete: the next arrival, the UE timer
    (``state.next_event_at``) and the end of the transmission in progress.
    Ties resolve as the engine's conventions require: a transmission ends
    first; an arrival at the inactivity deadline is still served at once;
    an arrival at the end of an on-duration finds the UE asleep.  The run
    stops at the first event at or after ``horizon``.
    """
    if policy.kind is PolicyKind.ADAPTIVE_COALESCING:
        raise ValueError("the reference covers standard and fixed policies")
    pending = [a for a in arrivals if a < horizon]
    n = len(pending)
    i = 0
    queue: deque[float] = deque()
    busy_until = math.inf
    state = initial_state(cfg)
    records: list[tuple[float, float, int]] = []
    boundaries: list[float] = []
    sleep = 0.0
    asleep_since = now = 0.0
    while True:
        if state.mode is Mode.ACTIVE and busy_until == math.inf and queue:
            # Awake UE, idle server, backlog: transmit at once.
            records.append((queue.popleft(), now, len(boundaries)))
            busy_until = now + psf
            continue
        t_arr = pending[i] if i < n else math.inf
        t_timer = state.next_event_at
        now = min(t_arr, t_timer, busy_until)
        if now >= horizon:
            break
        if busy_until == now:
            busy_until = math.inf
            if not queue:
                state = enter_countdown(state, now, cfg)
        elif t_arr == now and (t_arr < t_timer
                               or state.mode is Mode.INACTIVITY_COUNTDOWN):
            queue.append(t_arr)
            i += 1
            if state.mode is Mode.INACTIVITY_COUNTDOWN:
                # Traffic during the countdown is served at once; like the
                # queue draining, this is not a DRX timer event.
                state = UeState(Mode.ACTIVE)
            elif (state.mode is Mode.ON_DURATION
                  and release_condition(len(queue), policy)):
                state = advance(state, DrxEvent.RELEASE_TRIGGERED, cfg)
        elif state.mode is Mode.INACTIVITY_COUNTDOWN:
            state = advance(state, DrxEvent.INACTIVITY_EXPIRY, cfg)
            boundaries.append(now)
            asleep_since = now
        elif state.mode is Mode.SLEEPING:
            sleep += now - asleep_since
            state = advance(state, DrxEvent.ON_DURATION_START, cfg)
            if release_condition(len(queue), policy):
                state = advance(state, DrxEvent.RELEASE_TRIGGERED, cfg)
        else:
            state = advance(state, DrxEvent.ON_DURATION_END, cfg)
            asleep_since = now
    if state.mode is Mode.SLEEPING:
        sleep += horizon - asleep_since
    return ReferenceRun(tuple(records), tuple(boundaries), sleep / horizon)
