"""Reference UE DRX state machine and a slow event-by-event simulator on it.

The engine (``drxsim.engine.simulate``) never steps a state machine: it
resolves DRX timing arithmetically from the cycle geometry.  This module
keeps the explicit machine as an oracle for it.  ``advance`` applies one
timer or release event, ``enter_countdown`` arms the inactivity timer when
the queue drains, and ``reference_run`` drives both through a queue one
event at a time.  ``tests/test_differential.py`` compares the two.
``sleep_between`` is the scalar walk of one stretch's cycle layout that the
engine's elementwise ``_sleep_in`` must reproduce bit for bit.
``release_at`` finds a stretch's release instant by the cycle containing the
instant its threshold fills (``cycle_at``); the engine inlines the same
expressions in its loop.
``lindley_run`` serves every packet with the plain Lindley recursion, one
Python step each; the engine, which serves long active stretches from the
run's no-DRX schedule, must reproduce it bit for bit.  Its adaptive runs
read ``lambda_hat_series``, the rate estimate after every arrival, which the
engine instead carries from one DRX boundary to the next.  It sums every
cycle's delay under every policy, where the engine sums it only for the
adaptive controller; ``lindley_cycle_means`` returns those means.

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

import numpy as np

from drxsim import controller as ctrl
from drxsim import engine
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


def sleep_between(cfg: DrxConfig, t0: float, t_end: float) -> float:
    """Total low-power time in [t0, t_end) of a DRX stretch enabled at t0.

    Walks the short phase, then the long one: whole cycles sleep
    ``length - t_on`` each, a partial cycle sleeps at most that.
    """
    span = t_end - t0
    if span <= 0.0:
        return 0.0
    sleep = 0.0
    short_span = cfg.n_short * cfg.t_short
    if short_span > 0.0:
        part = span if span < short_span else short_span
        full = int(part / cfg.t_short)
        sleep += full * (cfg.t_short - cfg.t_on)
        rem = part - full * cfg.t_short
        sleep += min(rem, cfg.t_short - cfg.t_on)
        if span <= short_span:
            return sleep
        span -= short_span
    full = int(span / cfg.t_long)
    sleep += full * (cfg.t_long - cfg.t_on)
    rem = span - full * cfg.t_long
    sleep += min(rem, cfg.t_long - cfg.t_on)
    return sleep


def cycle_at(cfg: DrxConfig, phi: float) -> tuple[float, float]:
    """(start offset, length) of the cycle holding offset ``phi >= 0``."""
    short_span = cfg.n_short * cfg.t_short
    if phi < short_span:
        k = int(phi / cfg.t_short)
        return k * cfg.t_short, cfg.t_short
    k = int((phi - short_span) / cfg.t_long)
    return short_span + k * cfg.t_long, cfg.t_long


def release_at(cfg: DrxConfig, t0: float, t_q: float) -> float:
    """Transmission start of a stretch enabled at ``t0`` whose threshold
    fills at ``t_q >= t0``."""
    phi = t_q - t0
    ck, clen = cycle_at(cfg, phi)
    if phi - ck >= clen - cfg.t_on:
        return t_q  # UE already listening
    return t0 + ck + clen - cfg.t_on  # next window start


def lambda_hat_series(arrivals: Sequence[float], k_ema: float) -> list[float]:
    """EMA arrival-rate estimate after each arrival; 0.0 means "none yet".

    The first positive gap sets it to ``1/gap``; each later one updates it
    to ``(1 - w) / gap + w * lambda_hat`` with ``w = exp(-gap / k_ema)``.
    Zero gaps (tied timestamps) leave it unchanged.
    """
    out = [0.0] * len(arrivals)
    est = 0.0
    prev = -1.0
    for idx, a in enumerate(arrivals):
        if idx > 0:
            gap = a - prev
            if gap > 0.0:
                if est == 0.0:
                    est = 1.0 / gap
                else:
                    w = math.exp(-gap / k_ema)
                    est = (1.0 - w) / gap + w * est
        out[idx] = est
        prev = a
    return out


def lindley_run(arrivals: Sequence[float], cfg: DrxConfig, policy: Policy,
                horizon: float, psf: float = 1.0) -> engine.RunResult:
    """The engine's run, serving every packet one step at a time.

    Active stretches follow ``s = max(A_i, free)``, ``free = s + psf``
    until the next arrival misses the countdown; DRX stretches release as
    the engine's conventions say.  Every float sum is added in order.  The
    delay in ``Metrics.per_cycle`` is the one the controller read, so it is
    None under standard and fixed policies.
    """
    return _lindley(arrivals, cfg, policy, horizon, psf)[0]


def lindley_cycle_means(arrivals: Sequence[float], cfg: DrxConfig,
                        policy: Policy, horizon: float, psf: float = 1.0
                        ) -> tuple[float | None, ...]:
    """``lindley_run``'s mean delay of each coalescing cycle, under any
    policy: one entry per DRX boundary, None for a cycle that served no
    packet."""
    return _lindley(arrivals, cfg, policy, horizon, psf)[1]


def _lindley(arrivals: Sequence[float], cfg: DrxConfig, policy: Policy,
             horizon: float, psf: float
             ) -> tuple[engine.RunResult, tuple[float | None, ...]]:
    A = [float(a) for a in arrivals if a < horizon]
    n = len(A)
    adaptive = policy.kind is PolicyKind.ADAPTIVE_COALESCING
    if adaptive:
        state = ctrl.initial_state(
            policy.w_star, ctrl.q_max_from_bound(policy.w_max, psf))
        lam_hat = lambda_hat_series(A, 2.0 * policy.w_max)
        q_w = state.q_w
    else:
        q_w = policy.q_w if policy.kind is PolicyKind.FIXED_COALESCING else 1.0
    initial_q = q_w
    tx: list[float] = []
    boundaries: list[float] = []
    thresholds: list[float] = []
    ends: list[float] = []
    per_cycle: list[tuple[float | None, float]] = []
    means: list[float | None] = []
    delay_sum = c_dsum = 0.0
    c_cnt = 0
    free = 0.0
    i = 0
    done = False
    while not done:
        expiry = free + cfg.t_in
        if not (i < n and A[i] <= expiry):
            if expiry >= horizon:
                break
            w_hat = c_dsum / c_cnt if c_cnt else None
            means.append(w_hat)
            per_cycle.append((w_hat if adaptive else None, q_w))
            if adaptive and w_hat is not None and i > 0 and lam_hat[i - 1] > 0.0:
                state = ctrl.update_threshold(state, lam_hat[i - 1], w_hat)
                q_w = state.q_w
            boundaries.append(expiry)
            thresholds.append(q_w)
            c_dsum = 0.0
            c_cnt = 0
            j = i + math.ceil(q_w) - 1
            end = horizon if j >= n else min(release_at(cfg, expiry, A[j]), horizon)
            ends.append(end)
            if end >= horizon:
                break
            free = end
        while i < n:
            s = A[i] if A[i] > free else free
            if s >= horizon:
                done = True
                break
            tx.append(s)
            d = s - A[i]
            delay_sum += d
            c_dsum += d
            c_cnt += 1
            free = s + psf
            i += 1
            if i < n and A[i] > free + cfg.t_in:
                break
    sleep = 0.0
    for t0, end in zip(boundaries, ends):
        sleep += sleep_between(cfg, t0, end)
    q_sum = 0.0
    for q in thresholds:
        q_sum += q
    metrics = engine.Metrics(
        mean_delay=delay_sum / i if i else math.nan,
        sleep_fraction=sleep / horizon,
        mean_q_w=q_sum / len(thresholds) if thresholds else initial_q,
        packets_served=i,
        arrivals=n,
        per_cycle=tuple(per_cycle),
    )
    tx_starts = np.array(tx)
    tx_starts.flags.writeable = False
    result = engine.RunResult(metrics, cfg, horizon, initial_q,
                              tuple(boundaries), tuple(thresholds),
                              np.array(A[:i]), tuple(ends), tx_starts)
    return result, tuple(means)
