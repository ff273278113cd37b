"""Discrete-event simulation of the eNB downstream queue and UE DRX machine.

One run is strictly sequential and deterministic for a given (scenario,
seed).  The event loop is organised around the structure of the system
rather than a generic calendar: packets are served in FIFO order with a
deterministic one-PSF service, so active periods collapse to a Lindley
recursion, and DRX phases are resolved arithmetically from the cycle
geometry.  The test suite checks the result against a slow reference that
steps an explicit UE state machine one event at a time.

Every run returns one ``RunResult``: the metrics, each served packet's
arrival and transmission start, and each DRX stretch as its enable instant
(``boundaries``), threshold and end (``stretch_ends``: the release instant,
or the horizon).  ``slice_stats`` reads the statistics of any time window
off that shape.

The EMA arrival-rate estimate the adaptive controller reads is computed
here too (``_lambda_hat_series``).

Timing conventions (all ms, continuous time):

* The run observes [0, horizon): arrivals at or after the horizon are
  dropped and count nowhere; transmissions starting at or after the
  horizon never happen and their packets stay queued (residual backlog).
* The inactivity deadline is measured from the end of the last transmission;
  at t = 0 the UE behaves as if a transmission had just ended.
* A DRX cycle sleeps first and closes with its on-duration.  Release fires
  the moment the backlog reaches the threshold during a listening window,
  or at the next window start if the threshold fills while sleeping.
* Arrivals during the inactivity countdown are served immediately under
  every policy; coalescing thresholds only govern traffic while DRX is
  enabled.
* Low-power time is time spent sleeping; on-durations count as awake.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.stats

from . import controller as ctrl
from . import traffic as tr
from .drx import DrxConfig, Policy, PolicyKind


@dataclass(frozen=True, slots=True)
class PoissonTraffic:
    rate: float


@dataclass(frozen=True, slots=True)
class ParetoTraffic:
    rate: float
    shape: float


@dataclass(frozen=True, slots=True)
class TraceTraffic:
    path: str


@dataclass(frozen=True, slots=True)
class ScheduleTraffic:
    """Piecewise-constant Poisson rate: ((duration ms, rate), ...)."""

    segments: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        for dur, rate in self.segments:
            if dur <= 0:
                raise ValueError(f"segment duration must be > 0, got {dur}")
            if rate <= 0:
                raise ValueError(f"segment rate must be > 0, got {rate}")

    @property
    def total_duration(self) -> float:
        return sum(d for d, _ in self.segments)

    @property
    def mean_rate(self) -> float:
        return sum(d * r for d, r in self.segments) / self.total_duration


TrafficKind = PoissonTraffic | ParetoTraffic | TraceTraffic | ScheduleTraffic


@dataclass(frozen=True, slots=True)
class Scenario:
    cfg: DrxConfig
    policy: Policy
    traffic: TrafficKind
    horizon: float
    psf: float = 1.0

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if self.psf <= 0:
            raise ValueError(f"psf must be > 0, got {self.psf}")


@dataclass(frozen=True, slots=True)
class Metrics:
    """Per-run outputs over [0, horizon)."""

    mean_delay: float
    sleep_fraction: float
    mean_q_w: float
    packets_served: int
    arrivals: int
    saturated: bool
    # One entry per completed coalescing cycle: (mean delay of the packets
    # that started transmission in the cycle, or None if it served nothing;
    # the threshold that governed the cycle).
    per_cycle: tuple[tuple[float | None, float], ...]

    @property
    def residual_backlog(self) -> int:
        return self.arrivals - self.packets_served


@dataclass(frozen=True, slots=True)
class SummaryStats:
    mean: float
    ci_half_width: float
    n: int
    level: float


@dataclass(frozen=True, slots=True)
class RunResult:
    """Metrics plus the per-packet and per-stretch results of one run.

    Every run returns this one shape.  Packets are served FIFO, so
    ``arrivals`` and ``tx_starts`` (one entry per served packet) are both
    sorted.  DRX stretch k runs from ``boundaries[k]`` to ``stretch_ends[k]``,
    its release instant or the horizon: the UE sleeps and listens on that
    span and transmits nothing inside it.
    """

    metrics: Metrics
    # DRX-enable instants (coalescing-cycle boundaries), in order.
    boundaries: tuple[float, ...]
    # Threshold in effect from each boundary on (post-update values).
    thresholds: tuple[float, ...]
    arrivals: tuple[float, ...]
    tx_starts: tuple[float, ...]
    stretch_ends: tuple[float, ...]


class _CycleGeometry:
    """Arithmetic over the two-phase cycle layout of one DRX stretch.

    Offsets are measured from the enable instant.  Cycle k (k completed
    cycles so far) occupies [C_k, C_{k+1}) with the on-duration closing it:
    sleep on [C_k, C_{k+1} - t_on), listen on [C_{k+1} - t_on, C_{k+1}).
    """

    __slots__ = ("t_on", "t_s", "t_l", "short_span")

    def __init__(self, cfg: DrxConfig):
        self.t_on = cfg.t_on
        self.t_s = cfg.t_short
        self.t_l = cfg.t_long
        self.short_span = cfg.n_short * cfg.t_short

    def _cycle_at(self, phi: float) -> tuple[float, float]:
        # (cycle start offset, cycle length) containing offset phi >= 0.
        if phi < self.short_span:
            k = int(phi / self.t_s)
            return k * self.t_s, self.t_s
        k = int((phi - self.short_span) / self.t_l)
        return self.short_span + k * self.t_l, self.t_l

    def release_at(self, t0: float, t_q: float) -> float:
        """Transmission start for a threshold filled at ``t_q`` (>= t0)."""
        phi = t_q - t0
        ck, clen = self._cycle_at(phi)
        if phi - ck >= clen - self.t_on:
            return t_q  # UE already listening
        return t0 + ck + clen - self.t_on  # next window start

    def sleep_between(self, t0: float, t_end: float) -> float:
        """Total low-power time in [t0, t_end) of a DRX stretch starting t0."""
        span = t_end - t0
        if span <= 0.0:
            return 0.0
        sleep = 0.0
        if self.short_span > 0.0:
            part = span if span < self.short_span else self.short_span
            full = int(part / self.t_s)
            sleep += full * (self.t_s - self.t_on)
            rem = part - full * self.t_s
            sleep += min(rem, self.t_s - self.t_on)
            if span <= self.short_span:
                return sleep
            span -= self.short_span
        full = int(span / self.t_l)
        sleep += full * (self.t_l - self.t_on)
        rem = span - full * self.t_l
        sleep += min(rem, self.t_l - self.t_on)
        return sleep


def _lambda_hat_series(arrivals: Sequence[float], k_ema: float) -> list[float]:
    """EMA arrival-rate estimate after each arrival; 0.0 means "none yet".

    The first positive gap sets the estimate to ``1/gap``; each later one
    updates it to ``(1 - w) / gap + w * lambda_hat`` with
    ``w = exp(-gap / k_ema)``, which lies between the old estimate and
    ``1/gap``.  The weight decays with the gap, so the average behaves like
    a fluid average whatever the packetization.  Zero gaps (tied
    timestamps) leave the estimate unchanged.
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


def simulate(arrivals: Sequence[float], cfg: DrxConfig, policy: Policy,
             horizon: float, psf: float = 1.0) -> RunResult:
    """Run the queue + DRX machine over a fixed arrival sequence."""
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if psf <= 0:
        raise ValueError(f"psf must be > 0, got {psf}")
    A = [float(t) for t in arrivals if t < horizon]
    n = len(A)
    geo = _CycleGeometry(cfg)
    t_in = cfg.t_in

    adaptive = policy.kind is PolicyKind.ADAPTIVE_COALESCING
    if adaptive:
        q_max = ctrl.q_max_from_bound(policy.w_max, psf)
        state = ctrl.initial_state(policy.w_star, q_max)
        lam_hat = _lambda_hat_series(A, 2.0 * policy.w_max)
        q_w = state.q_w
    else:
        q_w = policy.q_w if policy.kind is PolicyKind.FIXED_COALESCING else 1.0

    tx: list[float] = []
    boundaries: list[float] = []
    thresholds: list[float] = []
    stretch_ends: list[float] = []
    per_cycle: list[tuple[float | None, float]] = []

    sleep_total = 0.0
    delay_sum = 0.0
    c_dsum = 0.0
    c_cnt = 0
    free = 0.0
    last_end = 0.0
    i = 0
    done = False

    while not done:
        expiry = last_end + t_in
        if not (i < n and A[i] <= expiry):
            # Queue empty and no arrival inside the countdown: DRX next.
            if expiry >= horizon:
                break
            t0 = expiry
            w_hat = c_dsum / c_cnt if c_cnt else None
            per_cycle.append((w_hat, q_w))
            if adaptive and w_hat is not None and i > 0 and lam_hat[i - 1] > 0.0:
                state = ctrl.update_threshold(state, lam_hat[i - 1], w_hat)
                q_w = state.q_w
            boundaries.append(t0)
            thresholds.append(q_w)
            c_dsum = 0.0
            c_cnt = 0
            j = i + math.ceil(q_w) - 1
            if j >= n:
                end = horizon
            else:
                rel = geo.release_at(t0, A[j])
                end = rel if rel < horizon else horizon
            stretch_ends.append(end)
            sleep_total += geo.sleep_between(t0, end)
            if end >= horizon:
                break
            free = end
            last_end = end
        # Active: drain the backlog, then serve any arrival that lands
        # before the countdown runs out. Each service re-arms the countdown.
        while i < n:
            a = A[i]
            s = a if a > free else free
            if s >= horizon:
                done = True
                break
            tx.append(s)
            d = s - a
            delay_sum += d
            c_dsum += d
            c_cnt += 1
            free = s + psf
            last_end = free
            i += 1
            if i < n and A[i] > free + t_in:
                break

    served = len(tx)
    mean_delay = delay_sum / served if served else math.nan
    mean_q_w = (sum(thresholds) / len(thresholds)) if thresholds else q_w
    metrics = Metrics(
        mean_delay=mean_delay,
        sleep_fraction=sleep_total / horizon,
        mean_q_w=mean_q_w,
        packets_served=served,
        arrivals=n,
        saturated=(n * psf / horizon) >= 1.0,
        per_cycle=tuple(per_cycle),
    )
    return RunResult(
        metrics=metrics,
        boundaries=tuple(boundaries),
        thresholds=tuple(thresholds),
        arrivals=tuple(A[:served]),
        tx_starts=tuple(tx),
        stretch_ends=tuple(stretch_ends),
    )


def make_arrivals(traffic: TrafficKind, horizon: float, seed: int) -> tr.ArrivalStream:
    """Materialise the arrival stream a scenario describes."""
    if isinstance(traffic, PoissonTraffic):
        return tr.gen_poisson(traffic.rate, horizon, seed)
    if isinstance(traffic, ParetoTraffic):
        return tr.gen_pareto(traffic.rate, traffic.shape, horizon, seed)
    if isinstance(traffic, ScheduleTraffic):
        return tr.gen_schedule(traffic.segments, seed)
    if isinstance(traffic, TraceTraffic):
        with open(traffic.path, "rb") as fh:
            return tr.load_trace(fh)
    raise TypeError(f"unknown traffic kind {traffic!r}")


def run_detailed(scenario: Scenario, seed: int) -> RunResult:
    """One deterministic run with its per-packet and per-stretch results."""
    stream = make_arrivals(scenario.traffic, scenario.horizon, seed)
    return simulate(stream.arrivals, scenario.cfg, scenario.policy,
                    scenario.horizon, scenario.psf)


def run(scenario: Scenario, seed: int) -> Metrics:
    """One deterministic run; see the module docstring for the semantics."""
    stream = make_arrivals(scenario.traffic, scenario.horizon, seed)
    return simulate(stream.arrivals, scenario.cfg, scenario.policy,
                    scenario.horizon, scenario.psf).metrics


def confidence_interval(samples: Sequence[float], level: float) -> SummaryStats:
    """Student-t interval: mean +/- t_{n-1,(1+level)/2} * s / sqrt(n).

    A non-finite sample gives a ``nan`` half width.  A point or segment
    that served no packet reports a ``nan`` mean delay, so its delay
    interval is ``nan`` too.
    """
    n = len(samples)
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0, 1), got {level}")
    mean = float(np.mean(samples))
    if not all(map(math.isfinite, samples)):
        return SummaryStats(mean, math.nan, n, level)
    if max(samples) == min(samples):
        return SummaryStats(mean, 0.0, n, level)  # exactly, not up to roundoff
    sd = float(np.std(samples, ddof=1))
    t_q = float(scipy.stats.t.ppf(0.5 * (1.0 + level), n - 1))
    return SummaryStats(mean, t_q * sd / math.sqrt(n), n, level)


def summarize(per_seed: Sequence[tuple[float, float, float]], level: float
              ) -> tuple[SummaryStats, SummaryStats, SummaryStats]:
    """Intervals over per-seed (mean delay, sleep fraction, mean q_w) triples."""
    delay, sleep, q_w = zip(*per_seed)
    return (confidence_interval(delay, level),
            confidence_interval(sleep, level),
            confidence_interval(q_w, level))


def replicate(scenario: Scenario, seeds: Sequence[int]) -> list[Metrics]:
    return [run(scenario, s) for s in seeds]


def run_replicated(
    scenario: Scenario, seeds: Sequence[int], level: float = 0.95
) -> tuple[SummaryStats, SummaryStats, SummaryStats]:
    """Replicated runs summarised as (mean delay, sleep fraction, mean q_w)."""
    if len(seeds) < 2:
        raise ValueError(f"need at least 2 seeds, got {len(seeds)}")
    ms = replicate(scenario, seeds)
    return summarize([(m.mean_delay, m.sleep_fraction, m.mean_q_w)
                      for m in ms], level)


def slice_stats(result: RunResult, cfg: DrxConfig, start: float, end: float
                ) -> tuple[float, float, float, int]:
    """(mean delay, sleep fraction, mean threshold, served) over [start, end).

    Packets are assigned to the window by transmission start; ``cfg`` is
    the DRX configuration the run used, which lays out each stretch's sleep.
    """
    lo = bisect_left(result.tx_starts, start)
    hi = bisect_left(result.tx_starts, end)
    delays = [t - a for a, t in zip(result.arrivals[lo:hi],
                                    result.tx_starts[lo:hi])]
    geo = _CycleGeometry(cfg)
    sleep = 0.0
    first = bisect_right(result.stretch_ends, start)
    last = bisect_left(result.boundaries, end)
    for t0, t_end in zip(result.boundaries[first:last],
                         result.stretch_ends[first:last]):
        sleep += (geo.sleep_between(t0, min(t_end, end))
                  - geo.sleep_between(t0, start))
    qs = result.thresholds[bisect_left(result.boundaries, start):last]
    mean_delay = sum(delays) / len(delays) if delays else math.nan
    mean_q = sum(qs) / len(qs) if qs else math.nan
    return mean_delay, sleep / (end - start), mean_q, len(delays)
