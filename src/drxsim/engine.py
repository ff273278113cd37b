"""Discrete-event simulation of the eNB downstream queue and UE DRX machine.

One run is strictly sequential and deterministic for a given (scenario,
seed).  The event loop is organised around the structure of the system
rather than a generic calendar: packets are served in FIFO order with a
deterministic one-PSF service, so active periods collapse to a Lindley
recursion, and a DRX stretch's release instant is computed inline, from
the cycle that holds the instant its threshold fills.  The test suite
checks the result against a slow reference that steps an explicit UE
state machine one event at a time, and against ``drx_reference``'s
per-packet Lindley run and its ``release_at``, bit for bit.

An active stretch is served by a scalar loop for its first
``_SCALAR_HEAD`` packets and, if still open, from the run's no-DRX
schedule ``G[k] = max(A_k, G[k-1] + psf)`` (Lindley 1952), built once per
run when first needed.  Rounded ``+`` and ``max`` are monotone, so no
packet starts before its ``G`` start and a stretch ends only at a break of
``G`` (the next arrival misses the countdown), so once ``G`` exists a
stretch with no break within its head skips the loop.  From a packet that
starts at its ``G`` start, the stretch follows ``G`` to its next break; a
backlog before that is served at ``free, free + psf, ...``, one in-order
``np.add.accumulate`` per chunk.  ``G`` is the unrolled form ``k*psf +
max(0, cummax(A_j - j*psf))``, checked against the recursion in one pass,
which repairs each miss until they agree again (rare at ``psf = 1``: where
a busy period crosses a power of two).  Delay sums add in packet order, so
results are bit-identical to a per-packet loop's for any ``psf``.  Short
stretches stay per packet, on a list that holds Python floats only where
the loop reads (``None`` elsewhere): fills convert new arrivals, doubling
while it walks on and small again past a jump; an adaptive run's rate
estimate converts all of them.  An ``inf`` sentinel after the last arrival
ends the scalar loop without an index test.

Every run returns one ``RunResult``: the metrics, the DRX configuration
and starting threshold, each served packet's arrival (a view of the
checked input) and transmission start, and each DRX stretch as its enable
instant (``boundaries``), threshold and end (``stretch_ends``: the release
instant, or the horizon).  ``slice_stats`` reads the statistics of any
window off that shape alone, and a run's metrics are its statistics over
[0, horizon).  The loop sums each cycle's delay only for the adaptive
controller: standard and fixed runs, whose threshold never moves, take a
scalar loop without that sum.
Sleep comes from an elementwise form of the cycle geometry (``_sleep_in``),
each term bit-identical to a per-stretch scalar walk.  Every sum over one
run is in order (``_running_sum``), never Python's ``sum``, which is
compensated from CPython 3.12 on; only ``confidence_interval`` uses
numpy's pairwise ``mean`` and ``std``.  The adaptive controller's EMA rate
estimate is carried here from boundary to boundary (``_lambda_hat_series``).
Importing this module sets the process's heap policy (``_keep_freed_heap``).

Timing conventions (all ms, continuous time):

* The run observes [0, horizon): arrivals at or after the horizon are
  dropped and count nowhere; transmissions starting at or after the
  horizon never happen and their packets stay queued.
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

import ctypes
import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import controller as ctrl
from . import traffic as tr
from .drx import DrxConfig, Policy, PolicyKind
from .traffic import _check_above, _running_sum


def _keep_freed_heap() -> bool:
    """Ask glibc to keep the heap a run frees for the next run.

    Each run allocates about 1 MB of arrays and frees them at its end; by
    default glibc hands the freed heap top back to the kernel, and the next
    run page-faults it back in.  The values set here are where glibc's own
    dynamic thresholds stop on a 64-bit host: mmap above 32 MiB, trim above
    twice that.  The cost is that the process keeps its high-water heap
    until it exits.  Returns whether the C library took both settings;
    without ``mallopt`` it does nothing and returns False.
    """
    try:  # CDLL(None) is a TypeError on Windows; some C libraries lack mallopt
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    took_mmap = mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    took_trim = mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    return took_mmap == took_trim == 1


# Once per process: a pool worker imports this module to unpickle its task,
# or inherits the setting by fork.
_keep_freed_heap()


@dataclass(frozen=True, slots=True)
class Scenario:
    cfg: DrxConfig
    policy: Policy
    traffic: tr.TrafficKind
    horizon: float
    psf: float = 1.0

    def __post_init__(self) -> None:
        _check_above("horizon", self.horizon, 0.0)
        _check_above("psf", self.psf, 0.0)


@dataclass(frozen=True, slots=True)
class Metrics:
    """Per-run outputs over [0, horizon); the first four fields are
    ``slice_stats`` over [0, horizon)."""

    mean_delay: float
    sleep_fraction: float
    mean_q_w: float
    packets_served: int
    arrivals: int
    # One entry per coalescing cycle k, which ends at boundary b[k] and is
    # the window [b[k-1], b[k]) (b[-1] = 0): (the mean delay the adaptive
    # controller read there, that window's ``slice_stats`` mean bit for bit,
    # or None if the window is empty or serves no packet, and always None
    # in standard and fixed runs, which read none; the threshold that
    # governed it, ``(initial_threshold,) + thresholds`` at k).
    per_cycle: tuple[tuple[float | None, float], ...]


@dataclass(frozen=True, slots=True)
class SummaryStats:
    mean: float
    ci_half_width: float
    n: int
    level: float


@dataclass(frozen=True, eq=False)
class RunResult:
    """Metrics plus the per-packet and per-stretch results of one run.

    Every run returns this one shape; ``slice_stats`` reads any window off
    it alone.  Packets are served FIFO, so
    ``arrivals`` and ``tx_starts`` (one entry per served packet, read-only
    float64 arrays) are both sorted.  DRX stretch k runs from
    ``boundaries[k]`` to ``stretch_ends[k]``, its release instant or the
    horizon: the UE sleeps and listens on that span and transmits nothing
    inside it.  Equality is exact, field by field.
    """

    metrics: Metrics
    cfg: DrxConfig  # lays out each stretch's sleep
    # The run's end, ms: no window reaches past it.
    horizon: float
    # The threshold before the first boundary (the policy's or controller's).
    initial_threshold: float
    # DRX-enable instants (coalescing-cycle boundaries), in order.
    boundaries: tuple[float, ...]
    # Threshold in effect from each boundary on (post-update values).
    thresholds: tuple[float, ...]
    arrivals: np.ndarray
    stretch_ends: tuple[float, ...]
    tx_starts: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunResult):
            return NotImplemented
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                   for a, b in zip(vars(self).values(), vars(other).values()))


def _sleep_in(cfg: DrxConfig, t0: np.ndarray, t_end: np.ndarray | float
              ) -> np.ndarray:
    """Low-power time in [t0, t_end) of DRX stretches enabled at t0.

    Offsets are measured from the enable instant.  Cycle k (k completed
    cycles so far) occupies [C_k, C_{k+1}) with the on-duration closing it:
    sleep on [C_k, C_{k+1} - t_on), listen on [C_{k+1} - t_on, C_{k+1}).
    Elementwise, with a scalar walk's operations in its order (short phase,
    long phase's whole cycles, its remainder), so each entry is
    bit-identical to that walk.  A span <= 0 sleeps 0.
    """
    t_on, t_s, t_l = cfg.t_on, cfg.t_short, cfg.t_long
    short_span = cfg.n_short * t_s
    span = np.subtract(t_end, t0)
    sleep = np.zeros_like(span)
    rest = span
    if short_span > 0.0:
        part = np.minimum(span, short_span)
        full = np.floor(part / t_s)
        sleep = (full * (t_s - t_on)
                 + np.minimum(part - full * t_s, t_s - t_on))
        rest = span - short_span
    full = np.floor(rest / t_l)
    long_ = ((sleep + full * (t_l - t_on))
             + np.minimum(rest - full * t_l, t_l - t_on))
    sleep = np.where(rest > 0.0, long_, sleep)
    return np.where(span > 0.0, sleep, 0.0)


def _lambda_hat_series(A: Sequence[float], lo: int, hi: int, est: float,
                       k_ema: float) -> float:
    """The EMA arrival-rate estimate ``est`` carried over ``A[lo:hi]``,
    ``lo >= 1``; 0.0 means "none yet".

    The first positive gap sets the estimate to ``1/gap``; each later one
    updates it to ``(1 - w) / gap + w * lambda_hat`` with
    ``w = exp(-gap / k_ema)``, which lies between the old estimate and
    ``1/gap``.  The weight decays with the gap, so the average behaves like
    a fluid average whatever the packetization.  Zero gaps (tied
    timestamps) leave the estimate unchanged.
    """
    prev = A[lo - 1]
    for a in A[lo:hi]:
        gap = a - prev
        if gap > 0.0:
            if est == 0.0:
                est = 1.0 / gap
            else:
                w = math.exp(-gap / k_ema)
                est = (1.0 - w) / gap + w * est
        prev = a
    return est


# An active stretch serves up to _SCALAR_HEAD packets in the scalar loop;
# one still open after that is served from the no-DRX schedule.
# The backlog walk's array chunks start at this size and double.  Short
# stretches never pay for the array set-up.
_SCALAR_HEAD = 128


def _fill(A: list, A_arr: np.ndarray, lo: int, hi: int) -> None:
    """Fill slots ``lo`` to ``hi`` of the scalar loop's list with floats."""
    A[lo:hi] = A_arr[lo:hi].tolist()


def _no_drx_schedule(A: np.ndarray, psf: float, t_in: float
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The run's starts with DRX off, ``G``, and their break indices.

    ``G[k] = max(A[k], G[k-1] + psf)`` from free time 0, by the scalar
    loop's expressions.  A break is an m after which the next arrival
    misses the countdown, ``A[m+1] > (G[m] + psf) + t_in``, or the last m.
    """
    n = len(A)
    F = np.arange(n) * psf
    G = np.maximum.accumulate(A - F)
    G = np.maximum(G, 0.0, out=G) + F  # the unrolled form
    np.add(G, psf, out=F)  # each packet's free time
    k = 0
    for m in np.flatnonzero(np.maximum(A[1:], F[:-1]) != G[1:]).tolist():
        if m < k:  # inside the last repair, or where it agreed again
            continue
        # The recursion from m + 1 until it agrees with G again (each entry
        # past that was checked against a correct one): element reads at
        # first, and doubling list blocks once a repair runs long.
        k, f = m + 1, G.item(m) + psf
        while k < n:
            if k <= m + 8:
                x = A.item(k)
                x = x if x > f else f
                if x == G.item(k):
                    break
                G[k], f, k = x, x + psf, k + 1
                continue
            out, size = [], k - m
            for x, g in zip(A[k:k + size].tolist(), G[k:k + size].tolist()):
                x = x if x > f else f
                if x == g:
                    break
                out.append(x)
                f = x + psf
            G[k:k + len(out)] = out
            k += len(out)
            if len(out) < size:
                break
    if k:
        np.add(G, psf, out=F)
    ends = np.flatnonzero(A[1:] > F[:-1] + t_in)
    return G, np.append(ends, n - 1)


def _serve_from_schedule(A: np.ndarray, G: np.ndarray, breaks: np.ndarray,
                         i: int, free: float, psf: float, t_in: float,
                         horizon: float) -> tuple[np.ndarray, float, bool]:
    """Serve an open active stretch from packet ``i``, the server free from
    ``free``: (starts until the stretch ends, next free time, horizon hit).

    A backlog is served at ``free, free + psf, ...`` until packet k finds
    ``free <= G[k]``; from there the stretch follows ``G`` to its break.
    """
    n = len(A)
    parts: list[np.ndarray] = []
    size = _SCALAR_HEAD
    while i < n and free > G[i]:
        q = min(i + size, n)
        F = np.add.accumulate(np.concatenate(([free], np.full(q - i, psf))))
        hit = F[:-1] <= G[i:q]
        e = int(hit.argmax()) if hit.any() else q - i
        parts.append(F[:e])
        free = float(F[e])
        i += e
        size *= 2
    if i < n and A[i] <= free + t_in:  # packet i starts at G[i]
        m = int(breaks[np.searchsorted(breaks, i)])
        parts.append(G[i:m + 1])
        free = float(G[m]) + psf
    starts = np.concatenate(parts)
    h = int(np.searchsorted(starts, horizon))
    return starts[:h], free, h < len(starts)


def simulate(arrivals: Sequence[float] | np.ndarray | tr.ArrivalStream,
             cfg: DrxConfig, policy: Policy, horizon: float,
             psf: float = 1.0) -> RunResult:
    """Run the queue + DRX machine over a fixed arrival sequence.

    ``arrivals`` must be finite and nondecreasing from 0 (``ValueError``
    otherwise); those at or after the horizon are dropped.  An
    ``ArrivalStream`` was checked when it was built and is used as is; any
    other sequence is made into one here, which checks it (and copies it,
    unless it is a read-only float64 array that owns its data).
    """
    _check_above("horizon", horizon, 0.0)
    _check_above("psf", psf, 0.0)
    if not isinstance(arrivals, tr.ArrivalStream):
        arrivals = tr.ArrivalStream(arrivals)
    A_arr = arrivals.arrivals
    A_arr = A_arr[:int(np.searchsorted(A_arr, horizon, side="left"))]
    n = len(A_arr)
    t_in, t_on, t_s, t_l = cfg.t_in, cfg.t_on, cfg.t_short, cfg.t_long
    short_span = cfg.n_short * t_s

    adaptive = policy.kind is PolicyKind.ADAPTIVE_COALESCING
    A = A_arr.tolist() if adaptive else [None] * n
    if adaptive:
        q_max = ctrl.q_max_from_bound(policy.w_max, psf)
        state = ctrl.initial_state(policy.w_star, q_max)
        # The rate estimate after arrival lam_at - 1, carried at boundaries.
        k_ema, lam_hat, lam_at = 2.0 * policy.w_max, 0.0, 1
    A.append(math.inf)  # the sentinel: no arrival after the last
    q_w = initial_q = state.q_w if adaptive else policy.q_w
    q_less = math.ceil(q_w) - 1  # a release waits for packet i + q_less
    # From packet i the loop reads up to A[i + reach].  A holds floats from
    # the last jump up to hi, and the next fill is due once i reaches refill.
    reach = max(_SCALAR_HEAD, q_less)
    hi = refill = n + 1 if adaptive else 0

    # The scalar loop appends starts to ``tx``; an array from the no-DRX
    # schedule closes it.
    tx: list[float] = []
    tx_parts: list[np.ndarray] = []
    boundaries: list[float] = []
    thresholds: list[float] = []
    stretch_ends: list[float] = []
    per_cycle: list[tuple[float | None, float]] = []
    tx_add, bound_add, thresh_add, end_add, cycle_add = (
        tx.append, boundaries.append, thresholds.append, stretch_ends.append,
        per_cycle.append)

    c_dsum = 0.0  # the current cycle's delay sum, for the controller
    c_first = 0  # the first packet of the current cycle
    free = 0.0
    i = 0
    done = False
    G = breaks = None  # the no-DRX schedule, built when first needed

    while not done:
        if i >= refill:
            lo, size = (hi, 2 * size) if i < hi else (i, reach + 1)
            hi = min(lo + size, n)
            _fill(A, A_arr, lo, hi)
            refill = hi - reach if hi < n else n + 1
        expiry = free + t_in
        if A[i] > expiry:
            # Queue empty and no arrival inside the countdown: DRX next.
            if expiry >= horizon:
                break
            if adaptive:
                w_hat = c_dsum / (i - c_first) if i > c_first else None
                cycle_add((w_hat, q_w))
                if w_hat is not None:
                    lam_hat = _lambda_hat_series(A, lam_at, i, lam_hat, k_ema)
                    lam_at = i
                    if lam_hat > 0.0:
                        state = ctrl.update_threshold(state, lam_hat, w_hat)
                        q_w = state.q_w
                        q_less = math.ceil(q_w) - 1
                thresh_add(q_w)
                c_dsum = 0.0
                c_first = i
            bound_add(expiry)
            j = i + q_less
            end = horizon
            if j < n:
                # Packet j fills the threshold at offset phi, in the cycle
                # that starts at offset ck and is clen long (t_on listening).
                end = A[j]
                phi = end - expiry
                if phi < short_span:
                    ck = int(phi / t_s) * t_s
                    clen = t_s
                else:
                    ck = short_span + int((phi - short_span) / t_l) * t_l
                    clen = t_l
                if phi - ck < clen - t_on:  # asleep: wait for the window
                    end = expiry + ck + clen - t_on
            if end >= horizon:
                end_add(horizon)
                break
            end_add(end)
            free = end
        elif i:
            # No boundary, and not the run's first stretch (the only one
            # that starts so at i = 0): the scalar loop below ran out, or
            # was skipped, with the stretch still open.  The no-DRX
            # schedule serves the rest of it.
            if G is None:
                G, breaks = _no_drx_schedule(A_arr, psf, t_in)
            starts, free, done = _serve_from_schedule(
                A_arr, G, breaks, i, free, psf, t_in, horizon)
            m = i + len(starts)
            if adaptive:
                c_dsum = _running_sum(c_dsum, starts - A_arr[i:m])
            tx_parts += (np.fromiter(tx, float, len(tx)), starts)
            tx = []
            tx_add = tx.append
            i = m
            continue
        # Active: drain the backlog, then serve any arrival that lands
        # before the countdown runs out. Each service re-arms the countdown.
        # The scalar loop serves up to _SCALAR_HEAD packets, or none if G
        # has no break before then; the no-DRX schedule serves the rest of
        # a stretch still open.  Past the last arrival the sentinel ends
        # the stretch, so a loop that runs out has more packets behind it.
        # Only the adaptive loop sums the cycle's delay.
        stop = i + _SCALAR_HEAD
        if G is not None and breaks[breaks.searchsorted(i)] >= stop:
            stop = i
        if adaptive:
            while i < stop:
                a = A[i]
                s = a if a > free else free
                if s >= horizon:
                    done = True
                    break
                tx_add(s)
                c_dsum += s - a
                free = s + psf
                i += 1
                if A[i] > free + t_in:
                    break
        else:
            while i < stop:
                a = A[i]
                s = a if a > free else free
                if s >= horizon:
                    done = True
                    break
                tx_add(s)
                free = s + psf
                i += 1
                if A[i] > free + t_in:
                    break
    tx_parts.append(np.fromiter(tx, float, len(tx)))
    tx_starts = np.concatenate(tx_parts)
    tx_starts.flags.writeable = False
    if not adaptive:  # the threshold never moves
        thresholds = [q_w] * len(boundaries)
        per_cycle = [(None, q_w)] * len(boundaries)

    # Every packet before i was served, and none after.
    result = RunResult(None, cfg, horizon, initial_q, tuple(boundaries),
                       tuple(thresholds), A_arr[:i], tuple(stretch_ends),
                       tx_starts)
    return replace(result, metrics=Metrics(
        *slice_stats(result, 0.0, horizon), arrivals=n,
        per_cycle=tuple(per_cycle)))


def make_arrivals(traffic: tr.TrafficKind, horizon: float,
                  seed: int) -> tr.ArrivalStream:
    """Materialise the arrival stream a scenario describes."""
    return traffic.arrivals(horizon, seed)


def run_detailed(scenario: Scenario, seed: int) -> RunResult:
    """One deterministic run with its per-packet and per-stretch results."""
    stream = make_arrivals(scenario.traffic, scenario.horizon, seed)
    return simulate(stream, scenario.cfg, scenario.policy,
                    scenario.horizon, scenario.psf)


def run(scenario: Scenario, seed: int) -> Metrics:
    """One deterministic run; see the module docstring for the semantics."""
    return run_detailed(scenario, seed).metrics


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
    return SummaryStats(mean, _t_quantile(level, n - 1) * sd / math.sqrt(n),
                        n, level)


# Newton steps before the t quantile gives up.
_NEWTON_STEPS = 200


@functools.lru_cache(maxsize=None)
def _t_quantile(level: float, df: int) -> float:
    """The t with P(|T| > t) = 1 - level for Student's T with df degrees.

    For an integer df, P(|T| <= t) is a finite sum (Abramowitz and Stegun
    26.7.3, 26.7.4).  With ``x = cos^2(theta) = df/(df + t^2)`` it is ``s``
    times the first ``m = df // 2`` terms of ``sum_k c_k x^(k + h)``, plus
    ``2 theta/pi`` for odd df: ``h = 0``, ``s = sin(theta)`` and
    ``c_k = (2k-1)!!/(2k)!!`` for even df, ``h = 1/2``,
    ``s = 2 sin(theta)/pi`` and ``c_k = (2k)!!/(2k+1)!!`` for odd.  The
    whole series is ``1/sin(theta)``, or ``(pi/2 - theta)/sin(theta)`` (the
    arcsin series), so ``s`` times its terms from ``m`` on is exactly
    ``1 - P``; P's slope is ``sqrt(df) c_m x^((df+1)/2)``, times ``2/pi``
    for odd df.  Newton steps from 0 rise monotonically to the root, P being
    concave for t > 0, and stop after a step below 1e-10 relative, which
    leaves an error of order its square.  They sum the tail ``1 - P`` while
    ``x <= level`` and the head otherwise, with ``c_k`` (k <= m) its integer
    ratio rounded once, ``x^(k+h) = exp((k+h) log x)`` from
    ``log x = -log1p(t^2/df)``, and ``fsum``.  For df 3 to 1e4 at levels
    1e-6 to ``1 - 1e-15`` they agree with a 50-digit evaluation to 1e-14
    relative; the df 1 and 2 closed forms lose ``1/(1 - level)`` ulps.  A
    sweep asks for the same few (level, df) pairs at every grid point,
    hence the cache.
    """
    if df == 1:
        return math.tan(0.5 * math.pi * level)
    if df == 2:
        return level * math.sqrt(2.0 / (1.0 - level * level))
    m, odd = divmod(df, 2)
    h = 0.5 * odd
    scale = 2.0 / math.pi if odd else 1.0
    coef, num, den = [], 1, 1
    for k in range(m + 1):
        coef.append(num / den)
        num, den = num * (2 * k + 1 + odd), den * (2 * k + 2 + odd)
    t = 0.0
    for _ in range(_NEWTON_STEPS):
        log_x = -math.log1p(t * t / df)
        s = scale * t / math.sqrt(df + t * t)
        if df * (1.0 - level) <= level * t * t:
            # The terms fall with k; stop once the rest cannot count.
            terms, c, k = [], coef[m], m
            while not terms or terms[-1] > 1e-17 * terms[0]:
                terms.append(c * math.exp((k + h) * log_x))
                c *= (2 * k + 1 + odd) / (2 * k + 2 + odd)
                k += 1
            excess = s * math.fsum(terms) - (1.0 - level)  # level - P
        else:
            excess = level - s * math.fsum(
                coef[k] * math.exp((k + h) * log_x) for k in range(m))
            if odd:
                excess -= scale * math.atan(t / math.sqrt(df))
        slope = scale * math.sqrt(df) * coef[m] * math.exp((df + 1) * log_x / 2)
        step = excess / slope
        t += step
        if abs(step) <= 1e-10 * t:
            return t
    raise ArithmeticError(
        f"t quantile did not converge (level {level}, df {df})")


def slice_stats(result: RunResult, start: float, end: float
                ) -> tuple[float, float, float, int]:
    """(mean delay, sleep fraction, mean threshold, served) over [start, end).

    Packets are assigned to the window by transmission start, thresholds
    by their stretch's enable instant.  The mean threshold is that over the
    stretches enabled in the window, or with none the threshold in effect
    throughout it: the one set at the last boundary before ``start``, or
    the run's initial one.  The controller moves only at boundaries, so
    this is exact.  The mean delay is NaN with no packet served.  The
    window must lie in the run, ``0 <= start < end <= horizon``
    (``ValueError`` otherwise).
    """
    if not (0.0 <= start < end <= result.horizon):
        raise ValueError(f"window start {start!r} and end {end!r} must "
                         f"satisfy 0 <= start < end <= {result.horizon!r}")
    cfg, tx = result.cfg, result.tx_starts
    lo = int(np.searchsorted(tx, start, side="left"))
    hi = int(np.searchsorted(tx, end, side="left"))
    served = hi - lo
    first = bisect_right(result.stretch_ends, start)
    last = bisect_left(result.boundaries, end)
    t0 = np.array(result.boundaries[first:last])
    t_end = np.minimum(np.array(result.stretch_ends[first:last]), end)
    sleep = _sleep_in(cfg, t0, t_end)
    # Stretches are disjoint and in order: only the first can begin before
    # the window, and the sleep before it comes off that one alone.
    if first < last and result.boundaries[first] < start:
        sleep[0] -= _sleep_in(cfg, t0[0], start)
    sleep = _running_sum(0.0, sleep)
    k = bisect_left(result.boundaries, start)
    qs = result.thresholds[k:last]
    mean_delay = (_running_sum(0.0, tx[lo:hi] - result.arrivals[lo:hi]) / served
                  if served else math.nan)
    mean_q = (_running_sum(0.0, qs) / len(qs) if qs else
              result.thresholds[k - 1] if k else result.initial_threshold)
    return mean_delay, sleep / (end - start), mean_q, served
