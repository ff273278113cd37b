"""Closed-form mean-delay model for coalesced DRX, with Poisson specials.

The general model treats the eNB downstream queue as a single server whose
idle periods are sometimes extended by the UE sleep schedule: the first
packet of each coalescing cycle waits a random time before service resumes.
Combining the inter-output identity with the borrowed covariance result for
threshold queues gives the mean queueing delay

    E[W] = [lam^2 (var_s + var_a) + (1 - rho)^2] / [2 lam (1 - rho)]
         + [E[Wf^2] - g E[I^2]] / [2 (E[Wf] + g E[I])]
         - lam (q - 1) var_a / (q - 1 + lam E[I])

where I is the empty period, Wf the first coalesced packet's wait and g >= 1
the inverse fraction of eNB idle time with DRX enabled.  For Poisson traffic
the moments collapse to closed forms and g = exp(lam * t_in).

All functions are pure, double precision.  g grows exponentially with
``lam * t_in`` and can overflow; every expression involving it divides
through by g once it exceeds ``_BIG_GAMMA`` (equivalent algebra, no overflow)
and takes the g -> inf limit when it is infinite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .drx import DrxConfig

_BIG_GAMMA = 1e12

# Bisection domain and tolerance for the stability crossing point.
_CROSSING_HI = 1024.0
_CROSSING_TOL = 1e-6


class StabilityError(ValueError):
    """Offered load at or above capacity: the queue has no steady state."""


@dataclass(frozen=True, slots=True)
class TrafficMoments:
    """First and second moments of the arrival and service processes.

    ``lam`` and ``mu`` are rates in packets/ms; ``var_a`` and ``var_s`` are
    the inter-arrival and service-time variances in ms^2.
    """

    lam: float
    mu: float
    var_a: float
    var_s: float

    def __post_init__(self) -> None:
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("lam and mu must be > 0")
        if self.var_a < 0 or self.var_s < 0:
            raise ValueError("variances must be >= 0")
        if self.lam >= self.mu:
            raise StabilityError(
                f"utilisation {self.lam / self.mu:.3f} >= 1; queue is unstable"
            )

    @property
    def rho(self) -> float:
        return self.lam / self.mu


@dataclass(frozen=True, slots=True)
class VacationMoments:
    """Moments of the empty period I and the first coalesced packet's wait Wf.

    ``gamma`` is the inverse of the fraction of eNB idle time during which
    DRX is enabled; it is at least 1 by construction.
    """

    e_i: float
    e_i2: float
    e_wf: float
    e_wf2: float
    gamma: float

    def __post_init__(self) -> None:
        if min(self.e_i, self.e_i2, self.e_wf, self.e_wf2) < 0:
            raise ValueError("moments must be >= 0")
        # Allow for double-precision slack in the variance constraints.
        if self.e_i2 < self.e_i**2 * (1 - 1e-12):
            raise ValueError("e_i2 < e_i^2 is not a valid second moment")
        if self.e_wf2 < self.e_wf**2 * (1 - 1e-12):
            raise ValueError("e_wf2 < e_wf^2 is not a valid second moment")
        if self.gamma < 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")


def extra_wait_tw(t_short: float, t_on: float) -> float:
    """Mean extra wait until the next listening window once the threshold fills.

    The triggering arrival is taken uniform over the cycle: with probability
    ``(t_short - t_on) / t_short`` it lands in the low-power stretch and then
    waits ``(t_short - t_on) / 2`` on average, giving
    ``(t_short - t_on)^2 / (2 t_short)``.
    """
    if not (0 < t_on <= t_short):
        raise ValueError(f"need 0 < t_on <= t_short, got ({t_on}, {t_short})")
    return (t_short - t_on) ** 2 / (2.0 * t_short)


def gamma_poisson(lam: float, t_in: float) -> float:
    """Idle-time inflation factor for Poisson arrivals: exp(lam * t_in).

    Returns ``inf`` when the exponent overflows double precision; downstream
    formulas handle that limit explicitly.
    """
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if t_in < 0:
        raise ValueError(f"t_in must be >= 0, got {t_in}")
    try:
        return math.exp(lam * t_in)
    except OverflowError:
        return math.inf


def first_wait_moments_poisson(
    lam: float, q_w: float, t_w: float
) -> tuple[float, float]:
    """First two moments of the first coalesced packet's wait, Poisson case.

    The first packet waits for ``q_w - 1`` further arrivals (Erlang, mean
    ``(q_w - 1)/lam``, variance ``(q_w - 1)/lam^2``) plus the extra wait
    ``t_w``, which enters the second moment as a constant shift.
    """
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if q_w < 1:
        raise ValueError(f"q_w must be >= 1, got {q_w}")
    e_wf = (q_w - 1.0) / lam + t_w
    e_wf2 = (q_w - 1.0) / lam**2 + e_wf**2
    return e_wf, e_wf2


def poisson_vacation_moments(lam: float, q_w: float, t_w: float,
                             gamma: float) -> VacationMoments:
    """Bundle the Poisson closed-form moments: E[I] = 1/lam, E[I^2] = 2/lam^2."""
    e_wf, e_wf2 = first_wait_moments_poisson(lam, q_w, t_w)
    return VacationMoments(1.0 / lam, 2.0 / lam**2, e_wf, e_wf2, gamma)


def mean_wait_general(tm: TrafficMoments, q_w: float, vm: VacationMoments) -> float:
    """Mean queueing delay for general traffic with supplied vacation moments."""
    if q_w < 1:
        raise ValueError(f"q_w must be >= 1, got {q_w}")
    lam = tm.lam
    rho = tm.rho
    base = (lam**2 * (tm.var_s + tm.var_a) + (1.0 - rho) ** 2) / (
        2.0 * lam * (1.0 - rho)
    )

    g = vm.gamma
    if math.isinf(g):
        vac = -vm.e_i2 / (2.0 * vm.e_i) if vm.e_i > 0 else 0.0
    elif g > _BIG_GAMMA:
        den = 2.0 * (vm.e_wf / g + vm.e_i)
        if den == 0.0:
            raise ValueError("degenerate vacation moments: e_wf + gamma e_i == 0")
        vac = (vm.e_wf2 / g - vm.e_i2) / den
    else:
        den = 2.0 * (vm.e_wf + g * vm.e_i)
        if den == 0.0:
            raise ValueError("degenerate vacation moments: e_wf + gamma e_i == 0")
        vac = (vm.e_wf2 - g * vm.e_i2) / den

    if q_w == 1.0:
        cov = 0.0
    else:
        cov = -lam * (q_w - 1.0) * tm.var_a / (q_w - 1.0 + lam * vm.e_i)
    return base + vac + cov


def mean_wait_poisson_raw(lam: float, mu: float, var_s: float, q_w: float,
                          t_w: float, gamma: float) -> float:
    """Poisson-traffic mean queueing delay from explicit (t_w, gamma).

    The general model with the Poisson moments substituted: inter-arrival
    variance ``1/lam^2`` and the vacation moments of
    ``poisson_vacation_moments``.
    """
    if lam <= 0 or mu <= 0:
        raise ValueError("lam and mu must be > 0")
    return mean_wait_general(TrafficMoments(lam, mu, 1.0 / lam**2, var_s), q_w,
                             poisson_vacation_moments(lam, q_w, t_w, gamma))


def mean_wait_poisson(lam: float, mu: float, var_s: float, q_w: float,
                      cfg: DrxConfig) -> float:
    """Poisson-traffic mean queueing delay under a coalesced-DRX config.

    The closed form assumes all DRX cycles are of equal length, so the config
    must have ``t_short == t_long``.
    """
    if cfg.t_short != cfg.t_long:
        raise ValueError("closed form requires t_short == t_long")
    t_w = extra_wait_tw(cfg.t_short, cfg.t_on)
    g = gamma_poisson(lam, cfg.t_in)
    return mean_wait_poisson_raw(lam, mu, var_s, q_w, t_w, g)


def dmean_wait_dq(lam: float, q_w: float, t_w: float, gamma: float) -> float:
    """Sensitivity of the Poisson mean delay to the queue threshold.

    ``d E[W] / d q_w = (1 / 2 lam) * [1 - 2/q^2 + (a - g(g - 3)) / D^2]``

    with ``a = lam * t_w`` and ``D = q + a + g - 1``.  This is the exact
    derivative of ``mean_wait_poisson_raw`` in ``q_w`` (checked against
    central finite differences in the test suite).  It tends to
    ``1 / (2 lam)`` as the threshold grows and to ``-1 / (lam q^2)`` as
    ``gamma`` grows without bound.
    """
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if q_w < 1:
        raise ValueError(f"q_w must be >= 1, got {q_w}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    a = lam * t_w
    if math.isinf(gamma):
        ratio = -1.0
    elif gamma > _BIG_GAMMA:
        ratio = -(1.0 - 3.0 / gamma - a / gamma**2) / (
            (q_w + a - 1.0) / gamma + 1.0
        ) ** 2
    else:
        ratio = (a - gamma * (gamma - 3.0)) / (q_w + a + gamma - 1.0) ** 2
    return (1.0 - 2.0 / q_w**2 + ratio) / (2.0 * lam)


def gain_bound_holds(lam: float, t_w: float, gamma: float) -> bool:
    """Whether ``dmean_wait_dq <= 1/(2 lam)`` for every threshold >= 1.

    Exceeding the bound needs ``(a - g(g-3)) / D^2 > 2 / q^2`` somewhere;
    since ``D >= q`` the bound holds for all thresholds whenever
    ``a - g(g-3) <= 2``, and for large thresholds the condition is also
    necessary because ``D/q -> 1``.
    """
    if math.isinf(gamma):
        return True
    return lam * t_w - gamma * (gamma - 3.0) <= 2.0


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    CONDITIONALLY_STABLE = "conditionally_stable"


@dataclass(frozen=True, slots=True)
class StabilityVerdict:
    kind: Stability
    # Smallest equilibrium threshold above which the closed loop is stable;
    # only meaningful for CONDITIONALLY_STABLE (and STABLE, informationally).
    crossing: float | None = None

    def __bool__(self) -> bool:
        return self.kind is Stability.STABLE


def _upper_margin(lam: float, q: float, t_w: float, gamma: float) -> float:
    # First stability inequality, rearranged as LHS < 1.  The second
    # inequality's LHS is exactly its negation.
    a = lam * t_w
    return (a - gamma * (gamma + 1.0)) / (q + a + gamma - 1.0) ** 2 - 2.0 / q**2


def stability_verdict(lam: float, q_w_star: float, t_w: float,
                      gamma: float) -> StabilityVerdict:
    """Classify the closed-loop equilibrium at threshold ``q_w_star``.

    The tuning loop is locally stable when the delay model's slope at the
    equilibrium lies in (0, 1/lam).  The upper condition holds for every
    threshold >= 1; the lower one holds for all thresholds above some
    crossing point ``q``: the verdict is ``STABLE`` when ``q_w_star`` exceeds
    it and ``CONDITIONALLY_STABLE`` (reporting the crossing) otherwise.
    When the traffic term dominates (``lam * t_w >= gamma * (gamma + 1)``)
    the crossing is simply ``sqrt(2)``.
    """
    if q_w_star < 1:
        raise ValueError(f"q_w_star must be >= 1, got {q_w_star}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")

    if not _upper_margin(lam, q_w_star, t_w, gamma) < 1.0:
        return StabilityVerdict(Stability.UNSTABLE)

    a = lam * t_w
    if a - gamma * (gamma + 1.0) >= 0.0:
        crossing = math.sqrt(2.0)
        if q_w_star > crossing:
            return StabilityVerdict(Stability.STABLE, crossing)
        return StabilityVerdict(Stability.CONDITIONALLY_STABLE, crossing)

    # -_upper_margin is strictly decreasing in q here, so bisection is sound.
    if -_upper_margin(lam, 1.0, t_w, gamma) < 1.0:
        crossing = 1.0
    elif -_upper_margin(lam, _CROSSING_HI, t_w, gamma) >= 1.0:
        return StabilityVerdict(Stability.CONDITIONALLY_STABLE, math.inf)
    else:
        lo, hi = 1.0, _CROSSING_HI
        while hi - lo > _CROSSING_TOL:
            mid = 0.5 * (lo + hi)
            if -_upper_margin(lam, mid, t_w, gamma) < 1.0:
                hi = mid
            else:
                lo = mid
        crossing = hi
    if q_w_star > crossing:
        return StabilityVerdict(Stability.STABLE, crossing)
    return StabilityVerdict(Stability.CONDITIONALLY_STABLE, crossing)


def md1_wait(lam: float, mu: float) -> float:
    """Mean wait in the M/D/1 queue: rho / (2 mu (1 - rho)).

    This is the DRX-disabled limit of the coalesced model (threshold 1 and an
    inactivity timer so large the UE never sleeps) and serves as its oracle.
    """
    if lam <= 0 or mu <= 0:
        raise ValueError("lam and mu must be > 0")
    if lam >= mu:
        raise StabilityError(
            f"utilisation {lam / mu:.3f} >= 1; queue is unstable"
        )
    rho = lam / mu
    return rho / (2.0 * mu * (1.0 - rho))


def equilibrium_threshold(lam: float, w_star: float, t_w: float, gamma: float,
                          q_max: float, mu: float = 1.0,
                          var_s: float = 0.0) -> float:
    """Threshold at which the Poisson model meets the target delay.

    Solves ``mean_wait_poisson_raw(q) == w_star`` on ``[1, q_max]`` by
    bisection, clamping to the nearer end when the target is unreachable.
    Valid in the operating regime where the model is increasing in the
    threshold (moderate ``gamma``).
    """
    if q_max < 1:
        raise ValueError(f"q_max must be >= 1, got {q_max}")
    lo, hi = 1.0, q_max
    if mean_wait_poisson_raw(lam, mu, var_s, hi, t_w, gamma) <= w_star:
        return hi
    if mean_wait_poisson_raw(lam, mu, var_s, lo, t_w, gamma) >= w_star:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mean_wait_poisson_raw(lam, mu, var_s, mid, t_w, gamma) < w_star:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * hi:
            break
    return 0.5 * (lo + hi)
