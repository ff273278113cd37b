"""Closed-form mean-delay model for coalesced DRX, with Poisson specials.

The general model treats the eNB downstream queue as a single server whose
idle periods are sometimes extended by the UE sleep schedule: the first
packet of each coalescing cycle waits a random time before service resumes.
Combining the inter-output identity with the covariance result for
threshold queues gives the mean queueing delay

    E[W] = [lam^2 (var_s + var_a) + (1 - rho)^2] / [2 lam (1 - rho)]
         + [E[Wf^2] - g E[I^2]] / [2 (E[Wf] + g E[I])]
         - (q - 1) var_a / (E[Wf] + g E[I])

where I is the empty period, Wf the first coalesced packet's wait and g >= 1
the inverse fraction of eNB idle time with DRX enabled.  The threshold-queue
covariance term, -lam (q - 1) var_a / (q - 1 + lam E[I]), assumes that every
idle period coalesces; the last term weights it by the share 1/g of idle
periods that enter DRX, so it equals the plain threshold-queue term at g = 1
and t_w = 0 and vanishes when DRX is never enabled (g -> inf), leaving the
M/G/1 wait.  For Poisson traffic the moments collapse to closed forms,
g = exp(lam * t_in), and with a = lam * t_w the model reduces to

    E[W] = md1_wait + [q (q - 1) / (2 lam) + q t_w + lam t_w^2 / 2]
                      / (q - 1 + a + g)

which is the exact vacation decomposition (the M/D/1 wait plus the mean
backlog held while service is withheld, divided by lam) when the extra wait
until the next listening window is the constant t_w.  The approximation
that remains is that constant: the model gives the extra wait its mean over
a uniform phase in the cycle.  That is accurate once several packets have
coalesced, but at threshold 1 (standard DRX) the first arrival after DRX
starts falls early in the cycle and waits longer: at rate 0.1 with the
10/2/32 ms timers the model gives 5.86 ms where simulation gives 9.74 ms.
For non-Poisson traffic the 1/g weight of the covariance term is the
natural generalisation of the Poisson result, not a derivation.

The tuning loop ``q += 2 lam (w* - w)`` has loop gain ``2 lam dE[W]/dq``
against this model, which ``dmean_wait_dq`` puts in (0, 1] for finite g
and at 0 for g = inf: the slope is the one stability test.  The paper's
published stability inequalities, conservative for this slope, are
checked as written in the test suite.

All functions are pure, double precision.  g grows exponentially with
``lam * t_in`` and overflows to inf; every expression involving it is
divided through by g, so the same expression serves every g including
inf, where it gives the DRX-never-enabled limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .drx import DrxConfig


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


def poisson_vacation_moments(lam: float, q_w: float, t_w: float,
                             gamma: float) -> VacationMoments:
    """Vacation moments for Poisson arrivals.

    The empty period is exponential: ``E[I] = 1/lam``, ``E[I^2] = 2/lam^2``.
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
    return VacationMoments(1.0 / lam, 2.0 / lam**2, e_wf, e_wf2, gamma)


def mean_wait_general(tm: TrafficMoments, q_w: float, vm: VacationMoments) -> float:
    """Mean queueing delay for general traffic with supplied vacation moments.

    The vacation and covariance terms share the denominator
    ``E[Wf] + g E[I]``; see the module docstring for the formula.
    """
    if q_w < 1:
        raise ValueError(f"q_w must be >= 1, got {q_w}")
    lam = tm.lam
    rho = tm.rho
    base = (lam**2 * (tm.var_s + tm.var_a) + (1.0 - rho) ** 2) / (
        2.0 * lam * (1.0 - rho)
    )

    # Numerators and the shared denominator divided through by g: at
    # g = inf this is the plain M/G/1 idle-period term and cov is 0.
    g = vm.gamma
    den = vm.e_wf / g + vm.e_i
    if den == 0.0:
        raise ValueError("degenerate vacation moments: e_wf + gamma e_i == 0")
    vac = (vm.e_wf2 / g - vm.e_i2) / (2.0 * den)
    cov = -(q_w - 1.0) * tm.var_a / g / den
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

    ``d E[W] / d q_w = (1 / 2 lam) * [1 - (g(g - 1) + a) / D^2]``

    with ``a = lam * t_w`` and ``D = q + a + g - 1``.  This is the exact
    derivative of ``mean_wait_poisson_raw`` in ``q_w`` (checked against
    central finite differences in the test suite).  Since ``g >= 1`` and
    ``D >= a + g``, it lies in ``(0, 1 / (2 lam)]`` for every threshold
    ``q_w >= 1``: the model is increasing in the threshold, and the
    controller gain ``2 lam`` never overshoots.  It tends to ``1 / (2 lam)``
    as the threshold grows and to 0 as ``gamma`` grows without bound, where
    DRX is never enabled and the threshold no longer matters.
    """
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    if q_w < 1:
        raise ValueError(f"q_w must be >= 1, got {q_w}")
    if gamma < 1.0:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    # Numerator D^2 - g(g-1) - a = c(c + 2g) + g - a with c = q + a - 1,
    # and both parts divided by g^2: no cancellation, no overflow, and the
    # g -> inf limit of 0 comes out of the same expression.
    a = lam * t_w
    c = q_w + a - 1.0
    num = (c * (c / gamma + 2.0) + 1.0 - a / gamma) / gamma
    return num / (2.0 * lam * (c / gamma + 1.0) ** 2)


def md1_wait(lam: float, mu: float) -> float:
    """Mean wait in the M/D/1 queue: rho / (2 mu (1 - rho)).

    This is the DRX-disabled limit of the coalesced model (an inactivity
    timer so large that the UE never sleeps, at any threshold) and serves as
    its oracle.
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
    Bisection is sound for every ``gamma``: the model is strictly increasing
    in the threshold (``dmean_wait_dq > 0``).
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
