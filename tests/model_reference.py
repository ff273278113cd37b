"""Reference values of the closed-form model that the simulator never needs.

``equilibrium_threshold`` is the model's equilibrium threshold, found by
bisection: the adaptive controller tracks the target delay from measured
delays, and the tests use it as the fixed point the tuner must reach,
iterated against the model or re-converging after a rate step in
simulation.  ``md1_wait`` is the model's DRX-disabled limit.
"""

from __future__ import annotations

from drxsim.analytic import StabilityError, mean_wait_poisson_raw


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
