"""The closed-form model's equilibrium threshold, found by bisection.

The simulator never needs it: the adaptive controller tracks the target
delay from measured delays.  The tests use it as the fixed point the tuner
must reach, iterated against the model or re-converging after a rate step
in simulation.
"""

from __future__ import annotations

from drxsim.analytic import mean_wait_poisson_raw


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
