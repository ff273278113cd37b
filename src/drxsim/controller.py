"""Closed-loop tuner for the coalescing threshold.

Runs once per coalescing cycle, just before the UE re-enters DRX.  The
update is a proportional controller on the delay error with gain twice the
estimated arrival rate, which cancels the delay model's asymptotic slope of
``1 / (2 lam)`` in the threshold:

    q_w <- clamp(q_w + 2 lambda_hat (w_star - w_hat), 1, q_max)

``w_hat`` is the mean queueing delay measured over the cycle that just
ended.  The cap ``q_max = w_max / s_max`` keeps the threshold from growing
past the point where draining it would exceed the configured delay bound.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class ControllerState:
    """Current threshold and the fixed tuning parameters.

    Invariant: ``1 <= q_w <= q_max`` after every update.
    """

    q_w: float
    q_max: float
    w_star: float

    def __post_init__(self) -> None:
        if self.q_max < 1:
            raise ValueError(f"q_max must be >= 1, got {self.q_max}")
        if not (1.0 <= self.q_w <= self.q_max):
            raise ValueError(
                f"q_w must lie in [1, {self.q_max}], got {self.q_w}"
            )
        if self.w_star <= 0:
            raise ValueError(f"w_star must be > 0, got {self.w_star}")


def q_max_from_bound(w_max: float, s_max: float) -> float:
    """Threshold cap implied by the delay bound: ``w_max / s_max``.

    ``s_max`` is the largest service time a packet can demand, so a backlog
    of ``q_max`` packets drains within ``w_max``.
    """
    if w_max <= 0 or s_max <= 0:
        raise ValueError("w_max and s_max must be > 0")
    return w_max / s_max


def initial_state(w_star: float, q_max: float) -> ControllerState:
    """Start at the most conservative threshold (standard-DRX-like)."""
    return ControllerState(q_w=1.0, q_max=q_max, w_star=w_star)


def update_threshold(cs: ControllerState, lambda_hat: float,
                     w_hat: float) -> ControllerState:
    """One tuning step from the measured cycle delay ``w_hat``.

    Raises the threshold when the cycle ran faster than the target, lowers
    it otherwise, and clamps the result into ``[1, q_max]``.
    """
    if lambda_hat <= 0:
        raise ValueError(f"lambda_hat must be > 0, got {lambda_hat}")
    if w_hat < 0:
        raise ValueError(f"w_hat must be >= 0, got {w_hat}")
    raw = cs.q_w + 2.0 * lambda_hat * (cs.w_star - w_hat)
    clamped = min(max(raw, 1.0), cs.q_max)
    return ControllerState(clamped, cs.q_max, cs.w_star)
