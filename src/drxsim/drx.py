"""Core DRX domain types: the timer configuration and the release policies.

Both are immutable value types, so they can be shared freely between
concurrent simulation instances.

Timeline convention: a DRX cycle of length L consists of a low-power period
of ``L - t_on`` followed by an on-duration of ``t_on`` that closes the cycle.
The engine resolves this geometry arithmetically (``engine._CycleGeometry``);
the test suite checks it against an event-by-event UE state machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class PolicyKind(Enum):
    STANDARD = "standard"
    FIXED_COALESCING = "fixed"
    ADAPTIVE_COALESCING = "adaptive"


@dataclass(frozen=True, slots=True)
class DrxConfig:
    """The five timers that configure the UE sleep schedule (all in ms).

    ``t_in``     idle time before DRX is (re-)enabled.
    ``t_on``     listening window at the end of every DRX cycle.
    ``t_short``  length of the first ``n_short`` cycles after enabling DRX.
    ``t_long``   length of every cycle after that.
    ``n_short``  how many short cycles precede the long ones.
    """

    t_in: float
    t_on: float
    t_short: float
    t_long: float
    n_short: int = 0

    def __post_init__(self) -> None:
        if self.t_in < 0:
            raise ValueError(f"t_in must be >= 0, got {self.t_in}")
        if self.t_on <= 0 or self.t_short <= 0 or self.t_long <= 0:
            raise ValueError("t_on, t_short and t_long must be > 0")
        if not (self.t_on < self.t_short <= self.t_long):
            raise ValueError(
                f"need t_on < t_short <= t_long, got "
                f"({self.t_on}, {self.t_short}, {self.t_long})"
            )
        if self.n_short < 0:
            raise ValueError(f"n_short must be >= 0, got {self.n_short}")


@dataclass(frozen=True, slots=True)
class Policy:
    """Release discipline governing downlink transmission.

    ``q_w`` is the fixed queue threshold (fixed coalescing only).  ``w_star``
    and ``w_max`` are the target and maximum mean queueing delay in ms
    (adaptive coalescing only).  Use the class methods to build instances.
    """

    kind: PolicyKind
    q_w: float = 1.0
    w_star: float | None = None
    w_max: float | None = None

    def __post_init__(self) -> None:
        if self.kind is PolicyKind.FIXED_COALESCING and self.q_w < 1:
            raise ValueError(f"fixed coalescing needs q_w >= 1, got {self.q_w}")
        if self.kind is PolicyKind.ADAPTIVE_COALESCING:
            if self.w_star is None or self.w_max is None:
                raise ValueError("adaptive coalescing needs w_star and w_max")
            if not (self.w_max >= self.w_star > 0):
                raise ValueError(
                    f"need w_max >= w_star > 0, got ({self.w_star}, {self.w_max})"
                )

    @classmethod
    def standard(cls) -> "Policy":
        return cls(PolicyKind.STANDARD)

    @classmethod
    def fixed(cls, q_w: float) -> "Policy":
        return cls(PolicyKind.FIXED_COALESCING, q_w=q_w)

    @classmethod
    def adaptive(cls, w_star: float, w_max: float) -> "Policy":
        return cls(PolicyKind.ADAPTIVE_COALESCING, w_star=w_star, w_max=w_max)


