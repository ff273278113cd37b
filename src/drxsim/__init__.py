"""drxsim: DRX power-saving simulation with adaptive packet coalescing.

A discrete-event simulator for the eNB downstream queue of a single UE under
DRX, three release disciplines (standard, fixed-threshold coalescing and a
closed-loop adaptive threshold), and the matching closed-form delay model
used to validate it.
"""

from .analytic import StabilityError, mean_wait_poisson
from .drx import DrxConfig, Policy, PolicyKind
from .engine import (
    Metrics,
    RunResult,
    Scenario,
    SummaryStats,
    confidence_interval,
    run,
    run_detailed,
    simulate,
)
from .traffic import (
    ArrivalStream,
    ParetoTraffic,
    PoissonTraffic,
    ScheduleTraffic,
    TraceFormatError,
    TraceTraffic,
)

__version__ = "0.1.0"
