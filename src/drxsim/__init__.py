"""drxsim: DRX power-saving simulation with adaptive packet coalescing.

A discrete-event simulator for the eNB downstream queue of a single UE under
DRX, three release disciplines (standard, fixed-threshold coalescing and a
closed-loop adaptive threshold), and the matching closed-form delay model
used to validate it.
"""

from .analytic import (
    StabilityError,
    TrafficMoments,
    VacationMoments,
    dmean_wait_dq,
    equilibrium_threshold,
    extra_wait_tw,
    gamma_poisson,
    md1_wait,
    mean_wait_general,
    mean_wait_poisson,
    mean_wait_poisson_raw,
    poisson_vacation_moments,
)
from .controller import ControllerState, q_max_from_bound, update_threshold
from .drx import DrxConfig, Policy, PolicyKind
from .engine import (
    Metrics,
    ParetoTraffic,
    PoissonTraffic,
    RunResult,
    Scenario,
    ScheduleTraffic,
    SummaryStats,
    TraceTraffic,
    confidence_interval,
    run,
    run_detailed,
    run_replicated,
    simulate,
)
from .traffic import (
    ArrivalStream,
    TraceFormatError,
    gen_pareto,
    gen_poisson,
    gen_schedule,
    load_trace,
    serialize_trace,
)

__version__ = "0.1.0"
