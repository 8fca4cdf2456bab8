"""Online replay simulation: checkpoint streaming, schedulers, JCT accounting.

Mirrors the paper's evaluation methodology (§6): a simulator parses a trace
into a time series and sends each predictor exactly the features that would
be observable at each time checkpoint; schedulers (§5) then consume the
predictions to relaunch stragglers and the harness measures job-completion
time (JCT) reduction.
"""

from repro.sim.cluster import MachinePool
from repro.sim.mitigation import (
    ClosedLoopReport,
    ClosedLoopSimulator,
    FlagEventMitigator,
    MitigationConfig,
    MitigationOutcome,
    control_reports,
    oracle_result,
    random_flagger_result,
)
from repro.sim.replay import (
    CheckpointPlan,
    ReplayResult,
    ReplaySimulator,
    ReplayStream,
    StepOutcome,
)
from repro.sim.scheduler import (
    simulate_unlimited_machines,
    simulate_limited_machines,
    jct_reduction,
)

__all__ = [
    "MachinePool",
    "ClosedLoopReport",
    "ClosedLoopSimulator",
    "FlagEventMitigator",
    "MitigationConfig",
    "MitigationOutcome",
    "control_reports",
    "oracle_result",
    "random_flagger_result",
    "CheckpointPlan",
    "ReplaySimulator",
    "ReplayResult",
    "ReplayStream",
    "StepOutcome",
    "simulate_unlimited_machines",
    "simulate_limited_machines",
    "jct_reduction",
]
