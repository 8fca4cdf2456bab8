"""Online replay simulation: checkpoint streaming, mitigation, JCT accounting.

Mirrors the paper's evaluation methodology (§6): a simulator parses a trace
into a time series and sends each predictor exactly the features that would
be observable at each time checkpoint; one mitigation simulator then acts
on the flags against a machine pool and measures job-completion time (JCT)
reduction. Its ``kill_restart`` policy is the paper's relaunch scheduler
(§5): Algorithm 2 with a spare per task, Algorithm 3 with a fixed cluster
size (``MitigationConfig.machines``).
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
]
