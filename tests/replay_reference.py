"""Reference checkpoint replay: the parity oracle for the production loop.

``reference_run`` is the self-contained batch replay loop. It draws its own
checkpoint grid and observation noise from the simulator's seed, recomputes
the full observed feature matrix at every checkpoint, and refits the
predictor at every checkpoint that has both finished and running tasks.
:meth:`repro.sim.replay.ReplaySimulator.run`, the unbudgeted
:class:`~repro.serving.ScoringEngine` and the
:class:`~repro.serving.ScorerService` must reproduce it bit-for-bit
(``tests/test_streaming_parity.py``). It lives in the tests so that the
production replay has exactly one checkpoint loop.
"""

from typing import Optional

import numpy as np

from repro.sim.replay import ReplayResult, ReplaySimulator
from repro.traces.schema import Job
from repro.utils.validation import check_random_state


def reference_run(
    sim: ReplaySimulator, job: Job, predictor, tau_stra: Optional[float] = None
) -> ReplayResult:
    """Replay ``job`` through ``predictor`` with ``sim``'s observation model."""
    # RNG consumption order of a replay: seed, grid, noise.
    rng = check_random_state(sim.random_state)
    grid = sim.checkpoint_grid(job)
    noise = rng.normal(0.0, 1.0, size=job.features.shape)
    if tau_stra is None:
        tau_stra = job.straggler_threshold(sim.straggler_percentile)
    n = job.n_tasks
    y = job.latencies
    starts = job.start_times
    completion = job.completion_times
    warmup_time, checkpoints = grid[0], grid[1:]

    finished = completion <= warmup_time
    if not finished.any():
        # Degenerate grid; force the earliest completion to count.
        finished = completion <= completion.min()
    flagged = np.zeros(n, dtype=bool)
    flag_times = np.full(n, np.inf)

    X0 = sim.observed_features(job, warmup_time, noise)
    running0 = (starts <= warmup_time) & ~finished & ~flagged
    if running0.any():
        predictor.begin_job(X0[finished], y[finished], X0[running0], tau_stra)
    else:
        predictor.begin_job(X0[finished], y[finished], X0[finished], tau_stra)
    for tau in checkpoints:
        finished = completion <= tau
        # Only tasks that have actually started are observable.
        running = (starts <= tau) & ~finished & ~flagged
        if not finished.any():
            continue
        if not running.any():
            continue
        X_tau = sim.observed_features(job, float(tau), noise)
        # Finished tasks' metrics are final; use exact features for them.
        X_fin = job.features[finished]
        y_fin = y[finished]
        elapsed_run = tau - starts[running]
        predictor.update(X_fin, y_fin, X_tau[running], elapsed_run)
        flags = np.asarray(predictor.predict_stragglers(X_tau[running]), dtype=bool)
        if flags.shape[0] != int(running.sum()):
            raise ValueError(
                f"{predictor.name} returned {flags.shape[0]} flags for "
                f"{int(running.sum())} running tasks."
            )
        idx = np.nonzero(running)[0][flags]
        flagged[idx] = True
        flag_times[idx] = tau

    return ReplayResult(
        job_id=job.job_id,
        tau_stra=float(tau_stra),
        y_true=job.latencies >= tau_stra,
        y_flag=flagged,
        flag_times=flag_times,
        checkpoints=checkpoints,
        latencies=y.copy(),
        start_times=starts.copy(),
        meta={"warmup_time": float(warmup_time)},
    )
