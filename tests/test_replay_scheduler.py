"""Tests for the replay simulator and the machine pool.

Kill-and-relaunch under unlimited and limited machines (paper Algorithms
2 and 3) is covered in ``tests/test_mitigation.py``.
"""

import numpy as np
import pytest

from repro.core.base import OnlineStragglerPredictor
from repro.sim.cluster import MachinePool
from repro.sim.replay import ReplaySimulator
from repro.traces.schema import Job


class OracleRule(OnlineStragglerPredictor):
    """Flags exactly the true stragglers (uses the threshold + true latency
    hidden in the features the test builds) — for simulator plumbing tests."""

    def __init__(self, latencies, tau):
        self.latencies = latencies
        self.tau = tau
        self._lookup = {}

    def begin_job(self, X_fin, y_fin, X_run, tau_stra):
        super().begin_job(X_fin, y_fin, X_run, tau_stra)

    def update(self, X_fin, y_fin, X_run, elapsed_run=None):
        self._X_run = np.asarray(X_run)

    def predict_stragglers(self, X_run):
        X_run = np.asarray(X_run)
        # Feature 0 is the task's true latency in these test jobs.
        return X_run[:, 0] >= self.tau


class NeverRule(OnlineStragglerPredictor):
    def update(self, X_fin, y_fin, X_run, elapsed_run=None):
        pass

    def predict_stragglers(self, X_run):
        return np.zeros(np.asarray(X_run).shape[0], dtype=bool)


class AlwaysRule(OnlineStragglerPredictor):
    def update(self, X_fin, y_fin, X_run, elapsed_run=None):
        pass

    def predict_stragglers(self, X_run):
        return np.ones(np.asarray(X_run).shape[0], dtype=bool)


def _oracle_job(n=100, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.lognormal(0.0, 0.8, size=n) + 0.1
    X = np.column_stack([y, rng.random(n)])  # feature 0 = latency (oracle)
    return Job("oracle", X, y, ["lat", "noise"])


class TestReplaySimulator:
    def test_oracle_catches_running_stragglers(self):
        job = _oracle_job()
        tau = job.straggler_threshold()
        sim = ReplaySimulator(n_checkpoints=12, feature_noise=0.0, random_state=0)
        res = sim.run(job, OracleRule(job.latencies, tau))
        # Stragglers still running after the warmup are flagged; only those
        # finishing before the first prediction can be missed.
        assert res.tpr > 0.8
        assert res.fpr == 0.0

    def test_never_rule_zero_flags(self):
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        res = sim.run(job, NeverRule())
        assert res.y_flag.sum() == 0
        assert res.tpr == 0.0 and res.f1 == 0.0

    def test_always_rule_flags_everything_running(self):
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        res = sim.run(job, AlwaysRule())
        # Everything observed running at the first prediction is flagged.
        assert res.y_flag.sum() > 0.5 * job.n_tasks
        assert res.tpr > 0.9

    def test_flag_times_monotone_with_checkpoints(self):
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=8, random_state=0)
        res = sim.run(job, AlwaysRule())
        finite = res.flag_times[np.isfinite(res.flag_times)]
        assert set(np.unique(finite)) <= set(res.checkpoints)

    def test_flagged_tasks_not_reevaluated(self):
        # AlwaysRule flags everything at the first checkpoint; later
        # checkpoints must see no running tasks.
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        res = sim.run(job, AlwaysRule())
        first = res.flag_times[np.isfinite(res.flag_times)].min()
        assert (res.flag_times[np.isfinite(res.flag_times)] == first).all()

    def test_grid_modes(self):
        job = _oracle_job()
        for grid in ("log", "time", "quantile"):
            sim = ReplaySimulator(n_checkpoints=6, grid=grid, random_state=0)
            g = sim.checkpoint_grid(job)
            assert g.shape == (7,)
            assert (np.diff(g) >= 0).all()

    def test_log_grid_spans_warmup_to_end(self):
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=6, warmup_fraction=0.04, random_state=0)
        g = sim.checkpoint_grid(job)
        comp = job.completion_times
        assert g[0] == pytest.approx(np.quantile(comp, 0.04))
        assert g[-1] == pytest.approx(0.98 * comp.max())

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ReplaySimulator(n_checkpoints=0)
        with pytest.raises(ValueError):
            ReplaySimulator(warmup_fraction=0.0)
        with pytest.raises(ValueError):
            ReplaySimulator(straggler_percentile=100.0)
        with pytest.raises(ValueError):
            ReplaySimulator(feature_noise=-0.1)
        with pytest.raises(ValueError):
            ReplaySimulator(grid="daily")

    def test_observed_features_converge_with_progress(self):
        job = _oracle_job()
        sim = ReplaySimulator(feature_noise=0.2, random_state=0)
        noise = np.random.default_rng(0).normal(size=job.features.shape)
        early = sim.observed_features(job, 1e-6, noise)
        late = sim.observed_features(job, 1e9, noise)
        np.testing.assert_allclose(late, job.features)
        assert np.abs(early - job.features).sum() > 0

    def test_custom_tau_stra(self):
        job = _oracle_job()
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        res = sim.run(job, NeverRule(), tau_stra=123.0)
        assert res.tau_stra == 123.0
        np.testing.assert_array_equal(res.y_true, job.latencies >= 123.0)

    def test_streaming_f1_shape_and_final_value(self):
        job = _oracle_job()
        tau = job.straggler_threshold()
        sim = ReplaySimulator(n_checkpoints=10, feature_noise=0.0, random_state=0)
        res = sim.run(job, OracleRule(job.latencies, tau))
        curve = res.streaming_f1(10)
        assert curve.shape == (10,)
        assert curve[-1] == pytest.approx(res.f1)
        assert (np.diff(curve) >= -1e-12).all()  # cumulative flags: monotone


class TestMachinePool:
    def test_acquire_order(self):
        pool = MachinePool(initial_spares=1)
        pool.release(5.0)
        assert pool.acquire(0.0) == 0.0
        assert pool.acquire(0.0) == 5.0
        assert pool.acquire(0.0) is None

    def test_acquire_not_before(self):
        pool = MachinePool(initial_spares=1)
        assert pool.acquire(3.0) == 3.0

    def test_negative_spares(self):
        with pytest.raises(ValueError):
            MachinePool(initial_spares=-1)

    def test_len_and_peek(self):
        pool = MachinePool(initial_spares=2)
        assert len(pool) == 2
        assert pool.peek() == 0.0
