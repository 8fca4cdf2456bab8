"""Replay parity: every production replay path equals the reference loop.

``tests/replay_reference.py`` holds the self-contained batch replay loop,
which regenerates the full noise-perturbed observation matrix at every
checkpoint. The production paths all step one :class:`ReplayStream` per
job — ``ReplaySimulator.run``, the unbudgeted ``ScoringEngine.run_job`` and
the async ``ScorerService`` — and each must reproduce the reference
**bit-for-bit** (same RNG consumption, same arithmetic per task row) on
both synthetic trace families, several methods, every grid mode, and the
duplicate-task, zero-noise, staggered-start and all-finish-at-warmup jobs.
"""

import asyncio

import numpy as np
import pytest
from replay_reference import reference_run

from repro.core.nurd import NurdNcPredictor, NurdPredictor
from repro.eval.baselines import build_predictor
from repro.serving import ScorerService, ScoringEngine, ServiceConfig
from repro.sim.replay import ReplaySimulator
from repro.traces.schema import Job


def assert_replay_equal(expected, got):
    """Field-for-field bitwise equality of two ReplayResults."""
    assert expected.job_id == got.job_id
    assert expected.tau_stra == got.tau_stra
    np.testing.assert_array_equal(expected.y_true, got.y_true)
    np.testing.assert_array_equal(expected.y_flag, got.y_flag)
    np.testing.assert_array_equal(expected.flag_times, got.flag_times)
    np.testing.assert_array_equal(expected.checkpoints, got.checkpoints)
    np.testing.assert_array_equal(expected.latencies, got.latencies)
    np.testing.assert_array_equal(expected.start_times, got.start_times)


class SeqFactory:
    """Zero-argument predictor factory for the serving layer: call ``k``
    builds ``make_predictor(k)``. The engine and service build one
    predictor per registered job, so registering jobs in order gives job
    ``i`` the predictor ``make_predictor(i)``."""

    def __init__(self, make_predictor):
        self.make_predictor = make_predictor
        self.calls = 0

    def __call__(self):
        pred = self.make_predictor(self.calls)
        self.calls += 1
        return pred


def serve(sim, jobs, make_predictor):
    """Replay ``jobs`` through a 2-shard ScorerService; ``replay_trace``
    registers them in order."""

    async def run():
        svc = ScorerService(
            SeqFactory(make_predictor),
            simulator=sim,
            config=ServiceConfig(n_workers=2, queue_depth=8),
        )
        await svc.start()
        results = await svc.replay_trace(trace=jobs)
        await svc.stop()
        return results

    return asyncio.run(run())


def assert_paths_match_reference(sim, jobs, make_predictor):
    """``run``, the unbudgeted engine and the service all equal the
    reference on every job; job ``i`` of each path gets
    ``make_predictor(i)``. Returns the reference results."""
    jobs = list(jobs)
    expected = [reference_run(sim, j, make_predictor(i)) for i, j in enumerate(jobs)]
    engine = ScoringEngine(SeqFactory(make_predictor), simulator=sim)
    paths = {
        "run": [sim.run(j, make_predictor(i)) for i, j in enumerate(jobs)],
        "engine": [engine.run_job(j) for j in jobs],
        "service": serve(sim, jobs, make_predictor),
    }
    for name, results in paths.items():
        assert len(results) == len(expected), name
        for exp, got in zip(expected, results):
            assert_replay_equal(exp, got)
    return expected


def nurd(seed=0):
    """Predictor factory: NURD seeded ``seed + job index``."""
    return lambda i: NurdPredictor(random_state=seed + i)


class TestNurdFlagParity:
    """NURD flags bit-identical across both synthetic trace families."""

    @pytest.mark.parametrize("family", ["google", "alibaba"])
    def test_flags_bit_identical(self, family, google_trace, alibaba_trace):
        trace = google_trace if family == "google" else alibaba_trace
        sim = ReplaySimulator(n_checkpoints=8, random_state=0)
        assert_paths_match_reference(sim, trace, nurd())

    def test_flags_bit_identical_nurd_nc(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=6, random_state=3)
        assert_paths_match_reference(
            sim, google_trace[:1], lambda i: NurdNcPredictor(random_state=0)
        )

    @pytest.mark.parametrize("method", ["GBTR", "KNN", "IFOREST"])
    def test_baseline_methods_parity(self, method, google_trace):
        """The stream is predictor-agnostic: baselines replay identically."""
        sim = ReplaySimulator(n_checkpoints=6, random_state=1)
        assert_paths_match_reference(
            sim,
            google_trace[:1],
            lambda i: build_predictor(method, contamination=0.1, random_state=0),
        )

    @pytest.mark.parametrize("grid", ["log", "time", "quantile"])
    def test_parity_across_grid_modes(self, grid, alibaba_trace):
        sim = ReplaySimulator(n_checkpoints=6, grid=grid, random_state=5)
        assert_paths_match_reference(sim, [alibaba_trace[1]], nurd(seed=2))


class TestObservedFeatureParity:
    def test_observed_matrix_bitwise_every_checkpoint(self, google_trace):
        """The plan's noise is the reference draw — first normal draw from
        the simulator seed, full feature shape — so its observed matrix
        equals the reference recomputation at every checkpoint."""
        job = google_trace[0]
        sim = ReplaySimulator(n_checkpoints=12, random_state=9)
        rng = np.random.default_rng(sim.random_state)
        noise = rng.normal(0.0, 1.0, size=job.features.shape)
        plan = sim.plan(job)
        for tau in plan.grid:
            expected = sim.observed_features(job, float(tau), noise)
            np.testing.assert_array_equal(plan.observed(tau), expected)
        assert not np.array_equal(plan.observed(plan.warmup_time), job.features)


class TestEdgeCaseParity:
    def _job_with(self, features, latencies, starts=None, job_id="edge"):
        names = [f"f{i}" for i in range(features.shape[1])]
        return Job(job_id, features, latencies, names, starts)

    def test_duplicate_tasks(self):
        """Duplicated rows (identical features AND latencies) replay
        identically down every path."""
        rng = np.random.default_rng(0)
        X = rng.random((40, 4)) + 0.1
        y = rng.lognormal(0.0, 0.8, 40) + 0.1
        X = np.vstack([X, X[:10]])
        y = np.concatenate([y, y[:10]])
        job = self._job_with(X, y, job_id="dup")
        sim = ReplaySimulator(n_checkpoints=8, random_state=2)
        assert_paths_match_reference(sim, [job], nurd())

    def test_zero_noise(self, google_trace):
        job = google_trace[1]
        sim = ReplaySimulator(n_checkpoints=8, feature_noise=0.0, random_state=0)
        assert_paths_match_reference(sim, [job], nurd(seed=1))
        # With noise disabled the plan serves the exact feature matrix.
        plan = sim.plan(job)
        for tau in plan.grid:
            assert plan.observed(tau) is job.features

    def test_staggered_starts(self):
        rng = np.random.default_rng(4)
        n = 60
        y = rng.lognormal(0.0, 1.0, n) + 0.1
        X = np.column_stack([y * (1 + 0.1 * rng.random(n)), rng.random(n)])
        starts = rng.uniform(0.0, 0.5 * y.max(), n)
        job = self._job_with(X, y, starts, job_id="staggered")
        sim = ReplaySimulator(n_checkpoints=10, random_state=7)
        assert_paths_match_reference(sim, [job], nurd(seed=3))

    def test_all_tasks_finish_at_warmup(self):
        """Degenerate job: everything completes by the warmup instant, so no
        checkpoint ever has running tasks and no flag is issued; the F1
        accessors must stay well-defined."""
        y = np.full(20, 5.0)
        X = np.column_stack([y, np.ones(20)])
        job = self._job_with(X, y, job_id="all-at-warmup")
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        (res,) = assert_paths_match_reference(sim, [job], nurd())
        assert not res.y_flag.any()
        assert np.isinf(res.flag_times).all()
        assert res.f1 == 0.0
        assert res.f1_at_time(0.0) == 0.0
        assert res.f1_at_time(np.inf) == 0.0
        curve = res.streaming_f1(6)
        assert curve.shape == (6,)
        np.testing.assert_array_equal(curve, np.zeros(6))

    def test_stream_rejects_backward_checkpoints(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=5, random_state=0)
        stream = sim.stream(google_trace[0], NurdPredictor(random_state=0))
        stream.step(stream.checkpoints[1])
        with pytest.raises(ValueError, match="strictly increasing"):
            stream.step(stream.checkpoints[0])


class TestServingLayerParity:
    """Engine and async service step the same stream: unbudgeted, they
    equal the reference job by job, with several jobs in flight."""

    def test_engine_unbudgeted_matches_batch(self, alibaba_trace):
        sim = ReplaySimulator(n_checkpoints=8, random_state=0)
        make = nurd()
        engine = ScoringEngine(SeqFactory(make), simulator=sim)
        grids = [engine.checkpoint_grid(engine.begin_job(j)) for j in alibaba_trace]
        # Interleave the jobs checkpoint by checkpoint.
        for k in range(sim.n_checkpoints):
            for job, grid in zip(alibaba_trace, grids):
                engine.score_checkpoint(job.job_id, grid[k])
        for i, job in enumerate(alibaba_trace):
            expected = reference_run(sim, job, make(i))
            assert_replay_equal(expected, engine.finish_job(job.job_id))

    def test_service_matches_batch(self, google_trace):
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        make = nurd()
        results = serve(sim, google_trace, make)
        for i, job in enumerate(google_trace):
            assert_replay_equal(reference_run(sim, job, make(i)), results[i])


class TestWarmPropensityEquivalence:
    """Warm propensity continuation converges to the scratch-fit optimum
    (strictly convex loss) — weights agree tightly when the solver
    converges, and continuation takes fewer Newton iterations."""

    def test_same_optimum_fewer_iterations(self):
        from repro.core.propensity import PropensityScorer

        rng = np.random.default_rng(0)
        X_fin = rng.normal(0.0, 1.0, size=(80, 5))
        X_run = rng.normal(0.8, 1.0, size=(60, 5))
        cold = PropensityScorer(warm_start=False).fit(X_fin, X_run)
        warm = PropensityScorer(warm_start=True).fit(X_fin, X_run)
        # Drift the split by a handful of rows, as one checkpoint does.
        X_fin2 = np.vstack([X_fin, X_run[:5]])
        X_run2 = X_run[5:]
        cold2 = PropensityScorer(warm_start=False).fit(X_fin2, X_run2)
        warm.fit(X_fin2, X_run2)
        assert cold2.model_.n_iter_ < cold2.model_.max_iter  # converged
        assert warm.model_.n_iter_ < cold2.model_.n_iter_
        grid = rng.normal(0.0, 1.2, size=(50, 5))
        np.testing.assert_allclose(warm.score(grid), cold2.score(grid), atol=1e-5)
        assert cold.model_.n_iter_ > 0

    def test_partial_update_refreshes_propensity_only(self, google_trace):
        job = google_trace[0]
        sim = ReplaySimulator(n_checkpoints=6, random_state=0)
        pred = NurdPredictor(random_state=0)
        stream = sim.stream(job, pred)
        taus = list(stream.checkpoints)
        stream.step(taus[0])
        h_before, g_before = pred.h_, pred.g_
        # Drive the next checkpoint through the partial tier directly.
        completion = job.completion_times
        tau = taus[1]
        finished = completion <= tau
        running = (job.start_times <= tau) & ~finished & ~stream.flagged
        pred.partial_update(
            job.features[finished],
            job.latencies[finished],
            stream.plan.observed(tau)[running],
        )
        assert pred.h_ is h_before  # regressor untouched (cached)
        assert pred.g_ is not g_before  # propensity refreshed
