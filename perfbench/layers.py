"""The traced entry points of each layer and the per-layer metrics derived
from their spans.

Every target is a public method reached through its class attribute, so
patching the class catches every call the program makes. Counters that
must repeat exactly for a seed (trees grown, updates, checkpoints, update
modes, KD-tree builds and hits) are recorded beside the timings.
"""

from __future__ import annotations

from typing import Dict

from repro.core import NurdPredictor, PropensityScorer
from repro.learn import GradientBoostingRegressor
from repro.learn.neighbors import NearestNeighbors, get_neighbor_cache
from repro.outliers import ALL_DETECTORS, BaseDetector
from repro.serving import ScoringEngine
from repro.sim import ClosedLoopSimulator, ReplaySimulator
from repro.traces.io import TraceStore

from perfbench.tracer import Tracer, summarize, total
from perfbench.workloads import DETECTORS

_DETECTOR_NAME = {cls: name for name, cls in ALL_DETECTORS.items()}


def _detector_span(op: str):
    return lambda args: f"detector.{_DETECTOR_NAME.get(type(args[0]), 'other')}.{op}"


def _gbm_before(tracer: Tracer, args) -> int:
    # A warm-started fit keeps the trees it already has; any other fit
    # starts over, so every tree in ``estimators_`` afterwards is new.
    est = args[0]
    kept = getattr(est, "estimators_", None) if est.warm_start else None
    return len(kept) if kept else 0


def _gbm_after(tracer: Tracer, sid, args, out, kept: int) -> None:
    tracer.counts["gbm.trees_grown"] += len(args[0].estimators_) - kept


def _plan_before(tracer: Tracer, args) -> None:
    tracer.request = args[1].job_id


def _plan_after(tracer: Tracer, sid, args, plan, state) -> None:
    tracer.counts["replay.checkpoints"] += len(plan.checkpoints)


def _mitigation_after(tracer: Tracer, sid, args, outcome, state) -> None:
    tracer.counts["mitigation.actions"] += outcome.n_actions


def _engine_before(tracer: Tracer, args) -> None:
    tracer.request = (args[1], None)


def _engine_after(tracer: Tracer, sid, args, event, state) -> None:
    tracer.relabel(sid, (event.job_id, event.seq))
    tracer.request = None
    tracer.counts["replay.checkpoints"] += 1
    tracer.counts[f"engine.mode.{event.update_mode}"] += 1


TARGETS = (
    (TraceStore, "job", "traces.load"),
    (ReplaySimulator, "plan", "replay.plan", _plan_before, _plan_after),
    (ReplaySimulator, "observed_features", "replay.observed"),
    (NurdPredictor, "begin_job", "nurd.begin_job"),
    (NurdPredictor, "update", "nurd.update"),
    (NurdPredictor, "partial_update", "nurd.partial_update"),
    (NurdPredictor, "predict_stragglers", "nurd.predict"),
    (GradientBoostingRegressor, "fit", "gbm.fit", _gbm_before, _gbm_after),
    (GradientBoostingRegressor, "predict", "gbm.predict"),
    (PropensityScorer, "fit", "propensity.fit"),
    (PropensityScorer, "score", "propensity.score"),
    (BaseDetector, "fit", _detector_span("fit")),
    (BaseDetector, "decision_function", _detector_span("score")),
    (NearestNeighbors, "kneighbors", "neighbors.query"),
    (ClosedLoopSimulator, "run", "mitigation.run", None, _mitigation_after),
    (
        ScoringEngine,
        "score_checkpoint",
        "engine.score_checkpoint",
        _engine_before,
        _engine_after,
    ),
)

#: Counters that must repeat exactly for a given seed.
EXACT_COUNTS = (
    "gbm.fits",
    "gbm.trees_grown",
    "propensity.fits",
    "nurd.updates",
    "neighbors.queries",
    "neighbors.tree_builds",
    "neighbors.tree_hits",
    "replay.checkpoints",
    "traces.jobs_loaded",
    "mitigation.actions",
    "engine.mode.full",
    "engine.mode.partial",
    "engine.mode.cached",
)

#: name -> unit of every per-layer metric, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "gbm.fit_s": "s",
    "gbm.fits": "count",
    "gbm.trees_grown": "count",
    "gbm.predict_s": "s",
    "propensity.fit_s": "s",
    "propensity.fits": "count",
    "propensity.score_s": "s",
    "nurd.update_s": "s",
    "nurd.updates": "count",
    "nurd.predict_s": "s",
    "nurd.begin_job_s": "s",
    "detector.fit_s": "s",
    "detector.score_s": "s",
    **{f"detector.{d}.{op}_s": "s" for d in DETECTORS for op in ("fit", "score")},
    "neighbors.query_s": "s",
    "neighbors.queries": "count",
    "neighbors.tree_builds": "count",
    "neighbors.tree_hits": "count",
    "neighbors.hit_ratio": "ratio",
    "replay.plan_s": "s",
    "replay.observed_s": "s",
    "replay.checkpoints": "count",
    "traces.load_s": "s",
    "traces.jobs_loaded": "count",
    "mitigation.run_s": "s",
    "mitigation.actions": "count",
    "engine.score_checkpoint_s": "s",
    "engine.mode.full": "count",
    "engine.mode.partial": "count",
    "engine.mode.cached": "count",
    "service.queue_wait_s": "s",
    "service.backlog_max": "count",
    "service.dlq": "count",
    "service.restarts": "count",
    "loadgen.late_p50_ms": "ms",
    "loadgen.late_max_ms": "ms",
    "harness.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


class CacheCounter:
    """KD-tree cache builds and hits since construction."""

    def __init__(self):
        cache = get_neighbor_cache()
        self._start = (cache.tree_builds, cache.tree_hits) if cache else (0, 0)

    def delta(self) -> Dict[str, int]:
        cache = get_neighbor_cache()
        if cache is None:
            return {"neighbors.tree_builds": 0, "neighbors.tree_hits": 0}
        return {
            "neighbors.tree_builds": cache.tree_builds - self._start[0],
            "neighbors.tree_hits": cache.tree_hits - self._start[1],
        }


def layer_metrics(tracer: Tracer, cache_delta: Dict[str, int]) -> Dict[str, float]:
    """Per-layer times and counts of one traced unit of work."""
    s = summarize(tracer.spans)
    inc, cnt = s["inclusive"], s["count"]
    c = tracer.counts
    out: Dict[str, float] = {
        "gbm.fit_s": inc.get("gbm.fit", 0.0),
        "gbm.fits": cnt.get("gbm.fit", 0),
        "gbm.trees_grown": c["gbm.trees_grown"],
        "gbm.predict_s": inc.get("gbm.predict", 0.0),
        "propensity.fit_s": inc.get("propensity.fit", 0.0),
        "propensity.fits": cnt.get("propensity.fit", 0),
        "propensity.score_s": inc.get("propensity.score", 0.0),
        "nurd.update_s": s["self"].get("nurd.update", 0.0)
        + s["self"].get("nurd.partial_update", 0.0),
        "nurd.updates": cnt.get("nurd.update", 0) + cnt.get("nurd.partial_update", 0),
        "nurd.predict_s": inc.get("nurd.predict", 0.0),
        "nurd.begin_job_s": inc.get("nurd.begin_job", 0.0),
        "detector.fit_s": total(s, "inclusive", "detector.", ".fit"),
        "detector.score_s": total(s, "inclusive", "detector.", ".score"),
        "neighbors.query_s": inc.get("neighbors.query", 0.0),
        "neighbors.queries": cnt.get("neighbors.query", 0),
        "replay.plan_s": inc.get("replay.plan", 0.0),
        "replay.observed_s": inc.get("replay.observed", 0.0),
        "replay.checkpoints": c["replay.checkpoints"],
        "traces.load_s": inc.get("traces.load", 0.0),
        "traces.jobs_loaded": cnt.get("traces.load", 0),
        "mitigation.run_s": inc.get("mitigation.run", 0.0),
        "mitigation.actions": c["mitigation.actions"],
        "engine.score_checkpoint_s": inc.get("engine.score_checkpoint", 0.0),
        "engine.mode.full": c["engine.mode.full"],
        "engine.mode.partial": c["engine.mode.partial"],
        "engine.mode.cached": c["engine.mode.cached"],
        "harness.self_s": s["self"].get("harness.evaluate", 0.0),
        "trace.spans": len(tracer.spans),
    }
    for d in DETECTORS:
        for op in ("fit", "score"):
            out[f"detector.{d}.{op}_s"] = inc.get(f"detector.{d}.{op}", 0.0)
    out.update(cache_delta)
    looked_up = out["neighbors.tree_builds"] + out["neighbors.tree_hits"]
    out["neighbors.hit_ratio"] = (
        out["neighbors.tree_hits"] / looked_up if looked_up else 0.0
    )
    return out
