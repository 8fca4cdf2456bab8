"""Open-loop serving workload.

A generator coroutine in the service's own event loop sends each scheduled
request when it falls due, whether or not earlier ones have been answered,
so a slow checkpoint makes later ones wait in the shard queues. Each
checkpoint's latency runs from the instant it was due to the instant the
service emitted its ``ScoreEvent``; a checkpoint that is rejected or never
emitted counts as failed and as a goodput miss.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.eval import build_predictor
from repro.serving import (
    BeginJob,
    ScoreCheckpoint,
    ScorerService,
    ScoringEngine,
    ServiceConfig,
)
from repro.sim import ClosedLoopSimulator, MitigationConfig

from perfbench.layers import TARGETS, CacheCounter, layer_metrics
from perfbench.tracer import Tracer
from perfbench.workloads import Inputs, Workload, config_for

#: Every serving job scores with the same predictor seed, so any job's
#: flags can be re-derived by batch replay.
PREDICTOR_SEED = 0


def predictor_factory(workload: Workload):
    family, method = workload.families[0], workload.methods[0]
    cfg = config_for(family)
    return lambda: build_predictor(
        method,
        contamination=cfg.contamination,
        random_state=PREDICTOR_SEED,
        alpha=cfg.alpha,
        eps=cfg.eps,
    )


@dataclass
class ServeRun:
    t0: float = 0.0
    #: (job_id, seq) -> due instant of every checkpoint sent.
    due: Dict[Tuple[str, int], float] = field(default_factory=dict)
    #: (job_id, seq) -> emit instants (more than one means a duplicate).
    emitted: Dict[Tuple[str, int], List[float]] = field(default_factory=dict)
    engine_s: Dict[Tuple[str, int], float] = field(default_factory=dict)
    modes: Dict[str, int] = field(default_factory=dict)
    late_s: List[float] = field(default_factory=list)
    backlog_max: int = 0
    requests: int = 0
    jobs_sent: List[str] = field(default_factory=list)
    results: Dict[str, object] = field(default_factory=dict)
    dlq: int = 0
    restarts: int = 0
    shard_failures: int = 0
    wall_s: float = 0.0
    layers: Optional[Dict[str, float]] = None
    tracer: Optional[Tracer] = None
    parity: bool = False
    overhead_frac: float = 0.0


async def _open_loop(workload: Workload, inputs: Inputs, out: ServeRun) -> None:
    family = workload.families[0]

    def sink(event) -> None:
        key = (event.job_id, event.seq)
        out.emitted.setdefault(key, []).append(time.perf_counter())
        out.engine_s[key] = event.latency_s
        out.modes[event.update_mode] = out.modes.get(event.update_mode, 0) + 1

    service = ScorerService(
        predictor_factory(workload),
        simulator=config_for(family).make_simulator(),
        config=ServiceConfig(n_workers=workload.shards, budget=None),
        emit=sink,
    )
    await service.start()
    seq: Dict[str, int] = {}
    out.t0 = time.perf_counter() + 0.05
    sent = 0
    for due_offset, request in inputs.schedule:
        due = out.t0 + due_offset
        wait = due - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        out.late_s.append(max(0.0, time.perf_counter() - due))
        if isinstance(request, ScoreCheckpoint):
            k = seq.get(request.job_id, 0)
            seq[request.job_id] = k + 1
            out.due[(request.job_id, k)] = due
            sent += 1
        elif isinstance(request, BeginJob):
            out.jobs_sent.append(request.job.job_id)
        await service.submit(request)
        out.requests += 1
        out.backlog_max = max(out.backlog_max, sent - len(out.emitted))
    await service.stop(raise_on_failure=False)
    out.wall_s = max((t[-1] for t in out.emitted.values()), default=out.t0) - out.t0
    out.results = dict(service.results)
    out.dlq = service.dlq.total
    out.restarts = service.restarts
    out.shard_failures = len(service.failures)


def warm_up(workload: Workload, inputs: Inputs) -> None:
    """Score one job end to end on a private engine, untimed."""
    family = workload.families[0]
    engine = ScoringEngine(
        predictor_factory(workload), simulator=config_for(family).make_simulator()
    )
    engine.run_job(inputs.stores[family].job(0))


def replay_parity(
    workload: Workload, inputs: Inputs, out: ServeRun, n: int = 3
) -> Tuple[bool, float, float]:
    """Batch-replay ``n`` served jobs; flags must match the service's.

    Returns (parity, untraced seconds, traced seconds): the sample is
    replayed once bare and once under the tracer, which measures tracing
    overhead on the same NURD update path the service runs.
    """
    family = workload.families[0]
    store = inputs.stores[family]
    sim = config_for(family).make_simulator()
    factory = predictor_factory(workload)
    step = max(1, store.n_jobs // n)
    jobs = [store.job(i) for i in range(0, store.n_jobs, step)][:n]
    ok = True
    t0 = time.perf_counter()
    batch = [sim.run(job, factory()) for job in jobs]
    bare = time.perf_counter() - t0
    with Tracer().installed(TARGETS):
        t0 = time.perf_counter()
        traced = [sim.run(job, factory()) for job in jobs]
        traced_s = time.perf_counter() - t0
    for job, ref, again in zip(jobs, batch, traced):
        served = out.results.get(job.job_id)
        for r in (ref, again):
            ok = ok and served is not None and (
                np.array_equal(served.y_flag, r.y_flag)
                and np.array_equal(served.flag_times, r.flag_times)
            )
    return ok, bare, traced_s


def run(workload: Workload, inputs: Inputs, traced: bool) -> ServeRun:
    warm_up(workload, inputs)
    out = ServeRun()
    cache = CacheCounter()
    if not traced:
        asyncio.run(_open_loop(workload, inputs, out))
    else:
        out.tracer = Tracer()
        with out.tracer.installed(TARGETS):
            asyncio.run(_open_loop(workload, inputs, out))
        out.layers = layer_metrics(out.tracer, cache.delta())
    out.parity, bare, traced_s = replay_parity(workload, inputs, out)
    out.overhead_frac = traced_s / bare - 1.0
    return out


def attempted_failed(out: ServeRun) -> Tuple[int, int]:
    """(attempted, failed) over every request sent.

    A checkpoint succeeds when its event was emitted exactly once; a job's
    ``BeginJob`` and ``FinishJob`` succeed when the job's result exists.
    """
    failed = sum(len(out.emitted.get(key, ())) != 1 for key in out.due)
    failed += 2 * sum(job_id not in out.results for job_id in out.jobs_sent)
    return out.requests, failed


def _latencies_ms(out: ServeRun) -> List[float]:
    return [
        1000.0 * (times[0] - out.due[key])
        for key, times in out.emitted.items()
        if key in out.due
    ]


def end_to_end(workload: Workload, out: ServeRun) -> Dict[str, float]:
    lat = _latencies_ms(out)
    results = [out.results[j] for j in out.jobs_sent if j in out.results]
    closed = ClosedLoopSimulator(MitigationConfig(policy="speculative"))
    return {
        "jobs_per_s": len(results) / out.wall_s,
        "ckpt_per_s": len(out.emitted) / out.wall_s,
        "latency_p50_ms": float(np.percentile(lat, 50)),
        "latency_p95_ms": float(np.percentile(lat, 95)),
        "goodput_frac": sum(t <= workload.latency_limit_ms for t in lat) / len(out.due),
        "f1": float(np.mean([r.f1 for r in results])),
        "jct_reduction_pct": closed.run_many(results).mean_jct_reduction_pct,
    }


def per_layer(out: ServeRun) -> Dict[str, float]:
    layers = dict(out.layers)
    waits = [
        times[0] - out.due[key] - out.engine_s[key]
        for key, times in out.emitted.items()
        if key in out.due
    ]
    late_ms = [1000.0 * t for t in out.late_s]
    layers.update(
        {
            "service.queue_wait_s": float(sum(waits)),
            "service.backlog_max": out.backlog_max,
            "service.dlq": out.dlq,
            "service.restarts": out.restarts,
            "loadgen.late_p50_ms": statistics.median(late_ms),
            "loadgen.late_max_ms": max(late_ms),
            "trace.overhead_frac": out.overhead_frac,
        }
    )
    return layers


def samples(out: ServeRun) -> Dict[str, object]:
    """Sample counts behind the percentiles, and how late the generator ran."""
    late_ms = sorted(1000.0 * t for t in out.late_s)
    return {
        "requests": out.requests,
        "checkpoints_sent": len(out.due),
        "events_emitted": sum(len(t) for t in out.emitted.values()),
        "jobs": len(out.jobs_sent),
        "wall_s": out.wall_s,
        "update_modes": out.modes,
        "loadgen_late_ms": {"p50": statistics.median(late_ms), "max": late_ms[-1]},
        "backlog_max": out.backlog_max,
        "latency_ms": [round(t, 3) for t in _latencies_ms(out)],
        "engine_ms": [
            round(1000.0 * out.engine_s[k], 3) for k in out.emitted if k in out.due
        ],
    }


def checks(out: ServeRun) -> Dict[str, bool]:
    _, failed = attempted_failed(out)
    return {
        "serve_replay_flag_parity": out.parity,
        # Every dead letter is a request that failed, so none may be missing
        # from the failed count; an event for a checkpoint never sent would
        # mean the accounting lost track of a request.
        "dead_letters_counted": failed >= out.dlq,
        "events_match_requests": set(out.emitted) <= set(out.due),
    }
