"""Replay workloads: serial ``evaluate_all`` over chunks of the generated
stores, with each chunk's flags closed through the mitigation loop.

The timed window replays chunks round-robin over the families (wrapping
around the stores) until the next chunk would end past the deadline, and
never less than one cycle over every job. Throughput is the median over
chunks; flag quality comes from the first cycle, which every run replays
whatever the host's speed. The untimed warm-up replays chunk 0 once
before the window, and the window's own replay of chunk 0 must give the
same flag digest (the same-seed double-run check).

The traced run replays each of the first ``TRACED_CHUNKS`` chunks twice,
bare and then traced: per-layer numbers are totals over the traced
replays, the tracing overhead is the median ratio of each pair's wall
times, and each pair must agree on flags (tracing may not change results).
"""

from __future__ import annotations

import hashlib
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.eval import evaluate_all
from repro.learn.neighbors import clear_neighbor_cache
from repro.sim import ClosedLoopSimulator, MitigationConfig

from perfbench.layers import TARGETS, CacheCounter, layer_metrics
from perfbench.tracer import Tracer
from perfbench.workloads import Inputs, Workload, config_for

#: Chunks the traced run replays: two per family, a fixed amount of work
#: so that every counter repeats exactly for a given seed.
TRACED_CHUNKS = 4


@dataclass
class ChunkResult:
    index: int
    wall_s: float
    jobs: int
    failed: int
    steps: int
    job_latency_s: List[float]
    digest: str
    #: method -> per-job F1 and JCT reduction (%) of the chunk's jobs.
    f1: Dict[str, List[float]]
    jct_pct: Dict[str, List[float]]
    #: KD-tree cache builds and hits during the chunk.
    cache: Dict[str, int] = field(default_factory=dict)


@dataclass
class ReplayRun:
    chunks: List[ChunkResult] = field(default_factory=list)
    #: Untraced replays paired with ``chunks`` in a traced run.
    bare: List[ChunkResult] = field(default_factory=list)
    #: Chunks in one pass over every job.
    cycle: int = 0
    repeat_digest: str = ""
    warmup_s: float = 0.0
    #: Spans of every traced replay.
    tracer: Optional[Tracer] = None


def flag_digest(results: Dict[str, object]) -> str:
    """Digest of every replay's job id, flags and flag times."""
    h = hashlib.blake2b(digest_size=16)
    for method, res in results.items():
        h.update(method.encode())
        for r in res.replays:
            h.update(r.job_id.encode())
            h.update(np.asarray(r.y_flag, dtype=bool).tobytes())
            h.update(np.asarray(r.flag_times, dtype=np.float64).tobytes())
    return h.hexdigest()


def chunks_per_family(workload: Workload) -> int:
    return -(-workload.jobs_per_family // workload.chunk)


def cycle(workload: Workload) -> int:
    """Chunks in one pass over every job of every store."""
    return chunks_per_family(workload) * len(workload.families)


def replay_chunk(
    workload: Workload, inputs: Inputs, index: int, tracer: Optional[Tracer] = None
) -> ChunkResult:
    """Replay chunk ``index`` (round-robin over families, wrapping around)."""
    families = workload.families
    family = families[index % len(families)]
    store = inputs.stores[family]
    lo = (index // len(families)) % chunks_per_family(workload) * workload.chunk
    ids = range(lo, min(lo + workload.chunk, store.n_jobs))
    methods = list(workload.methods)
    job_latency: List[float] = []
    last = [0.0]

    def progress(p):
        if p.method == methods[-1]:
            now = time.perf_counter()
            job_latency.append(now - last[0])
            last[0] = now

    clear_neighbor_cache()
    cache = CacheCounter()
    closed = ClosedLoopSimulator(MitigationConfig(policy="speculative"))
    t0 = last[0] = time.perf_counter()
    try:
        jobs = (store.job(i) for i in ids)
        cfg = config_for(family)
        if tracer is None:
            res = evaluate_all(jobs, methods, cfg, n_workers=1, progress=progress)
        else:
            with tracer.span("harness.evaluate"):
                res = evaluate_all(jobs, methods, cfg, n_workers=1, progress=progress)
        jct = {
            m: [o.jct_reduction_pct for o in closed.run_many(res[m].replays).outcomes]
            for m in methods
        }
    except Exception:  # a failed replay is counted, never dropped
        traceback.print_exc()
        res, jct = {}, {}
    wall = time.perf_counter() - t0
    return ChunkResult(
        index=index,
        wall_s=wall,
        jobs=len(ids),
        failed=0 if res else len(ids),
        steps=sum(len(r.checkpoints) for m in res for r in res[m].replays),
        job_latency_s=job_latency if res else [],
        digest=flag_digest(res),
        f1={m: [r.f1 for r in res[m].replays] for m in res},
        jct_pct=jct,
        cache=cache.delta(),
    )


def run(workload: Workload, inputs: Inputs, seconds: float, traced: bool) -> ReplayRun:
    warm = replay_chunk(workload, inputs, 0)
    out = ReplayRun(cycle=cycle(workload), repeat_digest=warm.digest)
    out.warmup_s = warm.wall_s
    if traced:
        out.tracer = Tracer()
        for index in range(TRACED_CHUNKS):
            out.bare.append(replay_chunk(workload, inputs, index))
            with out.tracer.installed(TARGETS):
                out.chunks.append(replay_chunk(workload, inputs, index, out.tracer))
        return out
    t0 = time.perf_counter()
    while True:
        out.chunks.append(replay_chunk(workload, inputs, len(out.chunks)))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(c.wall_s for c in out.chunks)
        if len(out.chunks) >= out.cycle and elapsed + typical > seconds:
            break
    return out


def _quality(chunks: List[ChunkResult], attr: str) -> float:
    """Mean over methods of the per-job mean of ``attr``."""
    per_method: Dict[str, List[float]] = {}
    for c in chunks:
        for m, values in getattr(c, attr).items():
            per_method.setdefault(m, []).extend(values)
    return float(np.mean([np.mean(v) for v in per_method.values()]))


def end_to_end(workload: Workload, run_: ReplayRun) -> Dict[str, float]:
    chunks = run_.chunks
    latencies_ms = [1000.0 * t for c in chunks for t in c.job_latency_s]
    limit = workload.latency_limit_ms
    quality = chunks[: run_.cycle]
    return {
        "jobs_per_s": statistics.median(c.jobs / c.wall_s for c in chunks),
        "ckpt_per_s": statistics.median(c.steps / c.wall_s for c in chunks),
        "latency_p50_ms": float(np.percentile(latencies_ms, 50)),
        "latency_p95_ms": float(np.percentile(latencies_ms, 95)),
        "goodput_frac": sum(t <= limit for t in latencies_ms)
        / sum(c.jobs for c in chunks),
        "f1": _quality(quality, "f1"),
        "jct_reduction_pct": _quality(quality, "jct_pct"),
    }


def per_layer(run_: ReplayRun) -> Dict[str, float]:
    cache: Dict[str, int] = {}
    for c in run_.chunks:
        for name, value in c.cache.items():
            cache[name] = cache.get(name, 0) + value
    out = layer_metrics(run_.tracer, cache)
    ratios = [t.wall_s / b.wall_s for t, b in zip(run_.chunks, run_.bare)]
    out["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return out


def attempted_failed(run_: ReplayRun):
    """(attempted, failed) jobs over every replay the run made."""
    chunks = run_.chunks + run_.bare
    return sum(c.jobs for c in chunks), sum(c.failed for c in chunks)


def samples(run_: ReplayRun) -> Dict[str, object]:
    """Sample counts and raw chunk times behind the medians, plus the exact
    counts of the first cycle (they repeat for a given seed)."""
    first = run_.chunks[: run_.cycle]
    counts = {"replay.checkpoints": sum(c.steps for c in first)}
    for name in ("neighbors.tree_builds", "neighbors.tree_hits"):
        counts[name] = sum(c.cache[name] for c in first)
    return {
        "exact_counts": counts,
        "chunks": len(run_.chunks),
        "chunk_wall_s": [c.wall_s for c in run_.chunks],
        "bare_chunk_wall_s": [c.wall_s for c in run_.bare],
        "job_latency_samples": sum(len(c.job_latency_s) for c in run_.chunks),
        "job_latency_ms": [
            round(1000.0 * t, 3) for c in run_.chunks for t in c.job_latency_s
        ],
        "warmup_s": run_.warmup_s,
    }


def checks(run_: ReplayRun) -> Dict[str, bool]:
    replays = run_.chunks + run_.bare
    digests: Dict[int, set] = {}
    for c in replays:
        digests.setdefault(c.index, set()).add(c.digest)
    digests[0].add(run_.repeat_digest)
    return {
        # Every replay of one chunk, repeated or traced, flags identically.
        "same_seed_flag_digests": all(len(d) == 1 for d in digests.values()),
        "every_job_replayed": all(
            len(c.job_latency_s) + c.failed == c.jobs for c in replays
        ),
    }
