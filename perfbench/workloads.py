"""Named workload specs and the generator that turns a spec and a seed into
the program's inputs.

The split follows the usual workload / request-generator shape: a
:class:`Workload` is a frozen, named description (family mix, job count,
task range, arrival rate, checkpoint interval, latency limit) and
:func:`generate` is the only place a seed is consumed. The program under
test never sees the seed; it receives one columnar ``TraceStore`` file per
trace family and, for the serving workload, an arrival schedule of
``BeginJob`` / ``ScoreCheckpoint`` / ``FinishJob`` requests.

Two job properties are stratified rather than drawn independently, so
that a run's totals depend little on the seed while every job's content
still changes with it. Sizes: each consecutive block of ``chunk`` jobs
takes one draw from each equal-width stratum of the task range, so every
block a run times carries about the same number of tasks. Latency
families (heavy-tailed, compact, bimodal): each store holds them in the
generator's own proportions, rounded, because the family largely decides
both how much mitigation can save and how long a refit takes.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.eval import METHOD_GROUPS, EvaluationConfig
from repro.serving import BeginJob, FinishJob, ScoreCheckpoint
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.generator import LATENCY_FAMILIES, sample_job_profile
from repro.traces.google import GoogleTraceGenerator
from repro.traces.io import TraceStore, save_trace_npz

#: Trace family -> (generator class, NURD's tuned calibration alpha).
FAMILIES = {
    "google": (GoogleTraceGenerator, 0.5),
    "alibaba": (AlibabaTraceGenerator, 0.35),
}

#: Share of each latency family in ``sample_job_profile``'s draw.
LATENCY_MIX = (0.45, 0.35, 0.2)

#: The unsupervised half of the paper's outlier baselines (XGBOD boosts
#: trees, so it would put GBM work into the detector workload).
DETECTORS: Tuple[str, ...] = tuple(
    m for m in METHOD_GROUPS["Outlier detection"] if m != "XGBOD"
)


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload.

    ``families`` lists the trace families replayed (each gets its own
    store and its tuned alpha). Replay workloads store ``jobs_per_family``
    jobs per family and time them ``chunk`` jobs at a time, cycling over
    the families. The serving workload instead sizes its job count from
    the run length and ``arrival_rate`` (jobs/s), with a checkpoint due
    about every ``checkpoint_interval`` seconds per job.
    ``latency_limit_ms`` is the goodput limit: per job for replay, per
    checkpoint for serving.
    """

    name: str
    why: str
    kind: str  # "replay" | "serve"
    families: Tuple[str, ...]
    task_range: Tuple[int, int]
    methods: Tuple[str, ...]
    latency_limit_ms: float
    jobs_per_family: int = 0
    chunk: int = 1
    arrival_rate: float = 0.0
    checkpoint_interval: float = 0.0
    shards: int = 2


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="replay_nurd",
            why=(
                "NURD replayed serially at paper job sizes with its flags "
                "closed through the mitigation loop; the GBM refit dominates"
            ),
            kind="replay",
            families=("google", "alibaba"),
            task_range=(100, 400),
            methods=("NURD",),
            latency_limit_ms=2000.0,
            # Every run replays all jobs once for its quality metrics, so
            # the set must fit in the timed window on a slow host (2.3
            # jobs/s seen on 2 CPUs) or the run outgrows its time budget.
            jobs_per_family=36,
            chunk=4,
        ),
        Workload(
            name="replay_detectors",
            why=(
                "the 13 unsupervised outlier detectors on the same families: "
                "loads detectors and the KD-tree cache while the GBM is idle"
            ),
            kind="replay",
            families=("google", "alibaba"),
            # Smaller jobs than NURD's, so that a run sees enough distinct
            # jobs for its mitigation result to settle: a job's JCT
            # reduction varies by about its own mean from job to job.
            task_range=(100, 200),
            methods=DETECTORS,
            latency_limit_ms=8000.0,
            # Sized like replay_nurd's set: 1.45 jobs/s on a slow host.
            jobs_per_family=24,
            chunk=2,
        ),
        Workload(
            name="serve_open",
            why=(
                "open-loop Poisson job arrivals scored by the 2-shard async "
                "service at a third of its serial capacity; latency-bound"
            ),
            kind="serve",
            families=("google",),
            task_range=(100, 400),
            methods=("NURD",),
            latency_limit_ms=250.0,
            arrival_rate=0.85,
            checkpoint_interval=0.5,
        ),
    )
}


@dataclass
class Inputs:
    """What one set-up produced: open stores plus the serving schedule."""

    stores: Dict[str, TraceStore]
    #: ``(due offset in seconds, request)``, sorted by due time.
    schedule: List[Tuple[float, object]]

    def digest(self) -> str:
        """Content digest of every generated job and scheduled request."""
        h = hashlib.blake2b(digest_size=16)
        for family, store in self.stores.items():
            h.update(family.encode())
            for job in store.iter_jobs():
                h.update(job.job_id.encode())
                for arr in (job.features, job.latencies, job.start_times):
                    h.update(np.ascontiguousarray(arr).tobytes())
        for due, req in self.schedule:
            h.update(f"{due!r}:{type(req).__name__}:".encode())
            h.update(repr(getattr(req, "tau", "")).encode())
        return h.hexdigest()

    def close(self) -> None:
        for store in self.stores.values():
            store.close()


def config_for(family: str) -> EvaluationConfig:
    """The evaluation config (simulator and NURD alpha) of one family."""
    return EvaluationConfig(alpha=FAMILIES[family][1])


def job_sizes(n: int, block: int, task_range: Tuple[int, int], rng) -> np.ndarray:
    """``n`` job sizes; each block of ``block`` jobs has one uniform draw
    per equal stratum of the range, in shuffled order."""
    lo, hi = task_range
    sizes = []
    for start in range(0, n, block):
        m = min(block, n - start)
        edges = lo + (hi - lo) * (np.arange(m) + rng.random(m)) / m
        sizes.append(rng.permutation(np.rint(edges).astype(int)))
    return np.concatenate(sizes)


def latency_families(n: int, rng) -> np.ndarray:
    """``n`` latency families in ``LATENCY_MIX`` proportions (largest
    remainder rounding), in shuffled order."""
    quota = n * np.asarray(LATENCY_MIX)
    counts = np.floor(quota).astype(int)
    counts[np.argsort(counts - quota)[: n - counts.sum()]] += 1
    return rng.permutation(np.repeat(LATENCY_FAMILIES, counts))


def job_profile(latency_family: str, rng) -> dict:
    """A generator job profile drawn conditionally on its latency family."""
    while True:
        profile = sample_job_profile(rng)
        if profile["family"] == latency_family:
            return profile


def serve_job_count(workload: Workload, seconds: float) -> int:
    """Jobs in the serving schedule: arrivals fill the run minus the
    longest checkpoint span, so the last job's checkpoints fall inside it."""
    span = 11 * 1.2 * workload.checkpoint_interval
    return max(2, int(round(workload.arrival_rate * max(seconds - span, 1.0))))


def generate(workload: Workload, seed: int, out_dir: Path, seconds: float) -> Inputs:
    """Write one store per family under ``out_dir`` and build the schedule."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.kind == "serve":
        n_jobs = serve_job_count(workload, seconds)
    else:
        n_jobs = workload.jobs_per_family
    stores: Dict[str, TraceStore] = {}
    for f, family in enumerate(workload.families):
        rng = np.random.default_rng([seed, f])
        gen_cls = FAMILIES[family][0]
        gen = gen_cls(task_range=workload.task_range, random_state=rng)
        block = workload.chunk if workload.kind == "replay" else n_jobs
        sizes = job_sizes(n_jobs, block, workload.task_range, rng)
        kinds = latency_families(n_jobs, rng)
        jobs = (
            gen.generate_job(
                f"{family}-{seed}-{j:03d}",
                n_tasks=int(n),
                profile=job_profile(kind, rng),
            )
            for j, (n, kind) in enumerate(zip(sizes, kinds))
        )
        path = out_dir / f"{family}.npz"
        save_trace_npz(jobs, path, name=family)
        stores[family] = TraceStore(path)
    schedule: List[Tuple[float, object]] = []
    if workload.kind == "serve":
        schedule = arrival_schedule(workload, stores)
    return Inputs(stores=stores, schedule=schedule)


#: Seed of the serving workload's arrival pattern (see ``arrival_schedule``).
SCHEDULE_SEED = 0xA11


def arrival_schedule(
    workload: Workload, stores: Dict[str, TraceStore]
) -> List[Tuple[float, object]]:
    """Open-loop request schedule over every job of every store.

    Arrivals are a Poisson process conditioned on the job count: sorted
    uniform instants over ``n / arrival_rate`` seconds. Job ``j`` sends
    ``BeginJob`` at its arrival, then its checkpoints at a fixed interval
    of its own, and ``FinishJob`` one interval after its last checkpoint.
    Each job's interval is drawn within 20% of ``checkpoint_interval``: a
    single shared interval would phase-lock jobs whose arrivals differ by
    a whole number of intervals, so the same pairs would collide at every
    checkpoint.

    The pattern (arrival instants and intervals) is one fixed draw shared
    by every seed, and the seed decides which jobs arrive. A run holds only
    ~280 checkpoints, so its p95 rests on a few bursts: in a simulation of
    this queue with measured service times, a fresh pattern per seed
    widened the p95's quartile spread from 0.11 to 0.18 of its median.
    """
    rng = np.random.default_rng(SCHEDULE_SEED)
    jobs = [
        (family, store.job(i))
        for family, store in stores.items()
        for i in range(store.n_jobs)
    ]
    horizon = len(jobs) / workload.arrival_rate
    arrivals = np.sort(rng.uniform(0.0, horizon, size=len(jobs)))
    intervals = workload.checkpoint_interval * rng.uniform(0.8, 1.2, size=len(jobs))
    timed: List[Tuple[float, int, int, object]] = []
    for j, ((family, job), t0, dt) in enumerate(zip(jobs, arrivals, intervals)):
        grid = config_for(family).make_simulator().checkpoint_grid(job)[1:]
        timed.append((float(t0), j, 0, BeginJob(job)))
        for k, tau in enumerate(grid):
            due = float(t0 + (k + 1) * dt)
            timed.append((due, j, k + 1, ScoreCheckpoint(job.job_id, float(tau))))
        done = float(t0 + (len(grid) + 1) * dt)
        timed.append((done, j, len(grid) + 1, FinishJob(job.job_id)))
    timed.sort(key=lambda item: item[:3])
    return [(due, req) for due, _, _, req in timed]


def timed_setup(
    workload: Workload, seed: int, work_dir: Path, seconds: float, repeats: int
) -> Tuple[Inputs, List[float], List[str]]:
    """Run the set-up ``repeats`` times; return the last inputs, every
    set-up time and every input digest (equal digests = same inputs)."""
    times: List[float] = []
    digests: List[str] = []
    inputs = None
    for r in range(repeats):
        if inputs is not None:
            inputs.close()
        t0 = time.perf_counter()
        inputs = generate(workload, seed, work_dir / f"setup-{r}", seconds)
        times.append(time.perf_counter() - t0)
        digests.append(inputs.digest())
    return inputs, times, digests
