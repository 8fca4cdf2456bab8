"""Benchmark entry point: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay_nurd --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same workload with span wrappers installed on each
layer's entry points and reports the per-layer metrics instead. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it (prefixed
``#``) are a readable summary, the host fingerprint and the output checks.
Run records and span dumps go to ``.perfbench/`` under the repository root.

The program under test is imported from ``src/`` of the same checkout and
nowhere else: without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
#: Set-ups timed before the measured run, and again after it: the host's
#: speed drifts over tens of seconds, so samples from both ends of a run
#: give a steadier median than the same number taken back to back.
SETUP_REPEATS = 3

#: name -> unit of every end-to-end metric, in report order.
END_TO_END_UNITS = {
    "jobs_per_s": "1/s",
    "ckpt_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "goodput_frac": "ratio",
    "success_frac": "ratio",
    "f1": "ratio",
    "jct_reduction_pct": "%",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_program():
    """Put this checkout's ``src`` first on the path and import from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ImportError(f"no program sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"repro resolved outside {SRC}: {repro.__file__}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    """BLAS library, version and thread count as NumPy sees them."""
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def host_fingerprint() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed: int, seconds: float, trace: bool, work_dir: Path) -> dict:
    """Set up, measure and check one run of ``workload``; returns the record.

    ``work_dir`` holds the generated stores and is removed afterwards.
    """
    from perfbench import replay_bench, serve_bench
    from perfbench.layers import PER_LAYER_UNITS
    from perfbench.workloads import timed_setup

    host = host_fingerprint()
    try:
        inputs, setup_times, digests = timed_setup(
            workload, seed, work_dir / "before", seconds, SETUP_REPEATS
        )
        try:
            if workload.kind == "replay":
                bench = replay_bench
                result = bench.run(workload, inputs, seconds, trace)
            else:
                bench = serve_bench
                result = bench.run(workload, inputs, trace)
            attempted, failed = bench.attempted_failed(result)
        finally:
            inputs.close()
        again, times, more = timed_setup(
            workload, seed, work_dir / "after", seconds, SETUP_REPEATS
        )
        again.close()
        setup_times += times
        digests += more
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    checks = {"same_seed_same_inputs": len(set(digests)) == 1, **bench.checks(result)}
    if trace:
        values = {name: 0.0 for name in PER_LAYER_UNITS}
        values.update(bench.per_layer(result))
        units = PER_LAYER_UNITS
    else:
        values = bench.end_to_end(workload, result)
        values["success_frac"] = 1.0 - failed / attempted
        values["peak_rss_mb"] = peak_rss_mb()
        values["setup_s"] = statistics.median(setup_times)
        units = END_TO_END_UNITS
        checks["metrics_positive"] = all(
            math.isfinite(values[name]) and values[name] > 0 for name in units
        )
    checks["metrics_finite"] = all(math.isfinite(float(values[n])) for n in units)
    metrics = {n: {"value": float(values[n]), "unit": u} for n, u in units.items()}
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host,
        "setup_s_samples": setup_times,
        "samples": bench.samples(result),
        "checks": checks,
        "result": {
            "correct": all(checks.values()),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        "tracer": getattr(result, "tracer", None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread, set before NumPy loads: the workloads' matrices are
    # too small for a second thread to take work, and waking one on a
    # shared host only adds waits. On 2 CPUs, interleaved replays of the
    # same chunks had the same median time either way, and a quartile
    # spread of 0.16-0.26 of it with one thread against 0.23-0.37 with two.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    work_dir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    record = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir
    )
    tracer = record.pop("tracer")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")
    with (OUT / f"record-{stem}.json").open("w") as fh:
        json.dump(record, fh, indent=1)
    result = record["result"]
    print(f"# host {json.dumps(record['host'])}")
    print(f"# checks {json.dumps(record['checks'])}")
    scalars = {k: v for k, v in record["samples"].items() if not isinstance(v, list)}
    print(f"# samples {json.dumps(scalars)}")
    print(
        f"# attempted {result['attempted']} failed {result['failed']} "
        f"failed_frac {result['failed'] / result['attempted']:.6g}"
    )
    for name, m in result["metrics"].items():
        print(f"# {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # Leave the checkout as it was: no bytecode caches next to the sources.
    sys.dont_write_bytecode = True
    sys.exit(main())
