"""Repository benchmark: NURD replay, detector-suite replay and open-loop
serving, with end-to-end metrics and a traced per-layer breakdown.

Run ``python3 perfbench/run.py --help``; ``BENCHMARK.json`` at the
repository root names the workloads and metrics.
"""
