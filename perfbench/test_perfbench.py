"""Smoke-size tests of the benchmark itself (not of the program).

Each workload runs on a shrunken spec (one tiny job per family, a short
checkpoint interval) so the whole file takes seconds.
"""

from __future__ import annotations

import dataclasses
import itertools
from pathlib import Path

import pytest

from perfbench.layers import EXACT_COUNTS, PER_LAYER_UNITS
from perfbench.replay_bench import TRACED_CHUNKS
from perfbench.run import END_TO_END_UNITS, run
from perfbench.tracer import Tracer, summarize
from perfbench.workloads import WORKLOADS, generate


def tiny(name: str):
    return dataclasses.replace(
        WORKLOADS[name],
        jobs_per_family=1,
        task_range=(40, 60),
        checkpoint_interval=0.02,
    )


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = {}
    for name, trace in itertools.product(WORKLOADS, (False, True)):
        work = tmp_path_factory.mktemp(f"{name}-{int(trace)}")
        out[name, trace] = run(tiny(name), 7, 0.5, trace, work)
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_end_to_end_metric_is_emitted(records, name):
    result = records[name, False]["result"]
    assert result["correct"], records[name, False]["checks"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    for metric, unit in END_TO_END_UNITS.items():
        assert result["metrics"][metric]["unit"] == unit
        assert result["metrics"][metric]["value"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_per_layer_metric_is_emitted(records, name):
    result = records[name, True]["result"]
    assert result["correct"], records[name, True]["checks"]
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)


def _layer(records, name):
    return {k: v["value"] for k, v in records[name, True]["result"]["metrics"].items()}


def test_layers_work_only_where_the_workload_sends_them(records):
    nurd = _layer(records, "replay_nurd")
    detectors = _layer(records, "replay_detectors")
    serve = _layer(records, "serve_open")
    for values in (nurd, serve):
        assert values["gbm.fits"] > 0 and values["gbm.trees_grown"] > 0
        assert values["nurd.updates"] > 0 and values["propensity.fits"] > 0
        assert values["detector.fit_s"] == 0 and values["neighbors.queries"] == 0
    assert detectors["gbm.fits"] == 0 and detectors["gbm.fit_s"] == 0
    assert detectors["nurd.updates"] == 0
    assert detectors["detector.fit_s"] > 0 and detectors["neighbors.queries"] > 0
    assert detectors["neighbors.tree_builds"] > 0
    # One job per chunk in the shrunken spec.
    assert nurd["traces.jobs_loaded"] == TRACED_CHUNKS
    assert nurd["replay.checkpoints"] > 0 and serve["replay.checkpoints"] > 0
    assert serve["engine.mode.full"] > 0 and serve["engine.score_checkpoint_s"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_counts_repeat_for_a_seed(records, name, tmp_path):
    again = run(tiny(name), 7, 0.5, True, tmp_path)["result"]["metrics"]
    first = records[name, True]["result"]["metrics"]
    for counter in EXACT_COUNTS:
        assert first[counter]["value"] == again[counter]["value"], counter


def test_seed_changes_the_generated_inputs(tmp_path):
    for name in WORKLOADS:
        spec = tiny(name)
        a = generate(spec, 1, tmp_path / name / "a", 1.0)
        b = generate(spec, 1, tmp_path / name / "b", 1.0)
        c = generate(spec, 2, tmp_path / name / "c", 1.0)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        for inputs in (a, b, c):
            inputs.close()


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] > a [1, 4] > a.b [2, 3] ; root > c [5, 9] > c (nested) [6, 8]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
    with tracer.span("root.run"):
        with tracer.span("a.fit"):
            with tracer.span("b.fit"):
                pass
        with tracer.span("c.fit"):
            with tracer.span("c.fit"):
                pass
    s = summarize(tracer.spans)
    assert s["count"] == {"root.run": 1, "a.fit": 1, "b.fit": 1, "c.fit": 2}
    assert s["self"] == {"root.run": 3, "a.fit": 2, "b.fit": 1, "c.fit": 4}
    # A span nested in its own layer is not counted again inclusively.
    assert s["inclusive"] == {"root.run": 10, "a.fit": 3, "b.fit": 1, "c.fit": 4}
    assert [row[1] for row in tracer.spans] == [-1, 0, 1, 0, 3]


def test_wrappers_are_removed_after_the_traced_run():
    class Target:
        def work(self, x):
            return x + 1

    original = Target.__dict__["work"]
    tracer = Tracer()
    with tracer.installed([(Target, "work", "t.work")]):
        assert Target().work(1) == 2
    assert Target.__dict__["work"] is original
    assert [row[0] for row in tracer.spans] == ["t.work"]


def test_missing_program_sources_fail_without_a_result(tmp_path, monkeypatch, capsys):
    import perfbench.run as bench_run

    monkeypatch.setattr(bench_run, "SRC", Path(tmp_path) / "src")
    args = ["--workload", "replay_nurd", "--seed", "1", "--seconds", "1"]
    code = bench_run.main(args)
    assert code != 0
    assert capsys.readouterr().out == ""
