"""Tests of the benchmark harness itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

import hostspeed
import repeat  # puts src/ on sys.path
import run
import spans
import workloads

with open(run.BENCHMARK, encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

#: Horizon scale of the tiny workload versions.
TINY = 0.02


def _units(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["paths"] == ["bench"]


def _tiny(name, traced, seed=1):
    return repeat.run_repeat(name, seed, traced=traced, scale=TINY)


def _emitted(metrics):
    return {name: unit for name, (_value, unit) in metrics.items()}


def test_every_metric_is_emitted_with_its_unit():
    untraced = _tiny("flood-dynamic-16", traced=False)
    assert _emitted(untraced["end_to_end"]) == _units("end_to_end")
    emitted = _emitted(_tiny("flood-dynamic-16", traced=True)["per_layer"])
    emitted[run.OVERHEAD_METRIC] = run.OVERHEAD_UNIT
    assert emitted == _units("per_layer")


def _attributes():
    """``(holder, attribute, value in holder's own dict)`` per span."""
    for module, cls, attr, _name in spans.LAYER_SPANS:
        holder = spans.owner(module, cls)
        yield holder, attr, vars(holder).get(attr)


def test_wrappers_restore_every_patched_attribute():
    before = list(_attributes())
    patches = spans.Patches()
    spans.instrument(patches, spans.SpanTracer(), spans.LAYER_SPANS)
    spans.FloodObserver(patches)
    spans.PlacementObserver(patches)
    assert all(
        vars(holder).get(attr) is not value for holder, attr, value in before
    )
    patches.restore()
    assert list(_attributes()) == before
    # A traced repeat restores them as well.
    _tiny("routed-centralized-16", traced=True)
    assert list(_attributes()) == before


@pytest.mark.parametrize("name", ["flood-dynamic-16", "sweep-short"])
def test_traced_run_repeats_the_untraced_digest(name):
    # The untraced repeat also samples the host's speed from a signal
    # handler, so this checks that sampling changes no result either.
    untraced = _tiny(name, traced=False, seed=2)
    traced = _tiny(name, traced=True, seed=2)
    assert [run._signature(r) for r in traced["runs"]] == [
        run._signature(r) for r in untraced["runs"]
    ]


def test_host_speed_sampling_is_undone():
    previous = signal.getsignal(signal.SIGALRM)
    host = hostspeed.HostSpeed()
    deadline = time.perf_counter() + 5.0
    try:
        while host.samples < 3 and time.perf_counter() < deadline:
            pass
    finally:
        host.stop()
    assert host.samples >= 3 and host.slowdown() > 0.0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_times_are_consistent():
    from repro.experiments.runner import run_config

    config = workloads.WORKLOADS["flood-dynamic-16"](3, TINY)[0]
    patches = spans.Patches()
    tracer = spans.SpanTracer(keep=1_000)
    spans.instrument(patches, tracer, spans.LAYER_SPANS)
    started = time.perf_counter()
    try:
        run_config(config)
    finally:
        patches.restore()
    wall = time.perf_counter() - started
    assert all(stat[2] >= 0.0 for stat in tracer.stats.values())
    assert all(stat[2] <= stat[1] for stat in tracer.stats.values())
    assert sum(stat[2] for stat in tracer.stats.values()) <= wall
    ids = {span[0] for span in tracer.spans}
    assert all(span[4] is None or span[4] in ids for span in tracer.spans)
    assert all(span[2] <= span[3] for span in tracer.spans)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_workload_finishes_in_seconds(name):
    started = time.perf_counter()
    result = _tiny(name, traced=False)
    assert time.perf_counter() - started < 30.0
    assert len(result["runs"]) == result["attempted"]
    assert not [p for r in result["runs"] for p in r["problems"]]


def test_check_counts_a_run_that_differs_from_the_reference():
    result = _tiny("beacon-centralized-9", traced=False)
    expected = [run._signature(r) for r in result["runs"]]
    assert run.check([result, result], expected) == (2, 0, [])
    tampered = json.loads(json.dumps(expected))
    tampered[0]["counters"]["events"] += 1
    attempted, failed, problems = run.check([result], tampered)
    assert (attempted, failed) == (1, 1) and problems
    assert run.check([{"error": "boom", "attempted": 3}], None)[:2] == (3, 3)


def test_reference_pins_every_workload():
    reference = run.load_reference()
    assert sorted(reference) == sorted(workloads.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", os.fspath(tmp_path))
    assert run.main(["--workload", "sweep-short", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def _side(*values):
    return run.summarize(values)


def test_compare_verdicts():
    spec = {"better": "higher", "bound": 0.25}
    base = _side(100, 101, 102, 103, 104)
    assert run.verdict(base, base, spec) == "same"
    assert run.verdict(base, _side(60, 61, 62, 63, 64), spec) == "worse"
    assert run.verdict(base, _side(120, 121, 122, 123, 124), spec) == "better"
    assert run.verdict(base, _side(99, 100, 101, 102, 103), spec) == "same"
    assert run.verdict(base, _side(130), spec) == "unresolved"
    noisy = _side(50, 100, 150, 200, 250)
    assert run.verdict(base, noisy, spec) == "unresolved"
