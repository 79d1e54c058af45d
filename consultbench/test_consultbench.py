"""The benchmark's own tests: seeded inputs, span arithmetic, metric names.

Run with ``PYTHONPATH=src python -m pytest consultbench -q`` from the
repository root.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

from consultbench import hostspeed, spans, world
from consultbench.run import E2E_METRICS
from consultbench.spans import Span, SpanRecorder, self_times, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _payoffs(entries):
    return [
        (entry.game_id, entry.kind, entry.base_id,
         entry.game.row_matrix, entry.game.column_matrix)
        for entry in entries
    ]


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------


def test_cold_blocks_repeat_per_seed_and_differ_across_seeds():
    first = _payoffs(entry for entry, _ in world.cold_block(3, 1))
    assert first == _payoffs(entry for entry, _ in world.cold_block(3, 1))
    assert first != _payoffs(entry for entry, _ in world.cold_block(4, 1))
    assert first != _payoffs(entry for entry, _ in world.cold_block(3, 2))
    assert {kind for _, kind, *_ in first} == {"cold"}
    privacy = [p for _, p in world.cold_block(3, 1)]
    assert privacy.count("private") == len(privacy) // world.PRIVATE_EVERY


def test_warm_blocks_repeat_per_seed_and_differ_across_seeds():
    bases = world.warm_bases(3)
    assert _payoffs(bases) == _payoffs(world.warm_bases(3))
    assert _payoffs(bases) != _payoffs(world.warm_bases(4))
    block = world.warm_block(3, 0, bases)
    again = world.warm_block(3, 0, world.warm_bases(3))
    assert _payoffs(e for e, _ in block) == _payoffs(e for e, _ in again)
    assert [p for _, p in block] == [p for _, p in again]
    other = world.warm_block(4, 0, world.warm_bases(4))
    assert _payoffs(e for e, _ in block) != _payoffs(e for e, _ in other)
    by_id = {base.game_id: base for base in bases}
    for entry, _ in block:
        base = by_id[entry.base_id]
        assert entry.kind == "repeat"
        assert entry.game.payoff_fingerprint == base.game.payoff_fingerprint
    private = sum(1 for _, privacy in block if privacy == "private")
    assert private == len(block) // world.PRIVATE_EVERY


def test_wire_inputs_repeat_per_seed_and_differ_across_seeds():
    stream, offsets = world.wire_inputs("wire_open", 5, 4.0, extra=3)
    again_stream, again_offsets = world.wire_inputs("wire_open", 5, 4.0, 3)
    assert offsets == again_offsets
    assert _payoffs(stream) == _payoffs(again_stream)
    other_stream, other_offsets = world.wire_inputs("wire_open", 6, 4.0, 3)
    assert offsets != other_offsets
    assert _payoffs(stream) != _payoffs(other_stream)
    assert len(stream) == len(offsets) + 3
    assert len(offsets) == round(world.WIRE_SHAPES["wire_open"].rate * 4.0)
    assert offsets == sorted(offsets) and offsets[0] == 0.0
    assert {entry.kind for entry in stream} >= {"cold", "repeat"}
    closed, none = world.wire_inputs("wire_mixed", 5, 4.0, extra=3)
    assert none is None
    assert _payoffs(closed) == _payoffs(world.wire_inputs("wire_mixed", 5, 4.0, 3)[0])
    assert _payoffs(closed) != _payoffs(world.wire_inputs("wire_mixed", 6, 4.0, 3)[0])
    assert len(closed) == 4 * world.WIRE_CLOSED_ENTRIES_PER_S + 3
    # A short phase still holds enough entries to read the peak RSS.
    short, _ = world.wire_inputs("wire_mixed", 5, 0.5)
    assert len(short) == world.WIRE_MIXED.rss_at_consults


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------


def test_self_time_subtracts_back_to_back_children():
    recorded = [
        Span(1, None, "parent", 0.0, 10.0),
        Span(2, 1, "child", 1.0, 3.0),
        Span(3, 1, "child", 3.0, 5.0),
    ]
    assert self_times(recorded) == {1: 6.0, 2: 2.0, 3: 2.0}


def test_self_time_counts_only_direct_children_when_nested():
    recorded = [
        Span(1, None, "outer", 0.0, 10.0),
        Span(2, 1, "middle", 1.0, 6.0),
        Span(3, 2, "inner", 2.0, 4.0),
    ]
    assert self_times(recorded) == {1: 5.0, 2: 3.0, 3: 2.0}
    table = summarize(recorded)
    assert table["middle"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}


def test_self_time_clips_overlapping_children_to_the_parent():
    recorded = [
        Span(1, None, "parent", 0.0, 10.0),
        Span(2, 1, "child", 2.0, 6.0),
        Span(3, 1, "child", 4.0, 12.0),
    ]
    assert self_times(recorded)[1] == 2.0


def test_recorder_nests_spans_with_an_injected_clock():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))

    inner = recorder.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    recorder.wrap("outer", body)()
    names = {span.name: span for span in recorder.spans}
    assert names["outer"].parent_id is None
    assert all(
        span.parent_id == names["outer"].span_id
        for span in recorder.spans if span.name == "inner"
    )
    table = summarize(recorder.spans)
    assert table["inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert table["outer"] == {"calls": 1, "total_s": 5.0, "self_s": 3.0}


def test_instrumentation_wraps_shadowed_modules_and_restores_them():
    module = importlib.import_module("repro.equilibria.support_enumeration")
    original = module.screen_support_chunk
    installed = spans.instrument(SpanRecorder())
    try:
        assert module.screen_support_chunk is not original
        assert module.screen_support_chunk.__wrapped__ is original
    finally:
        installed.remove()
    assert module.screen_support_chunk is original


def test_tail_percentile_keeps_ten_samples_beyond():
    assert world.tail_percentile(20000, 99.9) == 99.9
    assert world.tail_percentile(600, 95.0) == 95.0
    assert world.tail_percentile(150, 95.0) == 90.0
    assert world.tail_percentile(5, 95.0) == 50.0
    assert world.percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


# ----------------------------------------------------------------------
# Reference speed
# ----------------------------------------------------------------------


def test_reference_speed_scales_by_the_nearby_slices():
    ref = hostspeed.REFERENCE_S
    moments = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    seconds = [ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    # Two slices before and two after the moment, median taken.
    assert hostspeed.scale_at(moments, seconds, 0.5) == 1.0
    assert abs(hostspeed.scale_at(moments, seconds, 1.5) - 2 / 3) < 1e-12
    assert hostspeed.scale_at(moments, seconds, 4.5) == 0.5
    # Past the last slice: the last ones.
    assert hostspeed.scale_at(moments, seconds, 99.0) == 0.5


def test_reference_helper_answers_and_stops():
    with hostspeed.HostSpeed() as speed:
        for _ in range(3):
            speed.after(hostspeed.SLICE_EVERY_S / 2)
        assert len(speed.seconds) == 1 and speed.seconds[0] > 0
        proc = speed._proc
    assert proc.returncode == 0


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------


def test_every_metric_is_named_in_benchmark_json_with_its_unit():
    spec = _benchmark_json()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(spans.LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} <= set(world.WORKLOADS)


def test_the_command_prints_only_declared_metrics():
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    out = subprocess.run(
        [sys.executable, "consultbench/run.py", "--workload", "wire_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        declared
    for name in declared:
        assert f"  {name} " in out.stdout
