"""Tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest serbench``.
"""

import json
import os

import pytest

from arith import Ledger, Span, check_name, check_unit, covered, layer_paths, self_times, sum_by
from layers import TIME_METRICS
from run import check_layer_map, result_metrics
from workloads import blocks

HERE = os.path.dirname(os.path.abspath(__file__))


# -- self time ------------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [
        Span("root", None, "op", 0.0, 10.0),
        Span("a", "root", "sram", 1.0, 4.0),
        Span("b", "root", "ser.mc", 5.0, 9.0),
        Span("c", "b", "io.load", 6.0, 7.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"root": 3.0, "a": 3.0, "b": 3.0, "c": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_children_are_subtracted_once():
    spans = [
        Span("root", None, "service", 0.0, 10.0),
        Span("a", "root", "ser.mc", 1.0, 6.0),
        Span("b", "root", "ser.mc", 4.0, 8.0),
    ]
    assert self_times(spans)["root"] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent():
    assert covered((0.0, 5.0), [(-1.0, 1.0), (4.0, 9.0), (6.0, 7.0)]) == pytest.approx(2.0)


def test_parallel_compute_moves_to_the_calling_layer():
    spans = [
        Span("root", None, "op", 0.0, 10.0),
        Span("sweep", "root", "ser.mc", 0.0, 10.0),
        Span("map", "sweep", "parallel", 2.0, 10.0, compute_share=0.75),
        Span("inner", "map", "parallel", 4.0, 6.0, compute_share=1.0),
    ]
    own = self_times(spans)
    layers = sum_by(spans, own, lambda span: span.layer)
    # sweep: 2 s of its own, 0.75 of the map's 6 s and all 2 s of the inner map
    assert layers["ser.mc"] == pytest.approx(2.0 + 4.5 + 2.0)
    assert layers["parallel"] == pytest.approx(1.5)
    assert sum(layers.values()) == pytest.approx(10.0)


def test_layer_paths():
    spans = [
        Span("root", None, "op", 0.0, 3.0),
        Span("a", "root", "ser.mc", 0.0, 2.0),
        Span("b", "a", "sram", 0.0, 1.0),
    ]
    assert layer_paths(spans) == {"root": "op", "a": "op/ser.mc", "b": "op/ser.mc/sram"}


# -- names ----------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["wall_s", "hit.latency_p50_s", "io.hit_frac", "a-b", "9x"])
def test_valid_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", ["", ".x", "_x", "a b", "p99%", "a/b", "x" * 65, None])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        check_name(name)


def test_units():
    for unit in ("s", "ms", "1/s", "count", "%", "MiB"):
        assert check_unit(unit) == unit
    for unit in ("", "per second", "x" * 17):
        with pytest.raises(ValueError):
            check_unit(unit)


def test_declared_metrics_are_valid_and_mapped():
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "layer_map.json")) as handle:
        check_layer_map(bench, json.load(handle))
    for spec in bench["end_to_end"] + bench["per_layer"]:
        check_name(spec["name"])
        check_unit(spec["unit"])
    assert set(TIME_METRICS) <= {spec["name"] for spec in bench["per_layer"]}


def test_result_metrics_reject_missing_or_extra():
    declared = [{"name": "wall_s", "unit": "s"}]
    assert result_metrics({"wall_s": 1}, declared) == {"wall_s": {"value": 1.0, "unit": "s"}}
    with pytest.raises(ValueError):
        result_metrics({}, declared)
    with pytest.raises(ValueError):
        result_metrics({"wall_s": 1, "cpu_s": 2}, declared)
    with pytest.raises(ValueError):
        result_metrics({"wall_s": float("nan")}, declared)


# -- run length -------------------------------------------------------------------


def test_a_phase_runs_at_least_one_block():
    assert len(list(blocks(0.0))) == 1


def test_blocks_stop_before_overrunning():
    assert 2 <= len(list(blocks(0.05))) <= 10**6


# -- failures ---------------------------------------------------------------------------


def test_failure_counting():
    ledger = Ledger()
    assert ledger.record("miss", [])
    assert not ledger.record("hit", ["memo hit differs", "exit 1"])
    assert ledger.record("miss", [])
    assert (ledger.attempted, ledger.failed) == (3, 1)
    assert ledger.failed_frac == pytest.approx(1 / 3)
    assert ledger.failures == ["hit: memo hit differs; exit 1"]


def test_nothing_attempted_counts_as_failed():
    assert Ledger().failed_frac == 1.0
