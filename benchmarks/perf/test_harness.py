"""Self-test of the perf benchmark (tier-1, small cubes, two rounds).

Checks the shape of what the harness prints and the rules behind the
numbers — not the numbers: output names and units against
``BENCHMARK.json``, the quiet-half, reference-clock and percentile
rules on synthetic latencies, failure accounting, and span nesting.
"""

from __future__ import annotations

import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
OBSERVATIONS = 1000


def spec_units(section: str) -> dict:
    return {entry["name"]: entry["unit"] for entry in CONTRACT[section]}


# -- the estimators, on synthetic latencies ----------------------------------


def test_quiet_half_keeps_the_fastest_rounds():
    times = [3.0, 1.0, 2.5, 1.2, 9.0, 1.1, 2.0]
    assert stats.quiet_half(times) == [1, 3, 5, 6]  # ceil(7 / 2) rounds
    assert stats.quiet_half([5.0]) == [0]
    assert stats.quiet_half([2.0, 1.0, 1.0, 4.0]) == [1, 2]


def test_reference_factor_scales_by_the_kernel_readings_around_a_time():
    reference = stats.CALIB_REFERENCE_MS
    assert stats.reference_factor(reference, reference) == pytest.approx(1.0)
    # the kernel took 1.5x and 2.5x as long: the machine ran at half speed
    assert stats.reference_factor(reference * 1.5, reference * 2.5) \
        == pytest.approx(0.5)
    record = harness.OpRecord("k", "ql", "", "", "", latency=0.2,
                              kernel_ms=reference * 2)
    assert record.latency * record.factor == pytest.approx(0.1)


def test_percentiles_and_spread_on_known_samples():
    latencies = [float(value) for value in range(1, 101)]
    random.Random(3).shuffle(latencies)
    assert stats.percentile(latencies, 50) == pytest.approx(50.5)
    assert stats.percentile(latencies, 90) == pytest.approx(90.1)
    assert stats.percentile([7.0], 90) == 7.0
    summary = stats.spread([10.0, 11.0, 12.0, 13.0, 14.0])
    assert summary["median"] == 12.0
    assert summary["iqr_frac"] == pytest.approx(3.0 / 12.0)


def test_percentiles_are_over_each_op_at_its_typical_latency():
    def round_of(index, latencies):
        return harness.Round(index, False, [
            harness.OpRecord(f"op{position}", "ql", "", "", "",
                             latency=latency, ok=True)
            for position, latency in enumerate(latencies)], {})
    # ten ops of 1..10 s; a hiccup on one op in one of three rounds
    plain = [float(value) for value in range(1, 11)]
    rounds = [round_of(0, plain), round_of(1, plain),
              round_of(2, plain[:4] + [50.0] + plain[5:]),
              round_of(3, [9 * value for value in plain]),
              round_of(4, [9 * value for value in plain])]
    metrics, samples = harness.end_to_end(rounds, 1.0, referred=False)
    assert samples == {"rounds": 5, "rounds_kept": 3, "kept_ops": 30,
                       "op_types": 10}
    assert metrics["op_p50_ms"] == pytest.approx(5500.0)
    assert metrics["op_p90_ms"] == pytest.approx(9100.0)
    assert metrics["ops_per_s"] == pytest.approx(30 / (3 * 55.0 + 45.0))


def test_calibration_kernel_is_repeatable_work():
    assert 0.0 < stats.calibrate() < 1000.0
    assert 0.0 < stats.reading(2) < 1000.0


# -- the contract ------------------------------------------------------------


def test_contract_names_are_well_formed_and_match_the_workloads():
    assert [entry["name"] for entry in CONTRACT["workloads"]] \
        == list(WORKLOADS)
    names = [entry["name"] for section in
             ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert spec_units("end_to_end") == harness.END_TO_END_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_prints_exactly_the_six_end_to_end_metrics(workload):
    record = run.run(workload, seed=5, seconds=0.0, trace=False,
                     observations=OBSERVATIONS, fixed_rounds=2)
    assert record["off_contract"] and record["correct"]
    assert record["failed"] == 0 and record["attempted"] > 0
    assert record["closing"]["leaked_segments"] == 0
    assert record["closing"]["live_children"] == 0
    metrics = record["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} \
        == spec_units("end_to_end")
    assert all(metric["value"] > 0 for metric in metrics.values())
    assert any(line.startswith("op_p90_ms") for line in run.report(record))


# -- failure accounting and tracing, on one small cube -----------------------


@pytest.fixture(scope="module")
def cube():
    built = harness.set_up(OBSERVATIONS, 5, False, Tracer())
    yield built
    assert not harness.clean_up(built)["leaked_segments"]


def test_a_wrong_checksum_is_a_failed_op(cube):
    ops = WORKLOADS["rollup_20k"].round_ops(random.Random(5))
    expected = harness.verify(cube, ops)
    victim = ops[3].key
    expected[victim] = ("not", "the answer")
    round_ = harness.run_round(cube, ops, expected, index=0)
    assert [record.key for record in round_.ops if not record.ok] == [victim]
    assert len(round_.good) == len(ops) - 1
    metrics, samples = harness.end_to_end([round_], setup_s=1.0,
                                          referred=False)
    assert samples["kept_ops"] == len(ops) - 1  # missing from ops_per_s
    assert metrics["ops_per_s"] == pytest.approx(
        (len(ops) - 1) / sum(record.latency for record in round_.good))


def test_an_op_that_raises_is_a_failed_op(cube):
    ops = [op for op in WORKLOADS["star_50k"].round_ops(random.Random(5))
           if op.kind != "etl"][:2]  # no star was prepared on this cube
    expected = {op.key: None for op in ops}
    round_ = harness.run_round(cube, ops, expected, index=0)
    assert not round_.good and len(round_.ops) == 2


def test_parallel_ops_are_counted_but_stay_out_of_the_end_to_end_numbers():
    record = run.run("star_50k", seed=5, seconds=0.0, trace=False,
                     observations=OBSERVATIONS, fixed_rounds=2)
    per_round = WORKLOADS["star_50k"].round_ops(random.Random(5))
    fanned = sum(op.kind == "parallel" for op in per_round)
    assert fanned and record["attempted"] == 2 * len(per_round)
    assert record["samples"]["rounds_kept"] == 1
    assert record["samples"]["kept_ops"] == len(per_round) - fanned


def test_traced_run_reports_every_layer_name_and_spans_nest():
    record = run.run("refresh_20k", seed=5, seconds=0.0, trace=True,
                     observations=OBSERVATIONS, fixed_rounds=2)
    assert record["correct"]
    metrics = record["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} \
        == spec_units("per_layer")
    for name, metric in metrics.items():
        # the layers this workload's rounds exercise were measured; the
        # star path, which they leave out, reads 0
        if metric["unit"] in ("s", "ms", "1/s"):
            assert (metric["value"] == 0) == name.startswith("olap."), name
    assert metrics["rdf.compactions_per_cycle"]["value"] >= 1
    assert metrics["rdf.read_after_write.ratio"]["value"] > 0
    assert metrics["rdf.shm.leaked_segments"]["value"] == 0

    trace = json.loads(
        (harness.OUT_DIR / "refresh_20k.trace.json").read_text())["spans"]
    ops = [span for span in trace if span["name"] == "op"]
    assert ops
    for index, span in enumerate(trace):
        assert span["self_ms"] >= -1e-6
        if span["parent"] >= 0:
            parent = trace[span["parent"]]
            assert parent["start_ms"] <= span["start_ms"]
            assert span["end_ms"] <= parent["end_ms"]
            assert span["op"] == parent["op"] or parent["op"] is None
    for op in ops:
        family = [span for span in trace if span["op"] == op["op"]]
        duration = op["end_ms"] - op["start_ms"]
        assert sum(span["self_ms"] for span in family) \
            == pytest.approx(duration, rel=0.02)
