"""Tests of the benchmark itself:  python3 -m pytest -q perfbench"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_child_cover():
    spans = [
        (-1, "a", 0.0, 10.0),   # children cover [1, 4] and [6, 7]
        (0, "b", 1.0, 4.0),     # child covers [2, 3]
        (1, "c", 2.0, 3.0),
        (0, "b", 6.0, 7.0),
        (-1, "a", 20.0, 21.0),  # no children
    ]
    rows = tracer.aggregate(spans)
    assert rows["a"]["calls"] == 2
    assert rows["a"]["self_s"] == pytest.approx(10 - 4 + 1)
    assert rows["a"]["total_s"] == pytest.approx(11)
    assert rows["b"]["calls"] == 2
    assert rows["b"]["self_s"] == pytest.approx(3 - 1 + 1)
    assert rows["c"]["self_s"] == pytest.approx(1)


def test_child_cover_is_a_clipped_union():
    assert tracer.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert tracer.union_length([(-2, 1), (9, 12)], 0, 10) == pytest.approx(2)
    assert tracer.union_length([], 0, 10) == 0
    spans = [(-1, "p", 0.0, 4.0), (0, "x", 1.0, 3.0), (0, "y", 2.0, 5.0)]
    assert tracer.aggregate(spans)["p"]["self_s"] == pytest.approx(1.0)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail_index(19) is None
    assert run.tail_index(20) == 9
    assert run.tail_index(100) == 89
    samples = sorted(float(x) for x in range(40))
    index = run.tail_index(len(samples))
    assert sum(1 for s in samples if s > samples[index]) == 10


def test_calibration_scales_by_the_relative_speed_to_the_exponent():
    ref = run.REFERENCE_S
    assert run.relative_speed(ref, ref) == pytest.approx(1.0)
    # the mean of the readings before and after counts
    assert run.relative_speed(ref, 3 * ref) == pytest.approx(0.5)
    # at half the reference speed half the wall time counts, fully calibrated
    assert run.calibrated([2.0, 4.0], [0.5, 1.0], 1.0) == pytest.approx([1.0, 4.0])
    assert run.calibrated([2.0], [0.25], 0.5) == pytest.approx([1.0])
    assert run.calibrated([2.0], [0.25], 0) == [2.0]


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def test_forced_acceptance_of_a_negative_input_counts_as_failed(lib, tmp_path):
    wl = workloads.Gt1Import(lib, 5, str(tmp_path), workloads.load_expected())
    ops = wl.cycle()
    export = next(op for op in ops if op.label.startswith("export"))
    negatives = [op for op in ops if op.label.startswith("reject")]
    assert len(negatives) == 3
    times, _, failed = run.run_cycle([export] + negatives)
    assert failed == 0
    # replace the non-associative input by the valid exported table
    valid = wl.paths[export.label.split()[1]]
    with open(valid) as src, open(wl.negatives["nonassoc"], "w") as dst:
        dst.write(src.read())
    times, _, failed = run.run_cycle([export] + negatives)
    assert (len(times), failed) == (4, 1)


def test_tracer_rebinds_every_reference_and_restores(lib):
    original = lib.groups.cyclic_group
    t = tracer.Tracer()
    t.install()
    try:
        assert lib.groups.cyclic_group is not original
        lib.group_from_text("C4*C2")       # atoms are looked up in a dict in expr
        lib.psi_top_recursion(lib.group_from_text("C8"))
    finally:
        t.uninstall()
    assert lib.groups.cyclic_group is original
    left = [v for name, d in vars(lib.expr).items()
            if isinstance(d, dict) and not name.startswith("__")
            for v in d.values() if hasattr(v, "__wrapped__")]
    assert left == []
    rows = t.take_cycle()["rows"]
    assert rows["groups.cyclic_group"]["calls"] == 3
    assert rows["groups.direct_product"]["calls"] == 1
    # recursion counted once, at the outermost call
    assert rows["psi.psi_top_recursion"]["calls"] == 1
    assert rows["groups.Subgroup.as_group"]["calls"] >= 2


def test_theorem_time_is_keyed_by_the_returned_report(lib):
    cat = lib.build_catalog([2], 16)
    t = tracer.Tracer()
    t.install()
    try:
        lib.verify_theorems(cat)
    finally:
        t.uninstall()
    cycle = t.take_cycle()
    assert set(cycle["theorem_s"]) == set(tracer.THEOREMS)
    assert cycle["pairs_checked"] == sum(r.pairs_checked for r in lib.verify_theorems(cat))


def test_missing_layer_fails_loudly(lib, monkeypatch):
    monkeypatch.delattr(lib.omega, "omega_subgroup")
    with pytest.raises(tracer.TraceError, match="omega.omega_subgroup"):
        tracer.Tracer().install()


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
