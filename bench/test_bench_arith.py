"""The benchmark's own arithmetic, on synthetic inputs (no library needed)."""

import math
import sys
import types
from types import SimpleNamespace

import pytest

from bench_oracles import compare_zero_sets, conjugate_defect, zero_energy_nodes
from bench_stats import (
    failed_frac,
    host_factors,
    percentile,
    samples_beyond,
    self_times,
)
from bench_trace import Tracer, layer_metrics


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(250, 90) == 25


def test_nearest_rank_percentile():
    xs = list(range(1, 101))  # 1..100
    assert percentile(xs, 90) == 90
    assert percentile(xs, 50) == 50
    assert percentile([3.0], 90) == 3.0
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    with pytest.raises(ValueError):
        percentile([], 50)


def test_failed_frac_counts_every_kind_of_failure():
    outcomes = [None, "raised BoundaryZero", None, "exit code 2",
                None, "check: 0 zeros, reference has 1", None, None]
    assert failed_frac(outcomes) == 3 / 8
    assert failed_frac([None] * 5) == 0.0
    with pytest.raises(ValueError):
        failed_frac([])


def test_host_factors_use_the_local_probe_median():
    # probes around 6 tasks; the host halves its speed after task 2 and one
    # probe before task 4 is disturbed
    probes = [1.0, 1.0, 1.0, 2.0, 9.0, 2.0, 2.0]
    f = host_factors(probes, ref=2.0)
    assert f == [2.0, 2.0, 2.0 / 1.5, 1.0, 1.0, 1.0]
    assert len(host_factors([1.0, 1.0], ref=1.0)) == 1


def test_self_time_of_a_nested_span_tree():
    # root [0,10] > a [1,4], b [5,9] > c [6,7]
    spans = [(0.0, 10.0, None), (1.0, 4.0, 0), (5.0, 9.0, 0), (6.0, 7.0, 2)]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def _fake_library(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(V, k):
        return k

    def outer(V, k):
        return [mod.inner(V, x) for x in k]

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_tracer_records_nesting_and_restores(monkeypatch):
    mod = _fake_library(monkeypatch)
    originals = (mod.inner, mod.outer)
    tr = Tracer()
    tr.install([("fake_layers", "inner", "scattering.xhat",
                 lambda a, kw: {"points": 1}, None, False),
                ("fake_layers", "outer", "czeros.find_zeros", None,
                 lambda a, kw, r: {"zeros": len(r)}, False)])
    assert mod.outer(None, [1, 2, 3]) == [1, 2, 3]
    tr.uninstall()
    assert (mod.inner, mod.outer) == originals
    assert tr.names == ["czeros.find_zeros"] + ["scattering.xhat"] * 3
    assert tr.parents == [None, 0, 0, 0]
    own = self_times(list(zip(tr.starts, tr.ends, tr.parents)))
    total = tr.ends[0] - tr.starts[0]
    kids = sum(tr.ends[i] - tr.starts[i] for i in (1, 2, 3))
    assert own[0] == pytest.approx(total - kids)

    m = layer_metrics(tr, n_tasks=2)
    assert m["czeros.zeros_found"] == 1.5
    assert m["scattering.calls_1pt"] == 1.5
    assert m["czeros.points_per_zero"] == 1.0
    assert m["czeros.find_zeros.self_s"] == pytest.approx(own[0] / 2)
    assert m["wavekernel.solve_kernels.busy_s"] == 0.0


def test_tracer_marks_raising_spans(monkeypatch):
    mod = types.ModuleType("fake_raise")

    def boom(f, rect):
        raise ValueError("obstructed")

    mod.winding_number = boom
    monkeypatch.setitem(sys.modules, "fake_raise", mod)
    tr = Tracer()
    tr.install([("fake_raise", "winding_number", "czeros.winding_number",
                 None, None, False)])
    with pytest.raises(ValueError):
        mod.winding_number(None, None)
    tr.uninstall()
    m = layer_metrics(tr, n_tasks=1)
    assert m["czeros.winding_number.calls"] == 1
    assert m["czeros.winding_number.failed"] == 1


def _well(depth, left, right):
    return SimpleNamespace(breakpoints=(left, right), values=(depth,))


def test_zero_energy_nodes_match_square_well_counts():
    # a well of depth D and width L binds ceil(L sqrt(D) / pi) states
    for depth, width in ((4.0, 2.0), (100.0, 2.0), (1.2, 2.0), (30.0, 0.7)):
        want = math.ceil(width * math.sqrt(depth) / math.pi)
        assert zero_energy_nodes(_well(-depth, -width / 2, width / 2)) == want
    barrier = SimpleNamespace(breakpoints=(-1.0, 0.0, 1.0), values=(5.0, -0.5))
    assert zero_energy_nodes(barrier) == 0


def test_zero_set_comparison_and_conjugate_defect():
    ref = [(1 - 2j, 1), (-1 - 2j, 1), (-0.8j, 1)]
    assert compare_zero_sets(list(ref), ref, 3.0) is None
    assert "reference has 3" in compare_zero_sets(ref[:2], ref, 3.0)
    # a zero sitting on the rim may be kept or dropped by either side
    assert compare_zero_sets(ref, ref + [(3.0 - 1e-9j, 1)], 3.0) is None
    assert conjugate_defect([z for z, _ in ref]) == 0.0
    assert conjugate_defect([1 - 2j]) == pytest.approx(2.0)
