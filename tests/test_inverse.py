"""Left-part recovery from det S data, distinguishability, uniqueness reports."""

import json

import numpy as np
import pytest

from resonances1d.errors import SharedPartMismatch
from resonances1d.inverse import (
    InverseProblemSpec,
    distinguishability,
    loss,
    recover_left,
    synthesize_data,
    uniqueness_report,
    write_loss_trace_csv,
)
from resonances1d.potential import Fragment, make_piecewise


RIGHT = Fragment((0.0, 0.5, 1.0), (-2.0, 1.5))
K_SAMPLES = tuple(np.linspace(0.3, 12.0, 40))


def _truth(left_values):
    n = len(left_values)
    bp = list(np.linspace(-1.0, 0.0, n + 1)) + [0.5, 1.0]
    return make_piecewise(bp, list(left_values) + [-2.0, 1.5])


def _spec(left_values):
    truth = _truth(left_values)
    return synthesize_data(RIGHT, -1.0, len(left_values), truth, K_SAMPLES), truth


def test_spec_validation():
    with pytest.raises(ValueError):
        InverseProblemSpec(RIGHT, 1.0, 2, k_samples=(1.0,), det_s_values=(1j,))
    with pytest.raises(ValueError):
        InverseProblemSpec(RIGHT, -1.0, 0, k_samples=(1.0,), det_s_values=(1j,))
    with pytest.raises(ValueError):
        InverseProblemSpec(RIGHT, -1.0, 2, k_samples=(1.0, 1.0),
                           det_s_values=(1j, 1j))
    with pytest.raises(ValueError):
        InverseProblemSpec(RIGHT, -1.0, 2, k_samples=(1.0, 2.0),
                           det_s_values=(1j,))


def test_candidate_construction():
    spec, truth = _spec([-3.0, 1.0])
    cand = spec.candidate([-3.0, 1.0])
    assert cand.breakpoints == truth.breakpoints
    assert cand.values == truth.values
    # zero cells are kept so the parameter vector length never changes
    cand0 = spec.candidate([0.0, 0.0])
    assert len(cand0.values) == len(cand.values)


def test_json_round_trip(tmp_path):
    spec, _ = _spec([-3.0, 1.0])
    path = tmp_path / "spec.json"
    with open(path, "w") as fh:
        json.dump(spec.to_json(), fh)
    back = InverseProblemSpec.load(path)
    assert back == spec


def test_loss_vanishes_at_truth():
    spec, _ = _spec([-3.0, 1.0])
    assert loss(spec, [-3.0, 1.0]) < 1e-22
    assert loss(spec, [-2.0, 1.0]) > 1e-4


def test_recovery_fixed_point():
    spec, _ = _spec([-3.0, 1.0])
    res = recover_left(spec, [-3.0, 1.0])
    assert res.converged
    assert res.iterations <= 1
    assert res.final_loss < 1e-12


@pytest.mark.parametrize("left", [[-3.0, 1.0], [-2.5, 0.8, -1.2, 2.0]])
def test_recovery_round_trip(left):
    spec, _ = _spec(left)
    res = recover_left(spec, np.zeros(len(left)))
    assert res.converged
    l2 = np.linalg.norm(np.asarray(res.recovered_left) - np.asarray(left))
    assert l2 < 1e-5
    assert res.loss_trace[0] > res.final_loss
    assert list(res.loss_trace) == sorted(res.loss_trace, reverse=True)


def test_recovery_result_json():
    spec, _ = _spec([-3.0, 1.0])
    res = recover_left(spec, [0.0, 0.0])
    d = res.to_json()
    assert d["converged"] is True
    assert len(d["recovered_left"]) == 2


def test_distinguishability_zero_iff_identical():
    V = _truth([-3.0, 1.0])
    k = np.linspace(0.1, 15.0, 101)
    assert distinguishability(V, V, k) == 0.0
    W = _truth([-2.9, 1.0])
    assert distinguishability(V, W, k) > 1e-7
    assert distinguishability(V, W, k) == pytest.approx(
        distinguishability(W, V, k)
    )


def test_distinguishability_integral_preserving_perturbation():
    """Left parts with equal mean still separate the determinants."""
    V = _truth([-3.0, 1.0])
    W = _truth([-1.0, -1.0])
    assert V.integral() == pytest.approx(W.integral())
    k = np.linspace(0.1, 15.0, 101)
    assert distinguishability(V, W, k) > 1e-7


def test_shared_right_guard():
    V = _truth([-3.0, 1.0])
    W = make_piecewise([-1.0, 0.0, 0.5, 1.0], [-3.0, -2.0, 1.0])
    with pytest.raises(SharedPartMismatch):
        distinguishability(V, W, np.linspace(0.1, 5, 10))


def test_uniqueness_report_identical():
    V = _truth([-3.0, 1.0])
    rep = uniqueness_report((V, V), 8.0)
    assert rep.identical_left and rep.implication_pass
    assert rep.distinguishability == 0.0
    assert rep.resonance_hausdorff < 1e-8


def test_uniqueness_report_distinct():
    rep = uniqueness_report((_truth([-3.0, 1.0]), _truth([-1.0, -1.0])), 8.0)
    assert not rep.identical_left
    assert rep.implication_pass
    assert rep.distinguishability > 1e-7
    assert rep.resonance_hausdorff > 1e-7
    d = rep.to_json()
    assert d["identical_left"] is False


def test_loss_trace_csv(tmp_path):
    spec, _ = _spec([-3.0, 1.0])
    res = recover_left(spec, [0.0, 0.0])
    path = tmp_path / "trace.csv"
    write_loss_trace_csv(res, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "iteration,loss"
    assert len(rows) == 1 + len(res.loss_trace)
