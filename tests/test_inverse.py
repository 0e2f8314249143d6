"""Left-part recovery from det S data, distinguishability, uniqueness reports."""

import csv
import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonances1d import cli, inverse
from resonances1d.czeros import bound_states
from resonances1d.errors import DivergedLoss, PoleAtK, SharedPartMismatch
from resonances1d.inverse import (
    InverseProblemSpec,
    distinguishability,
    recover_left,
    synthesize_data,
    uniqueness_report,
)
from resonances1d.potential import Fragment, Potential, glue, make_piecewise
from resonances1d.scattering import det_s, det_s_jacobian


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
    # candidate() would move the first right part to start at 0 and give
    # the second non-increasing breakpoints
    for bp in ((-0.5, 1.0), (-2.0, -1.5)):
        with pytest.raises(ValueError, match="right part starts at x = .* < 0"):
            InverseProblemSpec(Fragment(bp, (-2.0,)), -1.0, 2, k_samples=(1.0,),
                               det_s_values=(1j,))


@pytest.mark.parametrize("k, value", [(np.nan, 1j), (np.inf, 1j), (2.0, np.nan + 0j),
                                      (2.0, complex(0.0, np.inf))])
def test_spec_rejects_non_finite_samples(k, value):
    with pytest.raises(ValueError, match="finite"):
        InverseProblemSpec(RIGHT, -1.0, 2, k_samples=(1.0, k), det_s_values=(1j, value))


def test_spec_from_json_rejects_unequal_det_s_parts():
    spec, _ = _spec([-3.0, 1.0])
    d = spec.to_json()
    d["data"]["det_s_im"].append(0.5)
    with pytest.raises(ValueError, match="differ in length"):
        InverseProblemSpec.from_json(d)


def test_candidate_construction():
    spec, truth = _spec([-3.0, 1.0])
    cand = spec.candidate([-3.0, 1.0])
    assert cand.breakpoints == truth.breakpoints
    assert cand.values == truth.values
    # zero cells are kept so the parameter vector length never changes
    cand0 = spec.candidate([0.0, 0.0])
    assert len(cand0.values) == len(cand.values)


def test_candidate_fills_the_gap_before_a_right_part_off_the_origin():
    """A known right part starting at 0.25 gets a zero cell on [0, 0.25],
    one starting at 0 none: the candidate is the glued truth, cell for cell
    and in det S bit for bit, and the fit from zeros recovers it."""
    params = (-1.5, 0.7, -0.3)
    ks = np.linspace(0.3, 12.0, 60)
    for start in (0.25, 0.0):
        right = Fragment((start, 0.5, 1.0), (-2.0, 1.5))
        truth = glue(Fragment(tuple(np.linspace(-1.0, 0.0, 4)), params), right)
        spec = synthesize_data(right, -1.0, 3, truth, ks)
        cand = spec.candidate(params)
        assert cand.breakpoints == truth.breakpoints
        assert cand.values == truth.values
        assert det_s(cand, ks).tobytes() == det_s(truth, ks).tobytes()
        result = recover_left(spec, np.zeros(3))
        assert result.converged
        np.testing.assert_allclose(result.recovered_left, params, rtol=0, atol=1e-6)


def test_json_round_trip(tmp_path):
    spec, _ = _spec([-3.0, 1.0])
    path = tmp_path / "spec.json"
    with open(path, "w") as fh:
        json.dump(spec.to_json(), fh)
    with open(path) as fh:
        back = InverseProblemSpec.from_json(json.load(fh))
    assert back == spec
    assert spec.to_json()["known_right"] == spec.known_right.to_json()


def test_synthesize_data_rejects_a_truth_off_the_known_right_part():
    """Data from such a truth fits no candidate: from zeros the fit ended
    unconverged at loss 0.083."""
    truth = make_piecewise([-1.0, -0.5, 0.0, 0.5, 1.0], [-3.0, 1.0, -1.0, 1.5])
    with pytest.raises(SharedPartMismatch, match=r"\[0, b\]"):
        synthesize_data(RIGHT, -1.0, 2, truth, K_SAMPLES)


def test_loss_vanishes_at_truth():
    spec, _ = _spec([-3.0, 1.0])
    assert inverse._residual(spec, [-3.0, 1.0])[2] < 1e-22
    assert inverse._residual(spec, [-2.0, 1.0])[2] > 1e-4


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


def _recover_by_cli(tmp_path, spec, *flags):
    """Run inverse-recover on spec from zeros; the path of its report."""
    path, out = tmp_path / "spec.json", tmp_path / "rec.json"
    path.write_text(json.dumps(spec.to_json()))
    assert cli.main(["inverse-recover", "--spec", str(path), "--out", str(out),
                     *flags]) == cli.PASS_EXIT
    return out


def test_recovery_result_json(tmp_path):
    spec, _ = _spec([-3.0, 1.0])
    res = recover_left(spec, [0.0, 0.0])
    d = json.loads(_recover_by_cli(tmp_path, spec).read_text())
    assert d["converged"] is True
    assert len(d["recovered_left"]) == 2
    assert d["recovered_left"] == list(res.recovered_left)
    assert d["final_loss"] == res.final_loss and d["iterations"] == res.iterations


def _det_s_residual(spec, params):
    """The residual vector from the public det_s, apart from det_s_jacobian."""
    model = det_s(spec.candidate(params), np.asarray(spec.k_samples, dtype=float))
    diff = model - np.asarray(spec.det_s_values, dtype=complex)
    return np.concatenate([diff.real, diff.imag])


def _central_difference_jacobian(spec, params, h=1e-5):
    """Oracle: central differences of the residual vector, one left cell at
    a time."""
    cols = []
    for j in range(len(params)):
        step = np.zeros(len(params))
        step[j] = h * (1.0 + abs(params[j]))
        up = _det_s_residual(spec, params + step)
        down = _det_s_residual(spec, params - step)
        cols.append((up - down) / (2 * step[j]))
    return np.column_stack(cols)


@given(
    left=st.lists(st.floats(-4.0, 2.0), min_size=1, max_size=8),
    ks=st.lists(st.floats(0.1, 12.0), min_size=1, max_size=30, unique=True),
    at_k2=st.tuples(st.integers(0, 7), st.integers(0, 29)),
    shift=st.floats(-3.0, 3.0),
)
@settings(max_examples=40, deadline=None)
def test_exact_jacobian_matches_central_differences(left, ks, at_k2, shift):
    n = len(left)
    spec = InverseProblemSpec(RIGHT, -1.0, n, k_samples=tuple(sorted(ks)),
                              det_s_values=(0j,) * len(ks))
    params = np.asarray(left) + shift
    # one cell at V = k^2 for one sample k: kappa = 0 there, the series branch
    j, i = at_k2[0] % n, at_k2[1] % len(ks)
    params[j] = ks[i] ** 2
    _, J, _ = inverse._residual(spec, params)
    oracle = _central_difference_jacobian(spec, params)
    err = np.linalg.norm(J - oracle, axis=0)
    assert np.all(err <= 1e-6 * np.linalg.norm(oracle, axis=0))


def test_recover_left_evaluates_each_point_once(monkeypatch):
    """The start and each trial step cost one det_s_jacobian call, and an
    accepted trial's Jacobian serves the next iteration."""
    spec, _ = _spec([-2.5, 0.8, -1.2, 2.0])
    points, trials = [], []
    jacobian, solve = inverse.det_s_jacobian, np.linalg.solve

    def counted_jacobian(V, k, n):
        points.append(V.values)
        return jacobian(V, k, n)

    def counted_solve(A, b):
        out = solve(A, b)
        trials.append(out)
        return out

    monkeypatch.setattr(inverse, "det_s", lambda *a: pytest.fail("det_s called"))
    monkeypatch.setattr(inverse, "det_s_jacobian", counted_jacobian)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    res = recover_left(spec, np.zeros(4))
    assert res.converged and res.iterations > 2
    assert len(points) == 1 + len(trials)
    assert len(set(points)) == len(points)


@pytest.mark.parametrize("m, seed", [(2, 1), (4, 2), (4, 3)])
def test_recover_left_returns_at_its_noise_floor(m, seed):
    """Noisy det S data fits no potential exactly; the fit stops at its
    least-squares floor, from either start, within delta sqrt(2n) / sigma_min
    of the truth (sigma_min the least singular value of the Jacobian there),
    and converges only where the floor lies below 1e-10."""
    ks = np.linspace(0.3, 8.0, 60)
    left = np.random.default_rng(seed).uniform(-3.0, 1.0, m)
    truth = make_piecewise(list(np.linspace(-1.0, 0.0, m + 1)) + [0.5, 1.0],
                           list(left) + [-2.0, 1.5])
    spec = synthesize_data(RIGHT, -1.0, m, truth, ks)
    _, J = det_s_jacobian(truth, ks, m)
    sigma_min = np.linalg.svd(np.concatenate([J.real, J.imag]), compute_uv=False)[-1]
    rng = np.random.default_rng(100 + m)
    for delta in (1e-8, 1e-6, 1e-4, 1e-3):
        noise = delta * (rng.standard_normal(60) + 1j * rng.standard_normal(60)) / np.sqrt(2)
        noisy = InverseProblemSpec(RIGHT, -1.0, m, spec.k_samples,
                                   tuple(np.asarray(spec.det_s_values) + noise))
        for init in (np.zeros(m), left + 0.01):
            res = recover_left(noisy, init)
            err = np.linalg.norm(np.asarray(res.recovered_left) - left)
            assert err <= delta * np.sqrt(2 * len(ks)) / sigma_min
            if delta >= 1e-4:
                assert not res.converged


def test_recover_left_raises_where_the_loss_never_falls(monkeypatch):
    spec, _ = _spec([-3.0, 1.0])
    start = inverse._residual(spec, [0.0, 0.0])
    worse = (start[0], start[1], 2 * start[2])
    monkeypatch.setattr(inverse, "_residual",
                        lambda spec, p: start if not np.any(p) else worse)
    with pytest.raises(DivergedLoss):
        recover_left(spec, [0.0, 0.0])


def _raises_pole(f):
    try:
        f()
    except PoleAtK:
        return True
    return False


@given(
    values=st.lists(st.floats(-30.0, -0.5), min_size=1, max_size=4),
    width=st.floats(0.5, 2.0),
    ks=st.lists(st.builds(complex, st.floats(-5.0, 5.0), st.floats(-3.0, 3.0)),
                max_size=4),
)
@settings(max_examples=20, deadline=None)
def test_jacobian_raises_where_det_s_does(values, width, ks):
    n = len(values)
    V = Potential._unchecked(np.linspace(-width, width, n + 1), values)
    # unconverged phantoms on the search rectangle's top edge are no poles
    states = [z.location for z in bound_states(V)[0].zeros if z.converged]
    assert states, "every well has a bound state"
    for k in states + ks:
        for kk in (k, np.array([0.7, k])):
            assert (_raises_pole(lambda: det_s_jacobian(V, kk, n))
                    == _raises_pole(lambda: det_s(V, kk)))
    assert all(_raises_pole(lambda: det_s(V, k)) for k in states)


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


def test_uniqueness_report_distinct(tmp_path):
    """distinguish reports every field of the uniqueness report."""
    V1, V2 = _truth([-3.0, 1.0]), _truth([-1.0, -1.0])
    rep = uniqueness_report((V1, V2), 8.0)
    assert not rep.identical_left
    assert rep.implication_pass
    assert rep.distinguishability > 1e-7
    assert rep.resonance_hausdorff > 1e-7
    V1.save(tmp_path / "v1.json")
    V2.save(tmp_path / "v2.json")
    out = tmp_path / "dist.json"
    assert cli.main(["distinguish", "--potential1", str(tmp_path / "v1.json"),
                     "--potential2", str(tmp_path / "v2.json"), "--radius", "8",
                     "--out", str(out)]) == cli.PASS_EXIT
    d = json.loads(out.read_text())
    assert d["identical_left"] is False
    assert d == asdict(rep)


def test_loss_trace_csv(tmp_path):
    spec, _ = _spec([-3.0, 1.0])
    res = recover_left(spec, [0.0, 0.0])
    path = tmp_path / "trace.csv"
    _recover_by_cli(tmp_path, spec, "--trace", str(path))
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "iteration,loss"
    assert len(rows) == 1 + len(res.loss_trace)
    with open(path, newline="") as fh:
        assert [float(loss) for _, loss in list(csv.reader(fh))[1:]] == list(res.loss_trace)
