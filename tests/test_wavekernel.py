"""Characteristic kernel solver and its windowed Fourier transforms."""

import csv
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson

import resonances1d
from resonances1d import cli, wavekernel
from resonances1d.errors import (
    GridTooCoarse,
    ImaginaryPartTooLarge,
    SharedPartMismatch,
)
from resonances1d.potential import make_piecewise, square_well
from resonances1d.scattering import xhat, yhat
from resonances1d.wavekernel import (
    Window,
    _interval,
    _windowed_quadrature,
    default_window_r,
    domain_of_influence_check,
    kernel_fourier,
    solve_kernels,
)

from conftest import make_zero_potential, wells


def test_free_case_kernels_vanish():
    V = make_zero_potential()
    field = solve_kernels(V, 128)
    np.testing.assert_allclose(field.X_reg, 0.0, atol=1e-14)
    np.testing.assert_allclose(field.Y_reg, 0.0, atol=1e-14)
    assert field.delta_prime_coeff == 1.0
    assert field.delta_coeff == 0.0


@pytest.mark.parametrize("n", [256, 512, 1024])
def test_kernels_are_translation_invariant(n):
    """Moving the potential moves neither kernel: the exit line samples the
    last cell exactly, wherever (xi + eta)/2 rounds to on that hull."""
    f1 = solve_kernels(make_piecewise([-0.7, 0.3, 1.1], [1.5, -2.0]), n)
    f2 = solve_kernels(make_piecewise([-0.9, 0.1, 0.9], [1.5, -2.0]), n)
    scale = max(np.max(np.abs(f1.X_reg)), np.max(np.abs(f1.Y_reg)))
    assert np.max(np.abs(f1.X_reg - f2.X_reg)) <= 1e-12 * scale
    assert np.max(np.abs(f1.Y_reg - f2.Y_reg)) <= 1e-12 * scale


def test_march_memory_is_linear_in_n():
    """Two anti-diagonals and the quadrature sums: no (n+1)^2 array."""
    V = square_well(-4.0, -1.0, 1.0)
    tracemalloc.start()
    try:
        solve_kernels(V, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _reference_march(V, n):
    """The march as first written: a fresh array per anti-diagonal and the
    update in its plain form, (sum - older + c V u) / (1 - c v_d)."""
    a, b = V.hull
    h = 2.0 * (b - a) / n
    x = np.linspace(a, b, n + 1)
    v = V.value_at(x)
    v[0], v[-1] = V.values[0], V.values[-1]
    edge = 0.5 * V.cumulative_integral(x)
    c = h * h / 16.0
    rows = np.zeros(n + 1)
    cols = np.zeros(n + 1)
    older = prev = np.zeros(0)
    for d in range(n + 1):
        u = np.zeros(d + 1)
        u[0] = edge[d]
        if d >= 2:
            u[1:d] = (
                prev[:-1] + prev[1:] - older
                + c * (v[d - 1] * prev[:-1] + v[d - 1] * prev[1:] + v[d - 2] * older)
            ) / (1.0 - c * v[d])
        w = v[d] * u
        rows[: d + 1] += w
        cols[d::-1] += w
        older, prev = prev, u
    X = -0.25 * h * (rows - 0.5 * w)
    Y = v / 4.0 + 0.25 * h * (cols - 0.5 * (v * edge + w[::-1]))
    return -h * np.arange(n, -1, -1), X[::-1], 2 * a + h * np.arange(n + 1), Y, v / 4.0


# n + 1 below one block of _FLUSH anti-diagonals, and n + 1 leaving
# _FLUSH - 1, 2, _FLUSH - 1 and 0 in a last block (64, 128 and 512 leave 1)
_F = wavekernel._FLUSH
_BLOCK_EDGES = [_F - 2, 2 * _F - 2, 2 * _F + 1, 3 * _F - 2, 3 * _F - 1]
_EDGE_WELL = make_piecewise([-1.0, -0.2, 0.3, 0.6, 1.0], [1.5, -2.0, 0.7, -1.1])


@given(wells(), st.sampled_from([64, 128, 512, *_BLOCK_EDGES]))
@example(_EDGE_WELL, _BLOCK_EDGES[0])
@example(_EDGE_WELL, _BLOCK_EDGES[1])
@example(_EDGE_WELL, _BLOCK_EDGES[2])
@example(_EDGE_WELL, _BLOCK_EDGES[3])
@example(_EDGE_WELL, _BLOCK_EDGES[4])
@settings(max_examples=30, deadline=None)
def test_march_matches_the_reference_march(V, n):
    """Precomputed coefficients, in-place buffers and sums flushed once per
    block of anti-diagonals reorder the rounding only: the kernels agree
    within 1e-11 of the kernel scale, the grids and y_leading bit for bit."""
    got, want = wavekernel._march(V, n), _reference_march(V, n)
    for i in (0, 2, 4):
        assert np.array_equal(got[i], want[i])
    scale = max(np.max(np.abs(want[1])), np.max(np.abs(want[3])))
    assert np.max(np.abs(got[1] - want[1])) <= 1e-11 * scale
    assert np.max(np.abs(got[3] - want[3])) <= 1e-11 * scale


def test_grid_floor():
    with pytest.raises(GridTooCoarse):
        solve_kernels(square_well(-4.0, -1.0, 1.0), 32)


def test_kernel_supports():
    V = square_well(-4.0, -1.0, 1.0)
    field = solve_kernels(V, 256)
    assert field.x_grid[0] == pytest.approx(-2 * (V.b - V.a))
    assert field.x_grid[-1] == pytest.approx(0.0)
    assert field.y_grid[0] == pytest.approx(2 * V.a)
    assert field.y_grid[-1] == pytest.approx(2 * V.b)


def test_singular_coefficients():
    V = make_piecewise([-1.0, 0.3, 0.8], [2.0, -3.0])
    field = solve_kernels(V, 256)
    assert field.delta_coeff == pytest.approx(-V.integral() / 2.0)


def test_cross_oracle_x_full():
    """Windowed transform plus singular parts reproduces xhat."""
    V = square_well(-4.0, -1.0, 1.0)
    ks = np.linspace(-10, 10, 81) + 0j
    ref = xhat(V, ks)
    field = solve_kernels(V, 1024)
    out = kernel_fourier(field, Window.X_FULL, ks)
    rel = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
    assert rel < 1e-3


def test_cross_oracle_y_full():
    V = square_well(-4.0, -1.0, 1.0)
    ks = np.linspace(-10, 10, 81) + 0j
    ref = yhat(V, ks)
    field = solve_kernels(V, 1024)
    out = kernel_fourier(field, Window.Y_FULL, ks)
    rel = np.max(np.abs(out - ref)) / np.max(np.abs(ref))
    assert rel < 1e-3


def test_convergence_order():
    V = square_well(-4.0, -1.0, 1.0)
    ks = np.linspace(-8, 8, 33) + 0j
    ref = xhat(V, ks)
    errs = {}
    for n in (256, 512, 1024):
        field = solve_kernels(V, n)
        out = kernel_fourier(field, Window.X_FULL, ks)
        errs[n] = np.max(np.abs(out - ref))
    order1 = math.log2(errs[256] / errs[512])
    order2 = math.log2(errs[512] / errs[1024])
    assert min(order1, order2) >= 1.8


def test_window_additivity_is_exact():
    """FULL equals the window sum plus singular transforms by construction."""
    V = make_piecewise([-1.0, -0.2, 0.6, 1.0], [1.0, -3.0, 2.0])
    field = solve_kernels(V, 512)
    k = np.array([0.7 + 0.1j, -1.9 - 0.4j, 3.3 + 0.0j])
    xsum = (
        1j * k
        + field.delta_coeff
        + kernel_fourier(field, Window.X1, k)
        + kernel_fourier(field, Window.X2, k)
        + kernel_fourier(field, Window.X3, k)
    )
    np.testing.assert_allclose(
        xsum, kernel_fourier(field, Window.X_FULL, k), atol=1e-10
    )
    ysum = (
        kernel_fourier(field, Window.Y1, k)
        + kernel_fourier(field, Window.Y2, k)
        + kernel_fourier(field, Window.Y3, k)
    )
    np.testing.assert_allclose(
        ysum, kernel_fourier(field, Window.Y_FULL, k), atol=1e-10
    )


def _scipy_windowed_quadrature(grid, values, w0, w1, k, h_native):
    """Reference: scipy's simpson on the points _windowed_quadrature resamples,
    with their step (w1 - w0) / npts.  Given x=s instead, simpson takes each
    step from the rounded points, which moves its weights by up to 3e-14
    relative; where the terms cancel (|k| ~ 24 over X1) that alone puts the
    reference 1.5e-16 off an integral of 1.2e-3."""
    w0, w1 = max(w0, grid[0]), min(w1, grid[-1])
    npts = max(int(np.ceil((w1 - w0) / h_native)), 32)
    npts += npts % 2
    s = np.linspace(w0, w1, npts + 1)
    ph = np.exp(-1j * np.multiply.outer(k, s))
    return simpson(np.interp(s, grid, values) * ph, dx=(w1 - w0) / npts,
                   axis=-1)


@given(
    which=st.sampled_from([Window.X1, Window.Y1]),
    ends=st.floats(-0.3, 0.9).flatmap(lambda e0: st.tuples(
        st.just(e0), st.floats(max(e0, 0.0) + 0.05, 1.3))),
    re=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=12),
    im=st.sampled_from([0.0, 0.7, -2.5]),
)
@settings(max_examples=60, deadline=None)
def test_simpson_weights_match_scipy(which, ends, re, im):
    """The weight vector is scipy's composite Simpson rule on the same
    resampled points, for windows inside the grid and clipped by it."""
    field = solve_kernels(make_piecewise([-0.7, 0.3, 1.1], [1.5, -2.0]), 256)
    grid, values = (field.x_grid, field.X_reg) if which is Window.X1 else (
        field.y_grid, field.Y_reg)
    span = grid[-1] - grid[0]
    w0, w1 = grid[0] + span * np.array(ends)
    k = np.array(re) + 1j * im
    h = grid[1] - grid[0]
    ref = _scipy_windowed_quadrature(grid, values, w0, w1, k, h)
    out = _windowed_quadrature(grid, values, w0, w1, k, h)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_transforms_take_k_in_blocks():
    """k runs in blocks of _K_ROWS: a block of k keeps its bits when it
    comes in a stack of blocks, a 2-D k keeps its shape, and
    700 k in several blocks match scipy's Simpson rule."""
    field = solve_kernels(make_piecewise([-0.7, 0.3, 1.1], [1.5, -2.0]), 256)
    grid, values = field.x_grid, field.X_reg
    h = grid[1] - grid[0]
    whole = lambda k: _windowed_quadrature(grid, values, grid[0], grid[-1], k, h)
    n = wavekernel._K_ROWS
    k = np.linspace(-20.0, 20.0, 3 * n).reshape(3, n) - 0.6j
    out = whole(k)
    assert out.shape == k.shape
    assert all(np.array_equal(row, whole(kk)) for row, kk in zip(out, k))
    k = np.linspace(-30.0, 30.0, 700) + 0.7j
    ref = _scipy_windowed_quadrature(grid, values, grid[0], grid[-1], k, h)
    assert np.max(np.abs(whole(k) - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_kernel_paths_load_no_scipy(tmp_path):
    """The kernels CLI, both FULL transforms, the influence check and the G
    experiment run on numpy alone, in a fresh interpreter."""
    code = """
import sys
import numpy as np
from resonances1d import cli
from resonances1d.asymptotics import g_function_experiment
from resonances1d.potential import make_piecewise, square_well
from resonances1d.wavekernel import (
    Window, domain_of_influence_check, kernel_fourier, solve_kernels)

V = square_well(-4.0, -1.0, 1.0)
V.save(sys.argv[1] + "/well.json")
assert cli.main(["kernels", "--potential", sys.argv[1] + "/well.json",
                 "--ngrid", "128", "--out", sys.argv[1] + "/k.csv"]) == 0
field = solve_kernels(V, 256)
ks = np.linspace(-5.0, 5.0, 9) + 0.3j
kernel_fourier(field, Window.X_FULL, ks)
kernel_fourier(field, Window.Y_FULL, ks)
V1 = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.0])
V2 = make_piecewise([-1.0, 0.0, 1.0], [-1.0, -2.0])
domain_of_influence_check(V1, V2, 0.1, 256)
assert not g_function_experiment(V1, V2, 3.0, n_grid=256).degenerate
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(resonances1d.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_window_intervals():
    a, b, r = -1.0, 1.5, 0.1
    assert _interval(Window.X1, a, b, r) == (2 * a, 0.0)
    assert _interval(Window.X2, a, b, r) == (2 * a - 2 * r, 2 * a)
    assert _interval(Window.X3, a, b, r) == (
        2 * a - 2 * b, 2 * a - 2 * r,
    )
    assert _interval(Window.Y2, a, b, r) == (0.0, 2 * r)


def test_imaginary_guard():
    V = square_well(-4.0, -1.0, 1.0)
    field = solve_kernels(V, 128)
    h = field.x_grid[1] - field.x_grid[0]
    with pytest.raises(ImaginaryPartTooLarge):
        kernel_fourier(field, Window.X1, 1.0 + 20.0j / h)


def test_influence_check_shape():
    V1 = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.0])
    V2 = make_piecewise([-1.0, 0.0, 1.0], [-1.0, -2.0])
    rep = domain_of_influence_check(V1, V2, 0.1, 256)
    assert set(rep.window_diffs) == {"X1", "X2", "X3", "Y1", "Y2", "Y3"}
    assert all(v >= 0 for v in rep.window_diffs.values())
    # the left-part change is plainly visible in window 1
    assert rep.window_diffs["X1"] > 0.1
    assert rep.x2_pass == (rep.window_diffs["X2"] <= 10 * rep.truncation_error)
    assert rep.y2_pass == (rep.window_diffs["Y2"] <= 10 * rep.truncation_error)


def test_influence_check_rejects_mismatched_right():
    V1 = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.0])
    V2 = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.5])
    with pytest.raises(SharedPartMismatch):
        domain_of_influence_check(V1, V2, 0.1, 256)


def test_right_part_off_by_1e13_is_rejected_on_every_path():
    """The shared-right check is exact: a 1e-13 change of the right part
    is a different potential for the kernel and the inverse comparisons."""
    from resonances1d.asymptotics import g_function_experiment
    from resonances1d.inverse import distinguishability, uniqueness_report

    V1 = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.0])
    V2 = make_piecewise([-1.0, 0.0, 1.0], [-1.0, -2.0 + 1e-13])
    with pytest.raises(SharedPartMismatch):
        domain_of_influence_check(V1, V2, 0.1, 256)
    with pytest.raises(SharedPartMismatch):
        g_function_experiment(V1, V2, 4.0)
    with pytest.raises(SharedPartMismatch):
        distinguishability(V1, V2, np.linspace(0.1, 5.0, 10))
    with pytest.raises(SharedPartMismatch):
        uniqueness_report((V1, V2), 4.0)


def test_identical_pair_is_insensitive_everywhere():
    V = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.0])
    rep = domain_of_influence_check(V, V, 0.1, 256)
    assert all(v == 0.0 for v in rep.window_diffs.values())
    assert rep.x2_pass and rep.y2_pass


def test_default_window_r():
    V = square_well(-4.0, -1.0, 1.0)
    assert default_window_r(V) == pytest.approx(0.1)


def _kernels_csv_by_rows(field, path):
    """The kernels CSV as first written: one writerow per numpy-scalar row."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["grid", "coordinate", "value"])
        for x, v in zip(field.x_grid, field.X_reg):
            w.writerow(["X", x, v])
        for y, v in zip(field.y_grid, field.Y_reg):
            w.writerow(["Y", y, v])


def _kernels_by_cli(tmp_path, V, n_grid):
    """The CSV the kernels command writes for V at n_grid."""
    V.save(tmp_path / "well.json")
    path = tmp_path / "kernels.csv"
    assert cli.main(["kernels", "--potential", str(tmp_path / "well.json"),
                     "--ngrid", str(n_grid), "--out", str(path)]) == cli.PASS_EXIT
    return path


def test_kernels_csv_bytes_match_the_row_writer(tmp_path):
    """The CLI's CSV prints each float as the numpy scalars did, -0.0 and
    exponent forms included."""
    V = make_piecewise([-1.0, -0.2, 0.3, 0.6, 1.0], [1.5, -2.0, 0.7, -1.1])
    field = solve_kernels(V, 1024)
    values = np.concatenate([field.X_reg, field.Y_reg])
    assert str(field.X_reg[0]) == "-0.0"
    assert np.any((values != 0) & (np.abs(values) < 1e-5))
    new = _kernels_by_cli(tmp_path, V, 1024).read_bytes()
    _kernels_csv_by_rows(field, tmp_path / "old.csv")
    assert new == (tmp_path / "old.csv").read_bytes()


def test_kernels_csv(tmp_path):
    V = square_well(-4.0, -1.0, 1.0)
    field = solve_kernels(V, 128)
    path = _kernels_by_cli(tmp_path, V, 128)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "grid,coordinate,value"
    assert len(rows) == 1 + len(field.x_grid) + len(field.y_grid)
