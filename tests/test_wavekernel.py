"""Characteristic kernel solver and its windowed Fourier transforms."""

import math
import tracemalloc

import numpy as np
import pytest

from resonances1d.errors import (
    GridTooCoarse,
    ImaginaryPartTooLarge,
    SharedPartMismatch,
)
from resonances1d.potential import make_piecewise, square_well
from resonances1d.scattering import xhat, yhat
from resonances1d.wavekernel import (
    KernelWindow,
    Window,
    default_window_r,
    domain_of_influence_check,
    kernel_fourier,
    solve_kernels,
    write_kernels_csv,
)

from conftest import make_zero_potential


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


def test_window_intervals():
    a, b, r = -1.0, 1.5, 0.1
    assert KernelWindow(Window.X1, r).interval(a, b) == (2 * a, 0.0)
    assert KernelWindow(Window.X2, r).interval(a, b) == (2 * a - 2 * r, 2 * a)
    assert KernelWindow(Window.X3, r).interval(a, b) == (
        2 * a - 2 * b, 2 * a - 2 * r,
    )
    assert KernelWindow(Window.Y2, r).interval(a, b) == (0.0, 2 * r)


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
    assert rep.passed


def test_default_window_r():
    V = square_well(-4.0, -1.0, 1.0)
    assert default_window_r(V) == pytest.approx(0.1)


def test_kernels_csv(tmp_path):
    V = square_well(-4.0, -1.0, 1.0)
    field = solve_kernels(V, 128)
    path = tmp_path / "kernels.csv"
    write_kernels_csv(field, path)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == "grid,coordinate,value"
    assert len(rows) == 1 + len(field.x_grid) + len(field.y_grid)
