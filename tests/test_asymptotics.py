"""Indicator fits, zero densities, Cartwright integral, Blaschke/Poisson checks."""

import warnings
from unittest import mock

import numpy as np
import pytest

from resonances1d.asymptotics import (
    blaschke,
    blaschke_chi,
    cartwright_integral,
    g_function_experiment,
    indicator_estimate,
    indicator_width,
    nevanlinna_residual,
    zero_density,
)
from resonances1d.czeros import Zero, ZeroSet, _search_halfplane, resonances
from resonances1d.errors import (
    EvaluationAtZero,
    IncompleteZeroSet,
    LowCountWarning,
    NonConvergentTail,
    PhaseStepTooLarge,
    UnconvergedZeroWarning,
    ZeroInLowerHalfPlane,
)
from resonances1d.potential import make_piecewise, square_well
from resonances1d.scattering import log_abs_xhat, log_abs_yhat, xhat, yhat
from resonances1d.wavekernel import Window, kernel_fourier, solve_kernels


# -- indicator function -----------------------------------------------------


def test_indicator_of_polynomial_is_zero():
    rep = indicator_estimate(lambda z: 1j * z, 0.7, 50.0)
    assert abs(rep.h) < 0.01
    assert rep.passes()


def test_indicator_of_pure_exponential():
    f = lambda z: np.exp(1j * z)
    up = indicator_estimate(f, np.pi / 2, 50.0)
    dn = indicator_estimate(f, -np.pi / 2, 50.0)
    assert abs(up.h - (-1.0)) < 0.01
    assert abs(dn.h - 1.0) < 0.01
    assert abs(indicator_width(f, 50.0)) < 0.02


def test_indicator_width_of_constant():
    assert abs(indicator_width(lambda z: np.ones_like(z), 50.0)) < 1e-9


def test_indicator_width_xhat():
    V = square_well(-4.0, -1.0, 1.0)
    d = indicator_width(lambda k: log_abs_xhat(V, k), 40.0, logabs=True)
    assert abs(d - 4.0) < 0.05 * 4.0


def test_indicator_width_yhat():
    V = square_well(-4.0, -1.0, 1.0)
    d = indicator_width(lambda k: log_abs_yhat(V, k), 40.0, logabs=True)
    assert abs(d - 4.0) < 0.05 * 4.0


def test_subadditivity_under_products_and_sums():
    """Indicator inequalities h_fg <= h_f + h_g and h_{f+g} <= max + slack."""
    V1 = square_well(-4.0, -1.0, 1.0)
    V2 = make_piecewise([-0.8, 0.1, 0.6], [2.0, -3.0])
    f = lambda k: xhat(V1, k)
    g = lambda k: xhat(V2, k)
    for theta in (np.pi / 2, -np.pi / 2, 2.1, -0.9):
        hf = indicator_estimate(f, theta, 30.0).h
        hg = indicator_estimate(g, theta, 30.0).h
        hfg = indicator_estimate(lambda k: f(k) * g(k), theta, 30.0).h
        hsum = indicator_estimate(lambda k: f(k) + g(k), theta, 30.0).h
        assert hfg <= hf + hg + 0.05
        assert hsum <= max(hf, hg) + 0.05


# -- zero density -----------------------------------------------------------


def _synthetic_chain(n=80):
    zeros = tuple(
        Zero(complex(s * m, -0.1), 1, 0.0)
        for m in range(1, n + 1) for s in (+1, -1)
    )
    return ZeroSet(zeros, "synthetic")


def test_density_of_arithmetic_progression():
    zs = _synthetic_chain()
    rep = zero_density(zs, (-np.pi, 0.0))
    # unit spacing on each side: two zeros per unit of radius
    assert abs(rep.delta - 2.0) < 0.04
    assert rep.width_d == pytest.approx(2 * np.pi * rep.delta)


def test_density_sector_restriction():
    zs = _synthetic_chain()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowCountWarning)
        rep = zero_density(zs, (-np.pi / 2 - 0.3, -np.pi / 2 + 0.3))
    assert rep.delta < 0.05
    assert rep.n_in_sector == 0


def test_low_count_warning():
    zs = ZeroSet((Zero(1 - 1j, 1, 0.0),), "tiny")
    with pytest.warns(LowCountWarning):
        zero_density(zs, (-np.pi, 0.0))


def test_density_leaves_out_unconverged_zeros():
    zs = _synthetic_chain()
    phantom = Zero(complex(0.3, -40.0), 1, 1.0, converged=False)
    with pytest.warns(UnconvergedZeroWarning):
        rep = zero_density(ZeroSet(zs.zeros + (phantom,), "synthetic"),
                           (-np.pi, 0.0))
    assert rep == zero_density(zs, (-np.pi, 0.0))


def test_density_of_square_well_resonances():
    V = square_well(-4.0, -1.0, 1.0)
    zs = resonances(V, 30.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowCountWarning)
        rep = zero_density(zs, (-0.6, -1e-9))
    target = (V.b - V.a) / np.pi
    assert abs(rep.delta - target) < 0.1 * target


# -- Cartwright integral ----------------------------------------------------


def test_cartwright_constant():
    rep = cartwright_integral(lambda z: np.ones_like(np.asarray(z)), 50.0)
    assert abs(float(rep)) < 1e-12


def test_cartwright_ik_self_refinement():
    """Tail-corrected value is cutoff-independent and matches the exact one."""
    f = lambda z: 1j * np.asarray(z)
    v1 = float(cartwright_integral(f, 50.0))
    v2 = float(cartwright_integral(f, 500.0))
    assert abs(v1 - v2) < 1e-6
    two_catalan = 1.8319311883544380
    assert abs(v1 - two_catalan) < 1e-6


def test_cartwright_xhat_converges():
    V = square_well(-4.0, -1.0, 1.0)
    rep = cartwright_integral(lambda k: log_abs_xhat(V, k), 100.0, logabs=True)
    assert rep.converged
    assert np.isfinite(float(rep))
    assert abs(rep.growth_order - 1.0) < 0.2


def test_cartwright_rejects_exponential_growth():
    with pytest.raises(NonConvergentTail):
        cartwright_integral(lambda z: np.exp(np.abs(np.asarray(z))), 30.0)


# -- Blaschke products ------------------------------------------------------


def test_blaschke_empty():
    assert blaschke((), 1.0 + 1.0j) == 1.0


def test_blaschke_modulus_on_reals(rng):
    a = rng.uniform(-3, 3, 20) + 1j * rng.uniform(0.1, 3.0, 20)
    x = rng.uniform(-25, 25, 100)
    np.testing.assert_allclose(np.abs(blaschke(a, x)), 1.0, atol=1e-10)


def test_chi_vanishes_at_zero():
    a = np.array([1 + 1j, -2 + 0.5j])
    assert blaschke_chi(a, 1 + 1j) == 0.0
    assert abs(blaschke_chi(a, 10j)) < 1.0


def test_scalar_z_gives_a_complex_with_the_bits_of_its_array_element():
    a = (1.0 + 2.0j, -0.5 + 0.3j, 3.0 + 0.1j)
    field = solve_kernels(square_well(-4.0, -1.0, 1.0), 128)
    for f in (lambda z: blaschke(a, z), lambda z: blaschke_chi(a, z),
              lambda z: kernel_fourier(field, Window.X_FULL, z)):
        for z in (0.7 + 0.4j, -2.3 - 0.1j, 1.5 + 0.0j):
            one = f(z)
            assert type(one) is complex
            assert np.array(one).tobytes() == f(np.array([z]))[0].tobytes()


def test_blaschke_rejects_lower_zeros():
    with pytest.raises(ZeroInLowerHalfPlane):
        blaschke((1 - 1j,), 2j)


def test_blaschke_pole_detection():
    with pytest.raises(EvaluationAtZero):
        blaschke((1 + 1j,), 1 + 1j)


# -- Nevanlinna-Levin residual ----------------------------------------------


def test_nevanlinna_trivial():
    one = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    assert nevanlinna_residual(one, (), 0.0, 2j, 100.0) < 1e-12


def test_nevanlinna_pure_exponential():
    f = lambda z: np.exp(2j * np.asarray(z, dtype=complex))
    assert nevanlinna_residual(f, (), -2.0, 2j, 100.0) < 1e-8


def test_nevanlinna_failed_zero_count_raises():
    one = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    with mock.patch("resonances1d.asymptotics.winding_number",
                    side_effect=PhaseStepTooLarge("phase step")):
        with pytest.raises(PhaseStepTooLarge):
            nevanlinna_residual(one, (), 0.0, 2j, 100.0)


def test_nevanlinna_yhat_shallow_well():
    V = square_well(-1.0, -0.5, 0.5)
    f = lambda k: yhat(V, k)
    # the upper zeros of yhat are the lower zeros of yhat(-k), negated
    zs = _search_halfplane(lambda k: f(-k), 12.0, tile=3.0, tag="yhat")
    sigma = indicator_estimate(
        lambda k: log_abs_yhat(V, k), np.pi / 2, 60.0, logabs=True
    ).h
    resid = nevanlinna_residual(f, tuple(-zs.locations), sigma, 2j, 200.0)
    assert resid < 0.05


def test_nevanlinna_yhat_with_upper_zeros():
    # yhat of this asymmetric step has 7 upper zeros within radius 12, so the
    # Blaschke factor and the count reconciliation both see a non-empty list
    V = make_piecewise([-1.0, 0.0, 1.0], [-3.0, 2.0])
    f = lambda k: yhat(V, k)
    zs = _search_halfplane(lambda k: f(-k), 12.0, tile=3.0, tag="yhat")
    assert len(zs.locations) == 7
    sigma = indicator_estimate(
        lambda k: log_abs_yhat(V, k), np.pi / 2, 60.0, logabs=True
    ).h
    assert nevanlinna_residual(f, tuple(-zs.locations), sigma, 2j, 200.0) < 0.05
    with pytest.raises(IncompleteZeroSet):
        nevanlinna_residual(f, (), sigma, 2j, 200.0)


# -- windowed-difference experiment -----------------------------------------


def test_g_experiment_degenerate():
    V = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.0])
    rep = g_function_experiment(V, V, 8.0, n_grid=512)
    assert rep.degenerate


def test_g_experiment_distinct_pair():
    V1 = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.0])
    V2 = make_piecewise([-1.0, 0.0, 1.0], [-1.0, -2.0])
    rep = g_function_experiment(V1, V2, 10.0, r_window=0.1, n_grid=512)
    assert not rep.degenerate
    assert rep.width_x == pytest.approx(4.0, rel=0.06)
    assert np.isfinite(rep.width_g)
    assert rep.n_zeros_x > 0
