"""Indicator fits, zero densities, Cartwright integral, Blaschke/Poisson checks."""

import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson

import resonances1d
from resonances1d import asymptotics
from resonances1d.asymptotics import (
    _quad,
    _quad_tail,
    _tail_fit,
    blaschke_chi,
    cartwright_integral,
    g_function_experiment,
    indicator_estimate,
    indicator_width,
    nevanlinna_residual,
    zero_density,
)
from resonances1d.czeros import Rect, Zero, ZeroSet, resonances, winding_number
from resonances1d.errors import (
    EvaluationAtZero,
    LowCountWarning,
    NonConvergentTail,
    PhaseStepTooLarge,
    QuadratureNotConverged,
    UnconvergedZeroWarning,
    ZeroInLowerHalfPlane,
)
from resonances1d.potential import make_piecewise, square_well
from resonances1d.scattering import log_abs_xhat, log_abs_yhat, xhat, yhat
from resonances1d.wavekernel import Window, kernel_fourier, solve_kernels

from conftest import wells


# -- indicator function -----------------------------------------------------


def _ln(f):
    """ln|f| as a real array, -inf at an exact zero of f: what the growth fits read."""
    def ln(z):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(f(z)))
    return ln


def test_indicator_of_polynomial_is_zero():
    rep = indicator_estimate(_ln(lambda z: 1j * z), 0.7, 50.0)
    assert abs(rep.h) < 0.01
    assert rep.fit_residual <= 0.05 * (1.0 + abs(rep.h))


def test_indicator_of_pure_exponential():
    f = _ln(lambda z: np.exp(1j * z))
    up = indicator_estimate(f, np.pi / 2, 50.0)
    dn = indicator_estimate(f, -np.pi / 2, 50.0)
    assert abs(up.h - (-1.0)) < 0.01
    assert abs(dn.h - 1.0) < 0.01
    assert abs(indicator_width(f, 50.0)) < 0.02


def test_indicator_width_of_constant():
    assert abs(indicator_width(_ln(lambda z: np.ones_like(z)), 50.0)) < 1e-9


def test_indicator_width_xhat():
    V = square_well(-4.0, -1.0, 1.0)
    d = indicator_width(lambda k: log_abs_xhat(V, k), 40.0)
    assert abs(d - 4.0) < 0.05 * 4.0


def test_indicator_width_yhat():
    V = square_well(-4.0, -1.0, 1.0)
    d = indicator_width(lambda k: log_abs_yhat(V, k), 40.0)
    assert abs(d - 4.0) < 0.05 * 4.0


def test_subadditivity_under_products_and_sums():
    """Indicator inequalities h_fg <= h_f + h_g and h_{f+g} <= max + slack."""
    V1 = square_well(-4.0, -1.0, 1.0)
    V2 = make_piecewise([-0.8, 0.1, 0.6], [2.0, -3.0])
    f = lambda k: xhat(V1, k)
    g = lambda k: xhat(V2, k)
    for theta in (np.pi / 2, -np.pi / 2, 2.1, -0.9):
        hf = indicator_estimate(_ln(f), theta, 30.0).h
        hg = indicator_estimate(_ln(g), theta, 30.0).h
        hfg = indicator_estimate(_ln(lambda k: f(k) * g(k)), theta, 30.0).h
        hsum = indicator_estimate(_ln(lambda k: f(k) + g(k)), theta, 30.0).h
        assert hfg <= hf + hg + 0.05
        assert hsum <= max(hf, hg) + 0.05


@pytest.mark.parametrize("fit", [lambda f: indicator_estimate(f, np.pi / 2, 40.0),
                                 lambda f: indicator_width(f, 40.0),
                                 lambda f: cartwright_integral(f, 40.0)])
def test_growth_fits_refuse_f_itself(fit):
    """The fits read ln|f|.  Given plain xhat, read as ln|xhat|, indicator_width
    gave -1.7e63 on sw4 at r 40 and cartwright_integral 4.06, converged;
    complex values now raise before any fit or integral runs."""
    V = square_well(-4.0, -1.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TypeError, match="real array"):
            fit(lambda k: xhat(V, k))


# -- zero density -----------------------------------------------------------


def _synthetic_chain(n=80):
    zeros = tuple(
        Zero(complex(s * m, -0.1), 1, 0.0)
        for m in range(1, n + 1) for s in (+1, -1)
    )
    return ZeroSet(zeros)


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
    zs = ZeroSet((Zero(1 - 1j, 1, 0.0),))
    with pytest.warns(LowCountWarning):
        zero_density(zs, (-np.pi, 0.0))


def test_density_leaves_out_unconverged_zeros():
    zs = _synthetic_chain()
    phantom = Zero(complex(0.3, -40.0), 1, 1.0, converged=False)
    with pytest.warns(UnconvergedZeroWarning):
        rep = zero_density(ZeroSet(zs.zeros + (phantom,)),
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
    rep = cartwright_integral(_ln(lambda z: np.ones_like(np.asarray(z))), 50.0)
    assert abs(float(rep)) < 1e-12


def test_cartwright_ik_self_refinement():
    """Tail-corrected value is cutoff-independent and matches the exact one."""
    f = _ln(lambda z: 1j * np.asarray(z))
    v1 = float(cartwright_integral(f, 50.0))
    v2 = float(cartwright_integral(f, 500.0))
    assert abs(v1 - v2) < 1e-6
    two_catalan = 1.8319311883544380
    assert abs(v1 - two_catalan) < 1e-6


def test_cartwright_xhat_converges():
    V = square_well(-4.0, -1.0, 1.0)
    rep = cartwright_integral(lambda k: log_abs_xhat(V, k), 100.0)
    assert rep.converged
    assert np.isfinite(float(rep))
    assert abs(rep.growth_order - 1.0) < 0.2


def test_cartwright_rejects_exponential_growth():
    with pytest.raises(NonConvergentTail):
        cartwright_integral(_ln(lambda z: np.exp(np.abs(np.asarray(z)))), 30.0)


def _log_plus(V):
    return lambda x: np.maximum(log_abs_xhat(V, x), 0.0) / (1.0 + x * x)


def test_cartwright_calls_f_once_per_level():
    """sw4 at cutoff 40: one call of f per quadrature level and one per tail
    fit (quad made 1,325 single-point calls), and the main integral and the
    tails agree with scipy's quad within the two error estimates."""
    V = square_well(-4.0, -1.0, 1.0)
    calls = []

    def f(k):
        calls.append(np.size(k))
        return log_abs_xhat(V, k)

    rep = cartwright_integral(f, 40.0)
    assert len(calls) <= 30
    assert rep.converged is True
    got, got_err = _quad(_log_plus(V), -40.0, 40.0)
    assert got == rep.value
    want, want_err = quad(lambda x: float(_log_plus(V)(x)), -40.0, 40.0, limit=400)
    assert abs(got - want) <= got_err + want_err
    for sign in (+1.0, -1.0):
        p, q, _ = _tail_fit(f, 40.0, sign)
        model = lambda x: np.maximum(p * np.log(x) + q, 0.0) / (1.0 + x * x)
        got, got_err = _quad_tail(model, 40.0, 1.0)
        want, want_err = quad(model, 40.0, np.inf, limit=400)
        assert abs(got - want) <= got_err + want_err


def test_kinks_of_log_plus_count_their_mass():
    """ln|xhat| of this well crosses 0 at +-0.9377, between qk21 nodes.
    Those kinks fooled the error estimate: the main integral read
    1.5570333025, 8.1e-6 off, with an estimate of 3.8e-10.  The reference
    is a 20-point Gauss-Legendre sum on 0.01 panels split at the kinks; a
    4-million-point Simpson sum agrees."""
    V = make_piecewise(
        [-0.31417295427766334, -0.1953107294210676, -0.17092408740597168,
         -0.10620412607145355, 0.00034377923243945945, 0.06642950563631936,
         0.18569464192414692, 0.31417295427766334],
        [2.9151473879538576, -7.6537315235271945, 2.6879906729787084,
         1.6711498972930316, 3.6345851670149725, -1.1950498189880676,
         0.5848394144704429])
    cutoff = 29.328860766130763
    rep = cartwright_integral(lambda k: log_abs_xhat(V, k), cutoff)
    value, err = _quad(_log_plus(V), -cutoff, cutoff)
    assert value == rep.value
    assert not rep.converged or abs(value - 1.5570252144) <= err + 1e-9


def test_tail_model_kink_counts_its_mass():
    """A decaying tail model, ln|f| = 5 - log x, crosses 0 at x = e^5 inside
    the tail's range.  Where the kink was not seen, the tail read 3.5e-11
    off with an estimate of 2.6e-12; the reference integrates the smooth
    piece up to e^5."""
    model = lambda x: np.maximum(5.0 - np.log(x), 0.0) / (1.0 + x * x)
    got, got_err = _quad_tail(model, 40.0, 1.0)
    want, want_err = quad(lambda x: (5.0 - np.log(x)) / (1.0 + x * x), 40.0, np.exp(5.0),
                          epsabs=1e-15, epsrel=1e-14)
    assert abs(got - want) <= got_err + want_err


def test_cartwright_converged_covers_the_main_integral(monkeypatch):
    """Three levels finish each tail but not sw4's main integral."""
    V = square_well(-4.0, -1.0, 1.0)
    f = lambda k: log_abs_xhat(V, k)
    monkeypatch.setattr(asymptotics, "_LEVELS", 3)
    for sign in (+1.0, -1.0):
        p, q, _ = _tail_fit(f, 40.0, sign)
        t, err = _quad_tail(
            lambda x: np.maximum(p * np.log(x) + q, 0.0) / (1.0 + x * x), 40.0, 1.0)
        assert err < 1e-8 * (1.0 + abs(t))
    assert cartwright_integral(f, 40.0).converged is False


@given(wells(), st.floats(2.0, 40.0))
@example(make_piecewise([-0.5395973041319054, 0.5395973041319054], [0.8720304484367257]),
         3.1016173528309556)
# split at its kinks +-0.9267, _quad read 1.1e-8 off with an estimate of
# 2.2e-9: the qk21 estimate on [0.9267, cutoff] missed the steep rise past it
@example(make_piecewise([-1.0471227563338559, -0.1224036674309107, 0.10313868641209949,
                         1.0471227563338559], [-2.275390625, -8.0, -3.53125]),
         10.258901520201036)
@settings(max_examples=25, deadline=None)
def test_quad_matches_scipy_quad_on_log_plus_xhat(V, cutoff):
    """Where quad meets its tolerance, _quad agrees with it within the two
    error estimates.  _quad counts the whole mass of an interval whose nodes
    bracket a kink of ln+ as its error; quad can miss a kink between its
    nodes (by up to 2.8e-5, on the barrier of the first example), so a
    disagreement is settled by a Simpson sum at spacing 2**-15."""
    lp = _log_plus(V)
    out = quad(lambda x: float(lp(x)), -cutoff, cutoff, limit=400, full_output=1)
    assume(len(out) == 3)  # ier == 0: quad met its tolerance
    want, want_err = out[:2]
    got, got_err = _quad(lp, -cutoff, cutoff)
    assert got_err <= 1.49e-8 * max(1.0, abs(got))
    if abs(got - want) > got_err + want_err:
        x = np.linspace(-cutoff, cutoff, 2 * int(cutoff * 2**15) + 1)
        assert abs(got - simpson(lp(x), x=x)) <= got_err + 1e-9


@pytest.mark.parametrize("g, a, b, exact", [
    # a kink at an irrational point, and an integrable log singularity
    (lambda x: np.abs(x - np.sqrt(2.0)), -1.0, 3.0,
     ((np.sqrt(2.0) + 1.0) ** 2 + (3.0 - np.sqrt(2.0)) ** 2) / 2),
    (lambda x: np.log(x), 0.0, 1.0, -1.0),
    (lambda x: np.log(np.abs(x - 0.3)), -1.0, 1.0, 0.7 * np.log(0.7) + 1.3 * np.log(1.3) - 2.0),
])
def test_quad_closed_forms(g, a, b, exact):
    got, got_err = _quad(g, a, b)
    assert got_err <= 1.49e-8 * max(1.0, abs(got))
    assert abs(got - exact) <= got_err
    want, want_err = quad(g, a, b, limit=400)
    assert abs(got - want) <= got_err + want_err


def test_quad_tail_two_catalan():
    """ln+|x| / (1 + x^2) over the real line is 2G, G Catalan's constant:
    the tails by x = c e^u, and across the kinks at |x| = 1."""
    g = lambda x: np.log(np.maximum(np.abs(x), 1.0)) / (1.0 + x * x)
    parts = [_quad(g, -3.0, 3.0)] + [_quad_tail(g, 3.0, s) for s in (1.0, -1.0)]
    total = sum(v for v, _ in parts)
    assert abs(total - 1.8319311883544380) <= sum(e for _, e in parts) + 1e-15


# -- Blaschke products ------------------------------------------------------


def test_blaschke_empty():
    assert blaschke_chi((), 1.0 + 1.0j) == 1.0


def test_blaschke_modulus_on_reals(rng):
    a = rng.uniform(-3, 3, 20) + 1j * rng.uniform(0.1, 3.0, 20)
    x = rng.uniform(-25, 25, 100)
    np.testing.assert_allclose(np.abs(blaschke_chi(a, x)), 1.0, atol=1e-10)


def test_chi_vanishes_at_zero():
    a = np.array([1 + 1j, -2 + 0.5j])
    assert blaschke_chi(a, 1 + 1j) == 0.0
    assert abs(blaschke_chi(a, 10j)) < 1.0


def test_scalar_z_gives_a_complex_with_the_bits_of_its_array_element():
    a = (1.0 + 2.0j, -0.5 + 0.3j, 3.0 + 0.1j)
    field = solve_kernels(square_well(-4.0, -1.0, 1.0), 128)
    for f in (lambda z: blaschke_chi(a, z),
              lambda z: kernel_fourier(field, Window.X_FULL, z)):
        for z in (0.7 + 0.4j, -2.3 - 0.1j, 1.5 + 0.0j):
            one = f(z)
            assert type(one) is complex
            assert np.array(one).tobytes() == f(np.array([z]))[0].tobytes()


def test_blaschke_rejects_lower_zeros():
    with pytest.raises(ZeroInLowerHalfPlane):
        blaschke_chi((1 - 1j,), 2j)


def test_blaschke_pole_detection():
    with pytest.raises(EvaluationAtZero):
        blaschke_chi((1 + 1j,), 1 - 1j)


# -- Nevanlinna-Levin residual ----------------------------------------------


def test_nevanlinna_trivial():
    one = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    resid, zs = nevanlinna_residual(one, 0.0, 2j, 100.0)
    assert resid < 1e-12 and zs.zeros == ()


def test_nevanlinna_pure_exponential():
    f = lambda z: np.exp(2j * np.asarray(z, dtype=complex))
    assert nevanlinna_residual(f, -2.0, 2j, 100.0)[0] < 1e-8


def test_nevanlinna_failed_zero_count_raises():
    one = lambda z: np.ones_like(np.asarray(z, dtype=complex))
    with mock.patch("resonances1d.asymptotics.find_zeros",
                    side_effect=PhaseStepTooLarge("phase step")):
        with pytest.raises(PhaseStepTooLarge):
            nevanlinna_residual(one, 0.0, 2j, 100.0)


def test_nevanlinna_unconverged_integral_raises(monkeypatch):
    """The shallow well's boundary values dip to a zero of yhat over and over
    on [-200, 200]; two levels leave the Poisson integral far from its
    tolerance, and the residual raises rather than return a number."""
    V = square_well(-1.0, -0.5, 0.5)
    monkeypatch.setattr(asymptotics, "_LEVELS", 2)
    with pytest.raises(QuadratureNotConverged):
        nevanlinna_residual(lambda k: yhat(V, k), 0.0, 2j, 200.0)


def _yhat_sigma(V, r_max):
    return indicator_estimate(lambda k: log_abs_yhat(V, k), np.pi / 2, r_max).h


def test_nevanlinna_yhat_shallow_well():
    V = square_well(-1.0, -0.5, 0.5)
    resid, _ = nevanlinna_residual(lambda k: yhat(V, k), _yhat_sigma(V, 60.0), 2j, 200.0)
    assert resid < 0.05


def test_nevanlinna_yhat_with_upper_zeros():
    # yhat of this asymmetric step has 7 upper zeros in the residual's
    # rectangle, so the Blaschke factor is built from a non-empty set
    V = make_piecewise([-1.0, 0.0, 1.0], [-3.0, 2.0])
    resid, zs = nevanlinna_residual(lambda k: yhat(V, k), _yhat_sigma(V, 60.0), 2j, 200.0)
    assert zs.total_multiplicity() == 7
    assert resid < 0.05


@pytest.mark.parametrize("V, count", [
    (make_piecewise([-1.0, 0.0, 1.0], [-3.0, 2.0]), 7),
    (make_piecewise([-0.7, 0.3, 1.1], [1.5, -2.0]), 4),
])
def test_nevanlinna_zeros_are_all_its_rectangle_counts(V, count):
    """chi is built from every zero the rectangle Rect(-R + 0.05i, R + Ri),
    R = max(10, 2|z|) = 10, holds, each as often as its multiplicity."""
    f = lambda k: yhat(V, k)
    _, zs = nevanlinna_residual(f, _yhat_sigma(V, 60.0), 2j, 200.0)
    assert zs.total_multiplicity() == winding_number(f, Rect(-10 + 0.05j, 10 + 10j)) == count


def test_nevanlinna_square_well_reads_red_by_its_sigma_plus():
    """The residual is linear in sigma+ with slope Im z.  The indicator at
    r 40 gives 1.9558, short of 2b = 2, the top of yhat's Fourier support
    [2a, 2b]; that shortfall times Im z = 2, 0.0884, is the residual of 0.0887
    to within 1e-3."""
    V = square_well(-4.0, -1.0, 1.0)
    sigma = _yhat_sigma(V, 40.0)
    resid, zs = nevanlinna_residual(lambda k: yhat(V, k), sigma, 2j, 200.0)
    assert zs.total_multiplicity() == 1
    assert abs(resid - 2.0 * (2 * V.hull[1] - sigma)) < 1e-3


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


def test_g_experiment_memory_stays_small():
    """A call of G takes a counting contour's k, more of them at larger
    radii; the transforms take k in blocks, so no exp(-i k s) matrix holds
    them all at once."""
    V1 = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.0])
    V2 = make_piecewise([-1.0, 0.0, 1.0], [-1.0, -2.0])
    tracemalloc.start()
    try:
        g_function_experiment(V1, V2, 10.0, r_window=0.1, n_grid=512)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_integral_paths_load_no_scipy(tmp_path):
    """cartwright-check and the Nevanlinna residual run, in a fresh
    interpreter, with every scipy import blocked."""
    code = """
import sys
sys.modules["scipy"] = None
from resonances1d import cli
from resonances1d.asymptotics import nevanlinna_residual
from resonances1d.potential import square_well
from resonances1d.scattering import yhat

square_well(-4.0, -1.0, 1.0).save(sys.argv[1] + "/sw4.json")
assert cli.main(["cartwright-check", "--potential", sys.argv[1] + "/sw4.json",
                 "--radius", "40", "--out", sys.argv[1] + "/c.json"]) == 0
V = square_well(-1.0, -0.5, 0.5)
one = lambda k: yhat(V, k) ** 0
assert nevanlinna_residual(one, 0.0, 2j, 100.0)[0] < 1e-12
print(sorted(m for m in sys.modules if m.startswith("scipy.")))
"""
    src = os.path.dirname(os.path.dirname(resonances1d.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
