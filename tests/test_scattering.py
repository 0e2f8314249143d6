"""Forward scattering: transfer matrices, xhat/yhat, det S, unitarity."""

from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from resonances1d import scattering
from resonances1d.czeros import bound_states
from resonances1d.errors import PoleAtK
from resonances1d.potential import Potential, make_piecewise, square_well
from resonances1d.scattering import (
    det_s,
    jost_coefficients,
    log_abs_xhat,
    sample,
    transfer_matrix,
    unitary_residual,
    write_samples_csv,
    xhat,
    yhat,
)

from conftest import EXCEPTIONAL, make_zero_potential


def _single_cell_oracle(v, w, k):
    """Closed-form propagator of psi'' = (v - k^2) psi across width w."""
    kappa = np.sqrt(complex(k) ** 2 - v)
    if abs(kappa) < 1e-12:
        return np.array([[1.0, w], [0.0, 1.0]], dtype=complex)
    return np.array(
        [
            [np.cos(kappa * w), np.sin(kappa * w) / kappa],
            [-kappa * np.sin(kappa * w), np.cos(kappa * w)],
        ],
        dtype=complex,
    )


def test_single_cell_matches_closed_form(rng):
    V = square_well(-3.0, -0.7, 0.7)
    for _ in range(25):
        k = complex(rng.uniform(-8, 8), rng.uniform(-3, 3))
        M = transfer_matrix(V, k).entries
        O = _single_cell_oracle(-3.0, 1.4, k)
        np.testing.assert_allclose(M, O, rtol=1e-12, atol=1e-12)


def test_multi_cell_is_product_of_cells(rng):
    V = make_piecewise([-1.2, -0.3, 0.4, 1.0], [2.0, -5.0, 1.0])
    for _ in range(10):
        k = complex(rng.uniform(-6, 6), rng.uniform(-2, 2))
        M = transfer_matrix(V, k).entries
        O = np.eye(2, dtype=complex)
        for x0, x1, v in zip(V.breakpoints, V.breakpoints[1:], V.values):
            O = _single_cell_oracle(v, x1 - x0, k) @ O
        np.testing.assert_allclose(M, O, rtol=1e-11, atol=1e-11)


def test_transfer_determinant_is_one(rng):
    V = make_piecewise([-1.0, -0.2, 0.8], [-4.0, 2.5])
    for _ in range(20):
        k = complex(rng.uniform(-10, 10), rng.uniform(-4, 4))
        M = transfer_matrix(V, k).entries
        assert abs(np.linalg.det(M) - 1.0) < 1e-10 * max(1.0, np.abs(M).max())


def test_free_case_is_exact(rng, zero_potential):
    ks = rng.uniform(-5, 5, 100) + 1j * rng.uniform(-1, 1, 100)
    np.testing.assert_allclose(xhat(zero_potential, ks), 1j * ks, atol=1e-12)
    np.testing.assert_allclose(yhat(zero_potential, ks), 0.0, atol=1e-12)


def test_conjugation_symmetry(rng):
    """Real potentials give xhat(-conj k) = conj(xhat(k))."""
    V = make_piecewise([-1.1, 0.2, 0.9], [3.0, -2.0])
    ks = rng.uniform(-10, 10, 40) + 1j * rng.uniform(-3, 3, 40)
    np.testing.assert_allclose(
        xhat(V, -np.conj(ks)), np.conj(xhat(V, ks)), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(
        yhat(V, -np.conj(ks)), np.conj(yhat(V, ks)), rtol=1e-12, atol=1e-12
    )


def test_square_well_transmission_oracle():
    """|t|^2 against the textbook formula for a rectangular well."""
    v0, left, right = -4.0, -1.0, 1.0
    V = square_well(v0, left, right)
    w = right - left
    for k in (0.5, 1.0, 2.3, 4.0, 7.7):
        E = k * k
        kappa = np.sqrt(E - v0)
        expected = 1.0 / (
            1.0 + v0 * v0 * np.sin(kappa * w) ** 2 / (4 * E * (E - v0))
        )
        t = jost_coefficients(V, k).t
        assert abs(abs(t) ** 2 - expected) < 1e-10


def test_flux_conservation_on_real_axis(rng):
    V = make_piecewise([-0.9, -0.1, 0.3, 1.2], [1.5, -3.0, 2.0])
    for k in rng.uniform(0.2, 15, 25):
        jc = jost_coefficients(V, k)
        assert abs(abs(jc.t) ** 2 + abs(jc.r_right) ** 2 - 1.0) < 1e-10
        assert abs(abs(jc.t) ** 2 + abs(jc.r_left) ** 2 - 1.0) < 1e-10


def test_det_s_unimodular_on_reals(rng):
    V = square_well(-4.0, -1.0, 1.0)
    ks = rng.uniform(0.1, 18, 50)
    ds = det_s(V, ks)
    np.testing.assert_allclose(np.abs(ds), 1.0, atol=1e-10)


def test_det_s_pole_detection():
    V = square_well(-4.0, -1.0, 1.0)
    # bound states: zeros of the denominator on the upper imaginary axis
    zs, _ = bound_states(V)
    assert len(zs.zeros) == 2
    for z in zs.zeros:
        with pytest.raises(PoleAtK):
            det_s(V, z.location)
        with pytest.raises(PoleAtK):
            det_s(V, np.array([1.0, z.location]))


def _det_s_mp(V, k):
    """-xhat(-k)/xhat(k) = -e^{-2ik(b-a)} B(-k)/B(k) at 40 digits."""
    x1, _, x2, _ = scattering._xy_mp(V, k, 40)
    with mp.workdps(40):
        L = mp.mpf(V.breakpoints[-1]) - mp.mpf(V.breakpoints[0])
        return complex(-mp.exp(-2j * mp.mpc(k) * L) * x2 / x1)


def test_det_s_far_up_the_upper_half_plane_is_not_a_pole():
    """|xhat(k)| = 8.6 at k = 0.5 + 12i, 3e17 times below |xhat(-k)|, with
    no cancellation among its own terms."""
    V = square_well(-4.0, -1.0, 1.0)
    k = 0.5 + 12j
    want = _det_s_mp(V, k)
    assert abs(det_s(V, k) - want) <= 1e-10 * abs(want)


def test_det_s_near_zero_of_a_nearly_free_potential_is_not_a_pole():
    """k = 2.2e-313i: xhat is -M21/2 = -4e-180 to all digits, far from zero
    on the scale of its terms."""
    V = Potential((-1.0, 1.0), (4.06e-180,))
    k = 2.2e-313j
    assert det_s(V, k) == pytest.approx(_det_s_mp(V, k), rel=1e-12)
    d = det_s(V, np.array([0.0, k]))
    assert d[1] == det_s(V, k)
    # xhat(0) = -2e-180 makes the exact k = 0 a zero-energy resonance, where
    # det S is 1 in closed form
    assert d[0] == 1.0


def test_det_s_at_zero_is_finite():
    V = square_well(-4.0, -1.0, 1.0)
    d0 = det_s(V, 0.0)
    assert np.isfinite(d0.real) and np.isfinite(d0.imag)


def test_unitary_residual_small_on_grid(rng):
    V = make_piecewise([-1.0, -0.4, 0.2, 0.9], [2.0, -4.5, 1.0])
    kk = rng.uniform(-20, 20, 30) + 1j * rng.uniform(-5, 5, 30)
    res = unitary_residual(V, kk)
    assert np.max(res) < 1e-8


def test_log_abs_matches_direct_evaluation():
    V = square_well(-4.0, -1.0, 1.0)
    ks = np.array([1.0 + 0.5j, -3.0 - 2.0j, 0.2 + 4.0j])
    np.testing.assert_allclose(
        log_abs_xhat(V, ks), np.log(np.abs(xhat(V, ks))), rtol=1e-12
    )


def test_jost_k_zero_limit():
    V = square_well(-1.0, -0.5, 0.5)
    jc = jost_coefficients(V, 0.0)
    assert jc.k_zero_limit
    # generic potentials are totally reflecting at zero energy
    assert jc.t == 0 and jc.r_right == jc.r_left == -1


def test_zero_energy_resonance_in_closed_form():
    """The exceptional well transmits totally at k = 0: t = -1, r = 0 and
    det S = 1, by jost_coefficients, det_s and sample alike."""
    V = EXCEPTIONAL
    jc, s = jost_coefficients(V, 0.0), sample(V, 0.0)
    for t, r_right, r_left, ds in ((jc.t, jc.r_right, jc.r_left, det_s(V, 0.0)),
                                   (s.t, s.r_right, s.r_left, s.det_s)):
        assert abs(t + 1) < 1e-12
        assert abs(r_right) < 1e-12 and abs(r_left) < 1e-12
        assert abs(ds - 1) < 1e-12


def test_generic_well_reflects_totally_at_zero():
    """On sw4 xhat(0) != 0 gives t = 0, r = -1 and det S = -1 exactly."""
    V = square_well(-4.0, -1.0, 1.0)
    jc, s = jost_coefficients(V, 0.0), sample(V, 0.0)
    assert jc.t == s.t == 0
    assert jc.r_right == jc.r_left == s.r_right == s.r_left == -1
    assert det_s(V, 0.0) == s.det_s == -1


@pytest.mark.parametrize("V", [square_well(-4.0, -1.0, 1.0), EXCEPTIONAL],
                         ids=["sw4", "exceptional"])
@pytest.mark.parametrize("call", [jost_coefficients, det_s, sample])
def test_one_cell_product_at_zero(V, call):
    with mock.patch.object(scattering, "_scaled_transfer",
                           wraps=scattering._scaled_transfer) as transfer:
        call(V, 0.0)
    assert transfer.call_count == 1


def test_quotient_is_exact_at_plus_minus_one(rng):
    """+-den / den is exactly +-1, subnormal den included, where numpy's
    complex division reads sin(4) / -sin(4), sw4's r(0), as
    -0.9999999999999999; other quotients are right to rounding."""
    den = rng.normal(size=200) + 1j * rng.normal(size=200)
    den *= 10.0 ** rng.uniform(-300, 300, 200)
    q = rng.normal(size=200) + 1j * rng.normal(size=200)
    np.testing.assert_allclose(scattering._quotient(q * den, den), q, rtol=4e-15)
    den[:3] = [5e-324, 3e-320j, np.sin(4.0)]
    assert np.all(scattering._quotient(den, den) == 1)
    assert np.all(scattering._quotient(-den, den) == -1)


def test_sample_csv_round_trip(tmp_path, rng):
    V = square_well(-4.0, -1.0, 1.0)
    samples = sample(V, np.array([0.5, 1.0 + 0.3j, -2.0]))
    path = tmp_path / "samples.csv"
    write_samples_csv(path, samples)
    rows = path.read_text().strip().split("\n")
    assert rows[0] == (
        "k_re,k_im,xhat_re,xhat_im,yhat_re,yhat_im,dets_re,dets_im,residual_U"
    )
    assert len(rows) == 4


def test_sample_multiplies_the_cells_once(monkeypatch):
    """On a grid held on the float64 rung, every field of sample, the
    unitary residual included, comes from one cell product."""
    V = square_well(-4.0, -1.0, 1.0)
    ks = np.linspace(0.05, 10.0, 64)
    calls = []
    transfer = scattering._scaled_transfer

    def counted(*args):
        calls.append(args)
        return transfer(*args)

    monkeypatch.setattr(scattering, "_scaled_transfer", counted)
    s = sample(V, ks)
    assert len(calls) == 1
    np.testing.assert_array_equal(s.residual_u, unitary_residual(V, ks))
