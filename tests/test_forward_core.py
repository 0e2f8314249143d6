"""Properties of the forward core over random step potentials.

Every scattering quantity is assembled from one scaled cell product per
k-point, used for both k and -k.  These properties check that the product
is even in k to the bit, that the assembled quantities agree with their
definitions through xhat and yhat, that `sample` is the public functions
evaluated together, and that the unitary identity holds on every
precision rung.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonances1d import scattering
from resonances1d.errors import PoleAtK
from resonances1d.potential import Potential, make_piecewise
from resonances1d.scattering import (
    det_s,
    jost_coefficients,
    sample,
    unitary_residual,
    xhat,
    yhat,
)


@st.composite
def step_potentials(draw):
    """1-8 cells with values in [-100, 20] on a hull inside [-2, 2]."""
    n = draw(st.integers(1, 8))
    a = draw(st.floats(-2.0, -0.1))
    b = draw(st.floats(0.1, 2.0))
    inner = draw(st.lists(
        st.floats(a, b, exclude_min=True, exclude_max=True),
        min_size=n - 1, max_size=n - 1, unique=True,
    ))
    values = draw(st.lists(
        st.floats(-100.0, 20.0).filter(bool), min_size=n, max_size=n,
    ))
    return Potential((a, *sorted(inner), b), tuple(values))


def complex_k(im_lo=-3.0, im_hi=3.0):
    return st.builds(complex, st.floats(-30.0, 30.0), st.floats(im_lo, im_hi))


def _same_bits(x, y):
    """Equal values and equal signs of zero, part by part."""
    x, y = np.asarray(x), np.asarray(y)
    parts = (np.real, np.imag) if np.iscomplexobj(x) else (np.asarray,)
    return all(
        np.array_equal(f(x), f(y)) and np.array_equal(np.signbit(f(x)), np.signbit(f(y)))
        for f in parts
    )


@given(V=step_potentials(), k=complex_k(-5.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_cell_product_is_even_in_k_bitwise(V, k):
    for dtype in (np.complex128, np.complex256):
        for kk in (np.asarray(k, dtype=dtype), np.array([k], dtype=dtype)):
            plus = scattering._scaled_transfer(V, kk, dtype)
            minus = scattering._scaled_transfer(V, -kk, dtype)
            assert all(_same_bits(p, m) for p, m in zip(plus, minus))


@given(V=step_potentials(), k=st.floats(0.05, 30.0), sign=st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_det_s_and_left_reflection_from_xhat_yhat(V, k, sign):
    k = sign * k
    x, x_minus = xhat(V, k), xhat(V, -k)
    ds = det_s(V, k)
    assert abs(ds - (-x_minus / x)) <= 1e-12 * abs(ds)
    r_left = jost_coefficients(V, k).r_left
    expected = yhat(V, -k) / x
    assert abs(r_left - expected) <= 1e-12 * abs(expected)


@given(V=step_potentials(), k=complex_k())
@settings(max_examples=40, deadline=None)
def test_sample_fields_are_the_public_functions(V, k):
    for kk in (k, 0.0):
        s = sample(V, kk)
        jc = jost_coefficients(V, kk)
        try:
            ds = det_s(V, kk)
        except PoleAtK:
            ds = complex(np.inf)
        assert _same_bits(s.xhat, xhat(V, kk))
        assert _same_bits(s.yhat, yhat(V, kk))
        assert _same_bits([s.t, s.r_right, s.r_left], [jc.t, jc.r_right, jc.r_left])
        assert _same_bits(s.det_s, ds)
        assert _same_bits(s.residual_u, unitary_residual(V, kk))


@pytest.mark.parametrize("band", [(0.0, 1.0), (1.0, 3.0), (3.0, 5.0)])
@given(
    V=step_potentials(),
    re=st.lists(st.floats(-30.0, 30.0), min_size=4, max_size=4),
    frac=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    sign=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=25, deadline=None)
def test_unitary_residual_small_in_every_band(band, V, re, frac, sign):
    lo, hi = band
    k = np.asarray(re) + 1j * sign * (lo + (hi - lo) * np.asarray(frac))
    assert np.max(unitary_residual(V, k)) < 1e-8


def test_top_band_reaches_the_mpmath_rung():
    """A wide barrier at Im k = 4.5 cancels beyond 80-bit precision."""
    V = make_piecewise([-2.0, 0.5, 2.0], [10.0, 20.0])
    with mock.patch.object(scattering, "_xy_mp", wraps=scattering._xy_mp) as mp_rung:
        res = unitary_residual(V, np.array([1.0 + 4.5j, -3.0 - 4.0j]))
    assert mp_rung.call_count == 2
    assert np.max(res) < 1e-8
