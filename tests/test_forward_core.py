"""Properties of the forward core over random step potentials.

Every scattering quantity is assembled from one scaled cell product per
k-point, used for both k and -k.  These properties check that the product
is even in k to the bit, that the assembled quantities agree with their
definitions through xhat and yhat, that `sample` is the public functions
evaluated together, that a scalar k gives the bits of the same k inside an
array, and that the unitary identity holds on every precision rung.  The
core computes every cell at once on a cell axis; a cell-by-cell loop is
kept here as its bitwise reference.
"""

import csv
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonances1d import cli, scattering
from resonances1d.errors import PoleAtK
from resonances1d.potential import Potential, make_piecewise
from resonances1d.scattering import (
    ScatteringSample,
    det_s,
    jost_coefficients,
    log_abs_xhat,
    log_abs_yhat,
    sample,
    transfer_matrix,
    unitary_residual,
    xhat,
    yhat,
)

ARRAY_FUNCTIONS = (xhat, yhat, log_abs_xhat, log_abs_yhat, det_s, unitary_residual)


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


@st.composite
def k_arrays_with_zero(draw):
    """1-6 complex k with a k = 0 entry somewhere among them."""
    ks = draw(st.lists(complex_k(), min_size=1, max_size=6))
    ks.insert(draw(st.integers(0, len(ks))), 0j)
    return np.array(ks)


def _or_pole(f, V, k):
    try:
        return f(V, k)
    except PoleAtK:
        return complex(np.inf)


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


def _cell_by_cell(V, k, dtype):
    """Reference: the scaled cell product with each cell computed on its
    own, in the order and by the formulas of the cell-axis core."""
    k = np.asarray(k, dtype=dtype)
    real = np.longdouble if dtype == np.complex256 else np.float64
    one = np.ones_like(k)
    M11, M12, M21, M22 = one.copy(), 0 * one, 0 * one, one.copy()
    logscale = np.zeros(k.shape, dtype=real)
    bp = np.asarray(V.breakpoints, dtype=real)
    vs = np.asarray(V.values, dtype=real)
    for j in range(len(vs)):
        w = bp[j + 1] - bp[j]
        kap2 = k * k - vs[j]
        kap = np.sqrt(kap2)
        z = kap * w
        t = np.abs(z.imag)
        p = np.exp(1j * z - t)
        q = np.exp(-1j * z - t)
        c = (p + q) / 2
        s = (p - q) / 2j
        small = np.abs(z) < 1e-6
        et = np.exp(-t)
        series = w * (1 - z * z / 6 * (1 - z * z / 20)) * et
        m12 = np.where(small, series, s / np.where(small, one, kap))
        m21 = np.where(small, -kap2 * series, -kap * s)
        c = np.where(small, (1 - z * z / 2 * (1 - z * z / 12)) * et, c)
        M11, M12, M21, M22 = (
            c * M11 + m12 * M21,
            c * M12 + m12 * M22,
            m21 * M11 + c * M21,
            m21 * M12 + c * M22,
        )
        logscale = logscale + t
    return M11, M12, M21, M22, logscale


@given(V=step_potentials(), ks=st.lists(complex_k(-5.0, 5.0), min_size=1, max_size=40),
       j=st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_cell_axis_core_gives_the_bits_of_the_cell_loop(V, ks, j):
    # k^2 = V_j to rounding puts |kappa_j w_j| below 1e-6, in the series branch
    ks.append(complex(np.sqrt(complex(V.values[j % len(V.values)]))))
    for dtype in (np.complex128, np.complex256):
        for k in (np.array(ks, dtype=dtype), np.array(ks, dtype=dtype).reshape(1, -1)):
            assert np.min(np.abs(scattering._cells(V, k, dtype)[1])) < 1e-6
            want = _cell_by_cell(V, k, dtype)
            # all cells in one block, one cell per block, and blocks of three
            for block in (scattering._BLOCK, 1, 3 * k.size):
                with mock.patch.object(scattering, "_BLOCK", block):
                    got = scattering._scaled_transfer(V, k, dtype)
                assert all(_same_bits(g, w) for g, w in zip(got, want))


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


@given(V=step_potentials(), ks=k_arrays_with_zero())
@settings(max_examples=40, deadline=None)
def test_sample_fields_are_the_public_functions(V, ks):
    grid = sample(V, ks.reshape(1, -1))
    assert all(np.shape(v) == (1, len(ks)) for v in vars(grid).values())
    for i, k in enumerate(ks):
        jc = jost_coefficients(V, k)
        expect = [k, xhat(V, k), yhat(V, k), jc.t, jc.r_right, jc.r_left,
                  _or_pole(det_s, V, k), unitary_residual(V, k)]
        for s in (sample(V, k), ScatteringSample(*(v[0, i] for v in vars(grid).values()))):
            assert all(_same_bits(got, want) for got, want in zip(vars(s).values(), expect))


@given(V=step_potentials(), ks=k_arrays_with_zero())
@settings(max_examples=40, deadline=None)
def test_scalar_k_gives_the_bits_of_its_array_element(V, ks):
    for f in ARRAY_FUNCTIONS:
        try:
            whole = f(V, ks)
        except PoleAtK:
            whole = [_or_pole(lambda V, k: f(V, np.array([k]))[0], V, k) for k in ks]
        for k, w in zip(ks, whole):
            one = _or_pole(f, V, k)
            assert type(one) is (float if np.isrealobj(w) else complex)
            assert _same_bits(one, w), (f.__name__, k)
    s = sample(V, ks)
    P = scattering._scaled_transfer(V, ks)
    for i, k in enumerate(ks):
        jc = jost_coefficients(V, k)
        assert _same_bits([jc.t, jc.r_right, jc.r_left], [s.t[i], s.r_right[i], s.r_left[i]])
        entries = np.array(P[:4])[:, i].reshape(2, 2) * np.exp(P[4][i])
        assert _same_bits(transfer_matrix(V, k).entries, entries)


@given(V=step_potentials(), kmax=st.floats(0.5, 30.0), n=st.integers(1, 40))
@settings(max_examples=15, deadline=None)
def test_scattering_grid_rows_are_sample_per_point(V, kmax, n):
    with tempfile.TemporaryDirectory() as d:
        pot, out = os.path.join(d, "v.json"), os.path.join(d, "grid.csv")
        V.save(pot)
        argv = ["scattering-grid", "--potential", pot, "--k-min", repr(-kmax),
                "--k-max", repr(kmax), "--n", str(n), "--out", out]
        assert cli.main(argv) == cli.PASS_EXIT
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
    ks = np.linspace(-kmax, kmax, n)
    assert len(rows) == n
    for k, row in zip(ks, rows):
        s = sample(V, k)
        expect = [s.k.real, s.k.imag, s.xhat.real, s.xhat.imag, s.yhat.real,
                  s.yhat.imag, s.det_s.real, s.det_s.imag, s.residual_u]
        assert [float(v) for v in row.values()] == expect


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
