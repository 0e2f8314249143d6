"""Properties of the forward core over random step potentials.

Every scattering quantity is assembled from one scaled cell product per
k-point, used for both k and -k.  These properties check that the product
is even in k to the bit, that the assembled quantities agree with their
definitions through xhat and yhat, that `sample` is the public functions
evaluated together, that a scalar k gives the bits of the same k inside an
array, and that the unitary identity holds on every precision rung.  The
core computes every cell at once on a cell axis; a cell-by-cell loop is
kept here as its bitwise reference, and so is the double-double product
with one error-free transform per real product.
"""

import csv
import os
import tempfile
from types import SimpleNamespace
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resonances1d import cli, scattering
from resonances1d.czeros import bound_states
from resonances1d.errors import PoleAtK
from resonances1d.potential import Potential, make_piecewise, square_well
from resonances1d.scattering import (
    ScatteringSample,
    det_s,
    det_s_jacobian,
    log_abs_xhat,
    log_abs_yhat,
    sample,
    transfer_matrix,
    unitary_residual,
    xhat,
    yhat,
)

from conftest import EXCEPTIONAL

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
    for dtype in (np.complex128, np.clongdouble):
        for kk in (np.asarray(k, dtype=dtype), np.array([k], dtype=dtype)):
            plus = scattering._scaled_transfer(V, kk)
            minus = scattering._scaled_transfer(V, -kk)
            assert all(_same_bits(p, m) for p, m in zip(plus, minus))


def _complex(re, im):
    out = np.empty(re.shape, dtype=np.result_type(re, 1j))
    out.real, out.imag = re, im
    return out


def _cell_by_cell(V, k):
    """Reference: the scaled cell product with each cell computed on its
    own, in the order and by the formulas of the cell-axis core, in the
    precision of k."""
    real = k.real.dtype
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
        x, y = z.real, z.imag
        t = np.abs(y)
        e = np.expm1(-2 * t) / 2            # -(1 - e^{-2t}) / 2
        g = np.copysign(e, y)
        c = _complex(np.cos(x) * (1 + e), -(g * np.sin(x)))
        s = _complex(np.sin(x) * (1 + e), g * np.cos(x))
        m12 = np.where(kap2 == 0, w, s / np.where(kap2 == 0, one, kap))
        m21 = -kap * s
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
    # k^2 = V_j to rounding puts |kappa_j w_j| near 0, or at 0 exactly
    ks.append(complex(np.sqrt(complex(V.values[j % len(V.values)]))))
    for dtype in (np.complex128, np.clongdouble):
        for k in (np.array(ks, dtype=dtype), np.array(ks, dtype=dtype).reshape(1, -1)):
            assert np.min(np.abs(scattering._cells(V, k)[1])) < scattering._SERIES_BELOW
            want = _cell_by_cell(V, k)
            # all cells in one block, one cell per block, and blocks of three
            for block in (scattering._BLOCK, 1, 3 * k.size):
                with mock.patch.object(scattering, "_BLOCK", block):
                    got = scattering._scaled_transfer(V, k)
                assert all(_same_bits(g, w) for g, w in zip(got, want))


def test_points_beyond_block_are_taken_in_chunks_with_the_same_bits():
    V = make_piecewise(np.linspace(-1.5, 1.0, 6), [-40.0, 3.0, -7.5, 12.0, -90.0])
    k = np.linspace(-20, 20, 9)[None, :] + 1j * np.linspace(-5, 5, 7)[:, None]
    want = scattering._scaled_transfer(V, k)
    with mock.patch.object(scattering, "_BLOCK", 10), \
            mock.patch.object(scattering, "_cells", wraps=scattering._cells) as cells:
        got = scattering._scaled_transfer(V, k)
    assert max(call.args[1].size for call in cells.call_args_list) <= 10
    assert all(g.shape == k.shape and _same_bits(g, w) for g, w in zip(got, want))


@given(V=step_potentials(), k=st.floats(0.05, 30.0), sign=st.sampled_from([1, -1]))
@settings(max_examples=60, deadline=None)
def test_det_s_and_left_reflection_from_xhat_yhat(V, k, sign):
    k = sign * k
    x, x_minus = xhat(V, k), xhat(V, -k)
    ds = det_s(V, k)
    assert abs(ds - (-x_minus / x)) <= 1e-12 * abs(ds)
    r_left = sample(V, k).r_left
    expected = yhat(V, -k) / x
    assert abs(r_left - expected) <= 1e-12 * abs(expected)


@given(V=step_potentials(), ks=k_arrays_with_zero())
@settings(max_examples=40, deadline=None)
# a subnormal k, where a quotient by xhat's subnormal mantissa read nan
@example(V=Potential((-1.0, 1.0), (5e-324,)), ks=np.array([0j, 5e-324j]))
def test_sample_fields_are_the_public_functions(V, ks):
    grid = sample(V, ks.reshape(1, -1))
    assert all(np.shape(v) == (1, len(ks)) for v in vars(grid).values())
    for i, k in enumerate(ks):
        one = sample(V, k)
        expect = [k, xhat(V, k), yhat(V, k), one.t, one.r_right, one.r_left,
                  _or_pole(det_s, V, k), unitary_residual(V, k)]
        for s in (one, ScatteringSample(*(v[0, i] for v in vars(grid).values()))):
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
        one = sample(V, k)
        assert _same_bits([one.t, one.r_right, one.r_left], [s.t[i], s.r_right[i], s.r_left[i]])
        entries = np.array(P[:4])[:, i].reshape(2, 2) * np.exp(P[4][i])
        assert _same_bits(transfer_matrix(V, k), entries)


_SW4 = square_well(-4.0, -1.0, 1.0)
# xhat's bracket at k = 5e-324i is -M21 = -2e-323, subnormal
_SUBNORMAL = Potential((-1.0, 1.0), (5e-324,))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("V, special, want", [
    (_SW4, 0.0, -1.0),
    (EXCEPTIONAL, 0.0, 1.0),
    (_SW4, None, np.inf),
    (_SUBNORMAL, 5e-324j, 0.0),
], ids=["sw4-zero", "exceptional-zero", "bound-state", "subnormal-bracket"])
def test_ordinary_det_s_points_keep_their_bits_beside_a_guarded_one(V, special, want):
    """det S is -(B(-k)/B(k)) e^{-2ikL} at an ordinary point and the guarded
    quotient at k = 0, at a pole (a bound state) and where |B(k)| is
    subnormal, chosen point by point: an ordinary point has the same bits
    alone and beside such a point, in det_s, sample and det_s_jacobian, and
    the special point reads its value."""
    if special is None:
        special = bound_states(V)[0].zeros[0].location
    ks = np.array([special, 0.7, 1.3 + 0.2j, -2.5 - 0.4j, 0.05j])
    alone = [det_s(V, k) for k in ks[1:]]
    got = sample(V, ks).det_s
    if np.isinf(want):
        assert got[0] == np.inf
        for call in (det_s, lambda V, k: det_s_jacobian(V, k, 1)):
            with pytest.raises(PoleAtK):
                call(V, ks)
    else:
        assert abs(got[0] - want) < 1e-12
        both = det_s(V, ks)
        assert _same_bits(both, got)
        assert _same_bits(det_s_jacobian(V, ks, 1)[0], both)
    assert _same_bits(got[1:], alone)
    assert _same_bits(det_s_jacobian(V, ks[1:], 1)[0], alone)


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
    assert np.max(res) < 1e-11


def _seeded_potential(rng, cells, hull, values=(-100.0, 20.0)):
    """cells steps with values in the given range on a hull of the given width."""
    a = -rng.uniform(0.0, hull)
    inner = np.sort(rng.uniform(a, a + hull, cells - 1))
    return Potential((a, *inner, a + hull), tuple(rng.uniform(*values, cells)))


def test_double_double_brackets_match_mpmath():
    """B = 2 xhat e^{-ik(b-a)} and C = 2 yhat e^{ik(a+b)} at k and -k, against
    50 digits, within _DD_EPS of their scale e^{logscale} (2 + |k|)^2."""
    rng = np.random.default_rng(12)
    largest_z = 0.0
    for cells, hull in ((1, 4.0), (2, 3.0), (5, 0.5), (11, 2.0), (32, 4.0)):
        V = _seeded_potential(rng, cells, hull)
        k = rng.uniform(-60, 60, 4) + 1j * rng.uniform(-5, 5, 4)
        # k^2 = V_0 puts the first cell on the sin z / kappa series
        k = np.append(k, [60 - 5j, np.sqrt(complex(V.values[0]))])
        dd = scattering._xy_dd(V, k)
        ls = scattering._scaled_transfer(V, k)[4]
        z = np.sqrt(k[None] ** 2 - np.array(V.values)[:, None]) * np.diff(V.breakpoints)[:, None]
        largest_z = max(largest_z, np.abs(z).max())
        for i, kk in enumerate(k):
            with mp.workdps(50):
                want = scattering._xy_mp(V, kk, 50)
                scale = mp.exp(ls[i]) * (2 + abs(kk)) ** 2
                for (hi, lo), w in zip(dd[:, :, i], want):
                    assert abs(mp.mpc(hi) + mp.mpc(lo) - w) < scattering._DD_EPS * scale
    assert largest_z > 200


def _ld_to_mp(x):
    """A longdouble as an exact mpf, from its float64 head and tail."""
    head = float(x)
    return mp.mpf(head) + mp.mpf(float(x - np.longdouble(head)))


@pytest.mark.parametrize("V", [square_well(4.0, -1.0, 1.0),
                               make_piecewise([-1.0, 0.2, 1.0], [4.0, -3.0])])
def test_cells_near_kappa_w_zero_match_mpmath(V):
    """One cell's |kappa_j w_j| is 0 and runs from 1e-8 to 1 at five phases,
    across det_s_jacobian's sinc threshold.  Where kappa_j = 0 exactly
    (k = 2 on the cell of value 4), the cell's m12 is w on both float rungs.
    Against 40-digit `_xy_mp`: xhat and yhat within 1e-14 relative, and the
    longdouble product's M12 within 1e-17 where longdouble is 80-bit or
    wider.  Against a 50-digit central difference: det_s_jacobian within
    1e-13."""
    a, b = V.breakpoints[0], V.breakpoints[-1]
    ld_bound = 1e-17 if np.finfo(np.longdouble).eps < 1e-18 else 1e-14
    phases = np.exp(1j * np.array([0.1, 0.7, 1.3, 2.0, 2.9]))
    for j, w in enumerate(np.diff(V.breakpoints)):
        z = np.append(0, np.logspace(-8, 0, 33)[:, None] * phases)
        k = np.sqrt(V.values[j] + (z / w) ** 2 + 0j)
        if V.values[j] == 4.0:
            assert k[0] == 2
            for dtype in (np.complex128, np.clongdouble):
                k0 = k[:1].astype(dtype)
                w0 = np.diff(np.asarray(V.breakpoints, dtype=k0.real.dtype))[j]
                assert scattering._cells(V, k0)[4][j, 0] == w0
        x, y = xhat(V, k), yhat(V, k)
        ld = scattering._scaled_transfer(V, k.astype(np.clongdouble))
        m12 = ld[1] * np.exp(ld[4])
        _, jac = det_s_jacobian(V, k, len(V.values))
        worst = np.zeros(3)
        for i, kk in enumerate(k):
            with mp.workdps(40):
                s = mp.mpc(kk)
                bx, by, bx2, by2 = scattering._xy_mp(V, kk, 40)
                want_x, want_y = mp.exp(1j * s * (b - a)) * bx / 2, mp.exp(-1j * s * (a + b)) * by / 2
                want_m12 = (bx + by + bx2 + by2) / (4 * s * s)
                got_m12 = _ld_to_mp(m12[i].real) + 1j * _ld_to_mp(m12[i].imag)
                worst[:2] = np.maximum(worst[:2], [
                    max(abs(x[i] - want_x) / abs(want_x), abs(y[i] - want_y) / abs(want_y)),
                    abs(got_m12 - want_m12) / abs(want_m12)])
            with mp.workdps(50):
                def det_s_at(v):
                    values = V.values[:j] + (v,) + V.values[j + 1:]
                    bx, _, bx2, _ = scattering._xy_mp(SimpleNamespace(
                        breakpoints=V.breakpoints, values=values), kk, 50)
                    return -mp.exp(-2j * mp.mpc(kk) * (b - a)) * bx2 / bx
                h = mp.mpf(10) ** -15
                want = (det_s_at(V.values[j] + h) - det_s_at(V.values[j] - h)) / (2 * h)
                worst[2] = max(worst[2], abs(jac[i, j] - want) / abs(want))
        assert worst[0] < 1e-14 and worst[1] < ld_bound and worst[2] < 1e-13, (j, worst)


def _deck_hi_band(rng, cells):
    """A well of 1.5-3 width at 64 points with 3 <= |Im k| <= 5."""
    V = _seeded_potential(rng, cells, rng.uniform(1.5, 3.0), (-100.0, -20.0))
    k = rng.uniform(-20, 20, 64) + 1j * rng.choice((-1, 1), 64) * rng.uniform(3, 5, 64)
    return V, k


def test_high_band_points_past_80_bit_stay_off_mpmath():
    rng = np.random.default_rng(4)
    on_dd = 0
    for cells in (1, 2, 4, 8, 16, 32):
        V, k = _deck_hi_band(rng, cells)
        with mock.patch.object(scattering, "_xy_mp", wraps=scattering._xy_mp) as mp_rung, \
                mock.patch.object(scattering, "_xy_dd", wraps=scattering._xy_dd) as dd_rung:
            res = unitary_residual(V, k)
        assert mp_rung.call_count == 0
        on_dd += sum(call.args[1].size for call in dd_rung.call_args_list)
        assert np.max(res) < 1e-11
    assert on_dd > 30


def test_double_double_point_has_the_same_bits_in_any_company():
    V, k = _deck_hi_band(np.random.default_rng(5), 16)
    with mock.patch.object(scattering, "_xy_dd", wraps=scattering._xy_dd) as dd_rung:
        unitary_residual(V, k)
    on_dd = dd_rung.call_args.args[1]
    # the first double-double point, and the one of largest |k| after it
    one, far = on_dd[0], on_dd[1:][np.argmax(np.abs(on_dd[1:]))]
    alone_b, alone_r = scattering._xy_dd(V, np.array([one])), unitary_residual(V, one)
    pair = np.array([one, far])
    with mock.patch.object(scattering, "_xy_dd", wraps=scattering._xy_dd) as dd_rung:
        pair_r = unitary_residual(V, pair)
    assert dd_rung.call_args.args[1].size == 2
    for block in (scattering._BLOCK, 1, 40):
        with mock.patch.object(scattering, "_BLOCK", block):
            assert _same_bits(scattering._xy_dd(V, pair)[..., :1], alone_b)
            assert _same_bits(scattering._xy_dd(V, on_dd)[..., :1], alone_b)
            assert _same_bits(unitary_residual(V, pair)[0], alone_r)
    assert _same_bits(pair_r[0], alone_r)


def _dd_mul_by_component(a, b):
    """Reference: the complex double-double product with one error-free
    transform per real product and per real sum, as (hi, lo)."""
    two_prod, two_sum = scattering._two_prod, scattering._two_sum
    (ah, al), (bh, bl) = (a.hi, a.lo), (b.hi, b.lo)
    (rr, e1), (ii, e2) = two_prod(ah.real, bh.real), two_prod(ah.imag, bh.imag)
    (ri, e3), (ir, e4) = two_prod(ah.real, bh.imag), two_prod(ah.imag, bh.real)
    (re, e5), (im, e6), lo = two_sum(rr, -ii), two_sum(ri, ir), ah * bl + al * bh
    return two_sum(re + 1j * im, (e5 + e1 - e2 + lo.real) + 1j * (e6 + e3 + e4 + lo.imag))


def _dd_values(rng, shape):
    """Double-doubles of the given shape: parts of either sign over 24
    decades, some of them +-0, each with a low part below its half ulp."""
    def parts():
        x = rng.choice((-1.0, 1.0), shape) * 10.0 ** rng.uniform(-12, 12, shape)
        return np.where(rng.random(shape) < 0.1, rng.choice((-0.0, 0.0), shape), x)
    hi = parts() + 1j * parts()
    lo = (hi.real * rng.uniform(-1, 1, shape) + 1j * hi.imag * rng.uniform(-1, 1, shape)) * 2.0 ** -54
    return scattering._DD(hi, lo)


@given(m=st.integers(1, 5), p=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       shapes=st.sampled_from([
           # a level of _xy_dd's pairwise product: cell columns times rows
           lambda m, p: ((2, 1, m, p), (1, 2, m, p)),
           # 0-d constants (the series coefficients, ln 2, pi/2) and arrays
           lambda m, p: ((), (m, p)),
           lambda m, p: ((m, p), ()),
           lambda m, p: ((), ()),
           # cells times points, kappa times the widths, and k times k
           lambda m, p: ((m, p), (m, p)),
           lambda m, p: ((m, p), (m, 1)),
           lambda m, p: ((p,), (p,)),
       ]))
@settings(max_examples=80, deadline=None)
def test_stacked_double_double_product_has_the_reference_bits(m, p, seed, shapes):
    rng = np.random.default_rng(seed)
    a, b = (_dd_values(rng, s) for s in shapes(m, p))
    got = a * b
    hi, lo = _dd_mul_by_component(a, b)
    assert got.hi.shape == got.lo.shape == np.broadcast_shapes(a.hi.shape, b.hi.shape)
    assert _same_bits(got.hi, hi) and _same_bits(got.lo, lo)


def test_double_double_reciprocal_of_e_iz():
    """1 / e^{iz} by one Newton step from float64, as the rung forms e^{-iz},
    for |Im z| up to 20, against 50 digits."""
    rng = np.random.default_rng(21)
    z = rng.uniform(-300, 300, 300) + 1j * rng.uniform(-20, 20, 300)
    z = np.append(z, [20j, -20j, 0, 300 - 20j, -300 + 20j])
    e = scattering._DD(1j * z).exp()
    r = e.recip()
    with mp.workdps(50):
        for eh, el, rh, rl in zip(e.hi, e.lo, r.hi, r.lo):
            assert abs((mp.mpc(eh) + mp.mpc(el)) * (mp.mpc(rh) + mp.mpc(rl)) - 1) < 1e-30


@pytest.mark.parametrize("cells", [3, 5, 17, 31])
def test_odd_cells_wait_for_the_next_level_with_the_padded_values(cells):
    """The pairwise product leaves an odd cell over at a level for the next;
    padding with zero-width cells (the identity) up to a power of 2 gives the
    same grouping, and its identity products are exact."""
    rng = np.random.default_rng(cells)
    V = _seeded_potential(rng, cells, 2.5)
    pad = (1 << (cells - 1).bit_length()) - cells
    padded = Potential._unchecked(V.breakpoints + V.breakpoints[-1:] * pad,
                                  V.values + (0.0,) * pad)
    k = rng.uniform(-20, 20, 24) + 1j * rng.choice((-1, 1), 24) * rng.uniform(0, 5, 24)
    k = np.append(k, np.sqrt(complex(V.values[-1])))
    # equal values; signed zeros may differ
    assert np.array_equal(scattering._xy_dd(V, k), scattering._xy_dd(padded, k))
