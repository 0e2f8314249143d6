"""Exact forward scattering for piecewise-constant potentials.

Everything is built from per-cell propagators of the constant-coefficient
equation psi'' = (V_j - k^2) psi.  Each propagator is written in even
functions of kappa_j = sqrt(k^2 - V_j) (cos, sin/kappa, kappa*sin), so the
assembled quantities are entire in k: no square-root branch ever appears.

The two central entire functions are

    xhat(k) = e^{ik(b-a)} [ik(M11+M22) + k^2 M12 - M21] / 2        (= ik/t)
    yhat(k) = e^{-ik(a+b)} [ik(M11-M22) + k^2 M12 + M21] / 2       (= ik r/t)

with M the transfer matrix over the hull.  The reflection entering yhat is
the right-incident one; this is the choice whose Fourier support is
[2a, 2b] (verified by an indicator-width test on an asymmetric well).
Algebraically  xhat(k) xhat(-k) - k^2 - yhat(k) yhat(-k) = k^2 (det M - 1),
so the unitary identity holds exactly up to rounding.  With the phases
cancelled it reads |B(k)B(-k) - C(k)C(-k) - 4k^2| / 4 = 0, B and C the
brackets above; the residual routine escalates working precision where
rounding would dominate: float64, numpy's longdouble (80-bit on x86-64, empty
where longdouble is double, so those points go on), double-double (one array
pass, to 1e-28), and past that mpmath point by point.  The float rungs
build a scaled cell from one real sine-cosine pair and one expm1, which do
not cancel as kappa_j w_j -> 0 (`_cells`); double-double from e^{iz} and a
sinc table, mpmath by mp.sinc.  On the double-double rung a complex product
takes its four real products in one error-free transform over stacked
operands, and e^{-iz} is the reciprocal of e^{iz}, by one Newton step, in
place of a second exponential.

M depends on k only through k^2, so M(-k) = M(k), and the scaled cell
product is bitwise the same at k and -k (negation is exact).  Every public
function therefore builds the product once per k-point and assembles the
values at k and at -k from it: det S, the Jost coefficients and the
unitary residual all need both signs.  det S = -(B(-k)/B(k)) e^{-2ikL} takes
xhat's two brackets alone; at k = 0, at its poles and where |B(k)| is
subnormal it takes the guarded quotient of xhat's mantissas, point by point.

At a zero-energy resonance (xhat(0) = 0) t, r and det S are 0/0 at k = 0.
As M is even in k, xhat'(0) = i(M11+M22 - L M21)/2 and yhat'(0) =
i(M11-M22 - (a+b) M21)/2, L = b - a, give their limits in closed form from
the same product (Deift & Trubowitz, CPAM 32, 1979).

The cell propagators are computed in one array pass, on a leading cell
axis; only the 2x2 product runs cell by cell, from the identity and in
cell order, so the bits are those of a loop that computes each cell on its
own.  The same per-cell arrays give det S's exact derivatives in the cell
values (`det_s_jacobian`), from the products of the cells before and after
each cell.

A scalar k is evaluated as a one-element array and handed back as a Python
scalar, so a value has the same bits alone or inside an array of any shape.

Sign convention resolved numerically (large real k):  xhat(k) - ik tends to
-integral(V)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import mpmath as mp
import numpy as np

from .errors import PoleAtK
from .potential import Potential

_LD_EPS = float(np.finfo(np.longdouble).eps)
_D_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)   # the least normal float64
_DD_EPS = 1e-28   # the double-double rung's working accuracy, with margin
_SERIES_BELOW = 0.1  # below this |kappa_j w_j|, _xy_dd's m12 and the dm12/dV come from _sinc
# cells x points per pass of the cell-axis core; larger products take their
# cells (and points, above _BLOCK) in blocks, so per-cell arrays stay in cache
_BLOCK = 8192


# ---------------------------------------------------------------------------
# scaled transfer-matrix products


def _cells(V: Potential, k, cells=slice(None)):
    """The propagators of the cells V.values[cells] at once, on a leading
    cell axis, in the precision of the complex array k (clongdouble on its rung).

    Returns (kappa^2, z, t, c, m12, m21), each of shape (cells,) + k.shape:
    kappa_j^2 = k^2 - V_j, z = kappa_j w_j = x + iy, t = |y|, and the scaled cell
    [[c, m12], [m21, c]] = [[cos z, sin z / kappa], [-kappa sin z, cos z]] e^{-t}.
    With h = -expm1(-2t) / 2, cos z e^{-t} = cos x (1-h) - i sign(y) h sin x and
    sin z e^{-t} = sin x (1-h) + i sign(y) h cos x: one real sine-cosine pair
    and one expm1 per cell, with no cancellation as z -> 0, so m12 = s / kappa
    needs no series (m12 = w where kappa = 0).
    """
    cell_axis = (slice(None),) + (None,) * k.ndim
    bp = np.asarray(V.breakpoints, dtype=k.real.dtype)
    vs = np.asarray(V.values, dtype=k.real.dtype)[cells][cell_axis]
    w = (bp[1:] - bp[:-1])[cells][cell_axis]
    kap2 = k * k - vs
    kap = np.sqrt(kap2)
    z = kap * w
    t = np.abs(z.imag)
    e = np.expm1(-2 * t) / 2            # -h
    g, ch = np.copysign(e, z.imag), 1 + e   # sign(y) h, 1 - h
    sin, cos = np.sin(z.real), np.cos(z.real)
    c, s = np.empty_like(z), np.empty_like(z)
    c.real, c.imag = cos * ch, -(g * sin)   # cos(z) e^{-t}
    s.real, s.imag = sin * ch, g * cos      # sin(z) e^{-t}
    zero = kap2 == 0
    if not zero.any():
        return kap2, z, t, c, s / kap, -kap * s
    return kap2, z, t, c, np.where(zero, w, s / np.where(zero, 1, kap)), -kap * s


def _product(c, m12, m21, M=None, prefixes=False):
    """The product A_{n-1} ... A_0 M of the cells A_j = [[c_j, m12_j], [m21_j, c_j]],
    with the matrix axes first; M is the identity unless given.

    With prefixes, also returns the product of the cells before each cell,
    stacked on a cell axis after the matrix axes.
    """
    left = np.stack([c, m21], axis=1)[:, :, None]
    right = np.stack([m12, c], axis=1)[:, :, None]
    if M is None:
        M = np.zeros((2, 2) + c.shape[1:], dtype=c.dtype)
        M[0, 0] = M[1, 1] = 1
    before = []
    for j in range(len(c)):
        if prefixes:
            before.append(M)
        # rows (c M11 + m12 M21, c M12 + m12 M22), (m21 M11 + c M21, ...)
        M = left[j] * M[0] + right[j] * M[1]
    return (M, np.stack(before, axis=2)) if prefixes else M


def _scaled_transfer(V: Potential, k):
    """Product of the cells, scaled cell by cell, in the precision of k.

    Returns (M11, M12, M21, M22, logscale): the true matrix is the returned
    one times exp(logscale).  Entries stay O(1) for any Im k.  logscale is
    the sum of |Im kappa_j| w_j, the cancellation scale of the identities
    assembled from the product.  The result is the same at k and -k.
    """
    k = np.asarray(k)
    if k.size > _BLOCK:
        chunks = np.array_split(k.ravel(), -(-k.size // _BLOCK))
        parts = zip(*(_scaled_transfer(V, c) for c in chunks))
        return tuple(np.concatenate(p).reshape(k.shape) for p in parts)
    step = max(1, _BLOCK // max(k.size, 1))
    M, logscale = None, np.zeros(k.shape, dtype=k.real.dtype)
    for lo in range(0, len(V.values), step):
        _, _, t, c, m12, m21 = _cells(V, k, slice(lo, lo + step))
        M = _product(c, m12, m21, M)
        logscale = _add_cells(logscale, t)
    return M[0, 0], M[0, 1], M[1, 0], M[1, 1], logscale


def _add_cells(logscale, t):
    """logscale plus the cells' t, added in cell order as a cell loop does."""
    return np.cumsum(np.concatenate([logscale[None], t]), axis=0)[-1]


def _points(k):
    """k as a complex array of at least one dimension."""
    return np.atleast_1d(np.asarray(k, dtype=complex))


def _like(k, out):
    """out as the caller asked for it: a Python scalar for a scalar k."""
    return out.item() if np.ndim(k) == 0 else out


def transfer_matrix(V: Potential, k) -> np.ndarray:
    """The unscaled transfer matrix of (psi, psi') data across the hull at a
    single complex k (entire in k), as a (2, 2) complex array."""
    M11, M12, M21, M22, ls = _scaled_transfer(V, _points(complex(k)))
    f = np.exp(ls)
    return np.array([[M11 * f, M12 * f], [M21 * f, M22 * f]], dtype=complex)[..., 0]


# ---------------------------------------------------------------------------
# the entire functions


def _bracket(k, P):
    """ik(M11+M22) + k^2 M12 - M21, the factor of xhat that holds its zeros."""
    M11, M12, M21, M22 = P[:4]
    return 1j * k * (M11 + M22) + k * k * M12 - M21


def _ybracket(k, P):
    """ik(M11-M22) + k^2 M12 + M21, the factor of yhat that holds its zeros."""
    M11, M12, M21, M22 = P[:4]
    return 1j * k * (M11 - M22) + k * k * M12 + M21


def _brackets(k, P):
    """B(k), C(k), B(-k), C(-k) from the product P at +-k, in any precision."""
    return _bracket(k, P), _ybracket(k, P), _bracket(-k, P), _ybracket(-k, P)


def _defect(k, B, scale=1):
    """(B(k)B(-k) - C(k)C(-k)) scale - 4k^2 of the `_brackets` B: 0 in exact arithmetic."""
    return (B[0] * B[2] - B[1] * B[3]) * scale - k * k * 4


def _xhat_from(V, k, P):
    """(mantissa, log-modulus scale) of xhat at k, from the product P at +-k."""
    L = V.breakpoints[-1] - V.breakpoints[0]
    return np.exp(1j * k.real * L) * _bracket(k, P) / 2, P[4] - k.imag * L


def _yhat_from(V, k, P):
    """(mantissa, log-modulus scale) of yhat at k, from the product P at +-k."""
    ab = V.breakpoints[0] + V.breakpoints[-1]
    return np.exp(-1j * k.real * ab) * _ybracket(k, P) / 2, P[4] + k.imag * ab


def _collapse(mant, logmag):
    with np.errstate(over="ignore"):
        return mant * np.exp(logmag)


def _log_abs(mant, logmag):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(mant)) + logmag


def _entire(V, k, assemble, finish):
    kk = _points(k)
    return _like(k, finish(*assemble(V, kk, _scaled_transfer(V, kk))))


def xhat(V: Potential, k):
    """The entire function ik/t; zeros in the lower half-plane are the
    resonances, zeros on the upper imaginary axis the bound states."""
    return _entire(V, k, _xhat_from, _collapse)


def yhat(V: Potential, k):
    """The entire companion of xhat with Fourier support [2a, 2b]."""
    return _entire(V, k, _yhat_from, _collapse)


def log_abs_xhat(V: Potential, k):
    """log|xhat(k)| evaluated without overflow (for indicator fits)."""
    return _entire(V, k, _xhat_from, _log_abs)


def log_abs_yhat(V: Potential, k):
    return _entire(V, k, _yhat_from, _log_abs)


# ---------------------------------------------------------------------------
# arbitrary-precision fallback


def _xy_mp(V, k, dps):
    """`_brackets` at k with mpmath at dps digits, sin z / kappa as w mp.sinc(z)."""
    with mp.workdps(dps):
        k, M = mp.mpc(k), mp.eye(2)
        for v, a, b in zip(V.values, V.breakpoints, V.breakpoints[1:]):
            w, kap2 = mp.mpf(b) - mp.mpf(a), k * k - v
            z = mp.sqrt(kap2) * w
            m12 = w * mp.sinc(z)
            M = mp.matrix([[mp.cos(z), m12], [-kap2 * m12, mp.cos(z)]]) * M
        return _brackets(k, (M[0, 0], M[0, 1], M[1, 0], M[1, 1]))


# ---------------------------------------------------------------------------
# double-double rung


def _two_sum(a, b):
    """s + e = a + b exactly, part by part."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """p + e = a b exactly for real a, b, by Dekker's splitting (numpy has no fma)."""
    p, c, d = a * b, 134217729.0 * a, 134217729.0 * b
    a1, b1 = c - (c - a), d - (d - b)
    a2, b2 = a - a1, b - b1
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


class _DD:
    """A complex array in double-double, hi + lo to about 32 digits (Dekker,
    Numer. Math. 18 (1971); Hida, Li & Bailey, ARITH-15 (2001)).  Every
    operation works element by element with fixed parameters.  A product
    stacks its operands' parts, so that its four real products take one
    error-free transform and its two real sums another."""

    def __init__(self, hi, lo=None):
        self.hi = np.asarray(hi, dtype=complex)
        self.lo = np.zeros_like(self.hi) if lo is None else lo

    def __getitem__(self, i):
        return _DD(self.hi[i], self.lo[i])

    def __add__(self, b):
        s, e = _two_sum(self.hi, b.hi)
        return _DD(*_two_sum(s, e + (self.lo + b.lo)))

    def __sub__(self, b):
        return self + b * -1

    def __mul__(self, b):
        """The product; a plain factor must be 2^n i^m, which scales exactly."""
        if not isinstance(b, _DD):
            return _DD(self.hi * b, self.lo * b)
        (ah, al), (bh, bl) = (self.hi, self.lo), (b.hi, b.lo)
        nd = max(ah.ndim, bh.ndim)
        x, y = (v.reshape((1,) * (nd - v.ndim) + v.shape) for v in (ah, bh))
        # rr, -ii, ri, ir and their errors in one transform (negation is exact)
        p, e = _two_prod(np.stack([x.real, x.imag, x.real, x.imag]),
                         np.stack([y.real, -y.imag, y.imag, y.real]))
        (s, es), lo = _two_sum(p[::2], p[1::2]), ah * bl + al * bh
        e = es + e[::2] + e[1::2]
        return _DD(*_two_sum(s[0] + 1j * s[1], (e[0] + lo.real) + 1j * (e[1] + lo.imag)))

    def rsqrt(self):
        """1 / sqrt(self), principal, from np.sqrt by one Newton step; 1 at 0."""
        r = _DD(1 / np.sqrt(np.where(self.hi == 0, 1, self.hi)))
        return r + r * (_DD(1) - self * r * r) * 0.5

    def recip(self):
        """1 / self from the float64 reciprocal by one Newton step."""
        r = _DD(1 / self.hi)
        return r + r * (_DD(1) - self * r)

    def exp(self):
        """2^n i^m e^r for self = r + n ln 2 + m i pi/2, with e^r from the
        Taylor series of r / 32 squared 5 times."""
        n, m = np.round(self.hi.real / _LN2.hi.real), np.round(self.hi.imag / _PI_2.hi.real)
        s = _horner((self - _DD(n) * _LN2 - _DD(1j * m) * _PI_2) * (1 / 32), _EXP_SERIES)
        for _ in range(5):
            s = s * s
        return s * (np.exp2(n) * np.array([1, 1j, -1, -1j])[m.astype(int) % 4])


with mp.workdps(40):
    _dd = lambda x: _DD(float(x), float(x - float(x)))
    _LN2, _PI_2 = _dd(mp.ln2), _dd(mp.pi / 2)
    _EXP_SERIES = [_dd(1 / mp.factorial(j)) for j in range(14)]
    # sin z / z = sum_n s_n z^{2n}; float64 uses six terms (the rest are under
    # 2e-22 below |z| = 0.1), as Python floats, cheaper
    _SINC_SERIES = [_dd((-1) ** n / mp.factorial(2 * n + 1)) for n in range(9)]
    _SINC_FLOAT = [s.hi.real + s.lo.real for s in _SINC_SERIES[:6]]


def _horner(x, coefs):
    """sum_j coefs[j] x^j by Horner's rule."""
    return reduce(lambda s, c: s * x + c, coefs[-2::-1], coefs[-1])


def _sinc(z, slope=False):
    """sin z / z from the table (with slope, its -d/d(z^2)), in double-double
    or float64 as z is."""
    coefs = _SINC_SERIES if isinstance(z, _DD) else _SINC_FLOAT
    if slope:
        coefs = [c * -(n + 1) for n, c in enumerate(coefs[1:])]
    return _horner(z * z, coefs)


def _xy_dd(V, k):
    """B(k), C(k), B(-k), C(-k) at the 1-D array k in double-double, as an
    array of (bracket, hi/lo, point): xhat's bracket B = ik(M11+M22) +
    k^2 M12 - M21 and yhat's C = ik(M11-M22) + k^2 M12 + M21, of the
    unscaled M (logscale < 20 on this rung).  The cells come from e^{iz} and
    its reciprocal e^{-iz}, with sin z / kappa = w sinc z below |z| =
    _SERIES_BELOW (`_sinc`), and are multiplied pairwise over the cell axis,
    in blocks of at most _BLOCK cells x points."""
    step = max(1, _BLOCK // len(V.values))
    if k.size > step:
        chunks = np.array_split(k, -(-k.size // step))
        return np.concatenate([_xy_dd(V, c) for c in chunks], axis=-1)
    bp = np.asarray(V.breakpoints, dtype=float)
    w, k2 = _DD(*_two_sum(bp[1:], -bp[:-1])), _DD(k) * _DD(k)
    kap2 = k2 - _DD(np.asarray(V.values, dtype=float)[:, None])
    r = kap2.rsqrt()
    kap = kap2 * r
    z = kap * w[:, None]
    # logscale < 20 on this rung bounds |Im z|: e^{iz} and 1 / e^{iz} stay finite
    p = _DD(1j * z.hi, 1j * z.lo).exp()
    q = p.recip()
    c, s = (p + q) * 0.5, (p - q) * -0.5j
    m12, m21, small = s * r, kap * s * -1, np.abs(z.hi) < _SERIES_BELOW
    if small.any():
        sinc = w[np.nonzero(small)[0]] * _sinc(z[small])
        for m, x in ((m12, sinc), (m21, kap2[small] * sinc * -1)):
            m.hi[small], m.lo[small] = x.hi, x.lo
    M = _DD(*(np.array([[a, b], [d, a]]) for a, b, d in
              ((c.hi, m12.hi, m21.hi), (c.lo, m12.lo, m21.lo))))
    while M.hi.shape[2] > 1:
        # A_{2i+1} A_{2i}: column j of the odd cells times row j of the even;
        # an odd cell left over at the end waits for the next level
        n = M.hi.shape[2] // 2 * 2
        pairs = M[:, :1, 1:n:2] * M[:1, :, :n:2] + M[:, 1:, 1:n:2] * M[1:, :, :n:2]
        M = _DD(*(np.concatenate([x, y[:, :, n:]], axis=2)
                  for x, y in ((pairs.hi, M.hi), (pairs.lo, M.lo))))
    ik, k2m12 = _DD(1j * k), k2 * M[0, 1, 0]
    tr, skew = ik * (M[0, 0, 0] + M[1, 1, 0]), ik * (M[0, 0, 0] - M[1, 1, 0])
    bx, by = k2m12 - M[1, 0, 0], k2m12 + M[1, 0, 0]
    return np.array([(b.hi, b.lo) for b in (bx + tr, by + skew, bx - tr, by - skew)])


def _unitary_from(V, k, P):
    """unitary_residual at the array k, from the float64 cell product P there."""
    out = np.empty(k.shape, dtype=float)
    expo = 2 * P[4] + 2 * np.log(2 + np.abs(k))
    target = np.log(1e-11 * (1 + np.abs(k) ** 2))
    # the first rung whose eps suffices: float64, longdouble, double-double, mpmath
    rung = sum(expo + np.log(eps) >= target for eps in (_D_EPS, _LD_EPS, _DD_EPS))
    use_d, use_ld, use_dd, use_mp = (rung == r for r in range(4))
    if use_dd.any():
        # logscale < 20 here, so the rung works on the unscaled brackets
        ks = k[use_dd]
        d = _defect(_DD(ks), [_DD(*b) for b in _xy_dd(V, ks)]).hi
        out[use_dd] = np.abs(d) / 4 / (1 + np.abs(ks) ** 2)
    for sel, longdouble in ((use_d, False), (use_ld, True)):
        if not sel.any():
            continue
        ks = k[sel].astype(np.clongdouble) if longdouble else k[sel]
        Ps = _scaled_transfer(V, ks) if longdouble else tuple(e[sel] for e in P)
        d = _defect(ks, _brackets(ks, Ps), np.exp(2 * Ps[4]))
        out[sel] = (np.abs(d) / 4 / (1 + np.abs(ks) ** 2)).astype(float)
    for i in zip(*np.nonzero(use_mp)):
        dps = int(np.ceil((expo[i] - target[i]) / np.log(10))) + 16
        with mp.workdps(max(dps, 30)):
            s = mp.mpc(k[i])
            out[i] = float(abs(_defect(s, _xy_mp(V, s, dps))) / 4 / (1 + abs(s) ** 2))
    return out


def unitary_residual(V: Potential, k):
    """|xhat(k)xhat(-k) - k^2 - yhat(k)yhat(-k)| / (1 + |k|^2).

    Evaluates the four function values in float64, 80-bit, double-double
    (eps 1e-28) or mpmath: at each k the first whose eps times the
    cancellation scale is below 1e-11 (1 + |k|^2), so the result reflects
    the identity rather than rounding noise.  The scale is the largest
    intermediate term, of log-modulus 2 logscale + 2 log(2 + |k|), read off
    the float64 cell product that the float64 rung then reuses.
    """
    kk = _points(k)
    return _like(k, _unitary_from(V, kk, _scaled_transfer(V, kk)))


# ---------------------------------------------------------------------------
# S-matrix entries


def _quotient(num, den):
    """num conj(den) / |den|^2, both first scaled by the power of two that
    brings |den| into [1/2, 1), so a subnormal den gives no nan.  Each part
    is one real division, so +-den / den is exactly +-1, where numpy's
    complex division multiplies by a rounded reciprocal."""
    e = -np.frexp(np.maximum(np.abs(den.real), np.abs(den.imag)))[1]
    nr, ni, dr, di = (np.ldexp(x, e) for x in (num.real, num.imag, den.real, den.imag))
    m = dr * dr + di * di
    return (nr * dr + ni * di) / m + 1j * ((ni * dr - nr * di) / m)


def _zero_resonance(k, xm, xl):
    """The zero-energy resonances: k = 0 with |xhat(0)| < 1e-13, from xhat's
    (mantissa, log-modulus scale) at k."""
    return (k == 0) & (np.abs(xm) < 1e-13 * np.exp(np.clip(-xl, -700, 700)))


def _jost_from(V, k, P):
    """Rows t, r_right and r_left at the array k, from the cell product P there.

    At a zero-energy resonance they are the quotients of the k-derivatives
    at 0 (see the module docstring): t = 2 e^{-logscale} / D and
    r_right = -r_left = (M11-M22 - (a+b) M21) / D, D = M11+M22 - L M21.
    Elsewhere at k = 0 the quotients give t = 0 and r = -1 exactly.
    """
    xm, xl = _xhat_from(V, k, P)
    ym, yl = _yhat_from(V, k, P)
    ym2, yl2 = _yhat_from(V, -k, P)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.array([_quotient(1j * k, xm) * np.exp(-xl),
                        _quotient(ym, xm) * np.exp(yl - xl),
                        _quotient(ym2, xm) * np.exp(yl2 - xl)])
    zero = _zero_resonance(k, xm, xl)
    if zero.any():
        M11, _, M21, M22, ls = (e[zero] for e in P)
        a, b = V.breakpoints[0], V.breakpoints[-1]
        d = M11 + M22 - (b - a) * M21
        r = (M11 - M22 - (a + b) * M21) / d
        out[:, zero] = [2 * np.exp(-ls) / d, r, -r]
    return out


def _det_s_from(V, k, P):
    """det S at the array k from the product P there, the mask of its
    poles, where det S reads inf, and xhat's brackets (B(k), B(-k)).

    det S = -xhat(-k)/xhat(k) = -(B(-k)/B(k)) e^{-2ikL}, L = b - a, point by
    point.  k != 0 is a pole when B(k) is below 1e6 eps times the sum of its
    terms' moduli, that is within rounding of zero.  At a pole, at k = 0
    and where |B(k)| is subnormal, the quotient is `_quotient`, exact at
    +-1 and safe for a subnormal B(k).  At k = 0 the bracket is -M21 alone
    and the pole bound is void; at a zero-energy resonance det S is
    -xhat'(-0)/xhat'(0) = 1.
    """
    M11, M12, M21, M22 = P[:4]
    plus, minus = _bracket(k, P), _bracket(-k, P)
    ak, size = np.abs(k), np.abs(plus)
    terms = ak * np.abs(M11 + M22) + ak ** 2 * np.abs(M12) + np.abs(M21)
    pole = (size < 1e6 * _D_EPS * terms) & (k != 0)
    guard = pole | (k == 0) | (size < _TINY)
    L = V.breakpoints[-1] - V.breakpoints[0]
    with np.errstate(all="ignore"):
        phase = np.exp(-2j * L * k)
        out = -(minus / plus) * phase
        if guard.any():
            bg = plus[guard]
            g = -_quotient(minus[guard], bg) * phase[guard]
            # xhat's mantissa at k = 0 is B(0) / 2
            g[_zero_resonance(k[guard], bg / 2, P[4][guard])] = 1
            g[pole[guard]] = np.inf
            out[guard] = g
    return out, pole, (plus, minus)


def _det_s_checked(V, k, P):
    """det S and xhat's brackets from _det_s_from; raises PoleAtK at a pole."""
    out, pole, brackets = _det_s_from(V, k, P)
    if pole.any():
        raise PoleAtK("xhat vanishes at k = %s" % k[pole][0])
    return out, brackets


def det_s(V: Potential, k):
    """Scattering determinant -xhat(-k)/xhat(k) (the inverse-problem data)."""
    kk = _points(k)
    return _like(k, _det_s_checked(V, kk, _scaled_transfer(V, kk))[0])


def det_s_jacobian(V: Potential, k, n: int):
    """det S at k and its derivatives with respect to the values of the
    first n cells, from one pass over the cells.

    Returns (det S, J) with J of shape k.shape + (n,).  The scaled cells
    come from `_cells` and have closed-form derivatives: dc/dV = (w/2) m12,
    dm12/dV = (m12 - w c) / (2 kappa^2), which cancels as z -> 0 and below
    |z| = 0.1 comes from the slope of the sinc table, and
    dm21/dV = (m12 + w c) / 2.  The derivative of the product is
    (cells after j) dA_j (cells before j), and
    d det S/dV_j = det S (x'(-k)/x(-k) - x'(k)/x(k)), with x' the xhat
    bracket of that derivative and x the bracket B(+-k) that `_det_s_from`
    formed det S from.  Raises PoleAtK where det_s does.  At a
    zero-energy resonance, where det S is 1 in closed form, J is not
    defined.
    """
    kk = _points(k)
    kap2, z, t, c, m12, m21 = _cells(V, kk)
    # one loop multiplies two chains: the cells, and the reversed chain of
    # transposed cells, whose product before its cell N-1-j is the
    # transpose of the product after cell j
    chains = lambda a, b: np.stack([a, b[::-1]], axis=1)
    M, before = _product(chains(c, c), chains(m12, m21), chains(m21, m12),
                         prefixes=True)
    P = (*M[0, :, 0], *M[1, :, 0], _add_cells(np.zeros(kk.shape), t))
    ds, (plus, minus) = _det_s_checked(V, kk, P)
    after = before[:, :, ::-1, 1][:, :, :n].swapaxes(0, 1)
    B = before[:, :, :n, 0]
    w = np.diff(V.breakpoints)[:n].reshape((n,) + (1,) * kk.ndim)
    c, m12, z, kap2 = c[:n], m12[:n], z[:n], kap2[:n]
    small = np.abs(z) < _SERIES_BELOW
    dm12 = (m12 - w * c) / (2 * np.where(small, 1, kap2))
    if small.any():
        ws = w.ravel()[np.nonzero(small)[0]]
        dm12[small] = ws ** 3 * _sinc(z[small], slope=True) * np.exp(-t[:n][small])
    dc, dm21 = w / 2 * m12, (m12 + w * c) / 2
    dA_B = np.stack([dc * B[0] + dm12 * B[1], dm21 * B[0] + dc * B[1]])
    dM = after[:, 0, None] * dA_B[0] + after[:, 1, None] * dA_B[1]
    dP = (*dM[0], *dM[1])
    d_plus, d_minus = _bracket(kk, dP), _bracket(-kk, dP)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        jac = np.moveaxis(ds * (d_minus / minus - d_plus / plus), 0, -1)
    return _like(k, ds), jac.reshape(np.shape(k) + (n,))


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class ScatteringSample:
    """Values of all scattering functions at one complex wavenumber, or at
    each point of an array of them (every field then has the array's shape)."""

    k: complex
    xhat: complex
    yhat: complex
    t: complex
    r_right: complex
    r_left: complex
    det_s: complex
    residual_u: float


def sample(V: Potential, k) -> ScatteringSample:
    """Every scattering value at k, a scalar or an array, from one cell
    product per point (the unitary residual's 80-bit, double-double and
    mpmath rungs build their own).  det S reads inf at its poles."""
    kk = _points(k)
    P = _scaled_transfer(V, kk)
    fields = (kk, _collapse(*_xhat_from(V, kk, P)), _collapse(*_yhat_from(V, kk, P)),
              *_jost_from(V, kk, P), _det_s_from(V, kk, P)[0], _unitary_from(V, kk, P))
    return ScatteringSample(*(_like(k, f) for f in fields))
