"""Wave kernels by characteristic integration.

The forced wave problem (x is the time-like variable, the potential acts at
time x uniformly in space)

    (d/dx)^2 A - (d/dy)^2 A - V(x) A = 0,      A = delta(x - y) for x <= a,

is solved for the remainder u = A - delta(x-y) in characteristic
coordinates xi = x - y, eta = x + y, where it becomes the Goursat problem

    u_{xi eta} = V((xi+eta)/2) u / 4,
    u(0+, eta) = (1/2) * integral_a^{eta/2} V,     u(xi, 2a) = 0.

The boundary value on xi = 0 is the jump carried by the right-moving front;
the singular parts delta'(s) and -(integral V / 2) delta(s) of the outgoing
kernel X are propagated analytically and never touch the grid.  At exit
time x = b the regular kernel parts are read off as characteristic
derivatives of u, obtained by quadrature of the field equation (no finite
differencing):

    X_reg(s) = -u_xi(-s, 2b+s) = -(1/4) int_{2a}^{2b+s} V u d(eta'),
    Y_reg(s) =  u_eta(2b-s, s) = V(s/2)/4 + (1/4) int_0^{2b-s} V u d(xi').

Supports are exact: X_reg lives on [-2(b-a), 0], Y_reg on [2a, 2b].

V depends on x = (xi+eta)/2 alone, so it is constant on each anti-diagonal
xi + eta = const of the grid.  The march advances one anti-diagonal at a
time and reads only the two before it.  V is sampled once per anti-diagonal,
at x_d = a + d (b-a)/n; the exit line x = b takes the last cell's value
exactly, not a rounded (xi+eta)/2 that may land past b.  The update
coefficients of every anti-diagonal are computed once, before the march.
The march writes each step in place into a preallocated block of _FLUSH + 2
rows of length n + 1, and adds the V u of _FLUSH anti-diagonals at a time
into the X and Y quadratures, one matrix-vector product each: O(n) memory,
(_FLUSH + 2)(n + 1) doubles, for an n-by-n triangle, and no array allocated
per anti-diagonal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dfield

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import GridTooCoarse, ImaginaryPartTooLarge, SharedPartMismatch
from .potential import Potential, _require_shared_right
from .scattering import _like, _points

# k per exp(-i k s) block of a windowed transform: each block holds at most
# _K_ROWS * len(s) entries, however many k one call takes
_K_ROWS = 257
# anti-diagonals per flush of the march's quadrature sums
_FLUSH = 32
# the coarsest n_grid solve_kernels takes
_MIN_GRID = 64


class Window(enum.Enum):
    X1 = "X1"
    X2 = "X2"
    X3 = "X3"
    Y1 = "Y1"
    Y2 = "Y2"
    Y3 = "Y3"
    X_FULL = "X_FULL"
    Y_FULL = "Y_FULL"


def _interval(which: Window, a: float, b: float, r: float):
    """The s-interval [w0, w1] of one of the six restriction windows, for
    the hull [a, b] and the small parameter r."""
    return {
        Window.X1: (2 * a, 0.0),
        Window.X2: (2 * a - 2 * r, 2 * a),
        Window.X3: (2 * a - 2 * b, 2 * a - 2 * r),
        Window.Y1: (2 * a, 0.0),
        Window.Y2: (0.0, 2 * r),
        Window.Y3: (2 * r, 2 * b),
    }[which]


def default_window_r(V: Potential) -> float:
    return (V.b - V.a) / 20.0


@dataclass(frozen=True)
class KernelField:
    """Sampled regular kernel parts plus the analytic singular data."""

    potential: Potential
    x_grid: np.ndarray          # ascending, [-2(b-a), 0]
    X_reg: np.ndarray
    y_grid: np.ndarray          # ascending, [2a, 2b]
    Y_reg: np.ndarray
    delta_prime_coeff: float    # coefficient of delta'(s) in X, always 1
    delta_coeff: float          # coefficient of delta(s) in X, -integral(V)/2
    y_leading: np.ndarray       # V(y/2)/4 sampled on y_grid
    n_grid: int
    truncation_error: float = dfield(default=0.0)


def _march(V: Potential, n: int):
    """March the Goursat problem over the triangle xi + eta <= 2b.

    Anti-diagonal d holds u(xi_i, eta_{d-i}), i = 0..d, all at time x_d.
    The diagonals of one block go into rows 2.. of a (_FLUSH + 2)-row
    buffer, the two before the block into rows 0 and 1; each row holds zeros
    past its own diagonal, since a row only ever takes longer ones.  Once per
    block, the quadrature sums take the block's V u in one product each: the
    columns through a view whose row stride is one longer than the buffer's,
    which shifts diagonal d right by n - d.
    Returns (x_grid, X_reg, y_grid, Y_reg, y_leading).
    """
    a, b = V.hull
    h = 2.0 * (b - a) / n
    x = np.linspace(a, b, n + 1)
    # one-sided from inside at the hull ends, where the quadratures stop;
    # interior breakpoints keep the two-sided average (those errors cancel
    # in pairs across the jump)
    v = V.value_at(x)
    v[0], v[-1] = V.values[0], V.values[-1]
    edge = 0.5 * V.cumulative_integral(x)      # u on xi = 0
    # interior u_d = p_d (left + right of u_{d-1} - u_{d-2}) + s_d u_{d-2}:
    # s_d = p_d - q_d is O(h^2), formed apart so that its V terms keep their
    # digits
    c = h * h / 16.0
    p, s = np.zeros(n + 1), np.zeros(n + 1)
    p[2:] = (1.0 + c * v[1:-1]) / (1.0 - c * v[2:])
    s[2:] = c * (v[1:-1] + v[:-2]) / (1.0 - c * v[2:])
    W = n + 1
    rows = np.zeros(W)   # sum over eta of V u, per xi_i
    cols = np.zeros(W)   # sum over xi of V u, per eta_j, at index n - j
    block, tmp = np.zeros((_FLUSH + 2, W)), np.empty(W)
    flat, step = block.reshape(-1), block.itemsize
    for d0 in range(0, W, _FLUSH):
        nb = min(_FLUSH, W - d0)
        for r, d in enumerate(range(d0, d0 + nb), 2):
            u = block[r]
            if d >= 2:
                mid, old = u[1:d], block[r - 2, :d - 1]
                np.add(block[r - 1, :d - 1], block[r - 1, 1:d], out=mid)
                mid -= old
                mid *= p[d]
                mid += np.multiply(old, s[d], out=tmp[:d - 1])
            u[d] = 0.0                         # u = 0 on eta = 2a
            u[0] = edge[d]
        # the block's diagonals fill columns :m; in the sheared view, row
        # 2 + j starts m - 1 - d0 - j entries early, in the zero tail of the
        # row before it
        m = d0 + nb
        vb = v[d0:m]
        rows[:m] += np.matmul(vb, block[2:nb + 2, :m], out=tmp[:m])
        sheared = as_strided(flat[2 * W + 1 - nb:], (nb, m), ((W + 1) * step, step),
                             writeable=False)
        cols[W - m:] += np.matmul(vb, sheared, out=tmp[:m])
        block[:2] = block[nb:nb + 2]
    w = block[1] * v[-1]                       # the exit diagonal's V u
    # trapezoid end corrections: a row starts on eta = 2a, where u = 0, and
    # ends on the exit line; a column starts on xi = 0 and ends there too
    X = -0.25 * h * (rows - 0.5 * w)
    Y = v / 4.0 + 0.25 * h * (cols[::-1] - 0.5 * (v * edge + w[::-1]))
    return -h * np.arange(n, -1, -1), X[::-1], 2 * a + h * np.arange(n + 1), Y, v / 4.0


def solve_kernels(V: Potential, n_grid: int) -> KernelField:
    """Characteristic solve of both kernels.

    Second order on a single cell; first order once V has interior
    breakpoints off the grid lines.  The truncation estimate of the square
    well falls 4x per doubling of n (1.8e-5, 4.5e-6, 1.1e-6 of the kernel
    scale at n = 256, 512, 1024), that of make_piecewise([-0.7, 0.3, 1.1],
    [1.5, -2.0]) 2x (4.3e-3, 2.1e-3, 1.1e-3).

    Also runs the half-resolution grid to estimate the truncation error;
    raises GridTooCoarse when that estimate exceeds 1% of the kernel scale.
    """
    if n_grid < _MIN_GRID:
        raise GridTooCoarse("n_grid must be at least %d" % _MIN_GRID)
    n = int(n_grid) + (int(n_grid) % 2)
    x_grid, X_reg, y_grid, Y_reg, ylead = _march(V, n)
    xg2, X2, yg2, Y2, _ = _march(V, n // 2)
    trunc = max(
        float(np.max(np.abs(X_reg[::2] - X2))),
        float(np.max(np.abs(Y_reg[::2] - Y2))),
    )
    scale = max(np.max(np.abs(X_reg)), np.max(np.abs(Y_reg)), 1e-30)
    field = KernelField(
        potential=V,
        x_grid=x_grid,
        X_reg=X_reg,
        y_grid=y_grid,
        Y_reg=Y_reg,
        delta_prime_coeff=1.0,
        delta_coeff=-V.integral() / 2.0,
        y_leading=ylead,
        n_grid=n,
        truncation_error=trunc,
    )
    if trunc > 1e-2 * scale:
        raise GridTooCoarse(
            "truncation estimate %g exceeds 1%% of kernel scale %g" % (trunc, scale)
        )
    return field


def _samples(field: KernelField, which: Window):
    """(grid, values) of the kernel a window reads: X_reg or Y_reg."""
    if which.value.startswith("X"):
        return field.x_grid, field.X_reg
    return field.y_grid, field.Y_reg


def _windowed_quadrature(grid, values, w0, w1, k, h_native):
    """Simpson quadrature of values(s) e^{-iks} over [w0, w1] (interpolated):
    sums of (cos, sin)(Re k s) f w e^{Im k s}, with w = (1, 4, 2, ..., 4, 1)
    ds/3, over _K_ROWS k at a time.  Real sums by einsum, not a complex
    matrix product, which a threaded BLAS may stall on."""
    w0 = max(w0, grid[0])
    w1 = min(w1, grid[-1])
    if w1 <= w0:
        return np.zeros(np.shape(k), dtype=complex)
    npts = int(np.ceil((w1 - w0) / h_native))
    npts = max(npts, 32)
    npts += npts % 2  # even interval count for Simpson
    s = np.linspace(w0, w1, npts + 1)
    w = np.where(np.arange(npts + 1) % 2, 4.0, 2.0)
    w[[0, -1]] = 1.0
    fw = np.interp(s, grid, values) * w * ((w1 - w0) / (3 * npts))
    k = np.asarray(k, dtype=complex)
    flat = k.ravel()
    out = np.empty(flat.shape, dtype=complex)
    for i in range(0, flat.size, _K_ROWS):
        rows = flat[i:i + _K_ROWS]
        phase = np.multiply.outer(rows.real, s)
        amp = np.exp(np.multiply.outer(rows.imag, s)) * fw
        out[i:i + _K_ROWS] = (np.einsum("ij,ij->i", np.cos(phase), amp)
                              - 1j * np.einsum("ij,ij->i", np.sin(phase), amp))
    return out.reshape(k.shape)


def kernel_fourier(field: KernelField, window, k, r: float | None = None):
    """Fourier transform of a windowed kernel piece at complex k.

    `window` is a Window member or its name.  The FULL variants add the
    transforms of their three windows, in order, to a start value: for X the
    analytic transforms of the singular parts (delta' -> ik, delta ->
    delta_coeff), for Y zero.
    """
    V = field.potential
    a, b = V.hull
    which = Window(window)
    if r is None:
        r = default_window_r(V)
    kk = _points(k)
    h = field.x_grid[1] - field.x_grid[0]
    if np.max(np.abs(kk.imag)) > 10.0 / h:
        raise ImaginaryPartTooLarge(
            "|Im k| beyond the quadrature guard 10/h = %g" % (10.0 / h)
        )

    def piece(w):
        return _windowed_quadrature(*_samples(field, w), *_interval(w, a, b, r), kk, h)

    if which is Window.X_FULL:
        out = 1j * kk + field.delta_coeff
        for w in (Window.X1, Window.X2, Window.X3):
            out = out + piece(w)
    elif which is Window.Y_FULL:
        out = np.zeros_like(kk)
        for w in (Window.Y1, Window.Y2, Window.Y3):
            out = out + piece(w)
    else:
        out = piece(which)
    return _like(k, out)


@dataclass(frozen=True)
class InfluenceReport:
    """Windowed sup-norm differences for a pair sharing the right part."""

    window_diffs: dict
    truncation_error: float
    x2_pass: bool
    y2_pass: bool

    @property
    def passed(self):
        return self.x2_pass and self.y2_pass


def domain_of_influence_check(V1: Potential, V2: Potential, r: float,
                              n_grid: int) -> InfluenceReport:
    """Measure which windowed kernel pieces survive a change of left part.

    The pieces X2 and Y2 are the ones claimed to be insensitive; the report
    marks them PASS when their sup-difference stays below 10x the solver
    truncation estimate.
    """
    _require_shared_right(V1, V2)
    if V1.hull != V2.hull:
        raise SharedPartMismatch(
            "hulls differ (%s vs %s); windowed comparison needs a common hull"
            % (V1.hull, V2.hull)
        )
    f1 = solve_kernels(V1, n_grid)
    f2 = solve_kernels(V2, n_grid)
    a, b = V1.hull
    diffs = {}
    for which in (Window.X1, Window.X2, Window.X3, Window.Y1, Window.Y2, Window.Y3):
        w0, w1 = _interval(which, a, b, r)
        (grid, v1), (_, v2) = _samples(f1, which), _samples(f2, which)
        m = (grid >= w0) & (grid <= w1)
        diffs[which.value] = float(np.max(np.abs(v1[m] - v2[m])))
    trunc = max(f1.truncation_error, f2.truncation_error)
    return InfluenceReport(
        window_diffs=diffs,
        truncation_error=trunc,
        x2_pass=diffs["X2"] <= 10 * trunc,
        y2_pass=diffs["Y2"] <= 10 * trunc,
    )
