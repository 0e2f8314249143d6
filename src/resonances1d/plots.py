"""Dependency-free SVG text for the handful of plots the CLI offers.

Only three figure kinds are needed (zero scatter, density fit line,
log-magnitude heatmap), so the plots are hand-assembled SVG primitives
rather than a plotting-stack dependency.  Each returns its SVG as str
chunks for `cli` to write.  No timestamps or random ids are embedded:
identical inputs give identical text.
"""

from __future__ import annotations

import numpy as np

_W, _H, _PAD = 640, 480, 50
_MAX_CELLS = 200


_OPEN = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
    'viewBox="0 0 %d %d">\n' % (_W, _H, _W, _H)
    + '<rect width="%d" height="%d" fill="white"/>\n' % (_W, _H)
)


def _svg(parts):
    return [_OPEN, *parts, "</svg>\n"]


def _axes(x0, x1, y0, y1):
    def sx(x):
        return _PAD + (x - x0) / (x1 - x0) * (_W - 2 * _PAD)

    def sy(y):
        return _H - _PAD - (y - y0) / (y1 - y0) * (_H - 2 * _PAD)

    frame = (
        '<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
        'stroke="black"/>\n' % (_PAD, _PAD, _W - 2 * _PAD, _H - 2 * _PAD)
    )
    labels = "".join(
        '<text x="%.1f" y="%.1f" font-size="11" text-anchor="%s">%.3g</text>\n' % t
        for t in [
            (sx(x0), _H - _PAD + 15, "middle", x0),
            (sx(x1), _H - _PAD + 15, "middle", x1),
            (_PAD - 5, sy(y0) + 4, "end", y0),
            (_PAD - 5, sy(y1) + 4, "end", y1),
        ]
    )
    return sx, sy, frame + labels


def _title(text):
    return ('<text x="%d" y="25" font-size="14" text-anchor="middle">%s</text>\n'
            % (_W // 2, text))


def _bounds(v):
    v = np.asarray(v, dtype=float)
    lo, hi = float(v.min()), float(v.max())
    span = hi - lo or 1.0
    return lo - 0.05 * span, hi + 0.05 * span


def zero_scatter_svg(locations, title):
    """Scatter of complex zeros in the plane."""
    locs = np.asarray(locations, dtype=complex)
    if locs.size == 0:
        locs = np.array([0.0 + 0.0j])
    x0, x1 = _bounds(locs.real)
    y0, y1 = _bounds(locs.imag)
    sx, sy, ax = _axes(x0, x1, y0, y1)
    parts = [ax, _title(title)]
    if y0 < 0 < y1:
        parts.append(
            '<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="#bbbbbb"/>\n'
            % (_PAD, sy(0), _W - _PAD, sy(0))
        )
    for z in locations:
        parts.append(
            '<circle cx="%.2f" cy="%.2f" r="3" fill="#1f4e9c"/>\n'
            % (sx(z.real), sy(z.imag))
        )
    return _svg(parts)


def density_fit_svg(radii, counts, slope, title):
    """Counting function n(r) with the fitted line slope*r."""
    radii = np.asarray(radii, dtype=float)
    counts = np.asarray(counts, dtype=float)
    if radii.size == 0:
        radii, counts = np.array([0.0, 1.0]), np.array([0.0, 0.0])
    x0, x1 = 0.0, float(radii.max()) * 1.05
    y0, y1 = 0.0, max(float(counts.max()), slope * x1, 1.0) * 1.05
    sx, sy, ax = _axes(x0, x1, y0, y1)
    parts = [ax, _title(title)]
    steps = " ".join("%.2f,%.2f" % (sx(r), sy(n)) for r, n in zip(radii, counts))
    parts.append(
        '<polyline points="%s" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>\n'
        % steps
    )
    parts.append(
        '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="#c03030" '
        'stroke-dasharray="6 3"/>\n' % (sx(0), sy(0), sx(x1), sy(slope * x1))
    )
    parts.append(
        '<text x="%d" y="%d" font-size="12" fill="#c03030">slope %.4g</text>\n'
        % (_W - _PAD - 120, _PAD + 20, slope)
    )
    return _svg(parts)


def heatmap_svg(values, extent, title):
    """Grayscale raster of a real 2D field (strided by n // _MAX_CELLS along
    an axis of n > _MAX_CELLS cells), one chunk per row of cells.  A
    non-finite cell raises ValueError at the call, before any chunk."""
    vals = np.asarray(values, dtype=float)
    si, sj = (max(1, n // _MAX_CELLS) for n in vals.shape)
    vals = vals[::si, ::sj]
    if not np.isfinite(vals).all():
        raise ValueError("heatmap of a non-finite field")
    x0, x1, y0, y1 = (float(v) for v in extent)
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo or 1.0
    ny, nx = vals.shape
    cw = (_W - 2 * _PAD) / nx
    ch = (_H - 2 * _PAD) / ny
    gray = 255 * (1.0 - (vals - lo) / span)
    # a cell is its column's head, its row's middle and its gray level's fill
    cells = [None] * (3 * nx)
    cells[::3] = ['<rect x="%.2f" y="' % (_PAD + j * cw) for j in range(nx)]
    fills = ['%d,%d,255)"/>\n' % (g, g) for g in range(256)]
    sx, sy, ax = _axes(x0, x1, y0, y1)

    def chunks():
        yield _OPEN
        for i, row in enumerate(gray.astype(int).tolist()):
            cells[1::3] = ['%.2f" width="%.2f" height="%.2f" fill="rgb('
                           % (_H - _PAD - (i + 1) * ch, cw + 0.5, ch + 0.5)] * nx
            cells[2::3] = map(fills.__getitem__, row)
            yield "".join(cells)
        yield ax + _title(title) + "</svg>\n"

    return chunks()
