"""The streamed heatmap against a per-cell reference."""

import numpy as np
import pytest

from resonances1d import plots


def _reference_heatmap(values, extent, title):
    """The heatmap's SVG text built one formatted cell at a time."""
    vals = np.asarray(values, dtype=float)
    si, sj = (max(1, n // plots._MAX_CELLS) for n in vals.shape)
    vals = vals[::si, ::sj]
    lo, hi = float(np.nanmin(vals)), float(np.nanmax(vals))
    span = hi - lo or 1.0
    ny, nx = vals.shape
    cw = (plots._W - 2 * plots._PAD) / nx
    ch = (plots._H - 2 * plots._PAD) / ny
    parts = []
    for i in range(ny):
        for j in range(nx):
            g = int(255 * (1.0 - (vals[i, j] - lo) / span))
            parts.append(
                '<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" '
                'fill="rgb(%d,%d,255)"/>\n'
                % (plots._PAD + j * cw, plots._H - plots._PAD - (i + 1) * ch,
                   cw + 0.5, ch + 0.5, g, g)
            )
    parts += [plots._axes(*extent)[2], plots._title(title)]
    return plots._header(parts)


@pytest.mark.parametrize("shape", [(120, 160), (1, 1), (3, 7), (450, 230), "flat"])
def test_heatmap_is_the_per_cell_reference(tmp_path, shape):
    # 450 x 230 is strided to 225 x 230 cells; a flat field has no span
    if shape == "flat":
        vals = np.full((4, 5), 2.5)
    else:
        vals = np.random.default_rng(sum(shape)).normal(0.0, 8.0, shape)
    extent = (0.05, 12.5, -4.0, 4.0)
    path = tmp_path / "h.svg"
    plots.heatmap_svg(vals, extent, path, "log|xhat(k)|")
    assert path.read_text() == _reference_heatmap(vals, extent, "log|xhat(k)|")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_heatmap_rejects_a_non_finite_cell(tmp_path, bad):
    """It raises before any arithmetic on the field, so without a warning."""
    vals = np.ones((4, 4))
    vals[1, 2] = bad
    with pytest.raises(ValueError):
        plots.heatmap_svg(vals, (0, 1, 0, 1), tmp_path / "h.svg", "t")
