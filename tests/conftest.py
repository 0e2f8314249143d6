"""Shared fixtures and helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import strategies as st

from resonances1d.czeros import Rect, find_zeros
from resonances1d.potential import Potential, make_piecewise, square_well

# M(0) = -I: kappa w = pi in the one cell, so xhat(0) = -M21/2 is rounding,
# a zero-energy resonance, where t = -1, r = 0 and det S = 1 in closed form
EXCEPTIONAL = square_well(-(np.pi / 2) ** 2, -1.0, 1.0)


def make_zero_potential(a=-1.0, b=1.0):
    """An identically-zero potential on [a, b].

    The public constructors reject all-zero data (the trimmed support would
    be empty), so the free case is assembled directly; every solver must
    treat it as V = 0.
    """
    return Potential._unchecked((a, 0.0, b), (0.0, 0.0), "free")


@st.composite
def wells(draw):
    """1-8 cells on a hull of width 0.3-4, values in [-8, 4] away from 0."""
    n = draw(st.integers(1, 8))
    width = draw(st.floats(0.3, 4.0))
    cells = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    values = draw(st.lists(st.one_of(st.floats(-8.0, -0.05), st.floats(0.05, 4.0)),
                           min_size=n, max_size=n))
    edges = width * (np.concatenate(([0.0], np.cumsum(cells) / np.sum(cells))) - 0.5)
    return make_piecewise(edges, values)


def mirror_defect(f, zs, radius):
    """The symmetry check of a half-plane search zs of f at radius, which
    mirrors its zeros right of the imaginary axis: the largest distance
    between its zeros with Re < -0.2 and those of an unmirrored find_zeros
    over the rectangle left of Re = -0.1, off the axis, about the left half
    of the lower half-disk (each zero to the nearest of the other set, both
    ways); inf where the two sets differ in size."""
    left = find_zeros(f, Rect(complex(-radius - 0.137, -radius - 0.137), complex(-0.1, -1e-9)),
                      max_zeros=500)
    a, b = ([z for z in locs if z.real < -0.2 and abs(z) <= radius]
            for locs in (zs.locations, left.locations))
    if len(a) != len(b):
        return np.inf
    if not a:
        return 0.0
    d = np.abs(np.subtract.outer(a, b))
    return float(max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0))))


@pytest.fixture
def zero_potential():
    return make_zero_potential()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
