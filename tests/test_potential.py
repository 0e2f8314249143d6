"""Construction, trimming, evaluation, and serialization of step potentials."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonances1d.errors import (
    AllZero,
    EmptyInterval,
    HullDoesNotStraddleZero,
    NonIncreasingBreakpoints,
    OverlappingSupports,
)
from resonances1d.potential import (
    Fragment,
    Potential,
    glue,
    make_piecewise,
    square_well,
)


def test_basic_construction():
    V = make_piecewise([-1.0, 0.5, 2.0], [3.0, -1.0])
    assert V.hull == (-1.0, 2.0)
    assert V.a == -1.0 and V.b == 2.0
    assert V.integral() == pytest.approx(3.0 * 1.5 - 1.0 * 1.5)


def test_zero_edge_cells_are_trimmed():
    V = make_piecewise([-3.0, -1.0, 1.0, 4.0], [0.0, -2.0, 0.0])
    assert V.hull == (-1.0, 1.0)
    assert V.values == (-2.0,)


def test_equal_neighbours_are_merged():
    V = make_piecewise([-1.0, 0.0, 1.0], [2.0, 2.0])
    assert V.breakpoints == (-1.0, 1.0)
    assert V.values == (2.0,)


def test_must_straddle_origin():
    with pytest.raises(HullDoesNotStraddleZero):
        make_piecewise([0.5, 1.0], [-1.0])
    with pytest.raises(HullDoesNotStraddleZero):
        make_piecewise([-2.0, -1.0], [-1.0])
    # straddling only via a zero cell does not count
    with pytest.raises(HullDoesNotStraddleZero):
        make_piecewise([-2.0, 1.0, 2.0], [0.0, 1.0])


def test_bad_breakpoints():
    with pytest.raises(NonIncreasingBreakpoints):
        make_piecewise([0.0, 0.0, 1.0], [1.0, 2.0])
    with pytest.raises(NonIncreasingBreakpoints):
        make_piecewise([-1.0, 1.0], [1.0, 2.0])
    with pytest.raises(AllZero):
        make_piecewise([-1.0, 1.0], [0.0])


@pytest.mark.parametrize("bp, vs", [([-1.0, np.nan, 1.0], [1.0, 2.0]),
                                    ([-np.inf, 1.0], [1.0]),
                                    ([-1.0, 1.0], [np.inf]),
                                    ([-1.0, 0.0, 1.0], [np.nan, 0.0])])
def test_non_finite_breakpoints_or_values(bp, vs):
    with pytest.raises(ValueError, match="finite"):
        make_piecewise(bp, vs)
    with pytest.raises(ValueError, match="finite"):
        Fragment([x + 2.0 for x in bp], vs)


def test_value_at_interior_and_breakpoints():
    V = make_piecewise([-1.0, 0.0, 1.0], [2.0, -4.0])
    assert V.value_at(-0.5) == 2.0
    assert V.value_at(0.5) == -4.0
    assert V.value_at(0.0) == pytest.approx(-1.0)   # two-sided average
    assert V.value_at(-1.0) == pytest.approx(1.0)   # edge average with 0
    assert V.value_at(5.0) == 0.0
    out = V.value_at(np.array([-0.5, 0.5, 3.0]))
    np.testing.assert_allclose(out, [2.0, -4.0, 0.0])


def test_cumulative_integral():
    V = make_piecewise([-1.0, 0.0, 1.0], [2.0, -4.0])
    assert V.cumulative_integral(-1.0) == 0.0
    assert V.cumulative_integral(0.0) == pytest.approx(2.0)
    assert V.cumulative_integral(1.0) == pytest.approx(-2.0)
    assert V.cumulative_integral(10.0) == pytest.approx(V.integral())
    xs = np.linspace(-2, 2, 41)
    cum = V.cumulative_integral(xs)
    assert np.all(np.isfinite(cum))


def test_split_and_glue_round_trip():
    V = make_piecewise([-1.5, -0.5, 0.5, 1.0], [1.0, -2.0, 3.0])
    left, right = V.split_at_zero()
    assert left.breakpoints[-1] == 0.0
    assert right.breakpoints[0] == 0.0
    W = glue(left, right)
    assert W.breakpoints == V.breakpoints
    assert W.values == V.values


def test_glue_with_gaps():
    left = square_well(-1.0, -2.0, -1.0)
    right = square_well(-3.0, 0.5, 1.5)
    V = glue(left, right)
    assert V.hull == (-2.0, 1.5)
    assert V.value_at(-0.5) == 0.0
    assert V.value_at(1.0) == -3.0


def test_glue_rejects_overlap():
    with pytest.raises(OverlappingSupports):
        glue(square_well(-1.0, -1.0, 0.5), square_well(-1.0, 0.0, 1.0))


def test_square_well_branches():
    V = square_well(-4.0, -1.0, 1.0)
    assert isinstance(V, Potential)
    frag = square_well(-4.0, 0.0, 1.0)
    assert isinstance(frag, Fragment)
    with pytest.raises(EmptyInterval):
        square_well(-4.0, 1.0, 1.0)
    with pytest.raises(AllZero):
        square_well(0.0, -1.0, 1.0)


def test_json_round_trip(tmp_path):
    V = make_piecewise([-1.5, -0.5, 0.5, 1.0], [1.0, -2.0, 3.0], label="demo")
    path = tmp_path / "v.json"
    V.save(path)
    with open(path) as fh:
        d = json.load(fh)
    assert Potential.from_json(d) == V
    assert d["label"] == "demo"


@given(
    edges=st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False, width=32),
        min_size=3, max_size=8, unique=True,
    ),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_construction_is_idempotent(edges, seed):
    bp = sorted(float(x) for x in edges)
    if not (bp[0] < 0.0 < bp[-1]):
        return
    rng = np.random.default_rng(seed)
    vals = rng.integers(-4, 5, len(bp) - 1).astype(float)
    try:
        V = make_piecewise(bp, vals)
    except (AllZero, HullDoesNotStraddleZero):
        return
    # feeding a potential's own data back is a fixed point
    W = make_piecewise(V.breakpoints, V.values)
    assert W.breakpoints == V.breakpoints
    assert W.values == V.values
    # serialization round-trips exactly
    assert Potential.from_json(V.to_json()) == V


def _value_at_by_cells(V, x):
    """Reference: the cell value inside a cell, the average of the two
    neighbouring values (0 beyond the hull) on a breakpoint, else 0."""
    bp, vs = V.breakpoints, (0.0,) + V.values + (0.0,)
    for m, xb in enumerate(bp):
        if x == xb:
            return 0.5 * (vs[m] + vs[m + 1])
    for x0, x1, v in zip(bp, bp[1:], V.values):
        if x0 < x < x1:
            return v
    return 0.0


@given(
    widths=st.lists(st.floats(0.01, 2.0), min_size=1, max_size=12),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_value_at_matches_cell_by_cell_reference(widths, seed):
    rng = np.random.default_rng(seed)
    bp = np.concatenate([[0.0], np.cumsum(widths)]) - rng.uniform(0.0, sum(widths))
    if not bp[0] < 0.0 < bp[-1]:
        return
    V = Potential._unchecked(bp, rng.uniform(-1e3, 1e3, len(widths)))
    b = np.asarray(V.breakpoints)
    xs = np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf),
                         (b[1:] + b[:-1]) / 2, rng.uniform(b[0] - 1, b[-1] + 1, 50)])
    want = np.array([_value_at_by_cells(V, x) for x in xs])
    got = V.value_at(xs)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert all(type(V.value_at(x)) is float and V.value_at(x) == w
               for x, w in zip(xs[:8], want))
