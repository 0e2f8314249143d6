"""Argument-principle zero finding: counting, location, resonances, bound states."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from resonances1d import cli, czeros
from resonances1d.czeros import (
    Rect,
    bound_states,
    find_zeros,
    resonances,
    winding_number,
)
from resonances1d.errors import (
    BoundaryZero,
    MaxZerosExceeded,
    OverflowAtRadius,
    PhaseStepTooLarge,
    UnconvergedZeroWarning,
)
from resonances1d.potential import make_piecewise, square_well
from resonances1d.scattering import xhat, yhat

from conftest import make_zero_potential, mirror_defect


def test_rect_geometry():
    r = Rect(-1 - 2j, 3 + 1j)
    assert r.center == 1 - 0.5j
    assert r.width == 4 and r.height == 3
    assert r.contains(0.0) and not r.contains(4.0)
    with pytest.raises(ValueError):
        Rect(1 + 1j, 0 + 2j)


def test_winding_polynomials():
    sq = Rect(-0.5 - 0.5j, 0.5 + 0.5j)
    assert winding_number(lambda z: z ** 2, sq) == 2
    assert winding_number(lambda z: z - 0.25, sq) == 1
    assert winding_number(lambda z: z - 2.0, sq) == 0
    assert winding_number(lambda z: (z - 0.1) * (z + 0.1j) * (z - 5), sq) == 2


def test_winding_free_xhat(zero_potential):
    rect = Rect(-1 - 1j, 1 + 1j)
    assert winding_number(lambda k: xhat(zero_potential, k), rect) == 1


def test_winding_survives_boundary_zero():
    # a simple zero parked exactly on the contour: dilation retries resolve it
    rect = Rect(-1 - 1j, 1 + 1j)
    n = winding_number(lambda z: z - 1.0, rect)
    assert n in (0, 1)


_ROOTS = ([0.2 - 0.1j], [0.2 - 0.1j, -0.5 + 0.4j], [0.2 - 0.1j, -0.5 + 0.4j, 0.7 - 0.8j],
          [0.2 - 0.1j, -0.5 + 0.4j, -0.5 + 0.4j, 0.1j])


def _sums_about(roots, rect):
    """sum (z - c)^p, p = 1..4, over the roots inside rect, c its centre."""
    return [sum((r - rect.center) ** p for r in roots if rect.contains(r))
            for p in range(1, 5)]


def _sums_tolerance(rect):
    """3e-3 of (half-diagonal)^p: the midpoint sums of a 256-sample contour
    give each power sum to about 1e-3 of the box's scale."""
    return 3e-3 * (rect.diag / 2) ** np.arange(1, 5)


def test_count_carries_the_power_sums():
    """The count's power sums are sum (z - c)^p, p = 1..4, over the zeros
    inside, about the off-origin centre c; z = 5 lies outside."""
    rect = Rect(-1 - 1j, 1 + 0.6j)
    for roots in _ROOTS:
        f = lambda z: np.prod([z - r for r in roots + [5.0]], axis=0)
        n, sums, counted = czeros._count(f, rect)
        assert n == len(roots) and counted == rect
        assert np.all(np.abs(sums - _sums_about(roots, rect)) < _sums_tolerance(rect))


def test_split_sums_are_the_parents_minus_the_counted_childs():
    """The second child's power sums, the parent's minus the first child's
    shifted to its centre, match a direct count of it and the true sums."""
    rect = Rect(-1 - 1j, 1 + 0.6j)
    for roots in _ROOTS:
        f = lambda z: np.prod([z - r for r in roots + [5.0]], axis=0)
        n, sums, _ = czeros._count(f, rect)
        (c0, n0, m0), (c1, n1, m1) = czeros._split_level(f, [(rect, n, sums)])[0]
        direct = czeros._count(f, c1)
        assert n0 + n1 == n and direct[0] == n1 == sum(map(c1.contains, roots))
        assert np.all(np.abs(m1 - direct[1]) < _sums_tolerance(c1))
        assert np.all(np.abs(m1 - _sums_about(roots, c1)) < _sums_tolerance(c1))


def test_find_zeros_bisects_the_rectangle_it_counted():
    """yhat of the square well has real zeros at +-2.4227.  1e-12 below the
    bottom edge they fail the near-zero test, so the count dilates the
    rectangle and takes them in.  Bisecting the undilated one left an
    unconverged phantom on the top edge, total 2 against 3.  1e-7 below the
    edge they pass a test local to each sample, and only 1.238i is inside;
    a test relative to the whole contour fired there and counted 3."""
    V = square_well(-4.0, -1.0, 1.0)
    f = lambda k: yhat(V, k)
    rect = Rect(complex(-4.0, 1e-12), complex(4.0, 4.0))
    assert isinstance(czeros._windings(f, [rect])[0], BoundaryZero)
    zs = find_zeros(f, rect)
    assert all(z.converged for z in zs.zeros)
    assert zs.total_multiplicity() == winding_number(f, rect) == 3
    np.testing.assert_allclose(
        zs.locations, [-2.422726645969, 1.237981784893j, 2.422726645969],
        atol=1e-9)
    rect = Rect(complex(-4.0, 1e-7), complex(4.0, 4.0))
    zs = find_zeros(f, rect)
    assert zs.total_multiplicity() == winding_number(f, rect) == 1
    np.testing.assert_allclose(zs.locations, [1.237981784893j], atol=1e-9)


def test_find_zeros_simple_pair():
    zs = find_zeros(lambda z: (z - 1) * (z + 1j), Rect(-2 - 2j, 2 + 2j))
    locs = sorted(zs.locations, key=lambda z: z.real)
    np.testing.assert_allclose(locs, [-1j, 1.0], atol=1e-9)
    assert all(z.multiplicity == 1 for z in zs.zeros)
    assert all(z.refined_residual < 1e-10 for z in zs.zeros)


def test_find_zeros_multiplicity():
    zs = find_zeros(lambda z: (z - 0.3) ** 2, Rect(-1 - 1j, 1 + 1j))
    assert zs.total_multiplicity() == 2
    assert abs(zs.zeros[0].location - 0.3) < 1e-6


def test_find_zeros_empty():
    zs = find_zeros(lambda z: z - 10.0, Rect(-1 - 1j, 1 + 1j))
    assert zs.zeros == ()


def test_max_zeros_guard():
    with pytest.raises(MaxZerosExceeded):
        find_zeros(np.sin, Rect(-20 - 1j, 20 + 1j), max_zeros=3)


def test_count_reconciliation_square_well():
    """Sum of located multiplicities equals the enclosing winding count."""
    V = square_well(-4.0, -1.0, 1.0)
    f = lambda k: xhat(V, k)
    rect = Rect(complex(-10.1, -4.1), complex(10.3, -0.05))
    total = winding_number(f, rect)
    zs = find_zeros(f, rect, max_zeros=100)
    assert zs.total_multiplicity() == total
    assert total > 0


def test_newton_starts_near_its_zero(monkeypatch):
    """Power-sum starts, polished a level at a time, keep the polish of
    resonances(sw4, 40) to a few calls of xhat (132 3-point calls, one start
    at a time) and a few steps per zero."""
    calls = []
    batch = czeros._newton_batch

    def counted(f, z0, scale):
        return batch(lambda z: calls.append(np.size(z)) or f(z), z0, scale)

    monkeypatch.setattr(czeros, "_newton_batch", counted)
    zs = resonances(square_well(-4.0, -1.0, 1.0), 40.0)
    assert len(zs.zeros) == 48
    assert len(calls) <= 30 and sum(calls) <= 3 * 5 * len(zs.zeros)


def test_no_start_is_polished_twice(monkeypatch):
    """A count-1 second child whose sibling counted 0 holds its parent's
    power sums, so a start inside it is the one its parent's polish failed
    from.  In the seam case the same start was polished on 16 levels in a
    row; such a box is now split unpolished, and both roots come back."""
    starts = []
    batch = czeros._newton_batch
    monkeypatch.setattr(czeros, "_newton_batch",
                        lambda f, z0, scale: starts.extend(z0) or batch(f, z0, scale))
    roots = [5.96e-8j, 2.0458e-4 - 6.9154e-4j]
    zs = find_zeros(lambda z: (z - roots[0]) * (z - roots[1]), Rect(-1 - 1j, 1 + 1j))
    np.testing.assert_allclose(zs.locations, roots, rtol=0, atol=1e-12)
    assert [z.multiplicity for z in zs.zeros] == [1, 1]
    starts = np.array(starts)
    gaps = np.abs(np.subtract.outer(starts, starts))[np.triu_indices(len(starts), 1)]
    assert np.all(gaps > 1e-12)


def _newton(f, z0, scale):
    """The one-start polish that _newton_batch replaced, kept as its reference."""
    z = complex(z0)
    err = np.inf
    for _ in range(60):
        if abs(z - z0) > 10.0 * scale:
            return z, np.inf, False
        h = 1e-6 * (1.0 + abs(z))
        fplus, fminus, fz = f(np.array([z + h, z - h, z]))
        fp = (fplus - fminus) / (2 * h)
        if fp == 0:
            return z, err, False
        step = fz / fp
        z = z - step
        err = abs(step) / (1.0 + abs(z))
        if err < 1e-11:
            return z, err, True
    return z, err, False


@pytest.mark.parametrize("size", [1, 3, 12])
def test_newton_batch_gives_each_start_its_one_start_path(size):
    """Each start of a batch ends on the bits the one-start polish gives it:
    converged near sw4's resonances, at a double zero (31 steps), after 60
    steps (z^2 + 1 on the real line), runaway, at f' = 0, and at once from
    a zero."""
    V = square_well(-4.0, -1.0, 1.0)
    rng = np.random.default_rng(size)
    k = resonances(V, 6.0).locations
    starts = (rng.choice(k, size) + 0.05 * (rng.normal(size=size) + 1j * rng.normal(size=size)))
    scales = rng.uniform(0.01, 1.0, size)
    f = lambda z: xhat(V, z)
    bits = lambda z, err: np.array([z, err], dtype=complex).tobytes()
    special = [(lambda z: (z - 0.3) ** 2, 0.31 + 0.01j, 1.0),
               (lambda z: z ** 2 + 1, 0.5, 1e6),
               (lambda z: z - 5.0, 0.0, 0.1),
               (lambda z: np.ones_like(z), 0.5j, 1.0),
               (lambda z: z - 0.25, 0.25, 1.0)]
    for fn, zs, sc in [(f, starts, scales)] + [
            (g, np.full(size, z0), np.full(size, s)) for g, z0, s in special]:
        got = czeros._newton_batch(fn, zs, sc)
        for i, (z0, s) in enumerate(zip(zs, sc)):
            z, err, ok = _newton(fn, z0, s)
            assert bits(z, err) == bits(got[0][i], got[1][i]) and ok == got[2][i]


def _boundary(rect, ts):
    return czeros._boundary_points(rect.lo, rect.hi, ts)


def _phase_winding(f, rect):
    """The one-rectangle count that czeros._windings replaced, with _refine
    and _steps below, kept as its reference: (count, power sums about the
    centre), or the BoundaryZero or PhaseStepTooLarge it raises."""
    ts = np.append(np.linspace(0.0, 1.0, 256, endpoint=False), 1.0)
    zs = _boundary(rect, ts)
    return _refine(f, rect, ts, zs, np.asarray(f(zs), dtype=complex))


def _steps(ts, fs, rect):
    dt = np.diff(ts)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = fs[1:] / fs[:-1]
        slope = np.log(np.abs(ratio)) / dt
    steps = np.angle(ratio)
    before, after = np.roll(slope, 1), np.roll(slope, -1)
    corners = np.cumsum([0.0, rect.width, rect.height, rect.width, rect.height])
    corners /= corners[-1]
    edge = np.searchsorted(corners, ts[:-1], "right")
    edge = np.where(edge == np.searchsorted(corners, ts[1:], "left"), edge, -1)
    turn = (edge >= 0) & (np.roll(edge, 1) >= 0) & (np.roll(edge, 1) != edge)
    dip = ((after - before) * dt > 1.0) | (turn & ((after - slope) * dt > 1.0)) | (
        np.roll(turn, -1) & ((slope - before) * dt > 1.0))
    corner = turn | np.roll(turn, -1) | (edge < 0)
    wide = (np.abs(steps) > np.pi / 2) | (corner & (np.abs(slope * dt) + np.abs(steps) > np.pi / 2))
    return ratio, steps, wide, dip


def _check_samples(fs, ref):
    if not np.all(np.isfinite(fs)):
        raise OverflowAtRadius("function not finite on the contour")
    if np.any(np.abs(fs) <= 1e-9 * ref):
        raise BoundaryZero("function vanishes (or nearly) on the contour")


def _refine(f, rect, ts, zs, fs):
    ref = np.abs(fs)
    _check_samples(fs[:-1], np.maximum(np.append(ref[-2], ref[:-2]), ref[1:]))
    ratio, steps, wide, dip = _steps(ts, fs, rect)
    rise = np.max(np.abs(np.log(np.abs(ratio[~dip]))), initial=0.0)
    longest = (ts[1] - ts[0]) * np.pi / 2 / rise if rise > np.pi else np.inf
    for _ in range(60):
        bad = wide | dip | (np.diff(ts) > longest)
        if not np.any(bad):
            n = int(np.round(np.sum(steps) / (2 * np.pi)))
            w = (zs[1:] + zs[:-1]) / 2 - rect.center
            sums = np.cumprod(np.broadcast_to(w, (4, len(w))), axis=0) @ np.log(ratio)
            return n, (sums / (2j * np.pi) if n else np.zeros(4, complex))
        if len(ts) > 200_000:
            raise PhaseStepTooLarge("phase refinement budget exhausted")
        mid_t = (ts[:-1][bad] + ts[1:][bad]) / 2
        mid_z = _boundary(rect, mid_t)
        mid_f = np.asarray(f(mid_z), dtype=complex)
        mid_ref = np.maximum(ref[:-1][bad], ref[1:][bad])
        _check_samples(mid_f, mid_ref)
        at = np.nonzero(bad)[0] + 1
        ts, zs, fs, ref = (np.insert(x, at, y) for x, y in
                           ((ts, mid_t), (zs, mid_z), (fs, mid_f), (ref, mid_ref)))
        ratio, steps, wide, dip = _steps(ts, fs, rect)
    raise PhaseStepTooLarge("phase steps above pi/2 after maximum refinement")


# roots (with multiplicity) that crowd the edge of Rect(-1i, 1+0i) just past
# its corner 0: the top-edge step reaching the corner turns by 4.76, read as
# -1.52, and |f| falls steadily along it, so no dip shows; the corner rule
# halves it, since log f changes there by more than pi/2 as read
_CROWD = [(0.0009143907954845224 - 0.01242514300344344j, 3),
          (0.0006379858816241409 - 0.012074992559558344j, 1),
          (0.0015523766771086633 - 0.012074992559558344j, 1)]


def test_windings_match_the_one_rectangle_reference(monkeypatch):
    """Twelve contours counted together, one call of f per refinement round,
    give each rectangle the count of the one-rectangle reference and its
    power sums within 1e-12 (half-diagonal)^p: the corner crowd, a
    triple-zero pair 0.0026 inside the top right corner and one inside the
    bottom left, where each contour starts and closes, a
    zero 1e-3 inside the top edge midway between two start samples, a start
    sample on a zero, a zero on the midpoint of a start step, and boxes from
    2e-6 to 100 wide.  A contour that fails, on a zero or past its own
    budget, fails alone."""
    search = Rect(complex(11.863, -4.137), complex(24.0, -1e-9))
    top = _boundary(search, np.arange(256) / 256)[150:152]
    on, mid = Rect(30 - 1j, 32 + 1j), Rect(80 - 1j, 82 + 1j)
    roots = _CROWD + [(-8.0, 3), (-8.0 - 0.0078125j, 3), ((top[0] + top[1]) / 2 - 1e-3j, 1),
                      (22.5 - 0.7j, 1), (_boundary(on, np.arange(256) / 256)[100], 1),
                      (40 + 1e-7j, 1), (12 + 9j, 2), (70.0, 3), (70 + 0.0078125j, 3),
                      (_boundary(mid, np.array([100.5 / 256]))[0], 1)]
    f = lambda z: np.prod([(z - r) ** m for r, m in roots], axis=0)
    rects = [Rect(-1j, 1 + 0j), Rect(-9 - 1j, -7.9974 + 0.0026j), search, on,
             Rect(40 - 1e-6 - 1e-6j, 40 + 1e-6 + 1e-6j), Rect(-50 - 50j, 50 + 50j),
             Rect(60 + 60j, 61 + 61j), Rect(11 + 8j, 13 + 10j), Rect(-1 - 1j, 1 + 1j),
             Rect(-20 - 20j, 45 + 0.5j), Rect(69.9974 - 0.0026j, 71 + 1j), mid]
    calls, rounds = [], []
    got = czeros._windings(lambda z: calls.append(z) or f(z), rects)
    for rect, g in zip(rects, got):
        ref_calls = []
        try:
            n, sums = _phase_winding(lambda z: ref_calls.append(z) or f(z), rect)
        except BoundaryZero:
            assert isinstance(g, BoundaryZero)
            continue
        finally:
            rounds.append(len(ref_calls))
        assert g[0] == n
        assert np.all(np.abs(g[1] - sums) <= 1e-12 * (rect.diag / 2) ** np.arange(1, 5))
    assert isinstance(got[3], BoundaryZero) and isinstance(got[11], BoundaryZero)
    assert [g[0] for g in got[:3] + got[4:11]] == [5, 6, 2, 1, 17, 0, 2, 5, 15, 6]
    assert len(calls) == max(rounds) > 1
    # a failing contour changes nothing for the others: one whose sample
    # vanishes, or one that runs out of its own refinement budget
    alone = czeros._windings(f, rects[:3] + rects[4:11])
    assert all(a[0] == g[0] and np.array_equal(a[1], g[1])
               for a, g in zip(alone, got[:3] + got[4:11]))
    for budget in (256, 1100):  # below every refined contour, above each
        monkeypatch.setattr(czeros, "_MAX_EVALS", budget)
        for i, (a, g) in enumerate(zip(czeros._windings(f, rects), got)):
            if i in (3, 11):
                assert isinstance(a, BoundaryZero if i == 3 or budget > 256 else PhaseStepTooLarge)
            elif rounds[i] > 1 and budget == 256:
                assert isinstance(a, PhaseStepTooLarge)
            else:
                assert a[0] == g[0] and np.array_equal(a[1], g[1])


def test_winding_of_zeros_crowding_an_edge_past_a_corner():
    f = lambda z: np.prod([(z - r) ** m for r, m in _CROWD], axis=0)
    assert winding_number(f, Rect(-1j, 1 + 0j)) == 5


def _halfdisk_rect(radius):
    """A rectangle about the lower half-disk, reaching 0.137 past it on the
    left and below."""
    return Rect(complex(-radius - 0.137, -radius - 0.137), complex(radius, -1e-9))


def _search_rect(radius):
    """The rectangle _search_halfplane counts: the part of _halfdisk_rect
    with Re >= -0.137."""
    return Rect(complex(-0.137, -radius - 0.137), complex(radius, -1e-9))


def _mirrored(roots):
    """f whose zeros are roots and their mirrors -conj(root), so that
    f(-conj z) = conj f(z), as _search_halfplane requires."""
    return lambda z: np.prod([(z - r) * (z + np.conj(r)) for r in roots], axis=0)


def _tile_by_tile(f, radius, tile):
    """A reference search: the zeros of one find_zeros call per tile of a grid
    over the lower half-disk, with a zero on an edge of two tiles kept once."""
    kept = []
    for rect in _tiles(radius, tile):
        for z in find_zeros(f, rect, max_zeros=500).zeros:
            if (abs(z.location) <= radius and z.location.imag < -1e-9
                    and all(abs(z.location - w.location) > 1e-7 for w in kept)):
                kept.append(z)
    return kept


def _tiles(radius, tile):
    """The tiles of _tile_by_tile, in its order."""
    x_edges = np.arange(-radius - 0.137, radius + tile, tile)
    y_edges = np.append(np.arange(-radius - 0.137, 0.0, tile), -1e-9)
    return [Rect(complex(x0, y0), complex(x1, y1))
            for x0, x1 in zip(x_edges, x_edges[1:])
            for y0, y1 in zip(y_edges, y_edges[1:])
            if abs(complex(min(max(0.0, x0), x1), min(max(0.0, y0), y1))) <= radius * 1.05]


@st.composite
def step_potentials(draw):
    """1-8 cells, values in [-8, 4] away from 0, hull width 0.3-3 or 3-4
    (where |xhat| spans e^(2 (b - a) h) across a box of height h, and a
    near-zero test relative to a whole contour raised BoundaryZero)."""
    n = draw(st.integers(1, 8))
    width = draw(st.one_of(st.floats(0.3, 3.0), st.floats(3.0, 4.0)))
    cells = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    values = draw(st.lists(st.one_of(st.floats(-8.0, -0.05), st.floats(0.05, 4.0)),
                           min_size=n, max_size=n))
    edges = width * (np.concatenate(([0.0], np.cumsum(cells) / np.sum(cells))) - 0.5)
    return make_piecewise(edges, values)


@given(step_potentials(), st.floats(1.5, 12.0))
@settings(max_examples=60, deadline=None)
def test_search_matches_a_find_zeros_loop(V, radius):
    """The one counted rectangle and its mirrored zeros give the zeros of a
    find_zeros call per tile of the whole lower half-disk: inside R - 1e-6,
    the same multiplicities at locations within 1e-8 (1 + |z|)."""
    f = lambda k: xhat(V, k)
    got, ref = (
        [z for z in zs if abs(z.location) < radius - 1e-6]
        for zs in (czeros._search_halfplane(f, radius).zeros,
                   _tile_by_tile(f, radius, 3.0)))
    assert len(got) == len(ref)
    locs = np.array([z.location for z in got])
    for w in ref:
        z = got[np.argmin(np.abs(locs - w.location))]
        assert z.multiplicity == w.multiplicity
        assert abs(z.location - w.location) <= 1e-8 * (1 + abs(w.location))


def test_search_dilates_where_a_zero_sits_on_a_start_sample():
    """A zero on a start sample of the search rectangle's contour, on its
    right edge: the undilated count raises BoundaryZero, and the count of the
    dilated rectangle takes the zero in, with 2.5 - 0.7i and the mirror of
    -0.2 - 2.9i.  That zero lies off the disk, so the search returns the
    other two and their mirrors."""
    radius = 4.0
    rect = _search_rect(radius)
    z0 = _boundary(rect, np.arange(256) / 256)[100]
    assert z0.real == radius
    f = _mirrored([z0, 2.5 - 0.7j, -0.2 - 2.9j])
    assert isinstance(czeros._windings(f, [rect])[0], BoundaryZero)
    n, _, counted = czeros._count(f, rect)
    assert n == 3 and counted != rect
    zs = czeros._search_halfplane(f, radius)
    np.testing.assert_allclose(zs.locations, [-2.5 - 0.7j, -0.2 - 2.9j, 0.2 - 2.9j, 2.5 - 0.7j],
                               atol=1e-10)


def test_search_refines_where_a_zero_sits_just_inside_its_top_edge():
    """A zero 1e-3 below the search rectangle's top edge, midway between two
    start samples, turns the phase by nearly pi in one step; the count
    refines there and the search returns it and its mirror."""
    radius = 4.0
    rect = _search_rect(radius)
    top = _boundary(rect, np.arange(256) / 256)[150:152]
    assert top[0].imag == top[1].imag == -1e-9
    z0 = (top[0] + top[1]) / 2 - 1e-3j
    f = _mirrored([z0, 2.5 - 0.7j])
    calls = []
    czeros._windings(lambda z: calls.append(z) or f(z), [rect])
    assert len(calls) > 1
    zs = czeros._search_halfplane(f, radius)
    np.testing.assert_allclose(sorted(zs.locations, key=lambda z: z.real),
                               [-np.conj(z0), -2.5 - 0.7j, 2.5 - 0.7j, z0], atol=1e-10)


def test_search_cost_on_sw4_at_radius_40(monkeypatch):
    """resonances(sw4, 40) counts its first level, the deep box and six
    slabs of the strip above it, in one call of xhat over their 7 x 257
    start samples.  Its split contours are counted a bisection level at a
    time, one call per refinement round: 12 calls over 2,464 points in all,
    where bisecting the one rectangle took 27 calls over 5,585 points, and a
    3 x 3 tile grid 92,587 points."""
    sizes = []

    def counted(V, k):
        sizes.append(np.size(k))
        return xhat(V, k)

    monkeypatch.setattr(czeros, "xhat", counted)
    zs = resonances(square_well(-4.0, -1.0, 1.0), 40.0)
    assert len(zs.zeros) == 48
    assert sizes[0] == 7 * 257
    assert len(sizes) <= 15 and abs(sum(sizes) - 2_464) <= 0.01 * 2_464


@pytest.mark.parametrize("V", [square_well(-4.0, -1.0, 1.0),
                               make_piecewise([-0.7, 0.3, 1.1], [1.5, -2.0])])
def test_resonances_right_of_the_axis_are_find_zeros_of_its_rectangle(V):
    """resonances, started from the strip's slabs, finds the zeros that
    find_zeros finds by bisecting its one rectangle: right of the axis in
    the lower half-disk, the same count and multiplicities, at locations
    within 1e-9 (1 + |z|); measured, they lie at most 3.3e-10 apart."""
    R = 40.0
    right = lambda zs: [z for z in zs if not czeros._on_axis(z.location)
                        and z.location.real > 0 and z.location.imag < 0
                        and abs(z.location) <= R]
    assert czeros._strip_tiles(V, R) is not None
    got = right(resonances(V, R).zeros)
    want = right(find_zeros(lambda k: xhat(V, k), _search_rect(R), 500).zeros)
    assert len(got) > 10 and len(got) == len(want)
    assert [z.multiplicity for z in got] == [w.multiplicity for w in want]
    for z, w in zip(got, want):
        assert z.converged and w.converged
        assert abs(z.location - w.location) <= 1e-9 * (1 + abs(w.location))


def test_anti_bound_states_below_the_model_floor_come_back():
    """The end-jump model puts sw100's zeros at R = 40 above Im k = -4.08,
    but its five anti-bound states lie at -4.43i .. -9.85i: a search of the
    strip alone would return 40 of its 45 zeros.  The strip reaches down to
    the bound-state height 11 and the box below it is counted too, so all 45
    come back, as from the one rectangle."""
    V, R = square_well(-100.0, -1.0, 1.0), 40.0
    (a, b), va, vb = V.hull, V.values[0], V.values[-1]
    floor = np.log(16 * R ** 4 / abs(va * vb)) / (2 * (b - a)) + 2
    assert abs(floor - 4.0794) < 1e-4
    zs = resonances(V, R)
    full = czeros._search_halfplane(lambda k: xhat(V, k), R)
    assert len(zs.zeros) == len(full.zeros) == 45
    assert all(z.converged and z.multiplicity == 1 for z in zs.zeros)
    axis = [z.location.imag for z in zs.zeros if czeros._on_axis(z.location)]
    np.testing.assert_allclose(sorted(axis), [-9.8463, -9.3678, -8.5004, -7.0740, -4.4284],
                               atol=1e-4)
    assert max(axis) < -floor
    np.testing.assert_allclose(zs.locations, full.locations, rtol=0, atol=1e-9 * (1 + R))


@pytest.mark.parametrize("shift", [0.0, 1e-7])
def test_zeros_on_a_slab_edge_and_the_floor_line_are_counted_once(shift):
    """sw4's slabs at R = 40, with zeros on (shift 0) or just right of and
    above (shift 1e-7) the edge between the first two slabs and the floor
    line, and one in the deep box.  On an edge the slab counts fail and the
    rectangle is counted alone; beside it one slab counts the zero.  Either
    way each zero comes back once, with its mirror."""
    R = 40.0
    tiles = czeros._strip_tiles(square_well(-4.0, -1.0, 1.0), R)
    edge, floor = tiles[1].hi.real, tiles[1].lo.imag
    roots = [complex(edge + shift, -3.0), complex(20.0, floor + shift), 15.0 - 25.0j]
    f = _mirrored(roots)
    failed = [isinstance(got, Exception) for got in czeros._windings(f, tiles)]
    assert any(failed) == (shift == 0.0)
    zs = czeros._search_halfplane(f, R, tiles)
    want = sorted([*roots, *(-np.conj(r) for r in roots)], key=lambda z: z.real)
    np.testing.assert_allclose(sorted(zs.locations, key=lambda z: z.real), want,
                               rtol=0, atol=1e-9)
    assert [z.multiplicity for z in zs.zeros] == [1] * 6


@given(step_potentials(), st.integers(2, 3))
@settings(max_examples=60, deadline=None)
def test_resonances_count_what_the_rectangle_winds(V, slabs):
    """On random step potentials at a radius of 2 or 3 slabs, up to the
    radius 12 of test_search_matches_a_find_zeros_loop, the zeros that
    resonances locates in its rectangle have a total multiplicity equal to
    the rectangle's winding number, and it returns those in the disk below
    the axis, mirrored."""
    a, b = V.hull
    radius = slabs * 4 * np.pi / (b - a)
    assume(radius <= 12.0)
    assert czeros._strip_tiles(V, radius) is not None
    f = lambda k: xhat(V, k)
    located = []
    locate = czeros._locate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(czeros, "_locate", lambda *args: located.append(locate(*args)) or located[-1])
        zs = resonances(V, radius)
    assert located[-1].total_multiplicity() == winding_number(f, _search_rect(radius))
    kept = [z for z in located[-1].zeros
            if abs(z.location) <= radius and z.location.imag < 0
            and (czeros._on_axis(z.location) or z.location.real > 0)]
    assert zs.total_multiplicity() == sum(
        z.multiplicity * (1 if czeros._on_axis(z.location) else 2) for z in kept)


@pytest.mark.parametrize("radius, want", [(80.0, 99), (160.0, 200)])
def test_count_without_a_type_refines_where_log_f_rises_fast(radius, want):
    """256 start samples space sw4's half-disk rectangle so wide that xhat's
    phase turns by about 2 pi + 1.2 per step along its bottom edge, where
    |xhat| barely changes; at R = 80 the turns read as 1.2 counted 14.  log|f|
    rises as fast along the sides, so the count refines every step there."""
    V = square_well(-4.0, -1.0, 1.0)
    assert winding_number(lambda k: xhat(V, k), _halfdisk_rect(radius)) == want


def test_search_keeps_a_close_pair_apart_at_a_large_radius():
    """Two zeros 2e-6 apart at |z| = 112 in the R = 160 search come back as
    two simple zeros, and so do their mirrors: the merge distance is set by
    the boxes polished, not by the 227-wide rectangle counted (1e-7 of that
    is 2.3e-5)."""
    z1 = 100.0 - 50.0j
    f = _mirrored([z1, z1 + 2e-6, -3.0 - 40.0j])
    zs = czeros._search_halfplane(f, 160.0)
    mirrors = [-np.conj(z1) - 2e-6, -np.conj(z1)]
    np.testing.assert_allclose(sorted(zs.locations, key=lambda z: z.real),
                               [*mirrors, -3.0 - 40.0j, 3.0 - 40.0j, z1, z1 + 2e-6],
                               rtol=0, atol=1e-10)
    assert [z.multiplicity for z in zs.zeros] == [1, 1, 1, 1, 1, 1]


def test_close_pair_takes_one_each():
    """A small circle about each of two zeros 5e-5 apart also counted the
    other one: multiplicity 2 each, total 4 against a count of 2."""
    f = lambda z: (z - 0.3 - 0.2j) * (z - 0.30005 - 0.2j)
    rect = Rect(-1 - 1j, 1 + 1j)
    zs = find_zeros(f, rect)
    np.testing.assert_allclose(zs.locations, [0.3 + 0.2j, 0.30005 + 0.2j], atol=1e-10)
    assert [z.multiplicity for z in zs.zeros] == [1, 1]
    assert zs.total_multiplicity() == winding_number(f, rect) == 2


def test_polishes_of_one_zero_from_two_boxes_add_their_counts():
    """Within one find_zeros call, zeros within 1e-7 of the larger diagonal
    of the boxes they were polished in merge and add their counts, so the
    multiplicities sum to the count."""
    polishes = [(czeros.Zero(0.3 + 1e-9j, 1, 1e-12), 1e-3),
                (czeros.Zero(0.3 + 0j, 1, 1e-12), 1.0),
                (czeros.Zero(0.5 + 0j, 1, 1e-12), 1e-3),
                (czeros.Zero(0.5 + 1e-9j, 1, 1e-12), 1e-3)]
    zs = czeros._finalize(polishes)
    assert list(zs.locations) == [0.3, 0.5, 0.5 + 1e-9j]
    assert [z.multiplicity for z in zs.zeros] == [2, 1, 1]


def _finalize_by_scan(found):
    """Reference: _finalize's merge as a scan over every kept zero."""
    def key(pair):
        z = pair[0].location
        return (0.0 if abs(z.real) <= 1e-9 * (1.0 + abs(z)) else z.real, z.imag)

    kept = []
    for z, d in sorted(found, key=key):
        i = next((i for i, (w, e) in enumerate(kept)
                  if abs(z.location - w.location) <= 1e-7 * max(d, e)), None)
        if i is None:
            kept.append((z, d))
        else:
            w, e = kept[i]
            kept[i] = (replace(w, multiplicity=w.multiplicity + z.multiplicity), max(d, e))
    return czeros.ZeroSet(tuple(z for z, _ in kept))


@given(seed=st.integers(0, 2 ** 32 - 1), clusters=st.integers(1, 12))
@settings(max_examples=80, deadline=None)
def test_windowed_merge_is_the_scan_over_every_kept_zero(seed, clusters):
    """Polishes in chains whose steps lie about 1e-7 of a diagonal apart, so
    that their neighbours merge while their ends may not; some chains cross
    the edge of the 1e-9 (1 + |z|) snap to the imaginary axis."""
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(clusters):
        d = 10.0 ** rng.uniform(-4, 1.5)
        c = complex(rng.uniform(-150, 150), rng.uniform(-150, 150))
        step = 1e-7 * d * rng.uniform(0.3, 1.3) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        if rng.random() < 0.5:
            c = complex(rng.choice((-1, 1)) * 1e-9 * (1 + abs(c)), c.imag)
            step = abs(step) * rng.choice((-1, 1))
        n = rng.integers(1, 6)
        for j in range(n):
            found.append((czeros.Zero(c + (j - n // 2) * step, int(rng.integers(1, 3)),
                                      float(rng.random())),
                          d * rng.choice((1.0, 0.5, 2.0))))
    rng.shuffle(found)
    want = _finalize_by_scan(found)
    assert czeros._finalize(found) == want
    assert sum(z.multiplicity for z in want.zeros) == sum(z.multiplicity for z, _ in found)


@pytest.mark.parametrize("f, rect, want", [
    # a triple zero 0.0026 inside the top edge: 256 samples turned 3 pi
    # within one step, read as 2 pi less
    (lambda z: (z - 0.3) ** 3, Rect(-1j, 1 + 0.0026j), 3),
    # two zeros 8.6e-4 apart, 0.0026 and 0.0034 inside the right edge
    (lambda z: (z - 0.0315j) * (z + 0.0008 - 0.0318j), Rect(-1 - 1j, 0.0026 + 1j), 2),
    # a triple zero 0.0026 inside both edges at the top right corner sample:
    # the first step of the top edge passes over it, so log|f| dips inside
    # that step, but the right edge's slope before the corner rises as the
    # step's neighbour after it does, and its turn of 2 pi - 1.4 read as
    # -1.4, counted 5.  This is the first child of Rect(-1-1i, 1+1i) once
    # both first cuts are nudged off the zeros on the axes
    (lambda z: z ** 3 * (z + 0.0078125j) ** 3, Rect(-1 - 1j, 0.0026 + 0.0026j), 6),
])
def test_winding_near_close_zeros_does_not_alias(f, rect, want):
    assert winding_number(f, rect) == want


@pytest.mark.xfail(strict=True, reason="a simple zero near a corner goes uncounted")
@pytest.mark.parametrize("rect, roots", [
    (Rect(0.5096852967626231 - 0.19775929944701587j, 3.2130832147123987 + 0.5533042396491141j),
     [(3.1768623541897894 - 0.18572019748431084j, 1),
      (3.2119070767602143 - 0.1976549372189336j, 1),
      (3.206945765925266 - 0.1734765335652848j, 2)]),
    (Rect(-0.2702338907425901 + 0.999655895481544j, -0.04070723423947656 + 1.0298723172317927j),
     [(-0.27020084814321244 + 1.0298631535832807j, 1),
      (-0.27006337611990044 + 1.0284834686571855j, 3)]),
])
def test_zeros_crowding_a_corner_are_all_counted(rect, roots):
    """4 zeros within 3e-2 of the longer side from one corner, as a count on
    2^20 boundary samples confirms.  The count reads 3 and find_zeros
    returns 3 with no error: the simple zero nearest the corner is lost."""
    f = lambda z: np.prod([(z - r) ** m for r, m in roots], axis=0)
    assert winding_number(f, rect) == 4
    assert find_zeros(f, rect).total_multiplicity() == 4


@st.composite
def root_sets(draw):
    """1-4 distinct roots, each at least 0.05 inside Rect(-1-1i, 1+1i):
    anywhere or on a first cut line (Re = 0 or Im = 0), with multiplicity
    1-3, or simple and 5e-5 to 1e-3 from the root before it; total
    multiplicity at most 9."""
    n = draw(st.integers(1, 4))
    roots, mults = [], []
    for i in range(n):
        x, y = draw(st.floats(-0.95, 0.95)), draw(st.floats(-0.95, 0.95))
        kind = draw(st.sampled_from(["free", "re0", "im0", "pair"]))
        if kind == "pair" and roots:
            roots.append(roots[-1] + draw(st.floats(5e-5, 1e-3))
                         * np.exp(1j * draw(st.floats(0, 2 * np.pi))))
            mults.append(1)
            continue
        roots.append({"re0": 1j * y, "im0": complex(x, 0)}.get(kind, complex(x, y)))
        # leave multiplicity 1 for each root still to come
        mults.append(draw(st.integers(1, min(3, 9 - sum(mults) - (n - 1 - i)))))
    assume(all(max(abs(z.real), abs(z.imag)) <= 0.95 for z in roots))
    assume(all(abs(z - w) >= 5e-5 for i, z in enumerate(roots) for w in roots[:i]))
    return roots, mults


@given(root_sets())
# three triple zeros near the right edge (see the test below)
@example(([0.94, 0.775 + 0.04j, 0.749 + 0.11j], [3, 3, 3]))
# a count-1 polish accepted 1e-5 of its diagonal across the box seam took
# the neighbour box's root, and the two polishes merged into one double zero
@example(([5.96e-8j, 2.0458e-4 - 6.9154e-4j], [1, 1]))
@example(([-1e-5 - 0.5j, 7.451475401591679e-05 - 0.5002857033942001j], [1, 1]))
# clusters: two simple zeros 1e-3 of the first box's diagonal apart, whose
# polishes fail the separation test, and a double zero
@example(([0.31 + 0.27j, 0.31 + 0.27j + 2e-3 * np.sqrt(2) * np.exp(0.7j)], [1, 1]))
@example(([0.31 + 0.27j], [2]))
# a multiple zero at 0 and another within 2^-6: the first cuts are nudged
# off both, and a count at the corner they meet missed a dip (see above)
@example(([0j, -0.0078125j], [3, 3]))
@example(([0j, -0.0078125 + 0j], [3, 3]))
@example(([0j, -0.004j], [3, 2]))
@example(([0j, -0.0052 + 0j], [3, 2]))
@example(([0.0009195548782530917 + 0.0009195548782530917j,
           0.0018390303974568914 + 0.0009316355944554226j, 0j,
           0.44006014711885233 + 0.0009195548782530917j], [3, 1, 3, 1]))
# zeros crowding an edge just past a corner: a step beside the corner turns
# by 2 pi more than it reads while |f| falls steadily along it
@example(([0.2511971224443461j, 0.00030331600625423463 + 0.2511971224443461j, 0j],
          [3, 1, 1]))
@example(([r for r, _ in _CROWD], [m for _, m in _CROWD]))
@settings(max_examples=100, deadline=None)
def test_each_root_comes_back_with_its_multiplicity(roots_mults):
    roots, mults = roots_mults
    f = lambda z: np.prod([(z - r) ** m for r, m in zip(roots, mults)], axis=0)
    rect = Rect(-1 - 1j, 1 + 1j)
    zs = find_zeros(f, rect)
    assert len(zs.zeros) == len(roots)
    for r, m in zip(roots, mults):
        z = zs.zeros[np.argmin(np.abs(zs.locations - r))]
        assert abs(z.location - r) < 1e-6 and z.multiplicity == m and z.converged
    assert zs.total_multiplicity() == winding_number(f, rect) == sum(mults)


def test_count_raises_where_the_contour_spans_more_than_its_near_zero_test():
    """Three triple zeros 0.06-0.27 inside the right edge hold |f| there at
    6e-11 of its largest boundary value.  A near-zero test relative to the
    whole contour raised BoundaryZero, even after dilation; the test local
    to each sample counts 9, and each zero comes back triple."""
    roots = [0.94, 0.775 + 0.04j, 0.749 + 0.11j]
    f = lambda z: ((z - roots[0]) * (z - roots[1]) * (z - roots[2])) ** 3
    rect = Rect(-1 - 1j, 1 + 1j)
    assert winding_number(f, rect) == 9
    zs = find_zeros(f, rect)
    assert [z.multiplicity for z in zs.zeros] == [3, 3, 3]
    np.testing.assert_allclose(sorted(zs.locations, key=lambda z: z.real),
                               sorted(roots, key=lambda z: z.real), atol=1e-6)


def test_resonances_against_grid_scan():
    """Located resonances match a dense |xhat| minimum scan."""
    V = square_well(-4.0, -1.0, 1.0)
    zs = resonances(V, 10.0)
    assert len(zs.zeros) >= 6
    xs = np.linspace(-10, 10, 2001)
    ys = np.linspace(-4, -0.01, 401)
    A = np.abs(xhat(V, xs[None, :] + 1j * ys[:, None]))
    for z in zs.locations:
        i = np.argmin(np.abs(ys - z.imag))
        j = np.argmin(np.abs(xs - z.real))
        window = A[max(i - 2, 0): i + 3, max(j - 2, 0): j + 3]
        assert A[i, j] == np.min(window)   # a local minimum of |xhat| nearby
        assert abs(xhat(V, z)) < 1e-8 * np.median(A)


def test_resonance_symmetry():
    """The mirrors of the search's zeros are where an unmirrored search of
    the left half finds zeros, and, by construction, the zero locations are
    exactly their own mirror set -conj k."""
    V = make_piecewise([-1.0, -0.2, 0.8], [2.5, -3.5])
    zs = resonances(V, 12.0)
    assert mirror_defect(lambda k: xhat(V, k), zs, 12.0) < 1e-8
    locs = zs.locations
    np.testing.assert_array_equal(np.sort_complex(locs), np.sort_complex(-np.conj(locs)))
    assert not np.any(zs.locations.imag > 0)


@pytest.mark.parametrize("height", [60.0, 100.0])
def test_narrow_resonances_all_come_back(height):
    """A triple-barrier resonator's sharpest resonances lie within 1e-8 of
    the axis (at -9.2e-11 and -6.4e-10 for height 100); every zero the
    counted box holds comes back with its mirror, as find_zeros finds the
    right half down to 1e-14 of the axis."""
    V = make_piecewise([-3.5, -2.5, -0.5, 0.5, 2.5, 3.5], [height, 0, height, 0, height])
    zs = resonances(V, 6.0)
    assert len(zs.zeros) == zs.total_multiplicity() == 16
    ref = find_zeros(lambda k: xhat(V, k), Rect(0.05 - 3j, 6 - 1e-14j))
    assert len(ref.zeros) == ref.total_multiplicity() == 8
    right = zs.locations[zs.locations.real > 0]
    np.testing.assert_allclose(np.sort_complex(right), np.sort_complex(ref.locations),
                               rtol=0, atol=1e-10)


def test_free_potential_has_no_resonances(zero_potential):
    zs = resonances(zero_potential, 5.0)
    assert zs.zeros == ()
    zb, en = bound_states(zero_potential)
    assert zb.zeros == () and en == []


def _shooting_eigenvalues(V, n_grid=2000):
    """Independent oracle: count and locate L2 eigenvalues by shooting.

    Integrates psi'' = (V - E) psi from a with a decaying left tail, one
    cell at a time with the cell's constant value, and scans the
    Wronskian-type matching function W(E) = psi'(b) + kappa psi(b) for sign
    changes.
    """
    a, b = V.hull

    def matchfun(E):
        kappa = np.sqrt(-E)
        y = [1.0, kappa]
        for x0, x1, v in zip(V.breakpoints, V.breakpoints[1:], V.values):
            sol = solve_ivp(lambda x, y: [y[1], (v - E) * y[0]], (x0, x1), y,
                            rtol=1e-11, atol=1e-12, max_step=(b - a) / 200)
            y = sol.y[:, -1]
        psi, dpsi = y
        return dpsi + kappa * psi

    vmin = min(V.values)
    Es = np.linspace(vmin + 1e-9, -1e-9, n_grid)
    vals = np.array([matchfun(E) for E in Es])
    roots = []
    for E0, E1, v0, v1 in zip(Es, Es[1:], vals, vals[1:]):
        if v0 * v1 < 0:
            roots.append(brentq(matchfun, E0, E1, xtol=1e-13, rtol=1e-14))
    return roots


@pytest.mark.parametrize("depth", [-4.0, -12.0])
def test_bound_states_match_shooting(depth):
    V = square_well(depth, -1.0, 1.0)
    zs, energies = bound_states(V)
    oracle = _shooting_eigenvalues(V, n_grid=400)
    assert len(energies) == len(oracle)
    for e, o in zip(sorted(energies), sorted(oracle)):
        assert abs(e - o) < 1e-8
    # all on the positive imaginary axis for a real potential
    assert np.max(np.abs(zs.locations.real)) < 1e-8


def test_bound_states_give_energies_for_converged_zeros_only():
    """An unconverged zero on the search rectangle's top edge gave the energy
    -16.0, below min V = -9, where no bound state lies.  Every energy listed
    is one of the four that _shooting_eigenvalues(V, 400) finds."""
    V = make_piecewise(np.linspace(-2.0, 2.0, 4), [-9.0, -1.0, -9.0])
    oracle = [-6.720213207991, -6.611634032660, -1.461325484907, -0.616381727881]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        zs, energies = bound_states(V)
    converged = [z for z in zs.zeros if z.converged]
    assert energies == [-(z.location.imag ** 2) for z in converged]
    assert len(energies) >= 3
    assert all(np.min(np.abs(np.subtract(oracle, e))) < 1e-8 for e in energies)
    warned = any(issubclass(w.category, UnconvergedZeroWarning) for w in caught)
    assert warned == (len(converged) < len(zs.zeros))


def test_bound_states_of_the_double_well_are_all_four():
    """The first split's left child counted 1 where a dense contour gives 0,
    so an unconverged phantom on the top edge stood in for the bound state
    at 2.5923i (E = -6.7202)."""
    V = make_piecewise(np.linspace(-2.0, 2.0, 4), [-9.0, -1.0, -9.0])
    oracle = [-0.616381727881, -1.461325484907, -6.611634032660, -6.720213207991]
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnconvergedZeroWarning)
        zs, energies = bound_states(V)
    np.testing.assert_allclose(energies, oracle, atol=1e-8)
    assert zs.total_multiplicity() == 4


@pytest.mark.parametrize("depth", [-30.0, -60.0, -100.0])
def test_bound_state_energies_run_shallowest_to_deepest(depth):
    """Axis zeros sort by Im alone, not by the sign of a rounding-level Re."""
    energies = bound_states(square_well(depth, -1.0, 1.0))[1]
    assert len(energies) > 3
    assert all(e0 > e1 for e0, e1 in zip(energies, energies[1:]))


@given(step_potentials())
@settings(max_examples=40, deadline=None)
def test_bound_state_strip_holds_every_upper_zero(V):
    """bound_states searches a strip about the positive imaginary axis.  Its
    zeros lie on the axis, and their multiplicities sum to the count of the
    rectangle about the whole upper half-disk that it searched before."""
    kmax = czeros._bound_state_height(V)
    zs, _ = bound_states(V)
    full = Rect(complex(-kmax - 0.0137, 1e-7), complex(kmax, kmax))
    assert zs.total_multiplicity() == winding_number(lambda k: xhat(V, k), full)
    assert all(abs(z.real) < 1e-8 for z in zs.locations)


@pytest.mark.xfail(strict=True, raises=BoundaryZero, reason=(
    "each tunnel-split pair of bound states is a double zero of xhat in float64: "
    "xhat(iy) changes sign nowhere on a 200,001-point grid of (0, 7.3], so the boxes "
    "about two pairs shrink to diagonals of 8.5e-9 and 9.6e-9, above the tiny-box "
    "threshold 1e-9 (1 + |centre|) of about 7e-9, and no cut through them counts"))
def test_bound_states_of_a_deep_double_well():
    """Two wells of depth 40 behind a barrier of height 60: the zero-energy
    solution has 8 nodes, so there are 8 bound states."""
    V = make_piecewise([-3.0, -1.0, 1.0, 3.0], [-40.0, 60.0, -40.0])
    zs, energies = bound_states(V)
    assert zs.total_multiplicity() == len(energies) == 8


@pytest.mark.parametrize("radius", [0.9, 1.0, 1.2])
def test_disk_inside_one_tile_keeps_its_zero(radius):
    """The anti-bound state at -0.8142i is found at radii where a 3 x 3 tile
    grid had a single tile, with its corners all off the disk."""
    V = square_well(-1.2, -1.0, 1.0)
    ref = [z for z in resonances(V, 3.0).locations if abs(z) <= radius]
    got = resonances(V, radius).locations
    assert len(ref) == 1 and abs(ref[0] + 0.8142j) < 1e-4
    assert len(got) == len(ref)
    np.testing.assert_allclose(got, ref, atol=1e-10)


def test_zeroset_json(tmp_path):
    """The resonances report lists the zeros of resonances(V, radius)."""
    V = square_well(-4.0, -1.0, 1.0)
    zs = resonances(V, 6.0)
    V.save(tmp_path / "sw4.json")
    out = tmp_path / "res.json"
    assert cli.main(["resonances", "--potential", str(tmp_path / "sw4.json"),
                     "--radius", "6", "--out", str(out)]) == cli.PASS_EXIT
    d = json.loads(out.read_text())
    assert d["radius"] == 6.0
    assert d["function"] == "xhat"
    assert len(d["zeros"]) == len(zs.zeros)
    assert {"re", "im", "mult"} <= set(d["zeros"][0])
    assert [complex(z["re"], z["im"]) for z in d["zeros"]] == list(zs.locations)


def test_overflow_is_not_a_vanishing_function(monkeypatch):
    """|xhat| of the square well passes float64's range where 4 |Im k|
    passes 709.  At radius 200 the first samples of the count hold inf, and
    the search raises OverflowAtRadius from that one call of xhat, not
    BoundaryZero after three dilations."""
    calls = []

    def counted(V, k):
        calls.append(np.size(k))
        return xhat(V, k)

    monkeypatch.setattr(czeros, "xhat", counted)
    with pytest.raises(OverflowAtRadius):
        resonances(square_well(-4.0, -1.0, 1.0), 200.0)
    assert len(calls) == 1
