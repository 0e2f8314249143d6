"""Zeros of entire functions in rectangles via the argument principle.

Counting sums phase increments along the boundary with adaptive refinement
(no step may exceed pi/2 or sit in a dip of |f|, where close zeros could
alias its turn); the same samples give the first contour moment, the sum of
the enclosed zeros.  Location is by recursive bisection on winding counts
followed by Newton polish with a central-difference derivative, so any
user-supplied entire function works.  Newton starts at the box's first
moment over its count, or at the box centre when that point leaves the box,
and has converged once a step is below 1e-11 (1 + |z|); after 60 steps it
has not.  A polished zero takes its box's count as its multiplicity; polishes
from two boxes within 1e-7 of the search scale merge, adding their counts.
Split counts are exact, so the multiplicities of one search sum to its count.
A half-plane search counts its tiles in groups, with one call of f for the
first samples of a group's contours.
Rectangles, not disks: tiling a half-plane and dodging zero chains that hug
the real axis is easier with axis-aligned subdivision.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BoundaryZero,
    MaxZerosExceeded,
    PhaseStepTooLarge,
    UnconvergedZeroWarning,
)
from .potential import Potential
from .scattering import _BLOCK, xhat

_N_BOUNDARY = 256  # initial samples per counting contour
_MAX_EVALS = 200_000  # refinement budget per contour


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle given by two opposite corners."""

    lo: complex  # lower-left
    hi: complex  # upper-right

    def __post_init__(self):
        if not (self.lo.real < self.hi.real and self.lo.imag < self.hi.imag):
            raise ValueError("empty rectangle %s .. %s" % (self.lo, self.hi))

    @property
    def center(self):
        return (self.lo + self.hi) / 2

    @property
    def width(self):
        return self.hi.real - self.lo.real

    @property
    def height(self):
        return self.hi.imag - self.lo.imag

    @property
    def diag(self):
        return abs(self.hi - self.lo)

    def contains(self, z, margin=0.0):
        return (
            self.lo.real - margin <= z.real <= self.hi.real + margin
            and self.lo.imag - margin <= z.imag <= self.hi.imag + margin
        )

    def dilated(self, factor):
        c = self.center
        return Rect(c + (self.lo - c) * factor, c + (self.hi - c) * factor)

    def boundary_points(self, ts):
        """Map parameters in [0,1) to boundary points, counterclockwise."""
        return _perimeter(self.lo.real, self.hi.real, self.lo.imag, self.hi.imag, ts)


def _perimeter(x0, x1, y0, y1, ts):
    """Points at parameters ts (mod 1) on the boundary of [x0, x1] x [y0, y1],
    counterclockwise from the lower-left corner; the corners broadcast
    against ts, so one call maps the contours of many rectangles."""
    w, h = x1 - x0, y1 - y0
    s = (np.asarray(ts) % 1.0) * (2 * (w + h))
    return np.select(
        [s < w, s < w + h, s < 2 * w + h],
        [x0 + s + 1j * y0, x1 + 1j * (y0 + (s - w)), x1 - (s - w - h) + 1j * y1],
        x0 + 1j * (y1 - (s - 2 * w - h)))


@dataclass(frozen=True)
class Zero:
    location: complex
    multiplicity: int
    refined_residual: float
    converged: bool = True


@dataclass(frozen=True)
class ZeroSet:
    zeros: tuple
    function_tag: str = ""

    @property
    def locations(self):
        return np.array([z.location for z in self.zeros], dtype=complex)

    @property
    def halfplane_counts(self):
        locs = self.locations
        if len(locs) == 0:
            return (0, 0)
        return (int(np.sum(locs.imag > 0)), int(np.sum(locs.imag < 0)))

    def total_multiplicity(self):
        return sum(z.multiplicity for z in self.zeros)

    def to_json(self, radius=None):
        d = {
            "zeros": [
                {"re": z.location.real, "im": z.location.imag,
                 "mult": z.multiplicity, "residual": z.refined_residual,
                 "converged": z.converged}
                for z in self.zeros
            ],
            "function": self.function_tag,
        }
        if radius is not None:
            d["radius"] = radius
        return d

    def save(self, path, radius=None):
        with open(path, "w") as fh:
            json.dump(self.to_json(radius), fh, indent=2)


# parameters of a counting contour's first samples; the last closes it
_TS = np.append(np.linspace(0.0, 1.0, _N_BOUNDARY, endpoint=False), 1.0)
# tiles whose first samples _count_tiles takes in one call of f: a call of
# at most the forward core's block, so xhat takes it in one pass
_GROUP = _BLOCK // len(_TS)


def _phase_winding(f, rect):
    zs = rect.boundary_points(_TS)
    return _refine(f, rect, _TS, zs, np.asarray(f(zs), dtype=complex))


def _steps(ts, fs):
    """(ratios, phase steps, bad steps) of the closed contours sampled along
    the last axis of fs, at parameters ts.  A step is bad when its phase
    turns by more than pi/2 or it sits in a dip of |f|."""
    dt = np.diff(ts)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = fs[..., 1:] / fs[..., :-1]
        slope = np.log(np.abs(ratio)) / dt  # of log|f|, per unit t
    steps = np.angle(ratio)
    # log|f| bending up by over 1 across a step marks close zeros; with two
    # or more the step's turn may pass 3 pi / 2 and alias (slopes wrap round)
    slope = np.concatenate((slope[..., -1:], slope, slope[..., :1]), axis=-1)
    bad = (np.abs(steps) > np.pi / 2) | ((slope[..., 2:] - slope[..., :-2]) * dt > 1.0)
    return ratio, steps, bad


def _turns(steps):
    """Zeros counted along the last axis, from phase steps none of which is bad."""
    return np.round(np.sum(steps, axis=-1) / (2 * np.pi))


def _moment(zs, ratio):
    """First moment of a contour with no bad step: the sum of the zeros inside."""
    # (1/2 pi i) sum z_mid * dlog f; the closing point is the first,
    # and log(ratio) = log|ratio| + i * steps
    return complex(np.sum((zs[1:] + zs[:-1]) / 2 * np.log(ratio)) / (2j * np.pi))


def _refine(f, rect, ts, zs, fs):
    """(count, first moment) of rect from samples fs = f(zs) at parameters ts
    of its contour, halving each bad step until none is left."""
    scale = np.max(np.abs(fs))
    if scale == 0 or np.min(np.abs(fs)) < 1e-9 * scale:
        raise BoundaryZero("function vanishes (or nearly) on the contour")
    for _ in range(60):
        ratio, steps, bad = _steps(ts, fs)
        if not np.any(bad):
            return int(_turns(steps)), _moment(zs, ratio)
        if len(ts) > _MAX_EVALS:
            raise PhaseStepTooLarge("phase refinement budget exhausted")
        mid_t = (ts[:-1][bad] + ts[1:][bad]) / 2
        mid_z = rect.boundary_points(mid_t)
        mid_f = np.asarray(f(mid_z), dtype=complex)
        if np.min(np.abs(mid_f)) < 1e-9 * scale:
            raise BoundaryZero("function vanishes (or nearly) on the contour")
        at = np.nonzero(bad)[0] + 1
        ts = np.insert(ts, at, mid_t)
        zs = np.insert(zs, at, mid_z)
        fs = np.insert(fs, at, mid_f)
    raise PhaseStepTooLarge("phase steps above pi/2 after maximum refinement")


def _count_tiles(f, rects):
    """Yield (rect, count, first moment) for each rect in turn, as
    _phase_winding counts it, or (rect, None, None) where it raises
    BoundaryZero.

    One call of f takes the first samples of every contour.  Contours with
    no bad step and no near-zero sample are counted together; the others go
    on through _refine from their samples, so no point is evaluated twice.
    """
    x0, x1, y0, y1 = np.array([(r.lo.real, r.hi.real, r.lo.imag, r.hi.imag)
                               for r in rects]).T[:, :, None]
    zs = _perimeter(x0, x1, y0, y1, _TS)
    fs = np.asarray(f(zs.ravel()), dtype=complex).reshape(zs.shape)
    ratio, steps, bad = _steps(_TS, fs)
    absf = np.abs(fs)
    # an all-zero or NaN contour fails the strict test and goes to _refine
    clean = (np.min(absf, axis=-1) > 1e-9 * np.max(absf, axis=-1)) & ~np.any(bad, axis=-1)
    for rect, ok, n, z, fz, r in zip(rects, clean, _turns(steps), zs, fs, ratio):
        if ok:  # _bisect reads no moment of a count of 0
            count = int(n), (_moment(z, r) if n else 0j)
        else:
            try:
                count = _refine(f, rect, _TS, z, fz)
            except BoundaryZero:
                count = None, None
        yield (rect, *count)


def _count(f, rect):
    """(winding_number, sum of the zeros, rect counted): after BoundaryZero the
    rect counted is rect dilated by 1 + 1e-6, up to three times."""
    for attempt in range(3):
        try:
            return (*_phase_winding(f, rect), rect)
        except BoundaryZero:
            rect = rect.dilated(1 + 1e-6)
    return (*_phase_winding(f, rect), rect)


def winding_number(f, rect: Rect) -> int:
    """Zeros (with multiplicity) of f inside rect, by the argument principle.

    A near-boundary zero makes it count rect dilated by 1 + 1e-6, up to
    three times, before BoundaryZero is raised.
    """
    return _count(f, rect)[0]


def _newton(f, z0, scale):
    """Polish a root; the residual is the relative size of the last step.

    Converged as soon as a step is below 1e-11 * (1 + |z|); not converged
    after 60 steps.  The last Newton correction estimates the remaining
    location error, so the criterion stays meaningful even when |f| near the
    root bottoms out at an evaluation-noise floor far above the true zero
    value, where the step stops shrinking.
    """
    z = complex(z0)
    err = np.inf
    for _ in range(60):
        if abs(z - z0) > 10.0 * scale:
            # runaway iterate: stop before f is probed far outside its
            # intended domain (windowed transforms guard large Im k)
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


def find_zeros(f, rect: Rect, max_zeros: int = 200,
               function_tag: str = "") -> ZeroSet:
    """Locate all zeros of f in rect, or in the dilated rect that was counted
    when a zero sits on its boundary: a count, then _bisect.

    Each zero's multiplicity is the count of the box it was polished in;
    zeros within 1e-7 rect.diag of each other merge, adding their counts, so
    the multiplicities sum to winding_number(f, rect).
    """
    total, s1, rect = _count(f, rect)
    return _bisect(f, rect, total, s1, max_zeros, function_tag)


def _bisect(f, rect, total, s1, max_zeros, function_tag):
    """The zeros of f in rect, counted total with first moment s1: bisection
    on counts + Newton polish, each box polished from moment / count."""
    if total == 0:
        return ZeroSet((), function_tag)
    if total > max_zeros:
        raise MaxZerosExceeded("%d zeros counted, max_zeros=%d" % (total, max_zeros))
    scale0 = rect.diag
    found = []
    stack = [(rect, total, s1)]
    while stack:
        box, count, s1 = stack.pop()
        if count == 0:
            continue
        tiny = box.diag < max(1e-9 * scale0, 1e-12)
        if count == 1 or tiny:
            z0 = s1 / count  # a NaN or infinite moment fails contains
            if not box.contains(z0):
                z0 = box.center
            z, resid, ok = _newton(f, z0, scale0)
            # accept roots a hair past the box seam (a zero within rounding
            # of a cut is counted by one child but may polish to just across
            # it) but nothing farther afield; once the box has shrunk to
            # rounding scale the polished root is the best locator even a
            # few diameters out
            margin = 3.0 * box.diag if tiny else 1e-5 * box.diag
            inside = (box.contains(z, margin=margin)
                      and rect.contains(z, margin=1e-9 * scale0))
            if ok and inside:
                found.append(Zero(z, count, resid, True))
                continue
            if tiny:
                found.append(Zero(box.center, count, resid, False))
                continue
            # polish failed or left the box: keep bisecting
        stack.extend(_split_counted(f, box, count, s1))
    return _finalize(found, function_tag, scale0, add=True)


def _split_counted(f, box, count, s1):
    """Split the box in two; nudge the cut if a zero obstructs it.

    Only the first child is counted, undilated; the second child's count and
    moment are the parent's minus the first's, since the cut runs both ways.
    """
    fracs = (0.5, 0.5 + 1.3e-3, 0.5 - 2.7e-3, 0.5 + 7.9e-3,
             0.5 - 1.7e-2, 0.5 + 4.3e-2, 0.37, 0.61)
    long_first = box.width >= box.height
    for vertical_cut in (long_first, not long_first):
        for frac in fracs:
            c0, c1 = _split_axis(box, frac, vertical_cut)
            try:
                n0, m0 = _phase_winding(f, c0)
            except (BoundaryZero, PhaseStepTooLarge):
                continue
            n1 = count - n0
            if n1 < 0:
                continue
            return [(c0, n0, m0), (c1, n1, s1 - m0)]
    raise BoundaryZero("could not place a zero-free cut through the box")


def _split_axis(box: Rect, frac, vertical_cut):
    if vertical_cut:
        xm = box.lo.real + frac * box.width
        return [Rect(box.lo, complex(xm, box.hi.imag)),
                Rect(complex(xm, box.lo.imag), box.hi)]
    ym = box.lo.imag + frac * box.height
    return [Rect(box.lo, complex(box.hi.real, ym)),
            Rect(complex(box.lo.real, ym), box.hi)]


def _converged(zs):
    """Converged zeros of zs; an UnconvergedZeroWarning counts the others."""
    dropped = sum(not z.converged for z in zs.zeros)
    if dropped:
        warnings.warn("%d unconverged zeros left out" % dropped, UnconvergedZeroWarning)
    return [z for z in zs.zeros if z.converged]


def _finalize(found, function_tag, scale0, add=False):
    """The one sort, and dedup by pairwise distance.  Zeros sort by real part,
    then imaginary; one within 1e-9 (1 + |z|) of the imaginary axis counts as
    on it, so axis zeros sort by Im alone.  A zero within 1e-7 scale0 of a
    kept one is dropped or, with add, adds its multiplicity to it."""
    def key(z):
        on_axis = abs(z.location.real) <= 1e-9 * (1.0 + abs(z.location))
        return (0.0 if on_axis else z.location.real, z.location.imag)

    kept = []
    for z in sorted(found, key=key):
        i = next((i for i, w in enumerate(kept)
                  if abs(z.location - w.location) <= 1e-7 * scale0), None)
        if i is None:
            kept.append(z)
        elif add:
            kept[i] = replace(kept[i], multiplicity=kept[i].multiplicity + z.multiplicity)
    return ZeroSet(tuple(kept), function_tag)


def resonances(V: Potential, radius: float) -> ZeroSet:
    """All zeros of xhat with |k| <= radius in the open lower half-plane."""
    return _search_halfplane(lambda k: xhat(V, k), radius, tile=3.0, tag="xhat")


def _bound_state_height(V: Potential) -> float:
    """An Im k bound above every bound state: sqrt(-min V) + 1."""
    return float(np.sqrt(max(0.0, -min(V.values)))) + 1.0


def bound_states(V: Potential):
    """Zeros of xhat in the open upper half-plane and the energies -kappa^2;
    unconverged zeros stay in the ZeroSet but give no energy (with a warning)."""
    kmax = _bound_state_height(V)
    f = lambda k: xhat(V, k)
    # slightly asymmetric so midpoint cuts avoid the imaginary axis,
    # where every bound-state zero of a real potential sits
    rect = Rect(complex(-kmax - 0.0137, 1e-7), complex(kmax, kmax))
    zs = find_zeros(f, rect, max_zeros=500, function_tag="xhat")
    energies = [-(z.location.imag ** 2) for z in _converged(zs)]
    return zs, energies


def _search_halfplane(f, radius, tile, tag):
    """Zeros of f with |k| <= radius in the open lower half-plane, tile by tile.

    _count_tiles counts up to _GROUP tiles from one call of f.  A tile counted
    0 stops there, one with a count goes to _bisect, and one whose contour
    raised BoundaryZero to find_zeros, which counts it again with dilation
    retries.  Each tile keeps its own contour, so an edge shared by two
    tiles is sampled twice and every count is the one find_zeros would make.
    """
    eps = 1e-9
    x_edges = np.arange(-radius - 0.137, radius + tile, tile)
    y_edges = np.append(np.arange(-radius - 0.137, 0.0, tile), -eps)
    tiles = []
    for x0, x1 in zip(x_edges, x_edges[1:]):
        for y0, y1 in zip(y_edges, y_edges[1:]):
            # skip a tile only when even its point nearest the origin is off the disk
            nearest = complex(min(max(0.0, x0), x1), min(max(0.0, y0), y1))
            if abs(nearest) <= radius * 1.05:
                tiles.append(Rect(complex(x0, y0), complex(x1, y1)))
    zeros = []
    for i in range(0, len(tiles), _GROUP):
        for rect, total, s1 in _count_tiles(f, tiles[i:i + _GROUP]):
            if total is None:
                zs = find_zeros(f, rect, max_zeros=500, function_tag=tag)
            else:
                zs = _bisect(f, rect, total, s1, 500, tag)
            zeros.extend(z for z in zs.zeros
                         if abs(z.location) <= radius and z.location.imag < -eps)
    return _finalize(zeros, tag, 1.0)


def conjugate_symmetry_defect(zs: ZeroSet) -> float:
    """Max distance from each zero to the reflected set under k -> -conj(k)."""
    locs = zs.locations
    if len(locs) == 0:
        return 0.0
    refl = -np.conj(locs)
    d = np.abs(locs[:, None] - refl[None, :])
    return float(np.max(np.min(d, axis=1)))
