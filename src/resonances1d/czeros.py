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
from two boxes within 1e-7 of their diagonals merge, adding their counts.
Split counts are exact, so the multiplicities of one search sum to its count.
A half-plane search counts one rectangle about the lower half-disk and
bisects it; its contours start at a spacing set by f's exponential type.
Rectangles, not disks: covering a half-disk and dodging zero chains that hug
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
    OverflowAtRadius,
    PhaseStepTooLarge,
    UnconvergedZeroWarning,
)
from .potential import Potential
from .scattering import xhat

_N_BOUNDARY = 256  # least start samples per counting contour
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
        """Map parameters ts (mod 1) to boundary points, counterclockwise
        from the lower-left corner."""
        x0, y0, x1, y1 = self.lo.real, self.lo.imag, self.hi.real, self.hi.imag
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


def _phase_winding(f, rect, sigma=0.0):
    """(count, first moment) of rect.  The contour starts with at least
    _N_BOUNDARY samples, and enough that f of exponential type sigma turns
    by at most pi/2 per step from its type alone; the last sample closes it."""
    n = max(_N_BOUNDARY, int(np.ceil(4 * (rect.width + rect.height) * sigma / np.pi)))
    ts = np.append(np.linspace(0.0, 1.0, n, endpoint=False), 1.0)
    zs = rect.boundary_points(ts)
    return _refine(f, rect, ts, zs, np.asarray(f(zs), dtype=complex))


def _steps(ts, fs):
    """(ratios, phase steps, wide steps, dips) of the closed contour sampled
    as fs at parameters ts.  A step is wide when its phase turns by more than
    pi/2, and a dip when it sits in a dip of |f|."""
    dt = np.diff(ts)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = fs[1:] / fs[:-1]
        slope = np.log(np.abs(ratio)) / dt  # of log|f|, per unit t
    steps = np.angle(ratio)
    # log|f| bending up by over 1 across a step marks close zeros; with two
    # or more the step's turn may pass 3 pi / 2 and alias (slopes wrap round)
    slope = np.concatenate((slope[-1:], slope, slope[:1]))
    return ratio, steps, np.abs(steps) > np.pi / 2, (slope[2:] - slope[:-2]) * dt > 1.0


def _moment(zs, ratio):
    """First moment of a contour with no bad step: the sum of the zeros inside."""
    # (1/2 pi i) sum z_mid * dlog f; the closing point is the first,
    # and log(ratio) = log|ratio| + i * steps
    return complex(np.sum((zs[1:] + zs[:-1]) / 2 * np.log(ratio)) / (2j * np.pi))


def _check_samples(fs, ref):
    """Raise unless every sample fs is finite and above 1e-9 of its reference
    magnitude ref."""
    if not np.all(np.isfinite(fs)):
        raise OverflowAtRadius("function not finite on the contour")
    if np.any(np.abs(fs) <= 1e-9 * ref):
        raise BoundaryZero("function vanishes (or nearly) on the contour")


def _refine(f, rect, ts, zs, fs):
    """(count, first moment) of rect from samples fs = f(zs) at parameters ts
    of its contour, halving each wide step, dip or long step until none is
    left.

    The near-zero test is local: a start sample fails against the larger |f|
    of its two neighbours on the closed contour, a midpoint against the
    larger reference magnitude of the two samples it bisects, where a start
    sample's reference is its own |f|.  |f| may span many decades along
    the contour far from any zero; from f's type alone it changes by at most
    a factor of about e^(pi/2) between start samples spaced as
    _phase_winding spaces them.

    A start step outside a dip across which log|f| changes by more than pi
    shows that the spacing is too wide for f: by Cauchy-Riemann the phase
    turns as fast across a side where |f| barely changes, and a turn of 2 pi
    + x reads as x.  Steps are then long above pi/2 at the fastest such rate.
    """
    ref = np.abs(fs)  # the closing sample is the first
    _check_samples(fs[:-1], np.maximum(np.append(ref[-2], ref[:-2]), ref[1:]))
    ratio, steps, wide, dip = _steps(ts, fs)
    rise = np.max(np.abs(np.log(np.abs(ratio[~dip]))), initial=0.0)
    # start steps are even in t
    longest = (ts[1] - ts[0]) * np.pi / 2 / rise if rise > np.pi else np.inf
    for _ in range(60):
        bad = wide | dip | (np.diff(ts) > longest)
        if not np.any(bad):
            n = int(np.round(np.sum(steps) / (2 * np.pi)))
            return n, (_moment(zs, ratio) if n else 0j)
        if len(ts) > _MAX_EVALS:
            raise PhaseStepTooLarge("phase refinement budget exhausted")
        mid_t = (ts[:-1][bad] + ts[1:][bad]) / 2
        mid_z = rect.boundary_points(mid_t)
        mid_f = np.asarray(f(mid_z), dtype=complex)
        mid_ref = np.maximum(ref[:-1][bad], ref[1:][bad])
        _check_samples(mid_f, mid_ref)
        at = np.nonzero(bad)[0] + 1
        ts = np.insert(ts, at, mid_t)
        zs = np.insert(zs, at, mid_z)
        fs = np.insert(fs, at, mid_f)
        ref = np.insert(ref, at, mid_ref)
        ratio, steps, wide, dip = _steps(ts, fs)
    raise PhaseStepTooLarge("phase steps above pi/2 after maximum refinement")


def _count(f, rect, sigma=0.0):
    """(winding_number, sum of the zeros, rect counted): after BoundaryZero the
    rect counted is rect dilated by 1 + 1e-6, up to three times."""
    for attempt in range(3):
        try:
            return (*_phase_winding(f, rect, sigma), rect)
        except BoundaryZero:
            rect = rect.dilated(1 + 1e-6)
    return (*_phase_winding(f, rect, sigma), rect)


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
    zeros within 1e-7 of the diagonal of those boxes merge, adding their
    counts, so the multiplicities sum to winding_number(f, rect).
    """
    total, s1, rect = _count(f, rect)
    return _bisect(f, rect, total, s1, max_zeros, function_tag)


def _bisect(f, rect, total, s1, max_zeros, function_tag, sigma=0.0):
    """The zeros of f in rect, counted total with first moment s1: bisection
    on counts + Newton polish, each box polished from moment / count.  sigma
    spaces the start samples of the split contours, as in _phase_winding.

    Every tolerance is set by the box polished or by |z|, not by rect, so a
    large rect resolves its zeros as finely as a small one: bisection stops
    below 1e-9 (1 + |centre|), and Newton runs off beyond 10 box diagonals."""
    if total == 0:
        return ZeroSet((), function_tag)
    if total > max_zeros:
        raise MaxZerosExceeded("%d zeros counted, max_zeros=%d" % (total, max_zeros))
    found = []
    stack = [(rect, total, s1)]
    while stack:
        box, count, s1 = stack.pop()
        if count == 0:
            continue
        tiny = box.diag < 1e-9 * (1.0 + abs(box.center))
        if count == 1 or tiny:
            z0 = s1 / count  # a NaN or infinite moment fails contains
            if not box.contains(z0):
                z0 = box.center
            z, resid, ok = _newton(f, z0, box.diag)
            # accept roots a hair past the box seam (a zero within rounding
            # of a cut is counted by one child but may polish to just across
            # it) but nothing farther afield; once the box has shrunk to
            # rounding scale the polished root is the best locator even a
            # few diameters out
            margin = 3.0 * box.diag if tiny else 1e-5 * box.diag
            inside = (box.contains(z, margin=margin)
                      and rect.contains(z, margin=1e-9 * (1.0 + abs(z))))
            if ok and inside:
                found.append((Zero(z, count, resid, True), box.diag))
                continue
            if tiny:
                found.append((Zero(box.center, count, resid, False), box.diag))
                continue
            # polish failed or left the box: keep bisecting
        stack.extend(_split_counted(f, box, count, s1, sigma))
    return _finalize(found, function_tag)


def _split_counted(f, box, count, s1, sigma=0.0):
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
                n0, m0 = _phase_winding(f, c0, sigma)
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


def _finalize(found, function_tag):
    """The one sort, and merge by pairwise distance, of (zero, diagonal of
    the box it was polished in) pairs.  Zeros sort by real part, then
    imaginary; one within 1e-9 (1 + |z|) of the imaginary axis counts as on
    it, so axis zeros sort by Im alone.  A zero within 1e-7 of the larger box
    diagonal of a kept one adds its multiplicity to it."""
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
    return ZeroSet(tuple(z for z, _ in kept), function_tag)


def resonances(V: Potential, radius: float) -> ZeroSet:
    """All zeros of xhat with |k| <= radius in the open lower half-plane."""
    a, b = V.hull
    return _search_halfplane(lambda k: xhat(V, k), radius, 2 * (b - a), "xhat")


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


def _search_halfplane(f, radius, sigma, tag):
    """Zeros of f with |k| <= radius in the open lower half-plane.

    One rectangle holds the lower half-disk: find_zeros' count (dilated if a
    zero sits on its contour), then _bisect, with contours started at a
    spacing set by sigma, the exponential type of f (2 (b - a) for xhat).
    The zeros off the disk, or not below the axis, are dropped.
    """
    eps = 1e-9
    rect = Rect(complex(-radius - 0.137, -radius - 0.137), complex(radius, -eps))
    total, s1, rect = _count(f, rect, sigma)
    zs = _bisect(f, rect, total, s1, 500, tag, sigma)
    return ZeroSet(tuple(z for z in zs.zeros
                         if abs(z.location) <= radius and z.location.imag < -eps), tag)


def conjugate_symmetry_defect(zs: ZeroSet) -> float:
    """Max distance from each zero to the reflected set under k -> -conj(k)."""
    locs = zs.locations
    if len(locs) == 0:
        return 0.0
    refl = -np.conj(locs)
    d = np.abs(locs[:, None] - refl[None, :])
    return float(np.max(np.min(d, axis=1)))
