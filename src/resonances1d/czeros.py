"""Zeros of entire functions in rectangles via the argument principle.

Counting sums phase increments along the boundary with adaptive refinement
(no step may exceed pi/2 or sit in a dip of |f|, where close zeros could
alias its turn); the same samples give the power sums sum (z_i - c)^p,
p = 1..4, of the enclosed zeros about the box centre c.  Location is by
bisection on winding counts, a level of boxes at a time, and Newton polish
with a central-difference derivative, so any user-supplied entire function
works.  A box of count m <= 4 starts Newton at the roots of the degree-m
polynomial its power sums give (Kravanja, Sakurai & Van Barel, BIT 39,
1999); a level's starts are polished together, one call of f per step, and
each has converged once a step is below 1e-11 (1 + |z|), or not after 60.
The polishes are the box's m simple zeros if all converge inside it, more
than 1e-2 of its diagonal apart; else the box is split.  A box too small to
split gives its one polish its count as multiplicity; polishes from two boxes
within 1e-7 of their diagonals merge, adding their counts.  Split counts are
exact, so the multiplicities of one search sum to its count.
A half-plane search counts one rectangle about the lower half-disk and
bisects it; its contours start at a spacing set by f's exponential type.
Rectangles, not disks: covering a half-disk and dodging zero chains that hug
the real axis is easier with axis-aligned subdivision.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, replace
from math import comb

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
_P = 4  # power sums per contour; a box of count <= _P is located from them
_SEP = 1e-2  # least distance between a box's polishes, over its diagonal


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
    """(count, power sums) of rect.  The contour starts with at least
    _N_BOUNDARY samples, and enough that f of exponential type sigma turns
    by at most pi/2 per step from its type alone; the last sample closes it."""
    n = max(_N_BOUNDARY, int(np.ceil(4 * (rect.width + rect.height) * sigma / np.pi)))
    ts = np.append(np.linspace(0.0, 1.0, n, endpoint=False), 1.0)
    zs = rect.boundary_points(ts)
    return _refine(f, rect, ts, zs, np.asarray(f(zs), dtype=complex))


def _steps(ts, fs, rect):
    """(ratios, phase steps, wide steps, dips) of rect's contour sampled as fs
    at parameters ts.  A step is wide when its phase turns by more than pi/2,
    and a dip when it sits in a dip of |f|."""
    dt = np.diff(ts)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = fs[1:] / fs[:-1]
        slope = np.log(np.abs(ratio)) / dt  # of log|f|, per unit t
    steps = np.angle(ratio)
    # log|f| bending up by over 1 across a step marks close zeros; with two
    # or more the step's turn may pass 3 pi / 2 and alias (slopes wrap round).
    # The contour turns at a corner sample, where a dip just inside the step
    # leaving it may hide in a kink of log|f|: that step also bends against
    # its own slope, and so does the step reaching the corner
    before, after = np.roll(slope, 1), np.roll(slope, -1)
    corners = np.cumsum([0.0, rect.width, rect.height, rect.width, rect.height])
    corners /= corners[-1]
    edge = np.searchsorted(corners, ts[:-1], "right")
    edge = np.where(edge == np.searchsorted(corners, ts[1:], "left"), edge, -1)
    turn = (edge >= 0) & (np.roll(edge, 1) >= 0) & (np.roll(edge, 1) != edge)
    dip = ((after - before) * dt > 1.0) | (turn & ((after - slope) * dt > 1.0)) | (
        np.roll(turn, -1) & ((slope - before) * dt > 1.0))
    return ratio, steps, np.abs(steps) > np.pi / 2, dip


def _power_sums(zs, ratio, c):
    """sum (z_i - c)^p over the zeros z_i inside a contour with no bad step,
    for p = 1.._P."""
    # (1/2 pi i) sum (z_mid - c)^p dlog f; the closing point is the first,
    # and log(ratio) = log|ratio| + i * steps
    w = (zs[1:] + zs[:-1]) / 2 - c
    return np.cumprod(np.broadcast_to(w, (_P, len(w))), axis=0) @ np.log(ratio) / (2j * np.pi)


def _shifted(n, sums, d):
    """Power sums about c + d of n zeros whose power sums about c are sums."""
    s = np.concatenate(([n], sums))
    return np.array([sum(comb(p, j) * (-d) ** (p - j) * s[j] for j in range(p + 1))
                     for p in range(1, _P + 1)])


def _check_samples(fs, ref):
    """Raise unless every sample fs is finite and above 1e-9 of its reference
    magnitude ref."""
    if not np.all(np.isfinite(fs)):
        raise OverflowAtRadius("function not finite on the contour")
    if np.any(np.abs(fs) <= 1e-9 * ref):
        raise BoundaryZero("function vanishes (or nearly) on the contour")


def _refine(f, rect, ts, zs, fs):
    """(count, power sums about its centre) of rect from samples fs = f(zs)
    at parameters ts of its contour, halving each wide step, dip or long step until none is
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
    ratio, steps, wide, dip = _steps(ts, fs, rect)
    rise = np.max(np.abs(np.log(np.abs(ratio[~dip]))), initial=0.0)
    # start steps are even in t
    longest = (ts[1] - ts[0]) * np.pi / 2 / rise if rise > np.pi else np.inf
    for _ in range(60):
        bad = wide | dip | (np.diff(ts) > longest)
        if not np.any(bad):
            n = int(np.round(np.sum(steps) / (2 * np.pi)))
            return n, (_power_sums(zs, ratio, rect.center) if n else np.zeros(_P, complex))
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
        ratio, steps, wide, dip = _steps(ts, fs, rect)
    raise PhaseStepTooLarge("phase steps above pi/2 after maximum refinement")


def _count(f, rect, sigma=0.0):
    """(winding_number, power sums, rect counted): after BoundaryZero the
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


def _newton_batch(f, z0, scale):
    """(roots, residuals, converged) of the starts z0, polished in one call of
    f per step at z + h, z - h and z of each start still running; a residual
    is the relative size of the last step, which estimates the location error
    even where |f| bottoms out at an evaluation-noise floor.  A start has
    converged once a step is below 1e-11 (1 + |z|), and has not after 60
    steps, at f' = 0, or beyond 10 scale of its start (residual inf), before
    f is probed far outside its intended domain.  f gives each point the same
    bits in any batch, so each start takes the path it would take alone."""
    # np.abs of a complex array may round otherwise than abs of one value
    mod = lambda w: np.hypot(w.real, w.imag)
    z0, scale = np.asarray(z0, dtype=complex), np.asarray(scale, dtype=float)
    z, err = z0.copy(), np.full(len(z0), np.inf)
    ok, run = np.zeros(len(z0), bool), np.ones(len(z0), bool)
    for _ in range(60):
        away = run & (mod(z - z0) > 10.0 * scale)
        err[away], run[away] = np.inf, False
        i = np.nonzero(run)[0]
        if len(i) == 0:
            break
        h = 1e-6 * (1.0 + mod(z[i]))
        fplus, fminus, fz = np.asarray(
            f(np.concatenate((z[i] + h, z[i] - h, z[i]))), dtype=complex).reshape(3, -1)
        fp = (fplus - fminus) / (2 * h)
        run[i[fp == 0]] = False
        i, step = i[fp != 0], fz[fp != 0] / fp[fp != 0]
        z[i] -= step
        err[i] = mod(step) / (1.0 + mod(z[i]))
        ok[i] = err[i] < 1e-11
        run[i[ok[i]]] = False
    return z, err, ok


def find_zeros(f, rect: Rect, max_zeros: int = 200,
               function_tag: str = "") -> ZeroSet:
    """Locate all zeros of f in rect, or in the dilated rect that was counted
    when a zero sits on its boundary: a count, then _bisect.

    Each zero's multiplicity is 1, or the count of the tiny box it was
    polished in; zeros within 1e-7 of the diagonal of those boxes merge,
    adding their counts, so the multiplicities sum to winding_number(f, rect).
    """
    total, sums, rect = _count(f, rect)
    return _bisect(f, rect, total, sums, max_zeros, function_tag)


def _starts(box, count, sums):
    """Newton starts for a box of count <= _P: the roots of the monic
    polynomial whose power sums about the box centre are sums (Newton's
    identities), in units of its half-diagonal.  A single root outside the
    box (NaN or infinite too) becomes the centre; two or more give no starts
    unless all lie inside."""
    c, h = box.center, box.diag / 2
    t = sums[:count] / h ** np.arange(1, count + 1)
    a = [1.0]  # coefficients, highest degree first
    for k in range(1, count + 1):
        a.append(-sum(a[k - i] * t[i - 1] for i in range(1, k + 1)) / k)
    z = c + h * (np.roots(a) if np.all(np.isfinite(a)) else np.full(count, np.nan))
    inside = [box.contains(w) for w in z]
    if count == 1:
        return [z[0] if inside[0] else c]
    return list(z) if all(inside) else []


def _bisect(f, rect, total, sums, max_zeros, function_tag, sigma=0.0):
    """The zeros of f in rect, counted total with power sums `sums` about its
    centre: bisection on counts, a level of boxes at a time, each level's
    starts polished in one _newton_batch; sigma spaces the start samples of
    the split contours, as in _phase_winding.

    A box of count <= _P is polished from _starts unless it has none or its
    count is 2 or more and did not fall at its last split (Newton's noise
    cloud about a multiple zero passes any separation test in a small box).
    Its polishes are simple zeros if all converge within rounding of it (a
    zero on a cut is counted by one child but may polish just across it),
    more than _SEP of its diagonal apart; else it is split.  A tiny box,
    below 1e-9 (1 + |centre|), polishes one start to a zero of its count,
    kept unconverged at its centre unless the polish converges within three
    diagonals.  Every tolerance is set by the box polished or by |z|, not
    by rect, so a large rect resolves its zeros as finely as a small one."""
    if total == 0:
        return ZeroSet((), function_tag)
    if total > max_zeros:
        raise MaxZerosExceeded("%d zeros counted, max_zeros=%d" % (total, max_zeros))
    found = []
    level = [(rect, total, sums, True)]
    while level:
        polish, split = [], []
        for box, count, sums, fell in level:
            tiny = box.diag < 1e-9 * (1.0 + abs(box.center))
            starts = (_starts(box, 1, sums / count) if tiny else _starts(box, count, sums)
                      if count == 1 or (1 < count <= _P and fell) else [])
            (polish if starts else split).append((box, count, sums, tiny, starts))
        polished = _newton_batch(f, [z for *_, zs in polish for z in zs],
                                 [box.diag for box, *_, zs in polish for _ in zs])
        cuts = np.cumsum([len(zs) for *_, zs in polish])[:-1]
        for (box, count, sums, tiny, _), z, err, ok in zip(
                polish, *(np.split(a, cuts) for a in polished)):
            if tiny:  # at rounding scale the polish locates best even diameters out
                z, good = z[0], bool(ok[0]) and box.contains(z[0], 3.0 * box.diag)
                good = good and rect.contains(z, 1e-9 * (1.0 + abs(z)))
                found.append((Zero(z if good else box.center, count, err[0], good), box.diag))
                continue
            gaps = np.abs(np.subtract.outer(z, z))[np.triu_indices(count, 1)]
            if (np.all(ok) and np.min(gaps, initial=np.inf) > _SEP * box.diag
                    and all(box.contains(w, margin=1e-9 * (1.0 + abs(w))) for w in z)):
                found.extend((Zero(w, 1, e, True), box.diag) for w, e in zip(z, err))
            else:
                split.append((box, count, sums, tiny, z))
        level = [(c, n, s, n < count) for box, count, sums, *_ in split
                 for c, n, s in _split_counted(f, box, count, sums, sigma) if n]
    return _finalize(found, function_tag)


def _split_counted(f, box, count, sums, sigma=0.0):
    """Split the box in two; nudge the cut if a zero obstructs it.

    Only the first child is counted, undilated; the second child's count and
    power sums are the parent's minus the first's, since the cut runs both
    ways, both sums shifted to the second child's centre.
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
            m1 = (_shifted(count, sums, c1.center - box.center)
                  - _shifted(n0, m0, c1.center - c0.center))
            return [(c0, n0, m0), (c1, n1, m1)]
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
    total, sums, rect = _count(f, rect, sigma)
    zs = _bisect(f, rect, total, sums, 500, tag, sigma)
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
