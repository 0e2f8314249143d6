"""Zeros of entire functions in rectangles via the argument principle.

Counting sums phase increments along the boundary with adaptive refinement
(no step may exceed pi/2 or sit in a dip of |f|, where close zeros could
alias its turn); the same samples give the power sums sum (z_i - c)^p,
p = 1..4, of the enclosed zeros about the box centre c.  Contours are
counted together: their samples lie end to end in one array, with one call
of f for all start samples and one per refinement round.  Location is by
bisection on winding counts, a level of boxes at a time (the first children
of a level are counted together), and Newton polish with a
central-difference derivative, so any user-supplied entire function that
takes a 1-D array works.  A box of count m <= 4 starts Newton at the roots
of the degree-m polynomial its power sums give (Kravanja, Sakurai & Van
Barel, BIT 39, 1999); a level's starts are polished together, one call of f
per step, and each has converged once a step is below 1e-11 (1 + |z|), or
not after 60.
The polishes are the box's m simple zeros if all converge inside it, more
than 1e-2 of its diagonal apart; else the box is split.  A box too small to
split gives its one polish its count as multiplicity; polishes from two boxes
within 1e-7 of their diagonals merge, adding their counts.  Split counts are
exact, so the multiplicities of one search sum to its count.
A half-plane search takes f with f(-conj k) = conj f(k), as xhat of a real
potential is: its zeros off the imaginary axis come in pairs k, -conj k.  It
locates the zeros of one rectangle about the right half of the lower
half-disk, reaching just past the axis, and returns each zero right of the
axis with its mirror -conj k.  For xhat (resonances) the rectangle's first
level is its tiles, counted together: slabs of the logarithmic strip below
the axis where the zeros lie at large |k|, and the deep box below the strip;
for any other f it is the rectangle itself.  Bound states, on the positive
imaginary axis, are searched in a strip about it.  Every search counts its
contours one way:
each starts at _N_BOUNDARY samples and is refined where its own start steps
show log|f| rising fast.  Rectangles, not disks: covering a half-disk and
dodging zero chains that hug the real axis is easier with axis-aligned
subdivision.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from itertools import product
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

_N_BOUNDARY = 256  # start samples per counting contour
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


def _boundary_points(lo, hi, ts):
    """Boundary points at parameters ts (mod 1), counterclockwise from the
    lower-left corner, of the rectangles with corners lo, hi (scalars, or
    arrays of one rectangle per parameter)."""
    x0, y0, x1, y1 = lo.real, lo.imag, hi.real, hi.imag
    w, h = x1 - x0, y1 - y0
    s = (np.asarray(ts) % 1.0) * (2 * (w + h))
    return np.where(s < w, x0 + s + 1j * y0, np.where(
        s < w + h, x1 + 1j * (y0 + (s - w)), np.where(
            s < 2 * w + h, x1 - (s - w - h) + 1j * y1, x0 + 1j * (y1 - (s - 2 * w - h)))))


@dataclass(frozen=True)
class Zero:
    location: complex
    multiplicity: int
    refined_residual: float
    converged: bool = True


@dataclass(frozen=True)
class ZeroSet:
    zeros: tuple

    @property
    def locations(self):
        return np.array([z.location for z in self.zeros], dtype=complex)

    def total_multiplicity(self):
        return sum(z.multiplicity for z in self.zeros)


# _BINOM[p, j] = C(p, j) and _EXP[p, j] = p - j where j <= p, for _shifted
_BINOM = np.array([[comb(p, j) for j in range(_P + 1)] for p in range(_P + 1)], dtype=float)
_EXP = np.maximum(np.subtract.outer(np.arange(_P + 1), np.arange(_P + 1)), 0)


def _shifted(counts, sums, d):
    """Power sums about c + d of counts zeros whose power sums about c are
    sums, one row per box: sum_j C(p, j) (-d)^(p - j) s_j, s_0 the count."""
    s = np.column_stack((counts, sums))
    powers = np.cumprod(np.column_stack((np.ones(len(s)), np.tile(-d[:, None], _P))), axis=1)
    return np.einsum("kpj,kj->kp", _BINOM[1:] * powers[:, _EXP[1:]], s)


def _windings(f, rects):
    """(count, power sums about its centre) of each rect, or the BoundaryZero
    or PhaseStepTooLarge its contour raised; a sample that is not finite
    raises OverflowAtRadius.

    The contours are sampled together over one ragged array, closed contours
    laid end to end, with one call of f for the start samples and one per
    refinement round.  A contour starts with _N_BOUNDARY + 1 samples evenly
    spaced in its parameter, the last closing it.  Each round halves every
    wide step, dip, corner step or long step until a contour has none left.
    A step is wide when its phase turns by more than pi/2, a dip when it
    sits in a dip of |f|, and a corner step when it meets a corner and
    |d log|f|| + |d arg f| > pi/2 across it.  A contour fails alone: at a
    sample near zero, past _MAX_EVALS samples, or after 60 rounds.

    The near-zero test is local: a start sample fails against the larger |f|
    of its two neighbours on the closed contour, a midpoint against the
    larger reference magnitude of the two samples it bisects, where a start
    sample's reference is its own |f|.  |f| may span many decades along
    the contour far from any zero.

    A start step outside a dip across which log|f| changes by more than pi
    shows that the spacing is too wide for f: by Cauchy-Riemann the phase
    turns as fast across a side where |f| barely changes, and a turn of 2 pi
    + x reads as x.  Steps are then long above pi/2 at the fastest such rate,
    so this rule alone refines where |f| changes fast.
    """
    out = [None] * len(rects)
    lo = np.array([r.lo for r in rects], dtype=complex)
    hi = np.array([r.hi for r in rects], dtype=complex)
    w, h = hi.real - lo.real, hi.imag - lo.imag
    n = _N_BOUNDARY
    # the parameters of the corners between the sides, one column per contour
    corners = np.cumsum([w, h, w, h], axis=0)
    corners = corners[:3] / corners[3]
    # contour ids[k] holds size[k] samples from first[k] on, the last closing it
    ids, size = np.arange(len(rects)), np.full(len(rects), n + 1)
    first = np.arange(len(rects)) * (n + 1)
    ts = np.tile(np.arange(n + 1) / n, len(rects))
    zs = _boundary_points(np.repeat(lo, size), np.repeat(hi, size), ts)
    fs = np.asarray(f(zs), dtype=complex)
    if not np.all(np.isfinite(fs)):
        raise OverflowAtRadius("function not finite on the contour")
    ref = np.abs(fs)
    side = _sides(ts, np.repeat(corners, size, axis=1))
    around = np.empty_like(ref)
    around[1:-1] = np.maximum(ref[:-2], ref[2:])
    around[first] = np.maximum(ref[first + n - 1], ref[first + 1])
    near = ref <= 1e-9 * around
    near[first + n] = False
    failed = np.logical_or.reduceat(near, first)
    for round_ in range(60):
        # step j of contour k runs from sample j + k to the next, and its
        # neighbours run round the closed contour from start[k] on
        k = np.repeat(np.arange(len(ids)), size - 1)
        left = np.arange(len(k)) + k
        start = np.cumsum(size - 1) - (size - 1)
        prev, nxt = np.arange(len(k)) - 1, np.arange(len(k)) + 1
        prev[start], nxt[start + size - 2] = start + size - 2, start
        right = left + 1
        dt = ts[right] - ts[left]
        # a failed contour's steps are not used
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = fs[right] / fs[left]
            rise = np.log(np.abs(ratio))
            slope = rise / dt  # of log|f|, per unit t
            steps = np.angle(ratio)
            # log|f| bending up by over 1 across a step marks close zeros; with
            # two or more the step's turn may pass 3 pi / 2 and alias (slopes
            # wrap round).  The contour turns at a corner sample, where a dip
            # just inside the step leaving it may hide in a kink of log|f|:
            # that step also bends against its own slope, and so does the step
            # reaching the corner
            edge = side[left] // 8
            edge[edge != side[right] % 8] = -1
            turn = (edge >= 0) & (edge[prev] >= 0) & (edge[prev] != edge)
            before, after = slope[prev], slope[nxt]
            dip = (((after - before) * dt > 1.0)
                   | (turn & ((after - slope) * dt > 1.0))
                   | (turn[nxt] & ((slope - before) * dt > 1.0)))
            if round_ == 0:  # start steps are even in t
                top = np.maximum.reduceat(np.where(dip, 0.0, np.abs(rise)), start)
                longest = np.where(top > np.pi, dt[start] * np.pi / 2 / top, np.inf)
            # zeros just past a corner may alias a step meeting it, with no dip
            corner = turn | turn[nxt] | (edge < 0)
            corner &= np.abs(rise) + np.abs(steps) > np.pi / 2
            bad = (np.abs(steps) > np.pi / 2) | dip | corner | (dt > longest[k])
            count = np.round(np.add.reduceat(steps, start) / (2 * np.pi))
        done = ~np.logical_or.reduceat(bad, start) & ~failed
        if np.any(done):
            # (1/2 pi i) sum (z_mid - c)^p log(ratio) over each done contour
            # with zeros inside, for p = 1.._P, where log(ratio) = rise + i steps
            summed = done & (count != 0)
            sums = np.zeros((len(ids), _P), complex)
            if np.any(summed):
                i = np.repeat(summed, size - 1)
                centre = np.array([rects[j].center for j in ids[summed]], dtype=complex)
                mid = (zs[right[i]] + zs[left[i]]) / 2 - np.repeat(centre, size[summed] - 1)
                term = mid * (rise[i] + 1j * steps[i])
                cut = np.cumsum(size[summed] - 1) - (size[summed] - 1)
                for p in range(_P):
                    sums[summed, p] = np.add.reduceat(term, cut) / (2j * np.pi)
                    term *= mid
            for j in np.nonzero(done)[0]:
                out[ids[j]] = (int(count[j]), sums[j])
        for j in np.nonzero(failed)[0]:
            out[ids[j]] = BoundaryZero("function vanishes (or nearly) on the contour")
        spent = ~done & ~failed & (size > _MAX_EVALS)
        for j in np.nonzero(spent)[0]:
            out[ids[j]] = PhaseStepTooLarge("phase refinement budget exhausted")
        live = ~(done | failed | spent)
        if not np.any(live):
            return out
        # halve the bad steps of the open contours, and keep only their samples
        bad &= live[k]
        at, c = left[bad] + 1, ids[k[bad]]
        mid_t = (ts[at - 1] + ts[at]) / 2
        mid_z = _boundary_points(lo[c], hi[c], mid_t)
        mid_f = np.asarray(f(mid_z), dtype=complex)
        if not np.all(np.isfinite(mid_f)):
            raise OverflowAtRadius("function not finite on the contour")
        mid_ref = np.maximum(ref[at - 1], ref[at])
        failed = (np.bincount(k[bad], np.abs(mid_f) <= 1e-9 * mid_ref, len(ids)) > 0)[live]
        size = size + np.bincount(k[bad], minlength=len(ids))
        keep = np.repeat(live, size)
        moved = np.arange(len(ts)) + np.cumsum(np.bincount(at, minlength=len(ts)))
        mids = (mid_t, mid_z, mid_f, mid_ref, _sides(mid_t, corners[:, c]))
        ts, zs, fs, ref, side = (_merged(x, y, moved, at + np.arange(len(at)), keep)
                                 for x, y in zip((ts, zs, fs, ref, side), mids))
        ids, size, longest = ids[live], size[live], longest[live]
    for j, vanished in zip(ids, failed):
        out[j] = (BoundaryZero("function vanishes (or nearly) on the contour") if vanished else
                  PhaseStepTooLarge("phase steps above pi/2 after maximum refinement"))
    return out


def _sides(ts, corners):
    """8 a + b for samples at parameters ts of contours whose corners between
    sides lie at parameters `corners` (one column per sample): a step from a
    sample of a to one of b runs along side a if a == b.  A corner sample
    starts one side (a) and ends the one before (b)."""
    return 8 * (1 + (ts >= 1.0) + (ts >= corners).sum(0)) + (ts > 0.0) + (ts > corners).sum(0)


def _merged(x, y, moved, new, keep):
    """x with x[i] moved to moved[i] and y[j] put at new[j], then the
    entries that keep selects."""
    out = np.empty(len(x) + len(y), x.dtype)
    out[moved], out[new] = x, y
    return out[keep]


def _count(f, rect):
    """(winding_number, power sums, rect counted): after BoundaryZero the
    rect counted is rect dilated by 1 + 1e-6, up to three times."""
    for attempt in range(4):
        got = _windings(f, [rect])[0]
        if attempt == 3 or not isinstance(got, BoundaryZero):
            break
        rect = rect.dilated(1 + 1e-6)
    if isinstance(got, Exception):
        raise got
    return (*got, rect)


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


def find_zeros(f, rect: Rect, max_zeros: int = 200) -> ZeroSet:
    """Locate all zeros of f in rect, or in the dilated rect that was counted
    when a zero sits on its boundary: a count, then bisection on counts, a
    level of boxes at a time, each level's first children counted together
    and its starts polished in one _newton_batch.

    Each zero's multiplicity is 1, or the count of the tiny box it was
    polished in; zeros within 1e-7 of the diagonal of those boxes merge,
    adding their counts, so the multiplicities sum to winding_number(f, rect).

    A box of count <= _P is polished from _starts unless it has none or its
    count is 2 or more and did not fall at its last split (Newton's noise
    cloud about a multiple zero passes any separation test in a small box).
    A count-1 second child whose sibling counted 0 holds its parent's sums,
    so a start inside it is the one its parent's polish failed from: it is
    split unpolished.
    Its polishes are simple zeros if all converge within rounding of it (a
    zero on a cut is counted by one child but may polish just across it),
    more than _SEP of its diagonal apart; else it is split.  A tiny box,
    below 1e-9 (1 + |centre|), polishes one start to a zero of its count,
    kept unconverged at its centre unless the polish converges within three
    diagonals.  Every tolerance is set by the box polished or by |z|, not
    by rect, so a large rect resolves its zeros as finely as a small one."""
    total, sums, rect = _count(f, rect)
    return _locate(f, rect, [(rect, total, sums)], max_zeros)


def _locate(f, rect, tiles, max_zeros):
    """The zeros of f in rect, from tiles (box, count, power sums) that
    partition it, already counted: the level loop of find_zeros, whose first
    level is the tiles of nonzero count."""
    total = sum(n for _, n, _ in tiles)
    if total > max_zeros:
        raise MaxZerosExceeded("%d zeros counted, max_zeros=%d" % (total, max_zeros))
    found = []
    # (box, count, power sums, count fell at the last split, sums counted)
    level = [(box, n, sums, True, True) for box, n, sums in tiles if n]
    while level:
        polish, split = [], []
        for box, count, sums, fell, counted in level:
            tiny = box.diag < 1e-9 * (1.0 + abs(box.center))
            if tiny:
                starts = _starts(box, 1, sums / count)
            elif count == 1:
                starts = _starts(box, 1, sums)
                if not (fell or counted or starts[0] == box.center):
                    starts = []
            else:
                starts = _starts(box, count, sums) if count <= _P and fell else []
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
        split = [(box, count, sums) for box, count, sums, *_ in split]
        level = [(c, n, s, n < count, first)
                 for (_, count, _), children in zip(split, _split_level(f, split))
                 for first, (c, n, s) in zip((True, False), children) if n]
    return _finalize(found)


def _split_level(f, boxes):
    """The two children (box, count, power sums) of each (box, count, power
    sums) of boxes, split in two; a cut is nudged if a zero obstructs it.

    Each box tries its cuts in turn, across its longer side and then its
    shorter, until its first child's count succeeds and leaves the second
    child a count >= 0.  The first children of every box still cutting are
    counted together, undilated.  The second child's count and power sums
    are the parent's minus the first's, since the cut runs both ways, both
    sums shifted to the second child's centre.
    """
    if not boxes:
        return []
    fracs = (0.5, 0.5 + 1.3e-3, 0.5 - 2.7e-3, 0.5 + 7.9e-3,
             0.5 - 1.7e-2, 0.5 + 4.3e-2, 0.37, 0.61)
    first = [None] * len(boxes)
    todo = list(range(len(boxes)))
    for long_side, frac in product((True, False), fracs):
        if not todo:
            break
        cuts = [_split_axis(boxes[i][0], frac,
                            (boxes[i][0].width >= boxes[i][0].height) == long_side)
                for i in todo]
        for i, cut, got in zip(todo, cuts, _windings(f, [c0 for c0, _ in cuts])):
            if not isinstance(got, Exception) and got[0] <= boxes[i][1]:
                first[i] = (*cut, *got)
        todo = [i for i in todo if first[i] is None]
    if todo:
        raise BoundaryZero("could not place a zero-free cut through the box")
    parents = np.array([box.center for box, _, _ in boxes])
    c0, c1 = (np.array([cut[i].center for cut in first]) for i in (0, 1))
    shifted = _shifted([n for _, n, _ in boxes] + [cut[2] for cut in first],
                       [s for _, _, s in boxes] + [cut[3] for cut in first],
                       np.concatenate((c1 - parents, c1 - c0)))
    m1 = shifted[:len(boxes)] - shifted[len(boxes):]
    return [[(c0, n0, m0), (c1, count - n0, m)]
            for (_, count, _), (c0, c1, n0, m0), m in zip(boxes, first, m1)]


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


def _on_axis(z):
    """True where z lies within 1e-9 (1 + |z|) of the imaginary axis, and so
    counts as on it."""
    return abs(z.real) <= 1e-9 * (1.0 + abs(z))


def _order(z):
    """The sort key of a zero at z: real part, then imaginary; axis zeros
    (_on_axis) sort by Im alone."""
    return (0.0 if _on_axis(z) else z.real, z.imag)


def _finalize(found):
    """The one sort (by _order), and merge by pairwise distance, of (zero,
    diagonal of the box it was polished in) pairs.  A zero within 1e-7 of the
    larger box diagonal of a kept one adds its multiplicity to the first such
    one.  The kept zeros stay in key order, so those within reach of a zero
    form a window of key real parts, found by bisection."""
    key = lambda pair: _order(pair[0].location)
    kept, reals, widest = [], [], 0.0
    for z, d in sorted(found, key=key):
        widest = max(widest, d)
        reach = 1e-7 * widest
        # within reach, a key's real part also moves by either zero's axis
        # snap; the window is doubled to cover rounding
        half = 2 * (reach + 1e-9 * (1.0 + abs(z.location) + reach))
        kz = key((z, d))[0]
        i = next((i for i in range(bisect_left(reals, kz - half),
                                   bisect_right(reals, kz + half))
                  if abs(z.location - kept[i][0].location) <= 1e-7 * max(d, kept[i][1])),
                 None)
        if i is None:
            kept.append((z, d))
            reals.append(kz)
        else:
            w, e = kept[i]
            kept[i] = (replace(w, multiplicity=w.multiplicity + z.multiplicity), max(d, e))
    return ZeroSet(tuple(z for z, _ in kept))


def resonances(V: Potential, radius: float) -> ZeroSet:
    """All zeros of xhat with |k| <= radius in the open lower half-plane: the
    half-plane search, started from _strip_tiles."""
    return _search_halfplane(lambda k: xhat(V, k), radius, _strip_tiles(V, radius))


def _strip_tiles(V: Potential, radius: float):
    """Tiles partitioning the rectangle of _search_halfplane: the deep box
    below Im k = -H, and round(radius L / (4 pi)) equal slabs (about four
    zeros each) of the strip above it; None where fewer than 2 slabs are
    predicted, V_a V_b = 0 or H reaches the bottom.

    At large |k| the end jumps dominate xhat, whose zeros lie near
    e^(2ikL) = 16 k^4 / (V_a V_b) (Regge, Nuovo Cimento 8, 1958; Zworski,
    J. Funct. Anal. 73, 1987), so above Im k = -ln(16 |k|^4 / |V_a V_b|)
    / (2L); L = b - a, and V_a, V_b are the end cells' values.  H is that at
    |k| = radius plus 2, and at least _bound_state_height(V) and 2.  The
    floor is a model, not a bound: anti-bound states may lie below it, so
    the deep box is counted, not assumed empty."""
    rect = _halfplane_rect(radius)
    (a, b), va, vb = V.hull, V.values[0], V.values[-1]
    slabs = round(radius * (b - a) / (4 * np.pi))
    if slabs < 2 or va * vb == 0:
        return None
    h = max(np.log(16 * radius ** 4 / abs(va * vb)) / (2 * (b - a)) + 2.0,
            _bound_state_height(V), 2.0)
    if h >= -rect.lo.imag:
        return None
    x = np.linspace(rect.lo.real, rect.hi.real, slabs + 1)
    return [Rect(rect.lo, complex(rect.hi.real, -h))] + [
        Rect(complex(x0, -h), complex(x1, rect.hi.imag)) for x0, x1 in zip(x, x[1:])]


def _bound_state_height(V: Potential) -> float:
    """An Im k bound above every bound state: sqrt(-min V) + 1."""
    return float(np.sqrt(max(0.0, -min(V.values)))) + 1.0


def bound_states(V: Potential):
    """Zeros of xhat in the open upper half-plane and the energies -kappa^2;
    unconverged zeros stay in the ZeroSet but give no energy (with a warning).

    The operator is self-adjoint, so every such zero lies on the positive
    imaginary axis, below _bound_state_height.  find_zeros searches the strip
    Re k in [-1.37 h, h], Im k in [1e-7, kmax], h = kmax / 8, about it: the
    strip is taller than wide, so its first cuts run across the axis, and
    asymmetric, so later cuts down its length stay off the axis."""
    kmax = _bound_state_height(V)
    f = lambda k: xhat(V, k)
    h = kmax / 8
    rect = Rect(complex(-1.37 * h, 1e-7), complex(h, kmax))
    zs = find_zeros(f, rect, max_zeros=500)
    energies = [-(z.location.imag ** 2) for z in _converged(zs)]
    return zs, energies


def _halfplane_rect(radius):
    """The rectangle _search_halfplane counts: Re k in [-0.137, radius],
    Im k in [-radius - 0.137, -1e-9]."""
    return Rect(complex(-0.137, -radius - 0.137), complex(radius, -1e-9))


def _search_halfplane(f, radius, tiles=None):
    """Zeros of f with |k| <= radius in the open lower half-plane, where
    f(-conj k) = conj f(k), so that its zeros off the imaginary axis come in
    pairs k, -conj k of equal multiplicity.  xhat and yhat(-k) of a real
    potential, and the transform of a real kernel, meet this; find_zeros
    takes any f.

    One rectangle (_halfplane_rect) holds the right half of the lower
    half-disk and a strip left of the axis, so no zero on or near the axis
    lies on its edge.  Without tiles, find_zeros searches it.  Tiles that
    partition it are counted together, one _windings call for all, and the
    nonzero ones are the first level of find_zeros' loop; if any tile's
    contour fails, the rectangle is counted alone instead, so a zero on a
    tile's edge is neither counted twice nor lost.  A zero right of the axis
    comes back with its mirror -conj k, which copies its multiplicity,
    residual and convergence; an axis zero (_on_axis) comes back once, and
    one left of the axis not at all, as its partner is mirrored.  The zeros
    off the disk, or not below the axis, are dropped, so the counted box
    alone decides how near the axis a kept zero lies; the rest sort by
    _order.  max_zeros = 500 caps the count of the rectangle, about half the
    zeros returned.
    """
    rect = _halfplane_rect(radius)
    counted = tiles and _windings(f, tiles)
    if counted and not any(isinstance(got, Exception) for got in counted):
        zs = _locate(f, rect, [(t, *got) for t, got in zip(tiles, counted)], 500)
    else:
        zs = find_zeros(f, rect, 500)
    out = []
    for z in zs.zeros:
        k = z.location
        if abs(k) <= radius and k.imag < 0:
            if _on_axis(k):
                out.append(z)
            elif k.real > 0:
                out += [z, replace(z, location=-k.conjugate())]
    return ZeroSet(tuple(sorted(out, key=lambda z: _order(z.location))))
