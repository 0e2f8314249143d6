"""Piecewise-constant compactly supported potentials.

A :class:`Potential` is a step function with support hull ``[a, b]``,
``a < 0 < b``.  Constructors trim leading/trailing zero cells (exact zero
comparison: support is structural) and merge adjacent cells of equal value,
so the stored breakpoints describe the minimal convex support hull.

One-sided pieces (everything on one side of the origin) are represented by
:class:`Fragment`; :func:`glue` joins a left and a right fragment at 0 into
a full potential.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    AllZero,
    EmptyInterval,
    HullDoesNotStraddleZero,
    NonIncreasingBreakpoints,
    OverlappingSupports,
    SharedPartMismatch,
)


def _clean(breakpoints, values):
    """Trim zero edge cells and merge equal-valued neighbours; a breakpoint
    or value that is not finite is a ValueError."""
    bp = [float(x) for x in breakpoints]
    vs = [float(v) for v in values]
    if not all(map(math.isfinite, bp + vs)):
        raise ValueError("breakpoints and values must be finite")
    if len(bp) != len(vs) + 1:
        raise NonIncreasingBreakpoints(
            "need len(breakpoints) == len(values) + 1, got %d and %d"
            % (len(bp), len(vs))
        )
    if any(x1 <= x0 for x0, x1 in zip(bp, bp[1:])):
        raise NonIncreasingBreakpoints("breakpoints must be strictly increasing")
    while vs and vs[0] == 0.0:
        vs.pop(0)
        bp.pop(0)
    while vs and vs[-1] == 0.0:
        vs.pop()
        bp.pop()
    if not vs:
        raise AllZero("potential vanishes identically")
    merged_bp = [bp[0]]
    merged_vs = []
    for x1, v in zip(bp[1:], vs):
        if merged_vs and v == merged_vs[-1]:
            merged_bp[-1] = x1
        else:
            merged_bp.append(x1)
            merged_vs.append(v)
    return tuple(merged_bp), tuple(merged_vs)


@dataclass(frozen=True)
class Fragment:
    """One-sided piecewise-constant piece, used as glue input."""

    breakpoints: tuple
    values: tuple
    label: str = ""

    def __post_init__(self):
        bp, vs = _clean(self.breakpoints, self.values)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vs)

    @property
    def hull(self):
        return (self.breakpoints[0], self.breakpoints[-1])


@dataclass(frozen=True)
class Potential:
    """Trimmed step potential whose hull straddles the origin."""

    breakpoints: tuple
    values: tuple
    label: str = ""

    def __post_init__(self):
        bp, vs = _clean(self.breakpoints, self.values)
        if not (bp[0] < 0.0 < bp[-1]):
            raise HullDoesNotStraddleZero(
                "effective support hull is [%g, %g]; need a < 0 < b" % (bp[0], bp[-1])
            )
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vs)

    @classmethod
    def _unchecked(cls, breakpoints, values, label=""):
        """Build as given: no trimming, merging or hull check."""
        p = object.__new__(cls)
        object.__setattr__(p, "breakpoints", tuple(float(x) for x in breakpoints))
        object.__setattr__(p, "values", tuple(float(v) for v in values))
        object.__setattr__(p, "label", label)
        return p

    # -- basic geometry ---------------------------------------------------

    @property
    def hull(self):
        return (self.breakpoints[0], self.breakpoints[-1])

    @property
    def a(self):
        return self.breakpoints[0]

    @property
    def b(self):
        return self.breakpoints[-1]

    def integral(self):
        return float(
            np.dot(np.asarray(self.values), np.diff(np.asarray(self.breakpoints)))
        )

    # -- evaluation -------------------------------------------------------

    def value_at(self, x):
        """Cell value at x; at interior breakpoints the two-sided average."""
        x = np.asarray(x, dtype=float)
        bp = np.asarray(self.breakpoints)
        vs = np.concatenate([[0.0], self.values, [0.0]])  # zero outside the hull
        out = 0.5 * (vs[np.searchsorted(bp, x, "left")]
                     + vs[np.searchsorted(bp, x, "right")])
        if np.ndim(x) == 0:
            return float(out)
        return out

    def cumulative_integral(self, x):
        """Integral of the potential from a to x (clamped to the hull)."""
        x = np.asarray(x, dtype=float)
        bp = np.asarray(self.breakpoints)
        vs = np.asarray(self.values)
        cum = np.concatenate([[0.0], np.cumsum(vs * np.diff(bp))])
        idx = np.clip(np.searchsorted(bp, x, side="right") - 1, 0, len(vs) - 1)
        out = cum[idx] + vs[idx] * (np.clip(x, bp[0], bp[-1]) - bp[idx])
        out = np.where(x <= bp[0], 0.0, np.where(x >= bp[-1], cum[-1], out))
        if np.ndim(x) == 0:
            return float(out)
        return out

    # -- restructuring ----------------------------------------------------

    def split_at_zero(self):
        """Split into (left fragment on [a,0], right fragment on [0,b])."""
        bp = list(self.breakpoints)
        vs = list(self.values)
        if 0.0 not in bp:
            i = int(np.searchsorted(bp, 0.0))
            bp.insert(i, 0.0)
            vs.insert(i - 1, vs[i - 1])
        i0 = bp.index(0.0)
        return (
            Fragment(tuple(bp[: i0 + 1]), tuple(vs[:i0])),
            Fragment(tuple(bp[i0:]), tuple(vs[i0:])),
        )

    # -- serialization ----------------------------------------------------

    def to_json(self):
        d = {"breakpoints": list(self.breakpoints), "values": list(self.values)}
        if self.label:
            d["label"] = self.label
        return d

    @classmethod
    def from_json(cls, d):
        return cls(
            tuple(d["breakpoints"]), tuple(d["values"]), d.get("label", "")
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)


def make_piecewise(breakpoints: Sequence[float], values: Sequence[float],
                   label: str = "") -> Potential:
    """Construct a trimmed potential; hull must straddle 0 after trimming."""
    return Potential(tuple(breakpoints), tuple(values), label)


def square_well(depth: float, left: float, right: float, label: str = ""):
    """Single-cell well.  Returns a Potential when left < 0 < right,
    otherwise a Fragment usable only through glue()."""
    if not right > left:
        raise EmptyInterval("need left < right, got [%g, %g]" % (left, right))
    if depth == 0.0:
        raise AllZero("zero-depth well")
    if left < 0.0 < right:
        return Potential((left, right), (depth,), label)
    return Fragment((left, right), (depth,), label)


def _require_shared_right(V1: Potential, V2: Potential):
    """Raise SharedPartMismatch unless V1 and V2 agree exactly on [0, b].

    The trimmed right fragments are compared exactly: they are stored
    exactly, and JSON round trips and glue() reproduce them exactly.
    """
    r1, r2 = V1.split_at_zero()[1], V2.split_at_zero()[1]
    if (r1.breakpoints, r1.values) != (r2.breakpoints, r2.values):
        raise SharedPartMismatch("potentials differ on [0, b]")


def glue(left_part, right_part, label: str = "") -> Potential:
    """Concatenate a piece supported in x <= 0 with one supported in x >= 0."""
    for part, side in ((left_part, "left"), (right_part, "right")):
        lo, hi = part.breakpoints[0], part.breakpoints[-1]
        if side == "left" and hi > 0.0:
            raise OverlappingSupports("left part extends to x = %g > 0" % hi)
        if side == "right" and lo < 0.0:
            raise OverlappingSupports("right part extends to x = %g < 0" % lo)
    bp = list(left_part.breakpoints)
    vs = list(left_part.values)
    if bp[-1] != 0.0:
        bp.append(0.0)
        vs.append(0.0)
    rbp = list(right_part.breakpoints)
    rvs = list(right_part.values)
    if rbp[0] != 0.0:
        rbp.insert(0, 0.0)
        rvs.insert(0, 0.0)
    return Potential(tuple(bp + rbp[1:]), tuple(vs + rvs), label)
