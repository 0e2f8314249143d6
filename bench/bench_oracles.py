"""Independent reference computations used by the benchmark's checks.

Plain Python and numpy only, so they can be tested without the library.
"""

from __future__ import annotations

import math

import numpy as np


def zero_energy_nodes(V) -> int:
    """Nodes of the zero-energy solution that is constant left of the hull.

    By Sturm oscillation this equals the number of bound states.  Each
    cell is solved in closed form; an oscillating cell counts the points
    where its phase crosses pi/2 mod pi, a cell without oscillation (at
    most one node) counts a sign change.
    """
    psi, dpsi, nodes = 1.0, 0.0, 0
    bp, vs = V.breakpoints, V.values
    for j, v in enumerate(vs):
        w = bp[j + 1] - bp[j]
        if v < 0:
            kap = math.sqrt(-v)
            phi = math.atan2(dpsi / kap, psi)
            nodes += (math.floor((kap * w - phi - math.pi / 2) / math.pi)
                      - math.floor((-phi - math.pi / 2) / math.pi))
            c, s = math.cos(kap * w), math.sin(kap * w)
            psi, dpsi = psi * c + dpsi * s / kap, -psi * kap * s + dpsi * c
        else:
            if v > 0:
                q = math.sqrt(v)
                c, s = math.cosh(q * w), math.sinh(q * w)
                new = psi * c + dpsi * s / q, psi * q * s + dpsi * c
            else:
                new = psi + dpsi * w, dpsi
            if new[0] != 0 and (psi > 0) != (new[0] > 0):
                nodes += 1
            psi, dpsi = new
        scale = math.hypot(psi, dpsi)
        psi, dpsi = psi / scale, dpsi / scale
    # linear continuation to the right of the hull
    return nodes + (psi * dpsi < 0)


def compare_zero_sets(got, ref, radius):
    """None when both sets agree away from the rim |k| = radius."""
    rim = 1e-6 * (1 + radius)
    got = [(z, m) for z, m in got if abs(abs(z) - radius) > rim]
    ref = [(z, m) for z, m in ref if abs(abs(z) - radius) > rim]
    if len(got) != len(ref):
        return "%d zeros, reference has %d" % (len(got), len(ref))
    for z, m in ref:
        d = [abs(z - g) for g, _ in got]
        j = int(np.argmin(d))
        if d[j] > 1e-6 * (1 + abs(z)) or got[j][1] != m:
            return "reference zero %.6g%+.6gi (mult %d) not matched" % (z.real, z.imag, m)
    return None


def conjugate_defect(locs) -> float:
    """Max distance from each zero to the mirror set under k -> -conj(k)."""
    locs = np.asarray(locs, dtype=complex)
    if locs.size == 0:
        return 0.0
    d = np.abs(locs[:, None] + np.conj(locs)[None, :])
    return float(np.max(np.min(d, axis=1)))
