"""Recovery of the left half of a potential from scattering-determinant data.

The right part on [0, b] is assumed known; the left part on [a, 0] is
parameterized by equal-width cells and fitted to det S samples by damped
least squares; one ``det_s_jacobian`` pass per evaluated point gives det S
and its exact Jacobian.  A companion report quantifies distinguishability:
distinct left parts must produce visibly different determinants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .czeros import resonances
from .errors import DivergedLoss, JacobianSingular, SharedPartMismatch
from .potential import Fragment, Potential, _joined, _require_shared_right
from .scattering import det_s, det_s_jacobian, xhat, yhat

_LOSS_KIND = "det_s_grid"  # the one loss; the spec schema still names it


@dataclass(frozen=True)
class InverseProblemSpec:
    """What is known (right part), what is sought (left cells), and the data."""

    known_right: Fragment
    a: float
    n_params: int
    k_samples: tuple
    det_s_values: tuple

    def __post_init__(self):
        if not self.a < 0:
            raise ValueError("left endpoint a must be negative")
        if self.known_right.breakpoints[0] < 0:
            raise ValueError("known right part starts at x = %g < 0"
                             % self.known_right.breakpoints[0])
        if self.n_params < 1:
            raise ValueError("need at least one left cell")
        ks = np.asarray(self.k_samples, dtype=float)
        if ks.size == 0:
            raise ValueError("det-S loss needs k samples")
        if len(np.unique(ks)) != len(ks):
            raise ValueError("k samples must be distinct")
        if len(self.det_s_values) != len(ks):
            raise ValueError("data length must match k samples")
        if not (np.all(np.isfinite(ks))
                and np.all(np.isfinite(np.asarray(self.det_s_values, dtype=complex)))):
            raise ValueError("k samples and det S values must be finite")

    def candidate(self, params):
        """Assemble the trial potential for a left-cell value vector.

        Construction bypasses zero-cell trimming so the parameter vector
        keeps a fixed length along the optimization path.
        """
        return Potential._unchecked(*_joined(
            np.linspace(self.a, 0.0, self.n_params + 1), params, self.known_right))

    def to_json(self):
        return {
            "known_right": self.known_right.to_json(),
            "a": self.a,
            "n_params": self.n_params,
            "loss_kind": _LOSS_KIND,
            "data": {
                "k": list(self.k_samples),
                "det_s_re": [v.real for v in self.det_s_values],
                "det_s_im": [v.imag for v in self.det_s_values],
            },
        }

    @classmethod
    def from_json(cls, d):
        kr = Fragment.from_json(d["known_right"])
        if d.get("loss_kind", _LOSS_KIND) != _LOSS_KIND:
            raise ValueError("unsupported loss_kind %r" % d["loss_kind"])
        data = d.get("data", {})
        re, im = data.get("det_s_re", []), data.get("det_s_im", [])
        if len(re) != len(im):
            raise ValueError("det_s_re and det_s_im differ in length: %d and %d"
                             % (len(re), len(im)))
        vals = tuple(complex(x, y) for x, y in zip(re, im))
        if type(d["n_params"]) is not int:  # not 2.5, true or "2"
            raise ValueError("n_params must be an integer, got %r" % (d["n_params"],))
        return cls(kr, float(d["a"]), d["n_params"],
                   k_samples=tuple(data.get("k", [])), det_s_values=vals)


@dataclass(frozen=True)
class RecoveryResult:
    recovered_left: tuple
    final_loss: float
    iterations: int
    converged: bool
    loss_trace: tuple = ()


def synthesize_data(spec_like_right, a, n_params, truth: Potential,
                    k_samples) -> InverseProblemSpec:
    """Build a spec whose data comes from a known truth (round-trip input);
    a truth that differs from spec_like_right on [0, b] is SharedPartMismatch."""
    if truth.split_at_zero()[1] != spec_like_right:
        raise SharedPartMismatch("truth differs from the known right part on [0, b]")
    vals = tuple(complex(v) for v in det_s(truth, np.asarray(k_samples)))
    return InverseProblemSpec(spec_like_right, a, n_params,
                              k_samples=tuple(k_samples), det_s_values=vals)


def _residual(spec, params):
    """Residual (real parts, then imaginary), its exact Jacobian in the
    left-cell values and the loss, from one det_s_jacobian pass."""
    model, J = det_s_jacobian(spec.candidate(params),
                              np.asarray(spec.k_samples, dtype=float), spec.n_params)
    diff = model - np.asarray(spec.det_s_values, dtype=complex)
    r = np.concatenate([diff.real, diff.imag])
    return r, np.concatenate([J.real, J.imag]), float(np.dot(r, r))


def recover_left(spec: InverseProblemSpec, init, max_iter: int = 100) -> RecoveryResult:
    """Damped least squares on the left-cell values.

    One ``det_s_jacobian`` pass per evaluated point (the start and each
    trial step) gives the residual and its exact Jacobian; the accepted
    trial's Jacobian serves the next iteration, and accepted steps never
    increase the loss.  Stops once the loss falls below 1e-18 and reports
    convergence below 1e-10.  10 consecutive rejected steps, or damping
    above 1e8, end a fit whose loss fell below its start: it is at the
    least-squares floor of data no potential fits exactly.  A fit whose
    loss never fell raises DivergedLoss or JacobianSingular there.
    """
    p = np.asarray(init, dtype=float).copy()
    if len(p) != spec.n_params:
        raise ValueError("init length %d != n_params %d" % (len(p), spec.n_params))
    r, J, cur = _residual(spec, p)
    trace = [cur]
    lam = 1e-3
    rejected = 0
    it = 0
    for it in range(1, max_iter + 1):
        if cur < 1e-18:
            break
        JtJ = J.T @ J
        g = J.T @ r
        stepped = False
        while not stepped and lam <= 1e8 and rejected < 10:
            A = JtJ + lam * np.diag(np.clip(np.diag(JtJ), 1e-12, None))
            try:
                delta = np.linalg.solve(A, -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            r_new, J_new, new = _residual(spec, p + delta)
            if new < cur:
                p = p + delta
                r, J, cur = r_new, J_new, new
                trace.append(cur)
                lam = max(lam / 3.0, 1e-12)
                rejected = 0
                stepped = True
            else:
                lam *= 10
                rejected += 1
        if not stepped:
            if cur < trace[0]:  # at the least-squares floor
                break
            if rejected >= 10:
                raise DivergedLoss("loss failed to decrease over 10 consecutive damped steps")
            raise JacobianSingular("damping exceeded 1e8 without progress")
        if float(np.linalg.norm(delta)) < 1e-13 * (1 + float(np.linalg.norm(p))):
            break
    return RecoveryResult(tuple(p), cur, it, cur < 1e-10,
                          loss_trace=tuple(trace))


def distinguishability(V1: Potential, V2: Potential, k_grid) -> float:
    """Max pointwise gap of the two scattering determinants over the grid."""
    _require_shared_right(V1, V2)
    k = np.asarray(k_grid, dtype=float)
    return float(np.max(np.abs(det_s(V1, k) - det_s(V2, k))))


@dataclass(frozen=True)
class UniquenessReport:
    distinguishability: float
    sup_xhat_gap: float
    sup_yhat_gap: float
    resonance_hausdorff: float
    identical_left: bool
    implication_pass: bool


def _hausdorff(z1, z2):
    if len(z1) == 0 and len(z2) == 0:
        return 0.0
    if len(z1) == 0 or len(z2) == 0:
        return float("inf")
    d = np.abs(np.asarray(z1)[:, None] - np.asarray(z2)[None, :])
    return float(max(np.max(np.min(d, axis=1)), np.max(np.min(d, axis=0))))


def uniqueness_report(truth_pair, radius: float) -> UniquenessReport:
    """Measure every distance the uniqueness statement says must co-vanish."""
    V1, V2 = truth_pair
    identical = V1.split_at_zero()[0] == V2.split_at_zero()[0]
    k_std = np.linspace(0.1, 20.0, 201)
    dist = distinguishability(V1, V2, k_std)
    kr = np.linspace(-radius, radius, 401)
    sup_x = float(np.max(np.abs(xhat(V1, kr) - xhat(V2, kr))))
    sup_y = float(np.max(np.abs(yhat(V1, kr) - yhat(V2, kr))))
    h = _hausdorff(resonances(V1, radius).locations,
                   resonances(V2, radius).locations)
    if identical:
        ok = dist < 1e-10 and sup_x < 1e-10 and sup_y < 1e-10 and h < 1e-10
    else:
        ok = dist > 1e-8
    return UniquenessReport(dist, sup_x, sup_y, h, identical, ok)
