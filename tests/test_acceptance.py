"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single machine-greppable PASS/FAIL line before its
assertions so the whole gate can be read off a plain pytest -s run.
"""

import math
import time
import warnings

import numpy as np
import pytest

from resonances1d.asymptotics import (
    blaschke_chi,
    indicator_estimate,
    indicator_width,
    nevanlinna_residual,
    zero_density,
)
from resonances1d.czeros import (
    Rect,
    bound_states,
    find_zeros,
    resonances,
    winding_number,
)
from resonances1d.errors import LowCountWarning
from resonances1d.inverse import (
    distinguishability,
    recover_left,
    synthesize_data,
)
from resonances1d.potential import Fragment, make_piecewise, square_well
from resonances1d.scattering import (
    log_abs_xhat,
    log_abs_yhat,
    unitary_residual,
    xhat,
    yhat,
)
from resonances1d.wavekernel import (
    Window,
    domain_of_influence_check,
    kernel_fourier,
    solve_kernels,
)

from conftest import make_zero_potential, mirror_defect


def _report(n, ok, detail):
    print("ACCEPTANCE %d: %s  (%s)" % (n, "PASS" if ok else "FAIL", detail))


def _random_potential(rng):
    n = int(rng.integers(1, 9))
    a = float(rng.uniform(-1.5, -0.2))
    b = float(rng.uniform(0.2, 1.5))
    bp = np.sort(np.concatenate([[a, b], rng.uniform(a, b, n - 1)]))
    vals = rng.uniform(-5.0, 5.0, n)
    return make_piecewise(bp, vals)


def test_acceptance_01_unitary_identity(rng):
    t0 = time.time()
    kk = np.linspace(-20, 20, 41)[None, :] + 1j * np.linspace(-5, 5, 41)[:, None]
    worst = 0.0
    for _ in range(10):
        V = _random_potential(rng)
        worst = max(worst, float(np.max(unitary_residual(V, kk))))
    elapsed = time.time() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    _report(1, ok, "max residual %.3g, %.1f s" % (worst, elapsed))
    assert worst < 1e-8
    assert elapsed < 10.0


def test_acceptance_02_free_case(rng, zero_potential):
    ks = rng.uniform(-5, 5, 100) + 1j * rng.uniform(-1, 1, 100)
    ex = float(np.max(np.abs(xhat(zero_potential, ks) - 1j * ks)))
    ey = float(np.max(np.abs(yhat(zero_potential, ks))))
    ok = ex < 1e-12 and ey < 1e-12
    _report(2, ok, "|xhat - ik| %.3g, |yhat| %.3g" % (ex, ey))
    assert ex < 1e-12 and ey < 1e-12


def test_acceptance_03_cross_oracle():
    t0 = time.time()
    V = square_well(-4.0, -1.0, 1.0)
    ks = np.linspace(-10, 10, 81) + 0j
    ref = xhat(V, ks)
    errs = {}
    for n in (512, 1024, 2048):
        field = solve_kernels(V, n)
        out = kernel_fourier(field, Window.X_FULL, ks)
        errs[n] = float(np.max(np.abs(out - ref)))
    rel = errs[2048] / float(np.max(np.abs(ref)))
    order = min(
        math.log2(errs[512] / errs[1024]), math.log2(errs[1024] / errs[2048])
    )
    elapsed = time.time() - t0
    ok = rel < 1e-3 and order >= 1.8 and elapsed < 60.0
    _report(3, ok, "rel err %.3g, order %.2f, %.1f s" % (rel, order, elapsed))
    assert rel < 1e-3
    assert order >= 1.8
    assert elapsed < 60.0


def test_acceptance_04_bound_states():
    from test_czeros import _shooting_eigenvalues

    worst = 0.0
    for depth in (-4.0, -100.0):
        V = square_well(depth, -1.0, 1.0)
        _, energies = bound_states(V)
        oracle = _shooting_eigenvalues(V, n_grid=400)
        assert len(energies) == len(oracle)
        worst = max(
            worst,
            max(abs(e - o) for e, o in zip(sorted(energies), sorted(oracle))),
        )
    ok = worst < 1e-8
    _report(4, ok, "max |E - E_shooting| %.3g over depths -4, -100" % worst)
    assert worst < 1e-8


def test_acceptance_05_resonance_density():
    t0 = time.time()
    V = square_well(-4.0, -1.0, 1.0)
    zs = resonances(V, 40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowCountWarning)
        right = zero_density(zs, (-0.6, -1e-9))
        left = zero_density(zs, (-np.pi + 1e-9, -np.pi + 0.6))
        trans = zero_density(zs, (-2.2, -0.9))
    target = 2.0 / np.pi
    elapsed = time.time() - t0
    ok = (
        abs(right.delta - target) < 0.10 * target
        and abs(left.delta - target) < 0.10 * target
        and trans.delta < 0.05 * target
        and elapsed < 300.0
    )
    _report(
        5,
        ok,
        "deltas right %.4f left %.4f transverse %.4f vs 2/pi %.4f, %.1f s"
        % (right.delta, left.delta, trans.delta, target, elapsed),
    )
    assert abs(right.delta - target) < 0.10 * target
    assert abs(left.delta - target) < 0.10 * target
    assert trans.delta < 0.05 * target
    assert elapsed < 300.0


def test_acceptance_06_indicator_width():
    rels = []
    for v, a, b in ((-4.0, -1.0, 1.0), (-2.5, -0.7, 1.3), (-6.0, -1.8, 0.4)):
        V = square_well(v, a, b)
        w = indicator_width(lambda k: log_abs_xhat(V, k), 40.0)
        rels.append(abs(w - 2 * (b - a)) / (2 * (b - a)))
    V = square_well(-4.0, -1.0, 1.0)
    field = solve_kernels(V, 1024)
    r = 0.5
    x2 = lambda k: kernel_fourier(field, Window.X2, np.asarray(k, dtype=complex), r=r)
    w2 = indicator_width(lambda k: np.log(np.abs(x2(k))), 100.0)
    rel2 = abs(w2 - 2 * r) / (2 * r)
    ok = max(rels) < 0.05 and rel2 < 0.05
    _report(
        6,
        ok,
        "full-width rel errs %s, X2 width %.4f vs 2r=%.1f"
        % (["%.3f" % e for e in rels], w2, 2 * r),
    )
    assert max(rels) < 0.05
    assert rel2 < 0.05


def test_acceptance_07_domain_of_influence():
    V1 = make_piecewise([-1.0, 0.0, 1.0], [-1.5, -2.0])
    V2 = make_piecewise([-1.0, 0.0, 1.0], [-1.0, -2.0])
    rep = domain_of_influence_check(V1, V2, 0.1, 1024)
    # "order one" for the outer windows: far above the truncation scale
    ok = (
        rep.window_diffs["X1"] > 0.1
        and rep.window_diffs["X3"] > 100 * rep.truncation_error
        and rep.x2_pass
        and rep.y2_pass
    )
    _report(
        7,
        ok,
        "X1 %.3g X3 %.3g X2 %.3g Y2 %.3g vs 10x trunc %.3g"
        % (
            rep.window_diffs["X1"],
            rep.window_diffs["X3"],
            rep.window_diffs["X2"],
            rep.window_diffs["Y2"],
            10 * rep.truncation_error,
        ),
    )
    assert rep.window_diffs["X1"] > 0.1
    assert rep.window_diffs["X3"] > 100 * rep.truncation_error
    assert rep.x2_pass, (
        "X2 differs by %.3g, above 10x truncation %.3g"
        % (rep.window_diffs["X2"], 10 * rep.truncation_error)
    )
    assert rep.y2_pass


def test_acceptance_08_nevanlinna_residual():
    V = square_well(-1.0, -0.5, 0.5)
    sigma = indicator_estimate(lambda k: log_abs_yhat(V, k), np.pi / 2, 60.0).h
    resid, _ = nevanlinna_residual(lambda k: yhat(V, k), sigma, 2j, 200.0)
    ok = resid < 0.05
    _report(8, ok, "residual %.4f at z=2i, sigma+ %.4f" % (resid, sigma))
    assert resid < 0.05


def test_acceptance_09_blaschke_modulus(rng):
    worst = 0.0
    for _ in range(5):
        a = rng.uniform(-3, 3, 20) + 1j * rng.uniform(0.05, 3.0, 20)
        x = rng.uniform(-30, 30, 100)
        worst = max(worst, float(np.max(np.abs(np.abs(blaschke_chi(a, x)) - 1.0))))
    ok = worst < 1e-10
    _report(9, ok, "max | |chi(x)| - 1 | = %.3g" % worst)
    assert worst < 1e-10


def test_acceptance_10_uniqueness_experiment():
    t0 = time.time()
    k = np.linspace(0.1, 15.0, 101)
    right = Fragment((0.0, 0.5, 1.0), (-2.0, 1.5))

    def truth(left):
        n = len(left)
        bp = list(np.linspace(-1.0, 0.0, n + 1)) + [0.5, 1.0]
        return make_piecewise(bp, list(left) + [-2.0, 1.5])

    V = truth([-3.0, 1.0])
    d_same = distinguishability(V, V, k)
    d_diff = distinguishability(V, truth([-2.9, 1.0]), k)
    # integral-preserving perturbation of the left part
    d_zero_mean = distinguishability(V, truth([-1.0, -1.0]), k)

    l2s = []
    for left in ([-3.0, 1.0], [-2.5, 0.8, -1.2, 2.0]):
        spec = synthesize_data(
            right, -1.0, len(left), truth(left), np.linspace(0.3, 12.0, 40)
        )
        res = recover_left(spec, np.zeros(len(left)))
        l2s.append(
            float(np.linalg.norm(np.asarray(res.recovered_left) - np.asarray(left)))
        )
    elapsed = time.time() - t0
    ok = (
        d_same < 1e-12
        and d_diff > 1e-7
        and d_zero_mean > 1e-7
        and max(l2s) < 1e-5
        and elapsed < 120.0
    )
    _report(
        10,
        ok,
        "same %.3g, diff %.3g, zero-mean %.3g, recovery l2 %s, %.1f s"
        % (d_same, d_diff, d_zero_mean, ["%.2g" % e for e in l2s], elapsed),
    )
    assert d_same < 1e-12
    assert d_diff > 1e-7
    assert d_zero_mean > 1e-7
    assert max(l2s) < 1e-5
    assert elapsed < 120.0


def test_acceptance_11_count_reconciliation():
    wells = (
        square_well(-4.0, -1.0, 1.0),
        make_piecewise([-1.0, -0.2, 0.8], [2.5, -3.5]),
    )
    rects = (
        Rect(complex(-10.1, -4.1), complex(10.3, -0.05)),
        Rect(complex(-5.2, -3.1), complex(5.4, -0.03)),
    )
    recon_ok = True
    for V in wells:
        f = lambda k: xhat(V, k)
        for rect in rects:
            total = winding_number(f, rect)
            zs = find_zeros(f, rect, max_zeros=100)
            recon_ok = recon_ok and zs.total_multiplicity() == total
    # the search mirrors its zeros right of the imaginary axis, so the
    # symmetry defect is measured against an unmirrored search of the left half
    defect = max(mirror_defect(lambda k: xhat(V, k), resonances(V, 12.0), 12.0) for V in wells)
    ok = recon_ok and defect < 1e-8
    _report(11, ok, "counts reconciled %s, symmetry defect %.3g" % (recon_ok, defect))
    assert recon_ok
    assert defect < 1e-8
