"""Batch command-line front end.

Each subcommand loads potentials from JSON, runs one library pipeline, and
writes its outputs atomically (temp file + rename).  Exit status: 0 on
success/PASS, 2 when a numerical check fails its threshold, 1 on malformed
input (bad flags, missing or malformed files, a pair that differs on [0, b]).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
import warnings

import numpy as np

from . import asymptotics, czeros, inverse, plots, scattering, wavekernel
from .errors import InputError, LowCountWarning, Resonances1DError, UsageError
from .potential import Potential

PASS_EXIT, USAGE_EXIT, FAIL_EXIT = 0, 1, 2


# ---------------------------------------------------------------------------
# atomic output helpers


def _atomic_write(path, chunks):
    """Write the str chunks to path atomically (temp file + rename), with no
    newline translation; on any error neither path nor the temp file stays."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_json(path, obj):
    _atomic_write(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def _atomic_csv(path, header, *columns):
    """The header, then one row per entry of the columns, in csv.writer's
    bytes: str of each value (repr of a float) and CRLF line ends.  Each
    column is formatted whole by map(str), then the rows joined."""
    rows = map(",".join, zip(*(map(str, col) for col in columns)))
    _atomic_write(path, ["\r\n".join([",".join(header), *rows, ""])])


def _emit_json(path, obj):
    """Write obj to path atomically, or print it when no path is given."""
    if path:
        _atomic_json(path, obj)
    else:
        print(json.dumps(obj, indent=2, sort_keys=True))


def _load(path, cls=Potential):
    """A cls read from its JSON file; a missing file, content that does not
    parse, or content it cannot build from is a UsageError."""
    if not os.path.exists(path):
        raise UsageError("no such file: %s" % path)
    try:
        with open(path) as fh:
            return cls.from_json(json.load(fh))
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError, InputError too
        raise UsageError("malformed %s file %s: %s" % (cls.__name__, path, exc))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_scattering_grid(args):
    if args.svg and args.k_min == args.k_max:
        raise UsageError("--svg needs a k range: --k-min and --k-max are both %r"
                         % args.k_min)
    V = _load(args.potential)
    s = scattering.sample(V, np.linspace(args.k_min, args.k_max, args.n))
    _atomic_csv(args.out, ["k_re", "k_im", "xhat_re", "xhat_im", "yhat_re", "yhat_im",
                           "dets_re", "dets_im", "residual_U"],
                *(part(c).tolist() for c in (s.k, s.xhat, s.yhat, s.det_s)
                  for part in (np.real, np.imag)), s.residual_u.tolist())
    if args.svg:
        grid_r = np.linspace(args.k_min, args.k_max, 160)
        grid_i = np.linspace(-4.0, 4.0, 120)
        K = grid_r[None, :] + 1j * grid_i[:, None]
        logx = scattering.log_abs_xhat(V, K)
        _atomic_write(args.svg, plots.heatmap_svg(
            logx, (args.k_min, args.k_max, -4.0, 4.0), title="log|xhat(k)|"))
    return PASS_EXIT


def _cmd_kernels(args):
    V = _load(args.potential)
    f = wavekernel.solve_kernels(V, args.ngrid)
    _atomic_csv(args.out, ["grid", "coordinate", "value"],
                ["X"] * len(f.x_grid) + ["Y"] * len(f.y_grid),
                f.x_grid.tolist() + f.y_grid.tolist(), f.X_reg.tolist() + f.Y_reg.tolist())
    return PASS_EXIT


def _zeros_json(zs):
    """The report of a ZeroSet of xhat."""
    return {"function": "xhat",
            "zeros": [{"re": z.location.real, "im": z.location.imag,
                       "mult": z.multiplicity, "residual": z.refined_residual,
                       "converged": z.converged} for z in zs.zeros]}


def _cmd_resonances(args):
    V = _load(args.potential)
    zs = czeros.resonances(V, args.radius)
    _atomic_json(args.out, {**_zeros_json(zs), "radius": args.radius})
    if args.svg:
        _atomic_write(args.svg, plots.zero_scatter_svg(zs.locations, title="resonances"))
    return PASS_EXIT


def _cmd_bound_states(args):
    V = _load(args.potential)
    zs, energies = czeros.bound_states(V)
    _atomic_json(args.out, {**_zeros_json(zs), "energies": energies})
    return PASS_EXIT


def _cmd_density(args):
    sector = (args.alpha, args.beta)
    if args.alpha >= args.beta:
        raise UsageError("empty sector: --alpha %r is not below --beta %r" % sector)
    V = _load(args.potential)
    zs = czeros.resonances(V, args.radius)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowCountWarning)
        rep = asymptotics.zero_density(zs, sector)
    out = {
        "sector": list(rep.sector),
        "delta": rep.delta,
        "width_d": rep.width_d,
        "fit_residual": rep.fit_residual,
        "n_in_sector": rep.n_in_sector,
    }
    _atomic_json(args.out, out)
    if args.csv:
        _atomic_csv(args.csv, ["r", "n"], rep.radii, rep.counts)
    if args.svg:
        _atomic_write(args.svg, plots.density_fit_svg(
            rep.radii, rep.counts, rep.delta, title="n(r) and fitted slope"))
    return PASS_EXIT


def _cmd_indicator(args):
    V = _load(args.potential)
    f = lambda k: scattering.log_abs_xhat(V, k)
    reps = [asymptotics.indicator_estimate(f, th, args.r_max)
            for th in np.linspace(-np.pi, np.pi, args.n_theta)]
    cols = ["theta", "h", "fit_residual"]
    _atomic_csv(args.out, cols, *([getattr(r, c) for r in reps] for c in cols))
    width = asymptotics.indicator_width(f, args.r_max)
    if args.report:
        _atomic_json(
            args.report,
            {"width": width, "expected_width": 2 * (V.b - V.a),
             "r_max": args.r_max},
        )
    return PASS_EXIT


def _cmd_cartwright_check(args):
    V = _load(args.potential)
    f = lambda k: scattering.log_abs_xhat(V, k)
    cart = asymptotics.cartwright_integral(f, args.radius)
    width = asymptotics.indicator_width(f, args.radius)
    zs = czeros.resonances(V, args.radius)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LowCountWarning)
        left = asymptotics.zero_density(zs, (-np.pi + 1e-9, -np.pi + 0.6))
        right = asymptotics.zero_density(zs, (-0.6, -1e-9))
    target = width / (2 * np.pi)
    ok = (
        cart.converged
        and abs(left.delta - target) <= 0.10 * target
        and abs(right.delta - target) <= 0.10 * target
    )
    report = {
        "cartwright_value": float(cart),
        "tail_converged": cart.converged,
        "indicator_width": width,
        "density_left_sector": left.delta,
        "density_right_sector": right.delta,
        "target_d_over_2pi": target,
        "pass": bool(ok),
    }
    _emit_json(args.out, report)
    return PASS_EXIT if ok else FAIL_EXIT


def _cmd_nevanlinna_check(args):
    """The residual of yhat at z, with sigma+ from its indicator at r_max 40 and
    the upper zeros nevanlinna_residual finds, counted by multiplicity."""
    V = _load(args.potential)
    sigma = asymptotics.indicator_estimate(lambda k: scattering.log_abs_yhat(V, k),
                                           np.pi / 2, 40.0).h
    resid, upper = asymptotics.nevanlinna_residual(
        lambda k: scattering.yhat(V, k), sigma, complex(args.z_re, args.z_im), args.cutoff
    )
    report = {
        "residual": resid,
        "sigma_plus": sigma,
        "n_upper_zeros": upper.total_multiplicity(),
        "z": [args.z_re, args.z_im],
        "pass": bool(resid < 0.05),
    }
    _emit_json(args.out, report)
    return PASS_EXIT if resid < 0.05 else FAIL_EXIT


def _cmd_g_experiment(args):
    V1 = _load(args.potential1)
    V2 = _load(args.potential2)
    rep = asymptotics.g_function_experiment(
        V1, V2, args.radius, r_window=args.r_window, n_grid=args.ngrid
    )
    _atomic_json(args.out, dataclasses.asdict(rep))
    return PASS_EXIT


def _cmd_distinguish(args):
    V1 = _load(args.potential1)
    V2 = _load(args.potential2)
    rep = inverse.uniqueness_report((V1, V2), args.radius)
    _emit_json(args.out, dataclasses.asdict(rep))
    return PASS_EXIT if rep.implication_pass else FAIL_EXIT


def _cmd_inverse_recover(args):
    spec = _load(args.spec, inverse.InverseProblemSpec)
    rng = np.random.default_rng(args.seed)
    if args.init == "zeros":
        init = np.zeros(spec.n_params)
    else:
        init = rng.uniform(-1.0, 1.0, spec.n_params)
    result = inverse.recover_left(spec, init, max_iter=args.max_iter)
    out = dataclasses.asdict(result)
    trace = out.pop("loss_trace")
    if args.truth:
        edges = np.linspace(spec.a, 0.0, spec.n_params + 1)
        tv = _load(args.truth).value_at((edges[:-1] + edges[1:]) / 2)
        err = np.linalg.norm(np.asarray(result.recovered_left) - tv)
        out["l2_error_vs_truth"] = float(err)
    _atomic_json(args.out, out)
    if args.trace:
        _atomic_csv(args.trace, ["iteration", "loss"], range(len(trace)), trace)
    return PASS_EXIT if result.converged else FAIL_EXIT


# ---------------------------------------------------------------------------
# argument parsing


def _flag(convert, test, what):
    """An argparse type: convert(text) if it passes test, else a usage error."""
    def number(text):  # argparse names it in "invalid number value: 'abc'"
        if not test(x := convert(text)):
            raise argparse.ArgumentTypeError("%r is not %s" % (text, what))
        return x
    return number


_FINITE = _flag(float, np.isfinite, "a finite number")
_POSITIVE = _flag(float, lambda x: 0 < x < np.inf, "a finite number > 0")
_COUNT = _flag(int, lambda n: n >= 1, "an integer >= 1")
_NGRID = _flag(int, lambda n: n >= wavekernel._MIN_GRID,
               "an integer >= %d" % wavekernel._MIN_GRID)


@functools.cache  # built once per process; parsing does not change it
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="resonances1d",
        description="Resonant-scattering toolbox for piecewise-constant 1D potentials",
    )
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for any randomized initialization")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scattering-grid", help="sample scattering functions on a real k grid")
    p.add_argument("--potential", required=True)
    p.add_argument("--k-min", type=_FINITE, default=-10.0)
    p.add_argument("--k-max", type=_FINITE, default=10.0)
    p.add_argument("--n", type=_COUNT, default=201)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_scattering_grid)

    p = sub.add_parser("kernels", help="solve the characteristic kernels")
    p.add_argument("--potential", required=True)
    p.add_argument("--ngrid", type=_NGRID, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("resonances", help="zeros of xhat in the lower half-plane")
    p.add_argument("--potential", required=True)
    p.add_argument("--radius", type=_POSITIVE, default=30.0)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_resonances)

    p = sub.add_parser("bound-states", help="zeros of xhat in the upper half-plane")
    p.add_argument("--potential", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bound_states)

    p = sub.add_parser("density", help="sectorial zero-density fit")
    p.add_argument("--potential", required=True)
    p.add_argument("--radius", type=_POSITIVE, default=40.0)
    p.add_argument("--alpha", type=_FINITE, default=-np.pi + 1e-9)
    p.add_argument("--beta", type=_FINITE, default=-1e-9)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("indicator", help="indicator-function sweep for xhat")
    p.add_argument("--potential", required=True)
    p.add_argument("--r-max", type=_POSITIVE, default=40.0)
    p.add_argument("--n-theta", type=_COUNT, default=25)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_indicator)

    p = sub.add_parser("cartwright-check",
                       help="log-plus integrability and density vs d/(2 pi)")
    p.add_argument("--potential", required=True)
    p.add_argument("--radius", type=_POSITIVE, default=40.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_cartwright_check)

    p = sub.add_parser("nevanlinna-check",
                       help="Poisson-representation residual for yhat")
    p.add_argument("--potential", required=True)
    p.add_argument("--z-re", type=_FINITE, default=0.0)
    p.add_argument("--z-im", type=_POSITIVE, default=2.0)
    p.add_argument("--cutoff", type=_POSITIVE, default=200.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_nevanlinna_check)

    p = sub.add_parser("g-experiment",
                       help="windowed-difference function of a glued pair")
    p.add_argument("--potential1", required=True)
    p.add_argument("--potential2", required=True)
    p.add_argument("--radius", type=_POSITIVE, default=12.0)
    p.add_argument("--r-window", type=_POSITIVE, default=None)
    p.add_argument("--ngrid", type=_NGRID, default=1024)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_g_experiment)

    p = sub.add_parser("distinguish", help="uniqueness-experiment report for a pair")
    p.add_argument("--potential1", required=True)
    p.add_argument("--potential2", required=True)
    p.add_argument("--radius", type=_POSITIVE, default=20.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_distinguish)

    p = sub.add_parser("inverse-recover", help="fit the left cells to det S data")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--init", choices=["zeros", "random"], default="zeros")
    p.add_argument("--max-iter", type=_COUNT, default=100)
    p.add_argument("--truth", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=_cmd_inverse_recover)
    return ap


def main(argv=None):
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return USAGE_EXIT
    except Resonances1DError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return FAIL_EXIT


if __name__ == "__main__":
    sys.exit(main())
