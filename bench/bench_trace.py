"""Spans around the library's public functions, installed from outside.

A :class:`Tracer` replaces selected module attributes (the names callers
look up at call time, e.g. ``resonances1d.czeros.xhat``) with timing
wrappers, records one span per call in memory, and restores the originals
on :meth:`Tracer.uninstall`.  :func:`layer_metrics` turns the recorded
spans into the per-layer figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

import numpy as np

from bench_stats import self_times


def _k_points(args, kwargs):
    k = kwargs["k"] if "k" in kwargs else args[1]
    return {"points": int(np.size(k))}


def _k_points_band(args, kwargs):
    k = kwargs["k"] if "k" in kwargs else args[1]
    return {"points": int(np.size(k)),
            "imk": float(np.median(np.abs(np.imag(k))))}


def _zero_count(args, kwargs, result):
    return {"zeros": len(result.zeros)}


def _goursat_cells(args, kwargs):
    n = int(kwargs["n_grid"] if "n_grid" in kwargs else args[1])
    n += n % 2
    # the solve marches the full grid and a half-resolution check grid
    return {"cells": (n + 1) ** 2 + (n // 2 + 1) ** 2}


def _lm_result(args, kwargs, result):
    spec = kwargs["spec"] if "spec" in kwargs else args[0]
    return {"iterations": result.iterations,
            "accepted": len(result.loss_trace) - 1,
            "n_params": spec.n_params}


# (module, attribute, span name, info from arguments, info from result, track memory)
_SCATTERING = ("xhat", "det_s", "log_abs_xhat", "sample")
TARGETS = (
    [("resonances1d.scattering", f, "scattering." + f, _k_points, None, False)
     for f in _SCATTERING]
    + [
        ("resonances1d.scattering", "unitary_residual",
         "scattering.unitary_residual", _k_points_band, None, False),
        ("resonances1d.czeros", "xhat", "scattering.xhat", _k_points, None, False),
        ("resonances1d.inverse", "det_s", "scattering.det_s", _k_points, None, False),
        ("resonances1d.czeros", "winding_number", "czeros.winding_number",
         None, None, False),
        ("resonances1d.asymptotics", "winding_number", "czeros.winding_number",
         None, None, False),
        ("resonances1d.czeros", "find_zeros", "czeros.find_zeros",
         None, _zero_count, False),
        ("resonances1d.czeros", "resonances", "czeros.resonances", None, None, False),
        ("resonances1d.czeros", "bound_states", "czeros.bound_states",
         None, None, False),
        ("resonances1d.asymptotics", "cartwright_integral",
         "asymptotics.cartwright_integral", None, None, False),
        ("resonances1d.asymptotics", "indicator_width",
         "asymptotics.indicator_width", None, None, False),
        ("resonances1d.asymptotics", "zero_density", "asymptotics.zero_density",
         None, None, False),
        ("resonances1d.wavekernel", "solve_kernels", "wavekernel.solve_kernels",
         _goursat_cells, None, True),
        ("resonances1d.wavekernel", "kernel_fourier", "wavekernel.kernel_fourier",
         None, None, False),
        ("resonances1d.inverse", "recover_left", "inverse.recover_left",
         None, _lm_result, False),
        ("resonances1d.cli", "main", "cli.main", None, None, False),
        ("resonances1d.potential:Potential", "__post_init__",
         "potential.construct", None, None, False),
    ]
)


def _owner(path):
    mod, _, cls = path.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """In-memory span recorder; one instance per traced phase."""

    def __init__(self, memory=False):
        self.memory = memory  # tracemalloc around targets that ask for it
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.tasks = []
        self.info = {}
        self.raised = set()
        self.task_id = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, arg_info, result_info, track_memory):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tr.names)
            tr.names.append(name)
            tr.parents.append(tr._stack[-1] if tr._stack else None)
            tr.tasks.append(tr.task_id)
            tr.starts.append(0.0)
            tr.ends.append(0.0)
            info = arg_info(args, kwargs) if arg_info else {}
            memory = track_memory and tr.memory
            tr._stack.append(idx)
            if memory:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.raised.add(idx)
                raise
            finally:
                t1 = time.perf_counter()
                if memory:
                    info["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                tr._stack.pop()
                tr.starts[idx], tr.ends[idx] = t0, t1
                if info:
                    tr.info[idx] = info
            if result_info:
                info.update(result_info(args, kwargs, result))
                tr.info[idx] = info
            return result

        return traced

    def peak_alloc_mb(self):
        return max((i["peak_mb"] for i in self.info.values() if "peak_mb" in i),
                   default=0.0)

    def install(self, targets=TARGETS):
        for path, attr, name, arg_info, result_info, memory in targets:
            owner = _owner(path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, arg_info,
                                            result_info, memory))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, n_tasks: int) -> dict:
    """Per-layer figures from one traced phase of ``n_tasks`` tasks.

    Counts and busy times are per task; ``us_per_*``, ``ns_per_*`` and the
    LM figures are ratios over every span of their kind.  A layer the
    workload never reaches reads 0.  Peak allocation comes from a separate
    tracemalloc pass (:meth:`Tracer.peak_alloc_mb`), as tracemalloc slows
    the Goursat march several-fold.
    """
    n = len(tr.names)
    dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
    own = self_times(list(zip(tr.starts, tr.ends, tr.parents)))

    def ancestors(i):
        p = tr.parents[i]
        while p is not None:
            yield p
            p = tr.parents[p]

    anc_names = [{tr.names[p] for p in ancestors(i)} for i in range(n)]
    outer = [tr.names[i] not in anc_names[i] for i in range(n)]
    outer_scat = [tr.names[i].startswith("scattering.")
                  and not any(a.startswith("scattering.") for a in anc_names[i])
                  for i in range(n)]

    def spans(name):
        return [i for i in range(n) if tr.names[i] == name and outer[i]]

    def busy(idx):
        return sum(dur[i] for i in idx)

    def info_sum(idx, key):
        return sum(tr.info.get(i, {}).get(key, 0) for i in idx)

    per = 1.0 / n_tasks
    m = {}

    built = spans("potential.construct")
    m["potential.construct_us"] = _ratio(busy(built), len(built)) * 1e6

    fwd = [i for i in range(n)
           if outer_scat[i] and tr.names[i] != "scattering.unitary_residual"]
    one = [i for i in fwd if tr.info[i]["points"] == 1]
    big = [i for i in fwd if tr.info[i]["points"] >= 64]
    m["scattering.points"] = info_sum(fwd, "points") * per
    m["scattering.calls_1pt"] = len(one) * per
    m["scattering.us_per_call_1pt"] = _ratio(busy(one), len(one)) * 1e6
    m["scattering.us_per_point_batched"] = _ratio(
        busy(big), info_sum(big, "points")) * 1e6
    # direct calls only: sample() also calls it, one real k at a time
    ladder = [i for i in spans("scattering.unitary_residual") if outer_scat[i]]
    for band, lo, hi in (("lo", 0.0, 1.0), ("mid", 1.0, 3.0), ("hi", 3.0, np.inf)):
        sel = [i for i in ladder if lo <= tr.info[i]["imk"] < hi]
        m["scattering.ladder.us_per_point." + band] = _ratio(
            busy(sel), info_sum(sel, "points")) * 1e6

    wn = spans("czeros.winding_number")
    m["czeros.winding_number.calls"] = len(wn) * per
    m["czeros.winding_number.failed"] = sum(i in tr.raised for i in wn) * per
    m["czeros.winding_number.busy_s"] = busy(wn) * per
    fz = spans("czeros.find_zeros")
    zeros = info_sum(fz, "zeros")
    m["czeros.find_zeros.self_s"] = sum(own[i] for i in fz) * per
    m["czeros.zeros_found"] = zeros * per
    under_cz = [i for i in range(n) if outer_scat[i]
                and any(a.startswith("czeros.") for a in anc_names[i])]
    m["czeros.points_per_zero"] = _ratio(info_sum(under_cz, "points"), zeros)

    cart = spans("asymptotics.cartwright_integral")
    m["asymptotics.cartwright_integral.busy_s"] = busy(cart) * per
    m["asymptotics.cartwright_integral.points"] = info_sum(
        [i for i in range(n) if outer_scat[i]
         and "asymptotics.cartwright_integral" in anc_names[i]], "points") * per
    m["asymptotics.zero_density.busy_s"] = busy(spans("asymptotics.zero_density")) * per

    sk = spans("wavekernel.solve_kernels")
    m["wavekernel.solve_kernels.busy_s"] = busy(sk) * per
    m["wavekernel.ns_per_cell"] = _ratio(busy(sk), info_sum(sk, "cells")) * 1e9
    m["wavekernel.kernel_fourier.busy_s"] = busy(spans("wavekernel.kernel_fourier")) * per

    lm = [i for i in spans("inverse.recover_left") if i not in tr.raised]
    iters = info_sum(lm, "iterations")
    accepted = info_sum(lm, "accepted")
    evals = sum(1 for i in range(n) if tr.names[i] == "scattering.det_s"
                and "inverse.recover_left" in anc_names[i])
    # every LM iteration that builds a Jacobian (n_params evaluations) ends
    # in exactly one accepted step; the remaining evaluations after the
    # initial one are trial steps
    jac = sum(tr.info[i]["accepted"] * tr.info[i]["n_params"] for i in lm)
    trials = evals - len(lm) - jac
    m["inverse.lm_iterations"] = _ratio(iters, len(lm))
    m["inverse.s_per_iteration"] = _ratio(busy(lm), iters)
    m["inverse.residual_evals"] = _ratio(evals, len(lm))
    m["inverse.accepted_step_ratio"] = _ratio(accepted, trials)

    m["cli.self_s"] = sum(own[i] for i in spans("cli.main")) * per
    return m
