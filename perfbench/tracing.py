"""Span tracing of flattop's layers, installed from outside the library.

``install`` wraps every public function of the layer modules and rebinds
the wrapper at every module of the package that binds the function, so
calls made by name from another module (``integrate`` inside
``univariate``, the ``specfun`` helpers inside ``mle``) are traced too.
Nothing under ``src/`` changes; ``uninstall`` restores the originals.

Each call records a span (name, parent span, start, end) in flat arrays
kept in memory; ``Tracer.write`` saves them when the run ends.  Counters
that need a call's arguments or result (quadrature panels, points
evaluated, fit iterations, EM cycles) are taken at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("specfun", "quadrature", "univariate", "flatness", "multivariate",
          "mle", "mixture", "divergence", "data_io", "cli")

_FD = ("specfun.fermi_dirac_complete", "specfun.fermi_dirac_incomplete")
_LOGLIK = ("mle.loglik_al", "mle.loglik_bl", "mle.loglik_cl")
_DERIV = ("mle.grad_al", "mle.grad_bl_flat", "mle.grad_cl", "mle.hess_al")


def _point_count(args, kwargs, name: str) -> int:
    """Size of the points argument (``x`` of cdf, ``v`` of quantile)."""
    return int(np.size(args[1] if len(args) > 1 else kwargs[name]))


def _after_integrate(tracer, outer, args, kwargs, result):
    if outer:
        tracer.counters["quadrature.calls"] += 1
        tracer.counters["quadrature.panels"] += result.subdivisions
        if tracer.active["univariate.cdf"] or tracer.active["univariate.quantile"]:
            tracer.counters["univariate.quad_calls"] += 1


def _after_cdf(tracer, outer, args, kwargs, result):
    if outer:
        tracer.counters["univariate.cdf_points"] += _point_count(args, kwargs, "x")


def _after_quantile(tracer, outer, args, kwargs, result):
    if outer:
        tracer.counters["univariate.quantile_points"] += _point_count(args, kwargs, "v")


def _after_fit(tracer, outer, args, kwargs, result):
    report = result[1]
    tracer.counters["mle.fit_iterations"] += report.iterations
    tracer.counters["mle.not_converged"] += int(not report.converged)


def _after_e_step(tracer, outer, args, kwargs, result):
    tracer.counters["mixture.flagged_points"] += int(result.flagged.size)
    if tracer.active["mixture.gmm_fit"]:
        tracer.counters["mixture.em_cycles"] += 1


def _after_ftm_fit(tracer, outer, args, kwargs, result):
    tracer.counters["mixture.gem_cycles"] += result[1].iterations


_HOOKS = {
    "quadrature.integrate": _after_integrate,
    "univariate.cdf": _after_cdf,
    "univariate.quantile": _after_quantile,
    "mle.fit": _after_fit,
    "mixture.e_step": _after_e_step,
    "mixture.ftm_fit": _after_ftm_fit,
}


class Tracer:
    """In-memory span store plus the counters taken at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.active: Counter = Counter()
        self.counters: Counter = Counter()
        self.inclusive: Counter = Counter()  # outermost-of-its-name time
        self.raised: Counter = Counter()
        self.enabled = False  # spans are recorded only while set
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, qualname: str, fn):
        index = len(self.names)
        self.names.append(qualname)
        after = _HOOKS.get(qualname)
        stack, active = self._stack, self.active
        parent, name, start, end = self.parent, self.name, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            name.append(index)
            start.append(0.0)
            end.append(0.0)
            outer = active[qualname] == 0
            active[qualname] += 1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if outer:
                    self.raised[qualname] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                active[qualname] -= 1
                start[sid] = t0
                end[sid] = t1
                if outer:
                    self.inclusive[qualname] += t1 - t0
            if after is not None:
                after(self, outer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind them at
        every module of the package (and the package itself) that holds
        them."""
        modules = [importlib.import_module(f"flattop.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in [importlib.import_module("flattop")] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    def _arrays(self):
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        return parent, name, dur

    def totals(self) -> dict:
        """Raw sums over every span recorded so far: calls and self time per
        layer and per function, inclusive times and the boundary counters.
        Totals of several tracers add key by key (see ``merge_totals``)."""
        parent, name, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        own = np.bincount(name, weights=self_time, minlength=len(self.names))
        out: dict[str, float] = {"spans": float(dur.size)}
        for i, qualname in enumerate(self.names):
            if calls[i]:
                layer = qualname.split(".", 1)[0]
                out[f"calls:{qualname}"] = out.get(f"calls:{qualname}", 0.0) + float(calls[i])
                out[f"calls:{layer}"] = out.get(f"calls:{layer}", 0.0) + float(calls[i])
                out[f"self:{layer}"] = out.get(f"self:{layer}", 0.0) + float(own[i])
        for key, value in self.inclusive.items():
            out[f"incl:{key}"] = float(value)
        for key, value in self.raised.items():
            out[f"raised:{key}"] = float(value)
        for key, value in self.counters.items():
            out[f"count:{key}"] = float(value)
        return out

    def write(self, path: str) -> None:
        """Save the spans (parent index, name index, start, end)."""
        parent, name, _ = self._arrays()
        np.savez(path, parent=parent, name=name, start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end), names=np.array(self.names, dtype=str))


def merge_totals(parts) -> dict:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0.0) + value
    return out


def layer_metrics(totals: dict, passes: int) -> dict[str, float]:
    """Per-layer metrics from merged totals: counts and times per pass,
    ``quad_calls_per_point`` as a ratio."""
    def g(key: str) -> float:
        return totals.get(key, 0.0) / passes

    points = g("count:univariate.cdf_points") + g("count:univariate.quantile_points")
    return {
        "specfun.fd_calls": sum(g(f"calls:{n}") for n in _FD),
        "specfun.self_s": g("self:specfun"),
        "quadrature.calls": g("count:quadrature.calls"),
        "quadrature.panels": g("count:quadrature.panels"),
        "quadrature.self_s": g("self:quadrature"),
        "quadrature.errors": g("raised:quadrature.integrate"),
        "univariate.make_calls": g("calls:univariate.make"),
        "univariate.make_s": g("incl:univariate.make"),
        "univariate.pdf_s": g("incl:univariate.pdf"),
        "univariate.cdf_points": g("count:univariate.cdf_points"),
        "univariate.cdf_s": g("incl:univariate.cdf"),
        "univariate.quantile_points": g("count:univariate.quantile_points"),
        "univariate.quantile_s": g("incl:univariate.quantile"),
        "univariate.quad_calls_per_point": (g("count:univariate.quad_calls") / points
                                            if points else 0.0),
        "mle.loglik_calls": sum(g(f"calls:{n}") for n in _LOGLIK),
        "mle.deriv_calls": sum(g(f"calls:{n}") for n in _DERIV),
        "mle.self_s": g("self:mle"),
        "mle.fit_iterations": g("count:mle.fit_iterations"),
        "mle.not_converged": g("count:mle.not_converged"),
        "mixture.e_step_calls": g("calls:mixture.e_step"),
        "mixture.e_step_s": g("incl:mixture.e_step"),
        "mixture.m_step_calls": g("calls:mixture.m_step"),
        "mixture.m_step_s": g("incl:mixture.m_step"),
        "mixture.gmm_fit_s": g("incl:mixture.gmm_fit"),
        "mixture.ftm_fit_s": g("incl:mixture.ftm_fit"),
        "mixture.em_cycles": g("count:mixture.em_cycles"),
        "mixture.gem_cycles": g("count:mixture.gem_cycles"),
        "mixture.flagged_points": g("count:mixture.flagged_points"),
        "flatness.calls": g("calls:flatness"),
        "flatness.self_s": g("self:flatness"),
        "multivariate.calls": g("calls:multivariate"),
        "multivariate.self_s": g("self:multivariate"),
        "divergence.calls": g("calls:divergence"),
        "divergence.self_s": g("self:divergence"),
        "data_io.calls": g("calls:data_io"),
        "data_io.self_s": g("self:data_io"),
        "cli.main_self_s": g("self:cli"),
    }


def dump_totals(totals: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(totals, fh, sort_keys=True)
