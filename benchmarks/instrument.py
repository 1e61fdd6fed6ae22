"""Outside-in instrumentation of ``misspec_krige`` for the traced run.

Nothing under ``src/`` is edited.  Each public entry point of a layer is
wrapped by replacing a module or class attribute; because ``ratios``,
``harness`` and ``cli`` bind functions such as ``build_gram`` or
``assumption_report`` by name, a wrapper is installed in every
``misspec_krige`` module namespace that holds the original object.  The
level pool's executor is replaced in ``ratios`` by one that opens a
``ratios.level`` span around each level on its worker thread.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from spans import Recorder, SpanTree
from workloads import SCENARIOS


def _array_key(a) -> tuple:
    a = np.ascontiguousarray(a)
    return a.shape, a.dtype.str, hashlib.blake2b(a.tobytes(), digest_size=16).digest()


def _kernel_key(kernel) -> tuple:
    try:
        return type(kernel).__name__, hash(kernel)
    except TypeError:
        return type(kernel).__name__, id(kernel)


class Instrumentation:
    """Installs the span wrappers into the library; ``uninstall`` restores it."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.excluded_targets = 0
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name == "misspec_krige" or name.startswith("misspec_krige."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, replacement)

    def _wrap(self, fn, name: str, *, scope=False, anchor=False, before=None, after=None):
        """``before(args, kwargs)`` gives attributes measured before the span
        opens; ``after(span, args, result)`` adds attributes after it closes."""
        recorder = self.recorder

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before else None
            span = recorder.open(name, scope=scope, anchor=anchor, attrs=attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if after:
                after(span, args, result)
            return result
        return wrapper

    def _function(self, module, attr: str, name: str, **kwargs) -> None:
        original = getattr(module, attr)
        self._replace_everywhere(original, self._wrap(original, name, **kwargs))

    def _method(self, cls, attr: str, name: str, **kwargs) -> None:
        self._patch(cls, attr, self._wrap(cls.__dict__[attr], name, **kwargs))

    def install(self) -> None:
        from misspec_krige import cli, diagnostics, harness, kernels, kriging, ratios

        concrete = {cls for cls in vars(kernels).values()
                    if isinstance(cls, type) and issubclass(cls, kernels.CovarianceKernel)
                    and not inspect.isabstract(cls) and "gram" in cls.__dict__}
        for cls in sorted(concrete, key=lambda c: c.__name__):
            family = cls.__module__.rsplit(".", 1)[-1]
            self._method(cls, "gram", "kernels.gram",
                         before=lambda a, kw, family=family: {
                             "family": family, "key": self._gram_key(a, kw)},
                         after=lambda s, a, r: s.attrs.update(entries=int(r.size)))

        self._function(kriging, "build_gram", "kriging.factor",
                       before=lambda a, kw: {"key": (_kernel_key(a[1]),
                                                     _array_key(a[0].sites))},
                       after=lambda s, a, r: s.attrs.update(n=r.n, jittered=r.jitter > 0))
        self._method(kriging.GramFactor, "solve", "kriging.solve",
                     before=lambda a, kw: {"rhs": 1 if np.ndim(a[1]) == 1
                                           else int(np.shape(a[1])[1])})
        self._function(kriging, "kriging_predictor", "kriging.predictor")
        self._function(kriging, "_moments_from_pieces", "kriging.moments",
                       before=lambda a, kw: {"size": len(a[0].weights) + len(a[1].coeffs)})

        self._function(ratios, "ratio_convergence", "ratios.convergence", anchor=True,
                       after=lambda s, a, r: s.attrs.update(records=len(r.records)))
        self._function(ratios, "efficiency_ratios", "ratios.efficiency")
        self._function(ratios, "mean_term", "ratios.mean_term")
        self._patch(ratios, "ThreadPoolExecutor", self._level_executor())
        self._patch(ratios, "warnings", _CountingWarnings(ratios.warnings, self._on_warning))

        self._function(diagnostics, "assumption_report", "diagnostics.report")
        self._function(diagnostics, "spectral_ratio_limit", "diagnostics.spectral")
        self._function(diagnostics, "spectral_equivalence_bounds", "diagnostics.spectral")
        self._function(diagnostics, "eigen_ratio_limit", "diagnostics.eigen")
        self._function(diagnostics, "nystrom_eigen", "diagnostics.nystrom",
                       before=lambda a, kw: {"key": (_kernel_key(a[0]), _array_key(a[1]),
                                                     _array_key(a[2]))})
        self._function(diagnostics, "t_a_tail_spectrum", "diagnostics.tail")
        self._function(diagnostics, "_mean_route", "diagnostics.mean_probe")

        self._function(harness, "generate_design", "harness.design",
                       after=lambda s, a, r: s.attrs.update(sites=r.n))
        self._function(harness, "run_scenario", "harness.run_scenario",
                       before=lambda a, kw: {"scenario": a[0].name})

        for attr in ("table_to_csv", "_json_dumps"):
            self._function(cli, attr, "cli.serialize",
                           after=lambda s, a, r: s.attrs.update(bytes=len(r.encode())))
        self._function(cli, "main", "cli.main", scope=True)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _gram_key(args, kwargs) -> tuple:
        kernel, x = args[0], args[1]
        y = args[2] if len(args) > 2 else kwargs.get("y")
        return (_kernel_key(kernel), _array_key(x),
                None if y is None else _array_key(y))

    def _level_executor(self):
        wrap = self._wrap

        class LevelSpanExecutor(ThreadPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                return super().map(wrap(fn, "ratios.level", scope=True),
                                   *iterables, **kwargs)
        return LevelSpanExecutor

    def _on_warning(self, message) -> None:
        text = str(message)
        if text.startswith("target ") and " excluded" in text:
            with self._lock:
                self.excluded_targets += 1


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside ``ratios``."""

    def __init__(self, module, on_warning):
        self._module = module
        self._on_warning = on_warning

    def __getattr__(self, name):
        return getattr(self._module, name)

    def warn(self, message, *args, **kwargs):
        self._on_warning(message)
        kwargs["stacklevel"] = kwargs.get("stacklevel", 1) + 1
        return self._module.warn(message, *args, **kwargs)


def _unique_frac(spans) -> float:
    """Distinct requests over all requests, counted within each scope; 1 when
    there were none."""
    if not spans:
        return 1.0
    return len({(s.scope, s.attrs["key"]) for s in spans}) / len(spans)


def layer_metrics(spans, iterations: int, excluded_targets: int) -> dict[str, float]:
    """Per-iteration per-layer metrics from the spans of ``iterations`` traced
    iterations."""
    tree = SpanTree(spans)
    top = tree.outermost

    def total(name, pick=lambda s: True):
        return sum(s.duration for s in top(name) if pick(s))

    grams = top("kernels.gram")
    factors = top("kriging.factor")
    levels = top("ratios.level")
    reports = top("diagnostics.report")
    nystrom = top("diagnostics.nystrom")
    convergence_s = total("ratios.convergence")
    m = {
        "kernels.gram_calls": len(grams),
        "kernels.gram_entries": sum(s.attrs.get("entries", 0) for s in grams),
        "kernels.gram_s": total("kernels.gram"),
        "kernels.gram_unique_frac": _unique_frac(grams),
        "kriging.factor_calls": len(factors),
        "kriging.factor_s": sum(tree.self_time(s) for s in factors),
        "kriging.factor_unique_frac": _unique_frac(factors),
        "kriging.factor_jittered": sum(bool(s.attrs.get("jittered")) for s in factors),
        "kriging.factor_flops_computed": sum(s.attrs.get("n", 0) ** 3 / 3.0 for s in factors),
        "kriging.solve_calls": len(top("kriging.solve")),
        "kriging.solve_rhs": sum(s.attrs["rhs"] for s in top("kriging.solve")),
        "kriging.solve_s": total("kriging.solve"),
        "kriging.predictor_calls": len(top("kriging.predictor")),
        "kriging.predictor_s": total("kriging.predictor"),
        "kriging.moments_calls": len(top("kriging.moments")),
        "kriging.moments_s": total("kriging.moments"),
        "kriging.moments_bytes_computed": sum(16 * s.attrs["size"] ** 2
                                              for s in top("kriging.moments")),
        "ratios.convergence_s": convergence_s,
        "ratios.level_calls": len(levels),
        "ratios.level_s": sum(s.duration for s in levels),
        "ratios.level_self_s": sum(tree.layer_self_time(s) for s in levels),
        "ratios.records": sum(s.attrs.get("records", 0) for s in top("ratios.convergence")),
        "ratios.excluded_targets": excluded_targets,
        "diagnostics.report_calls": len(reports),
        "diagnostics.report_s": total("diagnostics.report"),
        "diagnostics.report_self_s": sum(tree.layer_self_time(s) for s in reports),
        "diagnostics.spectral_s": total("diagnostics.spectral"),
        "diagnostics.eigen_s": total("diagnostics.eigen"),
        "diagnostics.nystrom_calls": len(nystrom),
        "diagnostics.nystrom_s": total("diagnostics.nystrom"),
        "diagnostics.nystrom_unique_frac": _unique_frac(nystrom),
        "diagnostics.tail_s": total("diagnostics.tail"),
        "diagnostics.mean_probe_s": total("diagnostics.mean_probe"),
        "harness.design_calls": len(top("harness.design")),
        "harness.design_s": total("harness.design"),
        "harness.design_sites": sum(s.attrs.get("sites", 0) for s in top("harness.design")),
        "cli.serialize_s": total("cli.serialize"),
        "cli.output_bytes": sum(s.attrs.get("bytes", 0) for s in top("cli.serialize")),
    }
    for family in ("matern", "sphere", "periodic"):
        m[f"kernels.{family}.gram_s"] = total(
            "kernels.gram", lambda s: s.attrs["family"] == family)
    for name in SCENARIOS:
        m[f"cli.run_s.{name}"] = total(
            "harness.run_scenario", lambda s: s.attrs["scenario"] == name)
    out = {k: v / iterations for k, v in m.items() if not k.endswith("_frac")}
    out.update({k: v for k, v in m.items() if k.endswith("_frac")})
    out["ratios.level_concurrency"] = (m["ratios.level_s"] / convergence_s
                                       if convergence_s > 0 else 0.0)
    return out


def span_records(spans) -> list[dict]:
    """Spans as JSON-ready dicts, without the request keys."""
    return [{"id": s.sid, "name": s.name, "parent": s.parent, "thread": s.thread,
             "start": s.start, "end": s.end,
             "attrs": {k: v for k, v in s.attrs.items() if k != "key"}} for s in spans]
