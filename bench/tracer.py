"""Outside-in tracer for the sjgeo benchmark.

Wraps public functions of the library from the outside and records, per
function, the number of calls, the self time (wall time minus the time
spent in traced callees) and the number of calls that ended in
``SingularMatrix`` or ``DomainMargin``.

The package binds most functions in several module namespaces
(``from .cmatrix import mat_inverse`` in four modules), so every binding
that is the same object is patched, and the two methods are patched on
their classes.  After patching, any remaining reference to an original
function is reported as an error: a call through it would be missed and
the layer would silently read low.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import sys
import time

# (metric prefix, module, attribute); "Class.method" patches the class.
TRACED = (
    ("cmatrix.mat_inverse", "sjgeo.cmatrix", "mat_inverse"),
    ("groups.random_jacobi", "sjgeo.groups", "random_jacobi"),
    ("groups.theta_map", "sjgeo.groups", "theta_map"),
    ("groups.jacobi_mul", "sjgeo.groups", "jacobi_mul"),
    ("groups.jacobistar_mul", "sjgeo.groups", "jacobistar_mul"),
    ("geometry.act_upper", "sjgeo.geometry", "act_upper"),
    ("geometry.act_disk", "sjgeo.geometry", "act_disk"),
    ("geometry.act_siegel", "sjgeo.geometry", "act_siegel"),
    ("geometry.cayley", "sjgeo.geometry", "cayley"),
    ("geometry.cayley_inv", "sjgeo.geometry", "cayley_inv"),
    ("geometry.random_point", "sjgeo.geometry", "random_point"),
    ("metrics.Chart.vec_to_point", "sjgeo.metrics", "Chart.vec_to_point"),
    ("metrics.metric_tensor", "sjgeo.metrics", "metric_tensor"),
    ("metrics.q_upper", "sjgeo.metrics", "q_upper"),
    ("metrics.q_disk", "sjgeo.metrics", "q_disk"),
    ("metrics.q_siegel", "sjgeo.metrics", "q_siegel"),
    ("metrics.q_disk_n", "sjgeo.metrics", "q_disk_n"),
    ("operators.second_bundle", "sjgeo.operators", "second_bundle"),
    ("operators.field_eval", "sjgeo.operators", "ScalarField.__call__"),
    ("operators.lap_upper", "sjgeo.operators", "lap_upper"),
    ("operators.lap_disk", "sjgeo.operators", "lap_disk"),
    ("operators.op_invariant", "sjgeo.operators", "op_invariant"),
    ("verify.laplace_beltrami", "sjgeo.verify", "laplace_beltrami"),
    ("verify.map_differential", "sjgeo.verify", "map_differential"),
    ("verify.run_check", "sjgeo.verify", "run_check"),
    ("cli.main", "sjgeo.cli", "main"),
)

# Functions whose body (directly or through mat_inverse / the stencil
# margin guard) can raise SingularMatrix or DomainMargin.
RAISERS = (
    "cmatrix.mat_inverse",
    "geometry.act_upper", "geometry.act_disk", "geometry.act_siegel",
    "geometry.cayley", "geometry.cayley_inv",
    "metrics.metric_tensor", "metrics.q_upper", "metrics.q_disk",
    "metrics.q_siegel", "metrics.q_disk_n",
    "operators.second_bundle", "operators.lap_upper", "operators.lap_disk",
    "operators.op_invariant",
    "verify.laplace_beltrami", "verify.map_differential",
)

BUNDLE = "operators.second_bundle"
FIELD = "operators.field_eval"


class TraceError(RuntimeError):
    """The tracer could not cover a traced function completely."""


def _sjgeo_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "sjgeo" or name.startswith("sjgeo."))]


class Tracer:
    """Context manager: patches on entry, restores every binding on exit.

    ``clock`` times the spans; pass one that excludes time spent outside
    the program, such as a speed sampler's signal handler.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.calls = {prefix: 0 for prefix, _, _ in TRACED}
        self.self_s = {prefix: 0.0 for prefix, _, _ in TRACED}
        self.raised = {prefix: 0 for prefix, _, _ in TRACED}
        self.bundle_field_evals = 0
        self._bundle_depth = 0
        self._stack: list[float] = []   # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, prefix: str, fn):
        from sjgeo.cmatrix import SingularMatrix
        from sjgeo.operators import DomainMargin

        stack, calls, self_s, raised = self._stack, self.calls, self.self_s, self.raised
        clock = self._clock
        is_bundle, is_field = prefix == BUNDLE, prefix == FIELD

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_bundle:
                self._bundle_depth += 1
            elif is_field and self._bundle_depth:
                self.bundle_field_evals += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except (SingularMatrix, DomainMargin):
                raised[prefix] += 1
                raise
            finally:
                elapsed = clock() - start
                self_s[prefix] += elapsed - stack.pop()
                calls[prefix] += 1
                if stack:
                    stack[-1] += elapsed
                if is_bundle:
                    self._bundle_depth -= 1

        return wrapper

    def _set(self, owner, attr: str, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            for prefix, modname, attr in TRACED:
                self._patch(prefix, importlib.import_module(modname), attr)
        except BaseException:
            self._restore()
            raise
        return self

    def _patch(self, prefix: str, module, attr: str):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                raise TraceError(f"{module.__name__}.{attr} not found; "
                                 f"the trace table is out of date")
            orig = vars(cls)[meth]
            wrapper = self._wrap(prefix, orig)
            self._set(cls, meth, wrapper)
        else:
            orig = getattr(module, attr, None)
            if orig is None:
                raise TraceError(f"{module.__name__}.{attr} not found; "
                                 f"the trace table is out of date")
            wrapper = self._wrap(prefix, orig)
            for mod in _sjgeo_modules():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, name, wrapper)
        self._check_covered(prefix, orig, wrapper)

    def _check_covered(self, prefix: str, orig, wrapper):
        """Fail if anything but this tracer still holds the original."""
        ours = {id(c) for c in wrapper.__closure__ or ()}
        ours.add(id(wrapper.__dict__))
        ours.add(id(self._undo))
        ours.update(id(entry) for entry in self._undo)
        stray = [r.get("__name__", "dict") if isinstance(r, dict) else type(r).__name__
                 for r in gc.get_referrers(orig)
                 if id(r) not in ours and not inspect.isframe(r)]
        if stray:
            raise TraceError(f"{prefix}: original still referenced by {stray}; "
                             f"calls through it would not be traced")

    def _restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __exit__(self, *exc):
        self._restore()
        return False

    # -- results ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every exact count this tracer takes, by metric name."""
        out = {}
        for prefix, _, _ in TRACED:
            out[f"{prefix}.calls"] = self.calls[prefix]
            if prefix in RAISERS:
                out[f"{prefix}.raised"] = self.raised[prefix]
        out["operators.bundle_field_evals"] = self.bundle_field_evals
        return out
