"""Span tracing of liebundles from outside the package.

The tracer wraps public functions and methods of each package module (the
layers) so that every call records one span: name, start, end, parent span
and run id.  Spans stay in memory until the run ends; `span_totals` then
turns them into call counts, inclusive seconds and self seconds (inclusive
time minus the part covered by child spans).

Nothing inside `src/liebundles` is edited: the wrappers are installed by
rebinding module and class attributes, and removed again by `uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

# (span name, module, attribute path).  Several targets may share one span
# name; `calculus.fd` covers the three finite-difference helpers.
TARGETS = [
    ("integrators.integrate_on_group", "integrators", "integrate_on_group"),
    ("integrators.integrate_linear", "integrators", "integrate_linear"),
    ("groups.exp", "groups", "GroupDescriptor.exp"),
    ("groups.log", "groups", "GroupDescriptor.log"),
    ("groups.Ad", "groups", "GroupDescriptor.Ad"),
    ("groups.Ad_matrix", "groups", "GroupDescriptor.Ad_matrix"),
    ("groups.retract", "groups", "GroupDescriptor.retract"),
    ("groups.membership_residual", "groups", "GroupDescriptor.membership_residual"),
    ("groups.bracket", "groups", "GroupDescriptor.bracket"),
    ("groups.bracket_coords", "groups", "GroupDescriptor.bracket_coords"),
    ("connections.transport_group", "connections", "transport_group"),
    ("connections.horizontal_delta", "connections", "LieGroupBundleConnection.horizontal_delta"),
    ("connections.algebra_transport", "connections", "algebra_transport"),
    ("connections.generator", "connections", "AlgebraConnection.generator"),
    ("principal.transport_total", "principal", "transport_total"),
    ("principal.horizontal_lift", "principal", "GeneralizedPrincipalConnection.horizontal_lift"),
    ("principal.vertical_operator", "principal",
     "GeneralizedPrincipalConnection.vertical_operator"),
    ("principal.value", "principal", "GeneralizedPrincipalConnection.value"),
    ("principal.curvature", "principal", "curvature"),
    ("calculus.polynomial", "calculus", "Polynomial.__call__"),
    ("calculus.coefficient_array", "calculus", "AlgebraOneForm.coefficient_array"),
    ("calculus.coefficient_array", "calculus", "TwoIndexAlgebraForm.coefficient_array"),
    ("calculus.fd", "calculus", "finite_diff_jacobian"),
    ("calculus.fd", "calculus", "directional_derivative"),
    ("calculus.fd", "calculus", "numerical_bracket"),
    ("bundles.act", "bundles", "FiberedAction.act"),
    ("bundles.generator", "bundles", "FiberedAction.generator"),
    ("bundles.differential", "bundles", "FiberedAction.differential"),
    ("gauge.jet_mul", "gauge", "GaugeJet.mul"),
    ("gauge.curvature_map", "gauge", "curvature_map"),
    ("gauge.apply_gauge_second_jet", "gauge", "apply_gauge_second_jet"),
    ("gauge.jet_random", "gauge", "GaugeJet.random"),
    ("scenarios.build_scenario", "scenarios", "build_scenario"),
    ("scenarios.random_curve", "scenarios", "random_curve"),
    ("reporting.make_record", "reporting", "make_record"),
    ("reporting.render_jsonl", "reporting", "render_jsonl"),
    ("suites.run_suite", "suites", "run_suite"),
    ("cli.main", "cli", "main"),
]

# Callables that live on instances rather than on a module or class: the
# descriptor hooks that `_run` and the base-form fast path call directly, the
# RKMK right-hand side, and the position/velocity of each base curve.
HOOK_SPANS = {
    "exp_hook": "groups.exp_hook",
    "log_hook": "groups.log_hook",
    "ad_matrix_hook": "groups.ad_matrix_hook",
}
RHS_SPAN = "integrators.rhs"
CURVE_SPAN = "calculus.curve"


class Tracer:
    """In-memory span recorder.

    Spans are kept in flat arrays (name id, start, end, parent index, run id)
    so that a pass with millions of calls stays within tens of MiB.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("i")
        self.run_id = 0
        self._stack = []
        self._undo = []
        # RKMK steps (step-halving rerun included) of each integrate_on_group
        # call, and the run it belongs to
        self.steps = array("q")
        self.steps_run = array("i")

    # -- recording --------------------------------------------------------

    def _intern(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records one span called name."""
        nid = self._intern(name)
        clock = self.clock
        stack = self._stack
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped_by_tracer__ = True
        return traced

    def record(self, name, start, end, parent=-1, run_id=None):
        """Append one finished span; used for synthetic spans in tests."""
        self.name_id.append(self._intern(name))
        self.parent.append(parent)
        self.run.append(self.run_id if run_id is None else run_id)
        self.start.append(start)
        self.end.append(end)
        return len(self.start) - 1

    def __len__(self):
        return len(self.start)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target in liebundles; `uninstall` reverts."""
        modules = {name: importlib.import_module(f"liebundles.{name}")
                   for name in {mod for _, mod, _ in TARGETS}}
        all_modules = [m for key, m in sys.modules.items()
                       if key == "liebundles" or key.startswith("liebundles.")]
        for span, mod, path in TARGETS:
            owner = modules[mod]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, staticmethod):
                original = raw.__func__
                replacement = staticmethod(self._special(span, original))
            else:
                original = raw
                replacement = self._special(span, original)
            self._set(owner, attr, replacement, raw)
            if not outer:  # rebind names imported with `from .x import y`
                for module in all_modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._set(module, key, replacement, value)
        self._wrap_post_init(modules["groups"].GroupDescriptor, self._wrap_hooks)
        self._wrap_post_init(modules["calculus"].BaseCurve, self._wrap_curve)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _set(self, owner, attr, value, raw):
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, value)

    def _special(self, span, fn):
        if span != "integrators.integrate_on_group":
            return self.wrap(span, fn)
        signature = inspect.signature(fn)

        def integrate(rhs, *args, **kwargs):
            bound = signature.bind(rhs, *args, **kwargs)
            bound.apply_defaults()
            bound.arguments["rhs"] = self.wrap(RHS_SPAN, rhs)
            result = fn(*bound.args, **bound.kwargs)
            # the step-halving estimate reruns the interval with 2n steps
            factor = 3 if bound.arguments["with_error_estimate"] else 1
            self.steps.append(factor * int(result.steps))
            self.steps_run.append(self.run_id)
            return result

        return self.wrap(span, functools.wraps(fn)(integrate))

    def _wrap_post_init(self, cls, after):
        original = cls.__post_init__

        def post_init(obj):
            original(obj)
            after(obj)

        self._set(cls, "__post_init__", post_init, original)

    def _wrap_hooks(self, desc):
        for field, span in HOOK_SPANS.items():
            hook = getattr(desc, field)
            if hook is not None and not getattr(hook, "__wrapped_by_tracer__", False):
                object.__setattr__(desc, field, self.wrap(span, hook))

    def _wrap_curve(self, curve):
        curve.position = self.wrap(CURVE_SPAN, curve.position)
        curve.velocity = self.wrap(CURVE_SPAN, curve.velocity)

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Write every span to an uncompressed .npz, one array per field."""
        import numpy as np

        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.asarray(self.name_id), start=np.asarray(self.start),
                 end=np.asarray(self.end), parent=np.asarray(self.parent),
                 run=np.asarray(self.run))


def span_totals(tracer, run_id):
    """Per span name: (calls, inclusive seconds, self seconds) for one run.

    Spans are stored in the order their calls began, and the calls of one
    thread nest, so a single sweep with a stack of open spans sees every
    span's ancestors.  Inclusive seconds count only the outermost span of a
    name, so recursion (log calling exp, say) is not counted twice.  Self
    seconds are each span's duration minus the time its direct children
    cover; children of one parent never overlap.
    """
    names, name_id, parent = tracer.names, tracer.name_id, tracer.parent
    start, end, run = tracer.start, tracer.end, tracer.run
    n = len(tracer)
    child_time = array("d", bytes(8 * n))
    for i in range(n):
        p = parent[i]
        if p >= 0:
            child_time[p] += end[i] - start[i]
    calls = [0] * len(names)
    incl = [0.0] * len(names)
    own = [0.0] * len(names)
    open_count = [0] * len(names)
    stack = []
    for i in range(n):
        p = parent[i]
        while stack and stack[-1] != p:
            open_count[name_id[stack.pop()]] -= 1
        if run[i] == run_id:
            nid = name_id[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            own[nid] += dur - child_time[i]
            if open_count[nid] == 0:
                incl[nid] += dur
        open_count[name_id[i]] += 1
        stack.append(i)
    return {names[k]: (calls[k], incl[k], own[k]) for k in range(len(names)) if calls[k]}


def run_steps(tracer, run_id):
    """RKMK steps taken in one run, counting the step-halving reruns."""
    return sum(s for s, r in zip(tracer.steps, tracer.steps_run) if r == run_id)
