"""Span tracing of symquad's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper, in the
module that defines it and in every ``symquad`` module that imported the
same object; classes have their constructor and JSON methods wrapped.
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.

A span is one call: name, start, end, parent span and request id, kept in
flat arrays and written out at the end.  A generator span is charged only
for the time spent inside ``next()``, so the consumer's work between items
stays with the consumer.  A span's self time is its busy time minus the
busy time of the spans it directly contains.

A traced name that no longer exists is reported as absent and skipped.
Whether a call returned a generator is decided per call, so a generator
rerouted to return an array is still traced (its ``items`` is the length).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

#: (module, public name) of every traced layer boundary.
TRACED = (
    ("cli", "main"),
    ("symmetry", "binary_orbit_representatives"),
    ("symmetry", "orbit_stats"),
    ("symmetry", "canonicalize"),
    ("symmetry", "orbit"),
    ("symmetry", "symmetrize"),
    ("cubature", "folded_rectangle_rule"),
    ("cubature", "rectangle_rule"),
    ("cubature", "CubatureRule"),
    ("cubature", "apply_rule"),
    ("fourier", "evaluate_at_points"),
    ("fourier", "FourierPolynomial"),
    ("korobov", "korobov_norm"),
    ("fooling", "constraint_matrix"),
    ("fooling", "nullspace_solution"),
    ("fooling", "construct_certificate"),
    ("weighted", "order_weights"),
    ("weighted", "min_product_weight"),
    ("weighted", "construct_weighted_certificate"),
    ("weighted", "weight_power_sum"),
)

#: Spans the benchmark opens around its own work.
BENCH_SPANS = ("bench.inputs", "bench.check")

#: Methods traced on a class, all under the class's span name.
CLASS_METHODS = ("__init__", "to_json_dict", "from_json_dict")

#: Names whose calls are counted as ``<name>.calls``.
CALL_COUNTS = ("symmetry.orbit_stats", "symmetry.canonicalize", "weighted.min_product_weight")

#: Names whose yielded items are counted as ``<name>.items``.
ITEM_COUNTS = ("symmetry.binary_orbit_representatives", "symmetry.orbit")

perf_counter = time.perf_counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _orbit_size(key, groups):
    """|orbit| of a 0/1 vector: the product of C(g_r, ones in block r)."""
    size = 1
    for g in groups:
        size *= math.comb(len(g), sum(key[i - 1] for i in g))
    return size


class Tracer:
    """In-memory span store plus the work counters measured beside it."""

    def __init__(self):
        self.names: list[str] = list(BENCH_SPANS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self.child = array("d")
        self.stack: list[int] = []
        self.request_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._assemblies: list = []
        self._patches: list = []
        self.absent: set[str] = set()

    # -- span bookkeeping --------------------------------------------------

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        """Record a new span and make it the active one."""
        rid = len(self.busy)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        now = perf_counter()
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        self.child.append(0.0)
        self.stack.append(rid)
        return rid

    def _close(self, rid, t0):
        t1 = perf_counter()
        elapsed = t1 - t0
        self.busy[rid] += elapsed
        self.end[rid] = t1
        self.stack.pop()
        if self.stack:
            self.child[self.stack[-1]] += elapsed

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own work."""
        rid = self._open(self._intern(name))
        t0 = perf_counter()
        try:
            yield
        finally:
            self._close(rid, t0)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        nid = self._intern(name)
        tracer = self
        items = name + ".items" if name in ITEM_COUNTS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = tracer._open(nid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rid, t0)
            if inspect.isgenerator(result):
                return tracer._generator(rid, result, items)
            if items is not None and hasattr(result, "__len__"):
                tracer.counts[items] += len(result)
            if after is not None:
                try:
                    after(args, kwargs, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    tracer.absent.add(f"{name} (work count)")  # result shape changed
            return result

        return traced

    def _generator(self, rid, gen, items):
        counts = self.counts
        while True:
            self.stack.append(rid)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                self._close(rid, t0)
                return
            except BaseException:
                self._close(rid, t0)
                raise
            self._close(rid, t0)
            if items is not None:
                counts[items] += 1
            yield item

    def _after_hooks(self, name, fn):
        """Work counters read from a call's arguments and result."""
        counts, maxima = self.counts, self.maxima
        if name == "fourier.evaluate_at_points":
            def after(args, kwargs, result):
                counts["fourier.evaluate_at_points.exp_count"] += (
                    len(_arg(args, kwargs, 0, "f")) * int(np.shape(_arg(args, kwargs, 1, "points"))[0])
                )
            return after
        if name == "fourier.FourierPolynomial.__init__":
            def after(args, kwargs, result):
                counts["fourier.FourierPolynomial.terms"] += len(args[0])
            return after
        if name == "korobov.korobov_norm":
            def after(args, kwargs, result):
                counts["korobov.korobov_norm.terms"] += len(_arg(args, kwargs, 0, "f"))
            return after
        if name == "fooling.constraint_matrix":
            def after(args, kwargs, result):
                counts["fooling.constraint_matrix.entries"] += int(np.size(result))
            return after
        if name == "fooling.nullspace_solution":
            params = inspect.signature(fn).parameters
            default = params["residual_tol"].default if "residual_tol" in params else 1e-9
            def after(args, kwargs, result):
                counts["fooling.nullspace_solution.rows"] += int(np.shape(_arg(args, kwargs, 0, "matrix"))[0])
                tol = args[1] if len(args) > 1 else kwargs.get("residual_tol", default)
                ratio = result.residual / tol
                maxima["fooling.nullspace_solution.residual_max_ratio"] = max(
                    maxima["fooling.nullspace_solution.residual_max_ratio"], ratio)
            return after
        if name == "fooling.construct_certificate":
            def after(args, kwargs, result):
                # Kept by reference; the pair count is computed after the run.
                self._assemblies.append(
                    (_arg(args, kwargs, 1, "pattern").groups, result.mode_order,
                     result.solution.pivot_index))
            return after
        return None

    def install(self, package):
        """Wrap every name in ``TRACED`` that ``package`` still defines."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(package.__name__ + "."))]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            module = sys.modules.get(f"{package.__name__}.{mod_name}")
            original = getattr(module, attr, None) if module is not None else None
            if original is None:
                self.absent.add(name)
                continue
            if inspect.isclass(original):
                for method in CLASS_METHODS:
                    raw = original.__dict__.get(method)
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw, self._after_hooks(f"{name}.{method}", raw))
                    self._patches.append((original, method, raw))
                    setattr(original, method, wrapped)
                continue
            wrapped = self._wrap(name, original, self._after_hooks(name, original))
            for module_obj in modules:
                for key, value in list(vars(module_obj).items()):
                    if value is original:
                        self._patches.append((module_obj, key, original))
                        setattr(module_obj, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def _own(self):
        ids = np.asarray(self.name_id, dtype=np.int64)
        own = np.asarray(self.busy, dtype=np.float64) - np.asarray(self.child, dtype=np.float64)
        return ids, own

    def self_times(self) -> dict[str, float]:
        ids, own = self._own()
        sums = np.bincount(ids, weights=own, minlength=len(self.names))
        return {n: float(sums[i]) for i, n in enumerate(self.names)}

    def call_counts(self) -> dict[str, int]:
        calls = np.bincount(np.asarray(self.name_id, dtype=np.int64), minlength=len(self.names))
        return {n: int(calls[i]) for i, n in enumerate(self.names)}

    def assembly_pairs(self) -> int:
        """sum over certificates of |pivot orbit| * sum_n |orbit(psi_n)|."""
        total = 0
        for groups, psi, pivot in self._assemblies:
            total += _orbit_size(psi[pivot], groups) * sum(_orbit_size(k, groups) for k in psi)
        return total

    def save(self, path):
        """Write every span (name table plus flat columns) to ``path``."""
        ids, own = self._own()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=ids,
            parent=np.asarray(self.parent, dtype=np.int64),
            request=np.asarray(self.request, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
            busy=np.asarray(self.busy, dtype=np.float64),
            self_time=own,
        )

