"""In-memory spans around bohrkit's public functions.

The benchmark records spans from its own files: each traced function is
replaced by a wrapper in every bohrkit module (and module-level dict)
that bound it, and put back when tracing ends.  A span holds the traced
name, its parent span, start and end times and, for ``radii.psi_eval``,
the number of radius points it evaluated.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name, index of the argument whose size is counted)
TARGETS = (
    ("weights", "WeightSequence.weight_at", "weights.weight_at", None),
    ("weights", "WeightSequence.tail", "weights.tail", None),
    ("weights", "WeightSequence.weighted_tail", "weights.weighted_tail", None),
    ("radii", "psi_eval", "radii.psi_eval", 1),
    ("radii", "solve_radius", "radii.solve_radius", None),
    ("functionals", "evaluate_family", "functionals.evaluate_family", None),
    ("functionals", "bound_for", "functionals.bound_for", None),
    ("functionals", "bohr_sum", "functionals.bohr_sum", None),
    ("functionals", "a_refinement", "functionals.a_refinement", None),
    ("series", "random_blaschke", "series.random_blaschke", None),
    ("series", "moebius_plus", "series.moebius", None),
    ("series", "moebius_minus", "series.moebius", None),
    ("series", "schwarz_moebius", "series.moebius", None),
    ("series", "evaluate", "series.evaluate", None),
    ("series", "eval_derivative", "series.eval_derivative", None),
    ("verify", "verify_below_radius", "verify.verify_below_radius", None),
    ("verify", "sharpness_witness", "verify.sharpness_witness", None),
    ("verify", "check_lemma_coeff", "verify.check_lemma_coeff", None),
    ("verify", "check_schwarz_pick", "verify.check_schwarz_pick", None),
    ("verify", "check_lemma_D", "verify.check_lemma_D", None),
    ("verify", "standard_families", "verify.standard_families", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans while its :meth:`active` context is entered."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.size = array("q")
        self._stack = [-1]
        self._plan = self._build_plan()

    # -- recording --------------------------------------------------------

    def _wrap(self, span_name: str, fn, size_arg):
        nid = self._name_id.setdefault(span_name, len(self._name_id))
        if nid == len(self.names):
            self.names.append(span_name)
        clock, stack = time.perf_counter, self._stack
        name, parent, t0, t1, size = self.name, self.parent, self.t0, self.t1, self.size

        def traced(*args, **kwargs):
            sid = len(t0)
            name.append(nid)
            parent.append(stack[-1])
            size.append(0 if size_arg is None else int(np.size(args[size_arg])))
            t1.append(0.0)
            stack.append(sid)
            t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------

    def _build_plan(self):
        """Every (container, key, original, wrapper) binding to swap."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bohrkit" or n.startswith("bohrkit."))]
        plan = []
        for mod_name, attr, span_name, size_arg in TARGETS:
            mod = sys.modules[f"bohrkit.{mod_name}"]
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:  # a method: patch the class attribute only
                owner = getattr(mod, owner_name)
                orig = vars(owner)[fn_name]
                plan.append((owner, fn_name, orig, self._wrap(span_name, orig, size_arg)))
                continue
            orig = getattr(mod, fn_name)
            wrapper = self._wrap(span_name, orig, size_arg)
            for m in modules:
                for key, value in vars(m).items():
                    if value is orig:
                        plan.append((m, key, orig, wrapper))
                    elif type(value) is dict:
                        plan.extend((value, k, orig, wrapper)
                                    for k, v in value.items() if v is orig)
        return plan

    @staticmethod
    def _bind(container, key, value):
        if type(container) is dict:
            container[key] = value
        else:
            setattr(container, key, value)

    @contextmanager
    def active(self):
        """Route the traced names through their wrappers, then restore them."""
        done = []
        try:
            for container, key, orig, wrapper in self._plan:
                self._bind(container, key, wrapper)
                done.append((container, key, orig))
            yield self
        finally:
            for container, key, orig in reversed(done):
                self._bind(container, key, orig)

    # -- results ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.array(self.name, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "t0": np.array(self.t0, dtype=np.float64),
                "t1": np.array(self.t1, dtype=np.float64),
                "size": np.array(self.size, dtype=np.int64)}

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds, counted points."""
        a = self.arrays()
        n = len(self.names)
        dur = a["t1"] - a["t0"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        calls = np.bincount(a["name"], minlength=n)
        total = np.bincount(a["name"], weights=dur, minlength=n)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=n)
        points = np.bincount(a["name"], weights=a["size"], minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(self_s[i]), "points": int(points[i])}
                for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
