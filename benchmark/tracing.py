"""Per-layer tracing of codimlab from outside the package.

`Tracer.install()` replaces the functions named in HOOKS with
wrappers, in the module or class that defines them and in every
codimlab module that imported the same object, so each caller's lookup
finds the wrapper.  A span hook records (id, name, parent id, job,
start, end); a count hook, used on functions called about a million
times per pass, only counts.  A hook whose target no longer exists is
skipped and listed in `missing`; metrics that depend on missing hooks
alone are left out of the report.  `uninstall()` restores every
original.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time
from collections import Counter

SPAN, COUNT = "span", "count"

HOOKS = (
    ("codim.codimension", "codimlab.codim", "codimension", SPAN),
    ("codim.cocharacter", "codimlab.codim", "cocharacter", SPAN),
    ("codim.int_add", "codimlab.codim", "IntRowSpace.add", SPAN),
    ("codim.scalar_add", "codimlab.codim", "ScalarRowSpace.add", SPAN),
    ("codim.int_coordinates", "codimlab.codim",
     "IntRowSpace.coordinates", SPAN),
    ("codim.scalar_coordinates", "codimlab.codim",
     "ScalarRowSpace.coordinates", SPAN),
    ("scalar.truediv", "codimlab.scalar", "Scalar.__truediv__", COUNT),
    ("scalar.inverse", "codimlab.scalar", "Scalar.inverse", COUNT),
    ("lie_core.bracket_sparse", "codimlab.lie_core",
     "LieAlgebra.bracket_sparse", COUNT),
    ("partitions.mn_character", "codimlab.partitions", "mn_character",
     COUNT),
    ("exponent.composition_chain", "codimlab.exponent",
     "composition_chain", SPAN),
    ("exponent.condition2", "codimlab.exponent", "condition2", SPAN),
    ("structure.decompose", "codimlab.structure", "decompose", SPAN),
    ("structure.equivariant_complement", "codimlab.structure",
     "equivariant_complement", SPAN),
    ("linalg.subspace_init", "codimlab.linalg", "Subspace.__init__", SPAN),
    ("alternating.evaluate_poly", "codimlab.alternating", "evaluate_poly",
     SPAN),
    ("alternating.matrix_unit_centrality", "codimlab.alternating",
     "matrix_unit_centrality", SPAN),
    ("alternating.is_alternating", "codimlab.alternating",
     "is_alternating", SPAN),
    ("documents.load_document", "codimlab.documents", "load_document",
     SPAN),
    ("documents.load_instance", "codimlab.documents", "load_instance",
     SPAN),
    ("documents.load_poly", "codimlab.documents", "load_poly", SPAN),
)

# metric -> (unit, kind, hooks); kind "s" sums span durations, "self_s"
# sums span self times, "calls" sums call counts, "yield" divides the
# calls that returned True by all calls.
LAYER_METRICS = {
    "codim.rows.self_s": ("s", "self_s",
                          ("codim.codimension", "codim.cocharacter")),
    "codim.rows.offered": ("count", "calls",
                           ("codim.int_add", "codim.scalar_add")),
    "codim.rows.yield": ("ratio", "yield",
                         ("codim.int_add", "codim.scalar_add")),
    "codim.elim_int.s": ("s", "s", ("codim.int_add",)),
    "codim.elim_cyclo.s": ("s", "s", ("codim.scalar_add",)),
    "codim.traces.s": ("s", "s", ("codim.int_coordinates",
                                  "codim.scalar_coordinates")),
    "codim.traces.calls": ("count", "calls",
                           ("codim.int_coordinates",
                            "codim.scalar_coordinates")),
    "scalar.div.calls": ("count", "calls",
                         ("scalar.truediv", "scalar.inverse")),
    "lie_core.bracket_sparse.calls": ("count", "calls",
                                      ("lie_core.bracket_sparse",)),
    "partitions.mn_character.calls": ("count", "calls",
                                      ("partitions.mn_character",)),
    "exponent.composition_chain.s": ("s", "s",
                                     ("exponent.composition_chain",)),
    "exponent.condition2.calls": ("count", "calls",
                                  ("exponent.condition2",)),
    "structure.decompose.s": ("s", "s", ("structure.decompose",)),
    "structure.equivariant_complement.s": (
        "s", "s", ("structure.equivariant_complement",)),
    "linalg.subspace_builds.calls": ("count", "calls",
                                     ("linalg.subspace_init",)),
    "linalg.subspace_builds.s": ("s", "s", ("linalg.subspace_init",)),
    "alternating.evaluate_poly.calls": ("count", "calls",
                                        ("alternating.evaluate_poly",)),
    "alternating.evaluate_poly.s": ("s", "s",
                                    ("alternating.evaluate_poly",)),
    "alternating.matrix_unit_centrality.s": (
        "s", "s", ("alternating.matrix_unit_centrality",)),
    "alternating.is_alternating.s": ("s", "s",
                                     ("alternating.is_alternating",)),
    "documents.load.s": ("s", "s", ("documents.load_document",
                                    "documents.load_instance",
                                    "documents.load_poly")),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    if original is None:
        return None
    return owner, attr, original


class Tracer:
    def __init__(self):
        self.job = None
        self.missing = []
        self._patches = []
        self._stack = []
        self._ids = itertools.count()
        self.spans = []
        self.calls = Counter()
        self.trues = Counter()

    def take(self):
        """(spans, calls, trues) recorded since the last take."""
        taken = (list(self.spans), Counter(self.calls),
                 Counter(self.trues))
        self.spans.clear()
        self.calls.clear()
        self.trues.clear()
        return taken

    def install(self):
        for name, module_name, path, mode in HOOKS:
            target = _resolve(module_name, path)
            if target is None:
                self.missing.append(name)
                continue
            owner, attr, original = target
            wrap = self._span if mode == SPAN else self._count
            wrapper = wrap(name, original)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is owner or not mod_name.startswith("codimlab"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        stack, spans, calls, trues = (self._stack, self.spans, self.calls,
                                      self.trues)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            calls[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, parent, self.job, start, end))
            if result is True:
                trues[name] += 1
            return result
        return wrapper


def layer_metrics(spans, calls, trues, missing=()) -> dict:
    """Per-layer metrics of one pass: {name: (value, unit)}."""
    dur, child, self_time = Counter(), Counter(), Counter()
    for sid, name, parent, _job, start, end in spans:
        dur[name] += end - start
        if parent is not None:
            child[parent] += end - start
    for sid, name, _parent, _job, start, end in spans:
        self_time[name] += (end - start) - child[sid]
    out = {}
    for metric, (unit, kind, hooks) in LAYER_METRICS.items():
        if all(h in missing for h in hooks):
            continue
        if kind == "s":
            value = sum(dur[h] for h in hooks)
        elif kind == "self_s":
            value = sum(self_time[h] for h in hooks)
        elif kind == "calls":
            value = sum(calls[h] for h in hooks)
        else:
            offered = sum(calls[h] for h in hooks)
            value = sum(trues[h] for h in hooks) / offered if offered else 0.0
        out[metric] = (value, unit)
    return out
