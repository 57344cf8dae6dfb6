"""Per-layer tracing of cycquart from outside the package.

``Tracer.installed()`` replaces each traced function with a wrapper in
every loaded ``cycquart`` module that holds a reference to it (module
attributes and module-level dispatch tables such as ``decider._METHODS``)
and restores the originals on exit.  Nothing under ``src/`` is edited.

Open spans live on an in-memory stack.  When a span closes, its duration
is added to its layer's total and to the parent's child time, so

    self time = span duration - time covered by child spans.

Only per-layer aggregates are kept, not the individual spans.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from functools import partial

# (module, attribute path) of each traced layer, in report order
LAYERS = (
    ("decider", "eval_polys"),
    ("decider", "decide_closed_form"),
    ("harness", "stratum_sampler"),
    ("decider", "decide_structural"),
    ("quartic_rules", "discriminants"),
    ("decider", "decide_oracle"),
    ("form", "reduce_to_g"),
    ("roots", "is_nonneg_everywhere"),
    ("unipoly", "squarefree_decompose"),
    ("unipoly", "sturm_count"),
    ("unipoly", "sturm_chain"),
    ("unipoly", "poly_gcd"),
    ("unipoly", "UniPoly.eval"),
    ("decider", "find_witness"),
    ("kernels", "find_negative_on_faces"),
    ("form", "eval_form"),
)
STAGES = ("probe", "face", "seeded", "dyadic", "descent")


class Tracer:
    def __init__(self) -> None:
        # layer name -> [calls, total_ns, self_ns]
        self.layers = {f"{mod}.{attr}": [0, 0, 0] for mod, attr in LAYERS}
        self.missing: list[str] = []
        self.quadext_created = 0
        self.points_evaluated = 0
        self.witness_attempts = 0
        self.stages = dict.fromkeys(STAGES, 0)
        self._stack: list[list[int]] = []  # child ns of each open span
        self._faces: list = []  # point (or None) of each find_negative_on_faces call

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        stats = self.layers[name]
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def _faces_log(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._faces.append(result[0])
            return result

        return wrapper

    def _witness_stage(self, fn):
        """Infer the find_witness stage from its face sweeps and the witness.

        find_witness tries the probe points, then a face sweep, then the
        seeded search, then a dyadic face sweep, then descent.  A witness
        that a sweep returned is a face (first sweep) or dyadic (second)
        witness; one found before any sweep is a probe point, with integer
        coordinates; otherwise it is seeded (one sweep made) or descent.
        """

        def wrapper(*args, **kwargs):
            mark = len(self._faces)
            point = fn(*args, **kwargs)
            sweeps = self._faces[mark:]
            self.witness_attempts += 1
            if point is not None:
                if point in sweeps:
                    stage = "face" if sweeps.index(point) == 0 else "dyadic"
                elif not sweeps and all(v.denominator == 1 for v in point):
                    stage = "probe"
                else:
                    stage = "seeded" if len(sweeps) == 1 else "descent"
                self.stages[stage] += 1
            return point

        return wrapper

    def _count_points(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.points_evaluated += result[3]
            return result

        return wrapper

    def _count_quadext(self, init):
        def wrapper(obj, *args, **kwargs):
            self.quadext_created += 1
            init(obj, *args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------

    def _wrappers(self):
        """(module, attribute path, wrapper factory) for every patch."""
        for mod, attr in LAYERS:
            name = f"{mod}.{attr}"
            if name == "decider.find_witness":
                yield mod, attr, lambda fn, n=name: self._span(n, self._witness_stage(fn))
            elif name == "kernels.find_negative_on_faces":
                yield mod, attr, lambda fn, n=name: self._span(n, self._faces_log(fn))
            else:
                yield mod, attr, lambda fn, n=name: self._span(n, fn)
        yield "kernels", "face_scan", self._count_points
        yield "scalars", "QuadExt.__init__", self._count_quadext

    @contextmanager
    def installed(self):
        """Trace every layer inside the ``with`` block."""
        undo = []
        try:
            for mod, attr, factory in self._wrappers():
                try:
                    owner = importlib.import_module(f"cycquart.{mod}")
                except ImportError:
                    owner = None
                path = attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part, None)
                original = getattr(owner, path[-1], None)
                if original is None:
                    self.missing.append(f"{mod}.{attr}")
                    continue
                wrapped = factory(original)
                if len(path) > 1:  # a method: patch the class once
                    setattr(owner, path[-1], wrapped)
                    undo.append((partial(setattr, owner), path[-1], original))
                    continue
                for table in _namespaces():
                    for key, value in list(table.items()):
                        if value is original:
                            table[key] = wrapped
                            undo.append((table.__setitem__, key, original))
            yield self
        finally:
            for restore, key, original in reversed(undo):
                restore(key, original)

    # -- report -------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as ``name -> (value, unit)``."""
        out = {}
        for name, (calls, total_ns, self_ns) in self.layers.items():
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.total_ms"] = (total_ns / 1e6, "ms")
            out[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
        found = sum(self.stages.values())
        attempts = self.witness_attempts
        out["decider.find_witness.found_ratio"] = (found / attempts if attempts else 1.0, "ratio")
        for stage, hits in self.stages.items():
            out[f"decider.find_witness.stage.{stage}"] = (hits, "count")
        out["kernels.points_evaluated"] = (self.points_evaluated, "count")
        out["scalars.QuadExt.created"] = (self.quadext_created, "count")
        return out


def _namespaces():
    """Module dicts of cycquart, and the module-level dicts inside them."""
    for name, module in list(sys.modules.items()):
        if name == "cycquart" or name.startswith("cycquart."):
            namespace = vars(module)
            yield namespace
            for value in list(namespace.values()):
                if isinstance(value, dict) and value is not namespace:
                    yield value
