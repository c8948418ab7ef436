"""In-memory span tracer for one trcycles operation.

``install()`` wraps, from outside the package, every cross-module call
boundary of trcycles:

* each function one trcycles module imports from another, patched at the
  name under which the importing module binds it (``cli.compute_omega_table``,
  ``tensors.assemble_logZ``, ...), so calls inside a module stay unwrapped;
  generator functions are left alone, their iteration is the caller's time;
* each method a trcycles module defines on its own classes (for example
  ``LaurentSeries.__mul__``, ``Cyclo.inverse``, ``OmegaTable.local_form``).

A span belongs to the layer (module) that defines the function.  Every
call updates per-name aggregates: calls, inclusive seconds (outermost
activation only) and self seconds (duration minus the time covered by
directly nested spans).  Calls of functions, which are few, are also kept
as full span records (id, name, start, end, parent id); method calls, up to
hundreds of thousands per operation, are aggregated only.  Nothing is
written until ``Tracer.dump`` is called at the end of the operation.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("scalars", "series", "curves", "cycles", "recursion", "tensors",
          "wavefunction", "serialize", "cli")


def _count_entries(name, result):
    """Deterministic size of a stage's result, or None."""
    if name == "recursion.compute_omega_table":
        return sum(len(tab) for tab in result.tables.values())
    if name == "tensors.compute_airy_tensors":
        return len(result.A) + len(result.B) + len(result.C) + len(result.D)
    if name == "curves.localize_global_curve":
        return len(result.phi)
    if name.startswith("serialize.") and isinstance(result, str):
        return len(result.encode("utf-8"))
    return None


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.stats = {}          # name -> [calls, incl_s, self_s, depth, items]
        self.spans = []          # (id, name, start, end, parent id)
        self._child = [[0.0]]    # child-time accumulators, one per open span
        self._open = [None]      # ids of open recorded spans

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])

    def wrap(self, name, fn, record):
        st = self._stat(name)
        clock, child, opened, spans = (self.clock, self._child, self._open,
                                       self.spans)

        if not record:
            def wrapper(*args, **kwargs):
                acc = [0.0]
                child.append(acc)
                st[3] += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = clock() - t0
                    child.pop()
                    st[3] -= 1
                    st[0] += 1
                    if not st[3]:
                        st[1] += d
                    st[2] += d - acc[0]
                    child[-1][0] += d
        else:
            def wrapper(*args, **kwargs):
                acc = [0.0]
                child.append(acc)
                sid = len(spans)
                parent = opened[-1]
                spans.append(None)
                opened.append(sid)
                st[3] += 1
                t0 = clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    t1 = clock()
                    d = t1 - t0
                    child.pop()
                    opened.pop()
                    st[3] -= 1
                    st[0] += 1
                    if not st[3]:
                        st[1] += d
                    st[2] += d - acc[0]
                    child[-1][0] += d
                    spans[sid] = (sid, name, t0, t1, parent)
                    n = _count_entries(name, result)
                    if n is not None:
                        st[4] += n

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        modules = {layer: importlib.import_module(f"trcycles.{layer}")
                   for layer in LAYERS}
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                home = layer_of.get(getattr(obj, "__module__", None))
                if home is None:
                    continue
                if inspect.isfunction(obj) and home != layer and \
                        not inspect.isgeneratorfunction(obj):
                    setattr(mod, attr, self.wrap(f"{home}.{attr}", obj,
                                                 record=True))
                elif inspect.isclass(obj) and home == layer:
                    self._wrap_class(layer, mod, obj)

    def _wrap_class(self, layer, mod, cls):
        for attr, member in list(vars(cls).items()):
            kind = type(member)
            fn = member.fget if kind is property else \
                getattr(member, "__func__", member)
            if not inspect.isfunction(fn) or \
                    fn.__code__.co_filename != mod.__file__:
                continue   # dataclass-generated or inherited
            w = self.wrap(f"{layer}.{cls.__name__}.{attr}", fn, record=False)
            if kind is property:
                w = property(w, member.fset, member.fdel, member.__doc__)
            elif kind in (staticmethod, classmethod):
                w = kind(w)
            setattr(cls, attr, w)

    def root(self, name, fn, *args):
        """Run fn as the recorded root span of an operation."""
        return self.wrap(name, fn, record=True)(*args)

    def dump(self, path):
        doc = {
            "stats": {name: {"calls": s[0], "incl_s": s[1], "self_s": s[2],
                             "items": s[4]}
                      for name, s in self.stats.items() if s[0]},
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
