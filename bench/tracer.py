"""Outside-in tracing of the qlprop layers.

The tracer wraps the public functions of every qlprop module (and the
public methods of its public classes) in every module namespace that
binds them, and restores the originals afterwards.  No code of the
program changes.

* Every call of a wrapped function is counted.
* A span (name, start, end, parent, request) is recorded when a call
  crosses from one layer into another, and around the few functions
  that have their own time metric, even when the caller is in the same
  layer.  Spans are kept in memory and written out at the end.
* The self time of a span is its duration minus the time of its child
  spans; a layer's self time is the sum over its spans.  Work a layer
  does inside numpy counts as that layer's.

Layers are the package modules named in LAYERS.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import time
import types
from array import array

LAYERS = ("cli", "syntax", "model", "semantics", "lattice", "hilbert",
          "quantum", "pragmatic")

# Functions outside the public interface that are wrapped all the same,
# because a metric is defined on them.
EXTRA = {"cli": ("cmd_parse", "cmd_eval", "cmd_props", "cmd_check",
                 "cmd_lattice", "cmd_fixtures", "_suite_sec3", "_suite_cm",
                 "_suite_qm", "_suite_prag")}

# Functions timed with a span of their own (qualified "layer.name").
TIMED = {
    "cli._suite_sec3", "cli._suite_cm", "cli._suite_qm", "cli._suite_prag",
    "syntax.parse_lx", "syntax.parse_tq", "syntax.parse_prag",
    "syntax.format_lx", "syntax.format_tq", "syntax.format_prag",
    "model.load_model", "model.make_model", "model.build_qm_model",
    "semantics.enumerate_formulas", "semantics.enumerate_tq_formulas",
    "semantics.LTAlgebra.closed",
    "lattice.check_boolean", "lattice.check_ortho_modular",
    "hilbert.state_lattice",
}

_DUNDERS = ("__init__", "__post_init__", "__eq__")


def _arg(a, k, pos: int, name: str):
    return a[pos] if len(a) > pos else k.get(name)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.extra: dict[str, int] = {}
        self.request = -1
        # spans, one entry per array index
        self.sp_fid = array("i")
        self.sp_parent = array("i")
        self.sp_req = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        # open spans: [layer, child time, span index]; the root is the caller
        self.stack: list[list] = [[-1, 0.0, -1]]
        self._restore: list[tuple] = []

    # -- bookkeeping ------------------------------------------------------

    def _fid(self, name: str, layer: int) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        return len(self.names) - 1

    def add(self, key: str, n: int = 1):
        self.extra[key] = self.extra.get(key, 0) + n

    def _span(self, fid: int, layer: int, fn, a, k):
        idx = len(self.sp_fid)
        self.sp_fid.append(fid)
        self.sp_parent.append(self.stack[-1][2])
        self.sp_req.append(self.request)
        self.sp_start.append(0.0)
        self.sp_end.append(0.0)
        frame = [layer, 0.0, idx]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*a, **k)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            d = t1 - t0
            self.sp_start[idx] = t0
            self.sp_end[idx] = t1
            self.self_s[fid] += d - frame[1]
            self.incl_s[fid] += d
            self.stack[-1][1] += d

    def _wrap(self, fn, name: str, layer: int):
        fid = self._fid(name, layer)
        calls, stack, span = self.calls, self.stack, self._span
        timed = name in TIMED
        hook = _HOOKS.get(name)

        if timed:
            def call(a, k):
                return span(fid, layer, fn, a, k)
        else:
            def call(a, k):
                if stack[-1][0] == layer:
                    return fn(*a, **k)
                return span(fid, layer, fn, a, k)

        if hook is None:
            def wrapper(*a, **k):
                calls[fid] += 1
                return call(a, k)
        else:
            def wrapper(*a, **k):
                calls[fid] += 1
                return hook(self, call, a, k)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every public function of the qlprop layers."""
        mods = {name: importlib.import_module(f"qlprop.{name}") for name in LAYERS}
        namespaces = [importlib.import_module("qlprop")] + list(mods.values())
        replaced: dict[int, object] = {}
        classes: set[int] = set()
        for lname, mod in mods.items():
            for attr in list(getattr(mod, "__all__", ())) + list(EXTRA.get(lname, ())):
                obj = getattr(mod, attr, None)
                home = getattr(obj, "__module__", "").rpartition(".")[2]
                if home not in mods or id(obj) in replaced or id(obj) in classes:
                    continue  # not a qlprop layer's own, or already wrapped
                li = LAYERS.index(home)
                if isinstance(obj, types.FunctionType):
                    replaced[id(obj)] = self._wrap(obj, f"{home}.{obj.__name__}", li)
                elif inspect.isclass(obj) and not issubclass(obj, enum.Enum):
                    self._wrap_class(obj, home, li, mods[home].__file__)
                    classes.add(id(obj))
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                w = replaced.get(id(val))
                if w is not None:
                    self._restore.append((ns, attr, val))
                    setattr(ns, attr, w)

    def _wrap_class(self, cls, lname: str, li: int, filename: str):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not isinstance(fn, types.FunctionType):
                continue
            if fn.__code__.co_filename != filename:
                continue  # generated by dataclass, not written in the module
            w = self._wrap(fn, f"{lname}.{cls.__name__}.{attr}", li)
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, kind(w) if kind else w)

    def uninstall(self):
        for ns, attr, val in reversed(self._restore):
            setattr(ns, attr, val)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls and times, plus the hook counters."""
        funcs = {n: {"layer": LAYERS[l], "calls": c, "self_s": s, "incl_s": t}
                 for n, l, c, s, t in zip(self.names, self.layer_of, self.calls,
                                          self.self_s, self.incl_s)}
        return {"functions": funcs, "counters": dict(self.extra),
                "spans": len(self.sp_fid)}

    def write_spans(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\trequest\tname\tlayer\tstart\tend\n")
            for i, fid in enumerate(self.sp_fid):
                fh.write(f"{i}\t{self.sp_parent[i]}\t{self.sp_req[i]}\t"
                         f"{self.names[fid]}\t{LAYERS[self.layer_of[fid]]}\t"
                         f"{self.sp_start[i]:.9f}\t{self.sp_end[i]:.9f}\n")


# ---------------------------------------------------------------------------
# Hooks: counters that need the arguments or the result of a call


def _enumerate(tr: Tracer, call, a, k):
    out = call(a, k)
    tr.add("semantics.formulas_enumerated", len(out))
    return out


def _lindenbaum(tr: Tracer, call, a, k):
    out = call(a, k)
    tr.add("semantics.lt.classes", len(out.classes))
    return out


def _closed(tr: Tracer, call, a, k):
    out = call(a, k)
    tr.add("semantics.lt_closed.classes", len(out.classes))
    return out


def _build_poset(tr: Tracer, call, a, k):
    out = call(a, k)
    tr.add("lattice.build_poset.elements", out.n)
    return out


def _check_boolean(tr: Tracer, call, a, k):
    n = _arg(a, k, 0, "p").n
    tr.add("lattice.check_boolean.triples", 2 * n ** 3)
    return call(a, k)


def _interpretations(tr: Tracer, call, a, k):
    inner = call(a, k)

    def counted():
        for interp in inner:
            tr.add("model.interpretations")
            yield interp

    return counted()


def _witness(tr: Tracer, call, a, k):
    # A lookup hits when the cache does not grow: a miss always stores
    # the formula's witness before returning.
    cache = _arg(a, k, 2, "cache")
    if cache is None:
        return call(a, k)
    before = len(cache)
    out = call(a, k)
    tr.add("quantum.witness.cache_lookups")
    if len(cache) == before:
        tr.add("quantum.witness.cache_hits")
    return out


_HOOKS = {
    "semantics.enumerate_formulas": _enumerate,
    "semantics.enumerate_tq_formulas": _enumerate,
    "semantics.lindenbaum_tarski": _lindenbaum,
    "semantics.LTAlgebra.closed": _closed,
    "lattice.build_poset": _build_poset,
    "lattice.check_boolean": _check_boolean,
    "model.enumerate_interpretations": _interpretations,
    "quantum.witness_property": _witness,
}
