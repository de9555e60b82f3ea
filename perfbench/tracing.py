"""Span tracing for the benchmark's traced runs.

A :class:`Tracer` wraps the public functions and methods of the nillab
modules from outside, without editing ``src/``.  Each wrapped call records a
span ``[name, start, end, parent, run, tag, work]`` in memory: ``parent`` is
the index of the enclosing span (-1 at top level), ``run`` the workload call
the span belongs to, ``tag`` an optional label (the catalog system of an
orbit step) and ``work`` the points or coordinate passes the call handled.
``ExtScalar`` arithmetic is counted only, since timing every dunder call would
swamp the timings.  :meth:`Tracer.uninstall` puts every original back, so
untraced runs execute unwrapped code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import inspect
import time

import numpy as np

MODULES = ("scalars", "linalg", "algebra", "group", "structure", "spectral",
           "catalog", "cli")
#: Private helpers traced as layers of their own.
PRIVATE_LAYERS = {"spectral": ("_seminorm_power",)}
#: ExtScalar operators counted as ``scalars.ExtScalar.arith``.
ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__")
#: Per-entry helpers left unwrapped: a span on each would cost more than the
#: work it times, and no layer metric reads them.  Their time counts as the
#: caller's self time.
UNTRACED = {
    "linalg.is_zero_scalar", "linalg.simplify_scalar", "algebra.is_numeric_vector",
    "algebra.zero_vector", "algebra.vec_is_zero", "algebra.vec_add", "algebra.vec_sub",
    "algebra.vec_scale", "algebra.NilLieAlgebra.basis_vector", "group.vec_neg",
}
#: Classes whose methods are per-scalar; only ExtScalar's ARITH is counted.
UNTRACED_CLASSES = ("ExtScalar", "SymbolContext")
MARK = "__perfbench_original__"

NAME, START, END, PARENT, RUN, TAG, WORK = range(7)


def _points(pts) -> int:
    return int(np.size(pts[0])) if len(pts) else 0


#: Per-layer (tag, work) of a call, read from its arguments.
ANNOTATE = {
    "structure.NumericSystem.step": lambda a: (a[0].sys.name, _points(a[1])),
    "spectral.Observable.call": lambda a: (None, _points(a[1]) * len(a[0].terms)),
    "group.reduce_mod_lattice": lambda a: (None, a[0].dim),
}


def _layer_name(module: str, owner: str | None, attr: str) -> str:
    attr = {"__call__": "call", "__init__": "init"}.get(attr, attr)
    return ".".join(p for p in (module, owner, attr) if p)


def _nillab_namespaces() -> list:
    pkg = importlib.import_module("nillab")
    return [pkg] + [importlib.import_module("nillab." + m) for m in MODULES]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.arith_calls = 0
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def _open(self, name, tag=None, work=0) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.run, tag, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag=None, work=0):
        """A span around the benchmark's own code, such as one workload call."""
        rec = self._open(name, tag, work)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            tag, work = annotate(args) if annotate else (None, 0)
            rec = tracer._open(name, tag, work)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        setattr(wrapper, MARK, fn)
        return wrapper

    def _count_arith(self, fn):
        tracer = self

        def wrapper(*args):
            tracer.arith_calls += 1
            return fn(*args)

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- installing ---------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function and method of the nillab modules.

        A function is replaced in every nillab namespace that binds it, so
        names imported with ``from .x import f`` are traced as well.
        """
        if self._patches:
            raise RuntimeError("tracer is already installed")
        spaces = _nillab_namespaces()
        for mod in spaces[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            extra = PRIVATE_LAYERS.get(short, ())
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = _layer_name(short, None, attr)
                if (inspect.isfunction(obj) and name not in UNTRACED
                        and (not attr.startswith("_") or attr in extra)):
                    wrapped = self._wrap(name, obj)
                    for space in spaces:
                        for bound, value in list(vars(space).items()):
                            if value is obj:
                                self._patch(space, bound, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(short, obj)

    def _install_class(self, short: str, cls) -> None:
        counted = ARITH if cls.__name__ == "ExtScalar" else ()
        # dataclass __init__ is generated field copying, not a layer's work
        dunders = ("__call__",) if dataclasses.is_dataclass(cls) else ("__call__", "__init__")
        for attr, fn in list(vars(cls).items()):
            if not inspect.isfunction(fn):
                continue
            name = _layer_name(short, cls.__name__, attr)
            if attr in counted:
                self._patch(cls, attr, self._count_arith(fn))
            elif (cls.__name__ not in UNTRACED_CLASSES and name not in UNTRACED
                  and (not attr.startswith("_") or attr in dunders)):
                self._patch(cls, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def installed_wrappers() -> list[str]:
    """Names of tracer wrappers currently bound anywhere in nillab (empty when untraced)."""
    found = []
    for space in _nillab_namespaces():
        for name, value in vars(space).items():
            if hasattr(value, MARK):
                found.append("%s.%s" % (space.__name__, name))
            elif inspect.isclass(value):
                found += ["%s.%s.%s" % (space.__name__, name, a)
                          for a, v in vars(value).items() if hasattr(v, MARK)]
    return found


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its child spans cover.

    Children are clipped to the parent's interval and overlapping children are
    merged, so covered time is never counted twice.  Recursive spans (a
    function calling itself) are ordinary children of each other.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            a = max(spans[c][START], s[START])
            b = min(spans[c][END], s[END])
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s[END] - s[START] - covered)
    return out


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    work: int = 0


def layer_stats(spans: list[list], selfs: list[float], key=lambda s: s[NAME]) -> dict:
    """Per-key call count, summed self time, summed duration and summed work.

    ``selfs`` is :func:`self_times` of ``spans``; a key of None skips the span.
    """
    out: dict = {}
    for s, self_s in zip(spans, selfs):
        k = key(s)
        if k is None:
            continue
        st = out.setdefault(k, LayerStats())
        st.calls += 1
        st.self_s += self_s
        st.total_s += s[END] - s[START]
        st.work += s[WORK]
    return out


def write_spans(path, spans: list[list]) -> None:
    """One CSV row per span: name,start,end,parent,run,tag,work."""
    with open(path, "w") as fh:
        fh.write("name,start,end,parent,run,tag,work\n")
        for s in spans:
            fh.write("%s,%.9f,%.9f,%d,%d,%s,%d\n" % (
                s[NAME], s[START], s[END], s[PARENT], s[RUN],
                "" if s[TAG] is None else s[TAG], s[WORK]))
