"""Outside-in tracing of the program's layers.

``Tracer.install`` wraps every public function and method of the given
modules, from outside the program.  Each wrapped call records one span
(function, start, end, parent span) in flat arrays that stay in memory
until ``reduce`` folds them into per-function counts and times.

Names bound with ``from .building import boundary_simplex`` are separate
references to the same function object, so after wrapping, every module
attribute that still points at an original is rebound to its wrapper.
Methods are wrapped on their class, which every alias of the class shares.
"""

import functools
import inspect
import time
from array import array

# Operators that count as work; comparison, hashing and indexing dunders
# are left alone because they run inside every container operation.
OPERATORS = frozenset((
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__pow__", "__matmul__", "__invert__",
))


class Tracer:
    def __init__(self, keep_durations=()):
        self.keys = []           # span name id -> "layer.qualname"
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.raised = array("i")  # ids of spans whose call raised
        self._current = [-1]
        self._keep = frozenset(keep_durations)

    def _wrap(self, fn, key):
        nid = len(self.keys)
        self.keys.append(key)
        names, parents = self.names, self.parents
        starts, ends, raised = self.starts, self.ends, self.raised
        current = self._current
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(current[0])
            ends.append(0)
            current[0] = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised.append(idx)
                raise
            finally:
                ends[idx] = clock()
                current[0] = parents[idx]

        return traced

    def install(self, modules):
        """Wrap the public callables of ``modules`` ({layer: module})."""
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if not issubclass(obj, BaseException):
                        self._install_class(layer, obj)
                elif callable(obj) and not name.startswith("_"):
                    wrapped[id(obj)] = self._wrap(obj, "%s.%s" % (layer, name))
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])

    def _install_class(self, layer, cls):
        for name, raw in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            key = "%s.%s.%s" % (layer, cls.__name__, name)
            if isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self._wrap(raw.__func__, key)))
            elif isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(raw.__func__, key)))
            elif inspect.isfunction(raw):
                setattr(cls, name, self._wrap(raw, key))

    def reduce(self):
        """Fold the spans into ``{key: [calls, raised, incl_ns, self_ns]}``
        and ``{key: [duration_ns, ...]}`` for the kept keys."""
        n = len(self.names)
        child = array("q", bytes(8 * n))
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        # a span ends after its children, so each child's duration can be
        # charged to its parent in one pass over the spans in any order
        for i in range(n):
            par = parents[i]
            if par >= 0:
                child[par] += ends[i] - starts[i]
        stats = {key: [0, 0, 0, 0] for key in self.keys}
        durations = {key: [] for key in self._keep}
        keys = self.keys
        for i in range(n):
            key = keys[names[i]]
            dur = ends[i] - starts[i]
            row = stats[key]
            row[0] += 1
            row[2] += dur
            row[3] += dur - child[i]
            if key in durations:
                durations[key].append(dur)
        for i in self.raised:
            stats[keys[names[i]]][1] += 1
        return {k: v for k, v in stats.items() if v[0]}, durations
