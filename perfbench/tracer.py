"""In-process spans around the package's public functions, without editing the package.

Modules bind each other's functions by name (`from .box import delta_from_box`),
so a function is wrapped in every module namespace that holds it: that is
where the call site looks it up. Generator functions are left alone, because
their body runs in the consumer's frame; their cost lands in the caller's
self time. Private helpers are not wrapped either, so their cost lands in the
public function that called them.
"""

import functools
import inspect
from collections import defaultdict
from time import perf_counter

MODULES = ("lattice", "box", "ehrhart", "hnf", "constraints", "classify", "cli")


def _span_name(fn):
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans [name, start, end, parent index, job id] while installed."""

    def __init__(self, package):
        self.modules = [package] + [getattr(package, name) for name in MODULES]
        self.spans = []
        self.job = None
        self.observed = defaultdict(list)
        self._stack = []
        self._saved = []

    def _wrap(self, fn):
        name = _span_name(fn)
        spans, stack, observe = self.spans, self._stack, OBSERVERS.get(name)
        seen = self.observed[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                seen.append(observe(args, kwargs, result))
            return result

        return wrapper

    def __enter__(self):
        wrappers = {}
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__.startswith("deltasimplex.")
                    and not inspect.isgeneratorfunction(obj)
                ):
                    if obj not in wrappers:
                        wrappers[obj] = self._wrap(obj)
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrappers[obj])
        return self

    def __exit__(self, *exc):
        for module, name, obj in reversed(self._saved):
            setattr(module, name, obj)
        self._saved.clear()

    def self_times(self):
        """Per span: its duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for span, duration in zip(self.spans, list(own)):
            if span[3] >= 0:
                own[span[3]] -= duration
        return own


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _table_points(args, kwargs, table):
    # the cell estimates are computed after tracing ends, outside every span
    return _arg(args, kwargs, 0, "s"), sum(table.counts[1:]) + sum(table.interior_counts)


# Counts taken from the inputs and return values of single calls.
OBSERVERS = {
    "box.enumerate_box": lambda args, kwargs, group: len(group),
    "hnf.closed_form_delta": lambda args, kwargs, _: _arg(args, kwargs, 0, "spec").m - 1,
    "ehrhart.ehrhart_table": _table_points,
    "classify.enumerate_admissible": lambda args, kwargs, found: (
        _arg(args, kwargs, 0, "p"),
        _arg(args, kwargs, 1, "d"),
        len(found),
    ),
}
