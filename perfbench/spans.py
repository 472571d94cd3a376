"""In-memory spans around calls into momentsq's public functions.

A span is a dict: id, name, parent (span id or None), pass (pass id),
start/end (time.monotonic(), a clock shared by all processes on the
machine), the integer arguments of the call, and two memory readings taken
at its boundaries: the resident set before the call and the process's peak
resident set after it.  Spans are kept in a list and written out by the
caller when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import resource
import time
from contextlib import contextmanager

_PAGE_MB = resource.getpagesize() / 2 ** 20


def rss_mb() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def maxrss_mb() -> float:
    """Peak resident set of this process so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self, pass_id: str):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **tags):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "pass": self.pass_id, "tags": tags, "rss_before_mb": rss_mb(),
                "start": time.monotonic()}
        self.spans.append(span)
        self._stack.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.monotonic()
            span["maxrss_after_mb"] = maxrss_mb()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                bound = sig.bind(*args, **kwargs).arguments
            except TypeError:
                bound = {}
            tags = {k: v for k, v in bound.items()
                    if isinstance(v, int) and not isinstance(v, bool)}
            with self.span(name, **tags):
                return fn(*args, **kwargs)
        return traced

    def install(self, *modules):
        """Replace every public function defined in each module by a traced
        wrapper.  Calls made through the module attribute, including the
        module's own calls to its public functions, then record a span."""
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, obj in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    setattr(module, name, self._wrap(f"{layer}.{name}", obj))


class NullTracer:
    """Stands in for Tracer in untraced passes: records nothing."""

    spans: list[dict] = []

    @contextmanager
    def span(self, name: str, **tags):
        yield None


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Each span's duration minus the time its direct children cover, keyed
    by (pass id, span id).  Children of one span run one after another, so
    they never overlap."""
    child_time: dict[tuple, float] = {}
    for sp in spans:
        if sp["parent"] is not None:
            key = (sp["pass"], sp["parent"])
            child_time[key] = child_time.get(key, 0.0) + sp["end"] - sp["start"]
    return {(sp["pass"], sp["id"]): sp["end"] - sp["start"]
            - child_time.get((sp["pass"], sp["id"]), 0.0) for sp in spans}
