"""In-memory span tracer that wraps a layer's entry points from outside.

The benchmark never edits ``src/``: it replaces a public name *where the
caller looks it up* (``repro.core.flow_responsibility.max_flow``, a method on
its class, ...) with a wrapper that records a span around the original call,
and puts the original back when the traced window ends.

A span is ``(span_id, parent_id, name, start, end, thread, request)``.  The
parent is the innermost open span of the same thread; ``request`` names the
server request that caused the span (see :data:`REQUEST`).  Spans stay in
memory and are written out once, by :meth:`Tracer.dump`, when the run ends.

A layer's *self time* is its spans' duration minus the part covered by their
direct child spans.
"""

from __future__ import annotations

import contextvars
import gzip
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The server request a span on the session worker thread belongs to.  The
#: serve-hot probes set it per request task and carry it into the worker.
REQUEST: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_request", default=None)

Span = Tuple[int, Optional[int], str, float, float, int, Optional[int]]


class Tracer:
    """Records spans and counters while :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.enabled = False

    # -- recording -------------------------------------------------------- #
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def _record(self, span_id: int, parent: Optional[int], name: str,
                start: float, end: float) -> None:
        self.spans.append((span_id, parent, name, start, end,
                           threading.get_ident(), REQUEST.get()))

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name`` (when enabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._record(span_id, parent, name, start, end)

    def _traced_generator(self, name: str, gen: Iterator[Any]) -> Iterator[Any]:
        """A streamed result: the span covers only the time spent inside it.

        Each resumption of the generator is recorded as one span of ``name``
        (so consumer time between items is not charged to the layer).
        """
        while True:
            try:
                item = self.call(name, next, gen)
            except StopIteration:
                return
            yield item

    # -- patching ----------------------------------------------------------- #
    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[..., None]] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(result, *args, **kwargs)`` runs after each call (outside the
        span) to record counters.  Generator functions are traced per
        resumption.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        streaming = inspect.isgeneratorfunction(original)
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if streaming:
                return tracer._traced_generator(
                    name, original(*args, **kwargs))
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None and tracer.enabled:
                after(result, *args, **kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def around(self, owner: Any, attr: str,
               hook: Callable[..., Any]) -> None:
        """Replace ``owner.attr`` by ``hook(original, *args, **kwargs)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return hook(original, *args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------- #
    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time of direct child spans."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, _, _ in self.spans:
            totals[name] += (end - start) - child_time.get(span_id, 0.0)
        return totals

    def durations(self, name: str) -> List[Tuple[Optional[int], float]]:
        """``(request, seconds)`` of every span called ``name``."""
        return [(request, end - start)
                for _, _, span_name, start, end, _, request in self.spans
                if span_name == name]

    def dump(self, path: str) -> None:
        """Write every span as one gzip'd JSON line each."""
        names = ("id", "parent", "name", "start", "end", "thread", "request")
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(names, span))) + "\n")
