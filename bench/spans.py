"""In-memory spans recorded by the benchmark around calls into the library.

The library itself is not instrumented: every span is opened by benchmark
code around a call into a public function, or by :class:`TimedModel`, a
forwarding proxy that times each method the value recursion calls on a gain
model.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    """Collects spans ``[name, parent index, start, end, attrs]``."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, attrs: dict) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, perf_counter(), 0.0, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[3] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed block; the yielded dict takes counts found inside."""
        record = self._open(name, attrs)
        try:
            yield attrs
        finally:
            self._close(record)

    def wrap(self, model, key: str):
        return TimedModel(model, self, key)

    def patch(self, module, attr: str, name: str):
        """Time every call through ``module.attr`` until the context exits."""
        original = getattr(module, attr)

        def timed(*args, **kwargs):
            record = self._open(name, {})
            try:
                return original(*args, **kwargs)
            finally:
                self._close(record)

        @contextmanager
        def patched():
            setattr(module, attr, timed)
            try:
                yield
            finally:
                setattr(module, attr, original)

        return patched()


class NullTracer:
    """Tracing off: the same call sites, no spans and no proxies."""

    enabled = False

    def span(self, name: str, **attrs):
        return nullcontext(attrs)

    def wrap(self, model, key: str):
        return model

    def patch(self, module, attr: str, name: str):
        return nullcontext()


class TimedModel:
    """Forwarding proxy that records a ``<key>.<method>`` span per call.

    Any callable attribute is timed, whatever its name, so a gain model that
    grows a new method the engine calls is covered without changing this
    class.  Plain attributes and properties are forwarded untimed.
    """

    def __init__(self, model, tracer: Tracer, key: str) -> None:
        self._model = model
        self._tracer = tracer
        self._key = key

    def __getattr__(self, attr: str):
        value = getattr(self._model, attr)
        if not callable(value):
            return value
        tracer, name = self._tracer, f"{self._key}.{attr}"

        def timed(*args, **kwargs):
            record = tracer._open(name, {})
            try:
                return value(*args, **kwargs)
            finally:
                tracer._close(record)

        return timed


class SpanStats:
    """Aggregates over one list of finished spans."""

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self._child_time = child_time

    def has_layer(self, layer: str) -> bool:
        prefix = layer + "."
        return any(s[0] == layer or s[0].startswith(prefix) for s in self.spans)

    def busy(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.spans if s[0] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def attr_sum(self, name: str, attr: str, **match) -> float:
        return sum(
            s[4].get(attr, 0)
            for s in self.spans
            if s[0] == name and all(s[4].get(k) == v for k, v in match.items())
        )

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time their child spans cover."""
        return sum(
            (s[3] - s[2]) - self._child_time[i] for i, s in enumerate(self.spans) if s[0] == name
        )

    def model_calls(self, key: str) -> tuple[int, float]:
        """Number and total time of method calls recorded by a model's proxy."""
        prefix, build = key + ".", key + ".build"
        durations = [s[3] - s[2] for s in self.spans if s[0].startswith(prefix) and s[0] != build]
        return len(durations), sum(durations)
