"""Benchmark-side tracing: spans recorded around calls into the program.

Nothing here reaches inside ``repro``.  Spans come from two places:

* :class:`TimedScheduler`, a pass-through scheduler handed to
  ``StreamReplayer(scheduler=...)``.  It stamps the start of every fleet
  tick (the replay's clock), times ``open_session`` and reads the detector
  adapters' inversion counters when a session closes.
* :meth:`Tracer.instrument`, which replaces a method on one *instance* with
  a timing wrapper.  Wrapping the instance rather than proxying the class
  keeps ``type(obj)`` unchanged, so ``StreamingDetector`` and the scheduler
  still pick the same scoring path.

Spans stay in memory as ``[name, start, end, parent, tick, rows]`` lists and
are reduced when the run ends.  A span's *self* time is its duration minus
the time its direct children cover.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

NAME, START, END, PARENT, TICK, ROWS = range(6)


def rows_of_first_arg(args, kwargs) -> int:
    """Row count of a batched call's first positional argument."""
    return len(args[0]) if args else 0


class Tracer:
    """Single-threaded in-memory span recorder."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Fleet tick interval in flight; set by :class:`TimedScheduler`.
        self.tick = -1

    def wrap(self, name: str, fn: Callable, rows: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            span = [
                name,
                perf_counter(),
                None,
                self._stack[-1] if self._stack else None,
                self.tick,
                rows(args, kwargs) if rows is not None else 0,
            ]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[END] = perf_counter()

        return traced

    @contextmanager
    def instrument(self, obj, name: str, methods: Iterable[str], rows=None):
        """Wrap ``obj.<method>`` as instance attributes for the block's duration."""
        wrapped = []
        for method in methods:
            if hasattr(obj, method):
                setattr(obj, method, self.wrap(name, getattr(obj, method), rows))
                wrapped.append(method)
        try:
            yield obj
        finally:
            for method in wrapped:
                delattr(obj, method)

    def self_times(self) -> List[float]:
        """Per-span self time (duration minus direct children's durations)."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def per_tick(self) -> Dict[str, Dict[int, float]]:
        """``{name: {tick: summed self seconds}}`` over every recorded span."""
        table: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_times()):
            table[span[NAME]][span[TICK]] += own
        return table

    def totals(self) -> Dict[str, dict]:
        """``{name: {"self_s", "calls", "rows"}}`` summed over all spans.

        Rows count once per outermost span of a name: a wrapped method that
        calls another wrapped method of the same layer passes it the same rows.
        """
        table: Dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "rows": 0})
        for span, own in zip(self.spans, self.self_times()):
            entry = table[span[NAME]]
            entry["self_s"] += own
            entry["calls"] += 1
            parent = span[PARENT]
            if parent is None or self.spans[parent][NAME] != span[NAME]:
                entry["rows"] += span[ROWS]
        return table

    def roots_per_tick(self) -> Dict[int, float]:
        """``{tick: summed duration of the root spans that started in it}``."""
        table: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is None:
                table[span[TICK]] += span[END] - span[START]
        return table


class TimedScheduler:
    """Pass-through scheduler that stamps each fleet tick for the benchmark.

    Every attribute not defined here is forwarded to the wrapped
    ``StreamScheduler`` or ``ShardedScheduler``.  With a ``tracer`` the
    ``tick`` call is recorded as the ``scheduler.tick`` span and the tracer's
    tick counter advances at each tick start, so spans that start between
    two ticks belong to the interval they fall in.  With a ``probe`` (a
    :class:`~perfbench.hostspeed.SpeedProbe`) the host speed is sampled just
    before each tick is stamped.
    """

    def __init__(self, scheduler, tracer: Optional[Tracer] = None, payload_from: int = 0, probe=None):
        self._scheduler = scheduler
        self.tracer = tracer
        self.probe = probe
        self._tick = (
            scheduler.tick if tracer is None else tracer.wrap("scheduler.tick", scheduler.tick)
        )
        self.tick_starts: List[float] = []
        self.tick_ends: List[float] = []
        self.delivered: List[int] = []
        self.missing_outcomes = 0
        #: Per tick, the worker-measured seconds of each engaged shard.
        self.worker_busy: List[List[float]] = []
        #: A few ticks' inputs and outputs, pickled after the pass to size IPC.
        self.payload_samples: List[tuple] = []
        self._payload_from = payload_from
        self.open_seconds = 0.0
        #: ``{detector name: [windows scored, cold inversions]}`` read from
        #: the incremental adapters' inversion states at session close.
        self.inversions: Dict[str, List[int]] = defaultdict(lambda: [0, 0])

    def __getattr__(self, name):
        return getattr(self._scheduler, name)

    def release(self) -> None:
        """Drop the wrapped scheduler (and its sessions) once the pass is over."""
        self._scheduler = self._tick = None

    def open_session(self, *args, **kwargs):
        started = perf_counter()
        try:
            return self._scheduler.open_session(*args, **kwargs)
        finally:
            self.open_seconds += perf_counter() - started

    def close_session(self, session_id: str) -> None:
        detectors = getattr(self._scheduler.session(session_id), "detectors", {})
        for name, adapter in detectors.items():
            state = adapter.inversion_state
            if state is not None and state.ticks:
                counts = self.inversions[name]
                counts[0] += state.ticks
                # The first scored window is a cold inversion; later cold
                # re-anchors are the state's fallbacks.
                counts[1] += 1 + state.fallbacks
        self._scheduler.close_session(session_id)

    def tick(self, samples, now=None):
        if self.probe is not None:
            self.probe.sample()
        started = perf_counter()
        if self.tracer is not None:
            self.tracer.tick = len(self.tick_starts)
        self.tick_starts.append(started)
        self.delivered.append(len(samples))
        outcomes = self._tick(samples, now=now)
        self.tick_ends.append(perf_counter())
        self.missing_outcomes += sum(1 for key in samples if key not in outcomes)
        latencies = getattr(self._scheduler, "last_tick_latencies", None)
        if latencies is not None:
            self.worker_busy.append(list(latencies.values()))
        if (
            self.tracer is not None
            and len(self.tick_starts) > self._payload_from
            and len(self.payload_samples) < 8
        ):
            self.payload_samples.append((dict(samples), outcomes))
        return outcomes
