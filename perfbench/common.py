"""Shared pieces of the benchmark: metric catalogue, statistics, resources."""

from __future__ import annotations

import math
import multiprocessing
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

#: Set-up (cohort, fits) runs at least this many times per run, and again
#: until ``SETUP_MIN_SECONDS`` are spent; ``setup_s`` reports the median.
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 3.0
SETUP_MAX_REPEATS = 12

#: End-to-end metrics: ``{name: (unit, better)}``.  Every workload emits all
#: of them; see README.md for what a "tick" and a "session" are on the
#: offline pipeline.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "session_ticks_per_s": ("1/s", "higher"),
    "tick_tail_ms": ("ms", "lower"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

DETECTOR_KEYS = ("knn", "ocsvm", "madgan", "lstm_vae", "hmm")
MONITOR_KEYS = ("knn", "madgan", "vae_hmm")

#: Per-layer metrics from the traced run: ``{name: (unit, better)}``.  Every
#: workload emits all of them; a layer the workload does not run reads 0.
PER_LAYER = {
    "loop.tick_p50_ms": ("ms", "lower"),
    "loop.tail_percentile": ("percentile", "higher"),
    "loop.tick_samples": ("count", "higher"),
    "replay.self_ms_per_tick": ("ms", "lower"),
    "replay.detection_rate_knn": ("ratio", "higher"),
    "replay.false_alarm_rate_knn": ("ratio", "lower"),
    "faults.faulted_share": ("ratio", "lower"),
    "attacker.intercept_ms_per_tick": ("ms", "lower"),
    "attacker.model_queries": ("count", "lower"),
    "attacker.warm_hit_ratio": ("ratio", "higher"),
    "scheduler.tick_ms": ("ms", "lower"),
    "scheduler.self_ms_per_tick": ("ms", "lower"),
    "scheduler.sessions_per_tick": ("count", "higher"),
    "glucose.step_stream_ms_per_tick": ("ms", "lower"),
    "glucose.rows_per_call": ("count", "higher"),
    **{f"detectors.{key}.ms_per_tick": ("ms", "lower") for key in MONITOR_KEYS},
    **{f"detectors.{key}.windows_scored": ("count", "lower") for key in MONITOR_KEYS},
    "detectors.madgan.cold_share": ("ratio", "lower"),
    "health.dropped_share": ("ratio", "lower"),
    "health.quarantines": ("count", "lower"),
    "shard.worker_busy_ms_per_tick": ("ms", "lower"),
    "shard.ipc_ms_per_tick": ("ms", "lower"),
    "shard.imbalance": ("ratio", "lower"),
    "shard.payload_bytes_per_tick": ("bytes", "lower"),
    "obs.series_recorded": ("count", "lower"),
    "obs.spans_recorded": ("count", "lower"),
    "campaign.s": ("s", "lower"),
    "campaign.model_queries": ("count", "lower"),
    "campaign.success_ratio": ("ratio", "higher"),
    "risk.cluster_s": ("s", "lower"),
    **{f"eval.fit_s.{key}": ("s", "lower") for key in DETECTOR_KEYS},
    **{f"eval.score_s.{key}": ("s", "lower") for key in DETECTOR_KEYS},
    "eval.knn_recall_gain": ("ratio", "higher"),
    "setup.cohort_s": ("s", "lower"),
    "setup.zoo_fit_s": ("s", "lower"),
    "setup.detector_fit_s": ("s", "lower"),
    "setup.open_sessions_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.self_sum_gap_pct": ("%", "lower"),
    "error_rate": ("ratio", "lower"),
}


@dataclass
class Outcome:
    """What one workload run produced, before it is printed."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: Dict[str, bool] = field(default_factory=dict)
    info: Dict[str, object] = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> bool:
        """Record one correctness check; a failed check is a failed operation."""
        self.checks[name] = bool(passed)
        self.attempted += 1
        if not passed:
            self.failed += 1
        return bool(passed)

    @property
    def correct(self) -> bool:
        return all(self.checks.values())


def repeat_sized(seconds: float, pass_s: float, run_once: Callable[[], object]) -> list:
    """Run ``round(seconds / pass_s)`` passes (at least one) back to back.

    ``pass_s`` is a pass's wall time on the sizing VM, so a run lasts about
    ``seconds`` there.  The count is fixed rather than set by the clock: the
    host's speed must not decide how many passes a run holds.  The tail is
    the tenth-slowest tick of the run, and each pass has the same few slow
    ticks (full garbage collections; the fabric's supervision snapshots), so
    the tail rose ~15 % from three passes to six.
    """
    return [run_once() for _ in range(max(1, round(seconds / pass_s)))]


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def tail_percentile(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile with >= 10 samples above.

    Falls back to the maximum (percentile 100) when fewer than 20 samples
    exist, where no percentile at or above the median has ten beyond it.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count < 20:
        return 100.0, float(ordered[-1])
    percentile = min(99, math.floor(100.0 * (1.0 - 10.0 / count)))
    return float(percentile), float(statistics.quantiles(ordered, n=100, method="inclusive")[percentile - 1])


def _private_kib(pid: int) -> int:
    """Memory only this process holds (private clean + dirty pages), in KiB."""
    total = 0
    try:
        with open(f"/proc/{pid}/smaps_rollup") as handle:
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += int(line.split()[1])
    except OSError:
        pass
    return total


def children_private_kib() -> int:
    """Summed private memory of this process's live children.

    Forked shard workers share the parent's pages; counting their full RSS
    would count those pages once per worker.
    """
    return sum(_private_kib(child.pid) for child in multiprocessing.active_children())


def peak_rss_mb(children_kib: int = 0) -> float:
    """Peak RSS of this process plus ``children_kib`` of child memory."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return (own + children_kib) / 1024.0


def layer_defaults() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def repeat_setup(build: Callable[[], tuple], probe) -> Tuple[object, List[Dict[str, float]]]:
    """Run ``build`` (returning ``(inputs, {part: (start, end)})``) several times.

    ``probe`` (a :class:`~perfbench.hostspeed.SpeedProbe`) samples the host
    throughout, and each part is reported in seconds at nominal host speed.
    Returns the first inputs (every repetition builds the same ones) and
    every repetition's timings.
    """
    first = None
    spans: List[Dict[str, Tuple[float, float]]] = []
    started = perf_counter()
    with probe.periodic():
        while len(spans) < SETUP_REPEATS or (
            perf_counter() - started < SETUP_MIN_SECONDS and len(spans) < SETUP_MAX_REPEATS
        ):
            inputs, parts = build()
            first = inputs if first is None else first
            spans.append(parts)
    timings = [{part: probe.normalized(*span) for part, span in parts.items()} for parts in spans]
    return first, timings


def loop_metrics(intervals: List[float], per_tick_units: List[int]) -> Dict[str, float]:
    """Closed-loop metrics from measured tick intervals.

    ``intervals`` are in seconds at nominal host speed (see hostspeed.py).
    Throughput is the work the measured ticks delivered over the time they
    took; it spread less across seeds than the median-based figure.  The
    median tick is reported (``loop.tick_p50_ms``) but not bounded; see
    README.md.
    """
    percentile, tail = tail_percentile(intervals)
    return {
        "session_ticks_per_s": sum(per_tick_units) / sum(intervals),
        "tick_tail_ms": tail * 1e3,
        "loop.tick_p50_ms": median(intervals) * 1e3,
        "loop.tail_percentile": percentile,
        "loop.tick_samples": float(len(intervals)),
    }
