"""Host-speed probe: a fixed slice of work timed between slices of the program's.

The 2-vCPU VM the benchmark was sized on shares its physical cores with
other tenants.  Its speed drifts by up to ~2.3x over seconds to minutes,
and a whole run can land in a slow or a fast stretch, so raw wall times
spread by a quarter or more across runs of the same code.

A :class:`SpeedProbe` times four fixed pieces of work that use nothing from
``repro``: an interpreter loop, small-array ufuncs, a BLAS matmul and a
16 MB memory sweep.  The host's drift slows them by different factors (the
sweep least per stretch, the interpreter most), and the geometric mean of
the four follows the fleets' and the pipeline's own slowdown far more
closely than any one of them.  The probe is run once per fleet tick
(:class:`~perfbench.tracing.TimedScheduler`) or every ``PERIOD_S`` of wall
time during set-up and the offline pipeline (:meth:`SpeedProbe.periodic`).
:meth:`SpeedProbe.normalized` gives the seconds the program worked in a
time range, without the probes' own time, each stretch divided by the
slowdown measured around it: the time the work would take on the host at
its nominal speed.  A change that makes the program faster shortens that
time; a slow stretch of the host does not lengthen it.
"""

from __future__ import annotations

import bisect
import os
import signal
from contextlib import contextmanager
from time import perf_counter
from typing import List, Optional, Sequence

import numpy as np

#: Wall-time period of :meth:`SpeedProbe.periodic`.
PERIOD_S = 0.05
#: Probes in the rolling median that gives each probe's local slowdown; it
#: drops a probe that a preemption happened to hit.
WINDOW = 5


class _Slot:
    __slots__ = ("value",)


def _interpreter(arrays) -> None:
    table, slot, total = {}, _Slot(), 0
    for step in range(1500):
        slot.value = step
        table[step & 63] = slot.value + total
        total += len(table)


def _ufuncs(arrays) -> None:
    values = arrays["small"]
    for _ in range(60):
        values = np.sqrt(np.abs(values) + 1.0)


def _blas(arrays) -> None:
    for _ in range(6):
        np.tanh(arrays["left"] @ arrays["right"])


def _memory(arrays) -> None:
    arrays["sweep"].sum()


#: ``(piece, seconds it takes on the sizing VM in its faster stretches)``.
PIECES = ((_interpreter, 1.47e-4), (_ufuncs, 1.84e-4), (_blas, 3.98e-4), (_memory, 6.9e-4))


class SpeedProbe:
    """Records probe runs: ``(start, end)`` stamps on the ``perf_counter`` clock
    and the seconds each piece took on each probed core.

    With ``cores``, every run probes each of those cores in turn (pinning this
    process to it, then restoring its affinity) and the slowdown is the
    slowest core's.  That is the figure for the shard fabric, whose tick
    waits for the slowest of the workers spread over the cores.  Without,
    the run probes whichever core this process is on.
    """

    def __init__(self, cores: Optional[Sequence[int]] = None):
        self.cores = list(cores) if cores else [None]
        rng = np.random.default_rng(12345)
        self._arrays = {
            "small": rng.standard_normal(1000),
            "left": rng.standard_normal((256, 64)),
            "right": rng.standard_normal((64, 64)),
            "sweep": rng.standard_normal(2_000_000),
        }
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.pieces: List[tuple] = []
        self._factors = None

    def sample(self) -> None:
        started = perf_counter()
        took = []
        affinity = os.sched_getaffinity(0) if self.cores[0] is not None else None
        try:
            for core in self.cores:
                if core is not None:
                    os.sched_setaffinity(0, {core})
                for piece, _ in PIECES:
                    piece_started = perf_counter()
                    piece(self._arrays)
                    took.append(perf_counter() - piece_started)
        finally:
            if affinity is not None:
                os.sched_setaffinity(0, affinity)
        self.starts.append(started)
        self.ends.append(perf_counter())
        self.pieces.append(tuple(took))
        self._factors = None

    @contextmanager
    def periodic(self, every_s: float = PERIOD_S):
        """Probe every ``every_s`` seconds of wall time while the block runs.

        Uses ``SIGALRM``, so the block must run in the main thread of a single
        process: while shard workers run, a probe would compete with them for
        the cores.
        """
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factors(self) -> np.ndarray:
        """Each probe's local slowdown.

        Per core and piece, the rolling median of ``WINDOW`` durations over
        the piece's nominal time; a core's slowdown is the geometric mean
        over the pieces, and the probe's is the slowest core's.
        """
        if self._factors is None:
            ratios = np.asarray(self.pieces).reshape(-1, len(self.cores), len(PIECES))
            ratios = ratios / [nominal for _, nominal in PIECES]
            if len(ratios) < WINDOW:
                local = np.broadcast_to(np.median(ratios, axis=0), ratios.shape)
            else:
                padded = np.pad(ratios, ((WINDOW // 2, WINDOW // 2), (0, 0), (0, 0)), mode="edge")
                windows = np.lib.stride_tricks.sliding_window_view(padded, WINDOW, axis=0)
                local = np.median(windows, axis=-1)
            self._factors = np.exp(np.log(local).mean(axis=2)).max(axis=1)
        return self._factors

    def normalized(self, start: float, end: float, scaled: bool = True) -> float:
        """Program seconds in ``[start, end]`` at nominal host speed.

        Probe time inside the range is left out.  Each stretch between probes
        is divided by the slowdown of the probe before it (the first stretch
        by the first probe's).  With ``scaled=False`` the stretches are only
        summed: the raw program time without the probes.
        """
        if not self.starts:
            return end - start
        factors = self.factors() if scaled else np.ones(len(self.starts))
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        factor = factors[max(first - 1, 0)]
        total, cursor = 0.0, start
        for index in range(first, last):
            total += (self.starts[index] - cursor) / factor
            cursor = min(self.ends[index], end)
            factor = factors[index]
        return total + max(end - cursor, 0.0) / factor

    def slowdown(self, start: float, end: float) -> float:
        """Median local slowdown of the probes that started in ``[start, end]``."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        if first == last:
            return 1.0
        return float(np.median(self.factors()[first:last]))
