"""Seeded benign sensor-fault injection for replayed CGM streams.

The paper's threat model lives in a world where CGM hardware *glitches*:
sensors pick up bias as they age, get stuck repeating the last reading,
spike on compression lows, drift out of calibration, drop radio packets in
bursts, and occasionally emit garbage (NaN, negative, or absurdly large
values).  None of that is an attack — and a detector that confuses benign
device faults with tampering is unusable, because its false-alarm cost
explodes exactly when the hardware is at its flakiest.

This module produces those faults *declaratively and reproducibly*:

* :class:`SensorFaultConfig` describes per-kind hazard rates and
  magnitude/duration ranges.  The zero config (all rates 0) is inert by
  construction — :meth:`DeviceFaultPlan.apply` returns the caller's sample
  object untouched, so a replay with a zero config is bitwise-identical to
  one with no injector at all (``tests/test_serving_faults.py`` pins this).
* :class:`FaultInjector` materializes one :class:`DeviceFaultPlan` per
  device from ``seed`` via :meth:`repro.utils.rng.RandomState.derive`, so a
  device's faults depend only on ``(seed, label, trace length)`` — never on
  how many other devices replay alongside it, nor on the global-tick order
  device clocks or session churn impose.  Fault injection therefore
  *commutes* with delivery-order perturbations: the sample delivered for
  position ``p`` of device ``d`` is the same with or without clocks/churn.

Faults are applied in **session-position** coordinates (the index into the
device's trace), upstream of the online attacker: the attacker sits on the
CGM→pump link and tampers with whatever the (possibly faulty) sensor
transmitted.  The replayer treats the faulted sample as the *benign* one, so
benign faults are never counted as attacks in the replay report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from repro.data.cohort import CGM_COLUMN
from repro.glucose.states import MAX_PLAUSIBLE_GLUCOSE
from repro.utils.rng import as_random_state

#: Benign faulted readings stay physiological: real sensors clamp to a floor
#: (Dexcom reports "LOW" below 40 mg/dL) and the dataset's observed ceiling.
SENSOR_FLOOR = 40.0


class FaultKind(str, Enum):
    """The taxonomy of injectable benign device faults."""

    BIAS = "bias"  # additive bias ramping up then holding over the event
    STUCK = "stuck"  # stuck-at: repeat the last delivered CGM value
    SPIKE = "spike"  # one-tick transient (compression low / pressure spike)
    DRIFT = "drift"  # slow calibration drift, linear in ticks
    DROPOUT = "dropout"  # radio loss burst: delivery delayed, never skipped
    MALFORMED = "malformed"  # NaN / negative / out-of-range garbage sample


@dataclass(frozen=True)
class SensorFaultConfig:
    """Declarative per-device fault mix for :class:`FaultInjector`.

    Each ``*_rate`` is a per-tick hazard of a new event of that kind
    starting (events of one kind never overlap themselves; different kinds
    may overlap, composing additively where that makes sense).  Ranges are
    inclusive ``(low, high)`` bounds the per-event draw is taken from.

    ``SensorFaultConfig()`` — all rates zero — injects nothing and replays
    bitwise-identical to running without an injector.
    """

    bias_rate: float = 0.0
    bias_magnitude: Tuple[float, float] = (10.0, 40.0)  # mg/dL at full ramp
    bias_duration: Tuple[int, int] = (8, 24)

    stuck_rate: float = 0.0
    stuck_duration: Tuple[int, int] = (3, 10)

    spike_rate: float = 0.0
    spike_magnitude: Tuple[float, float] = (30.0, 120.0)  # signed draw

    drift_rate: float = 0.0
    drift_slope: Tuple[float, float] = (0.2, 1.5)  # mg/dL per tick
    drift_duration: Tuple[int, int] = (16, 48)

    dropout_rate: float = 0.0
    dropout_duration: Tuple[int, int] = (1, 4)  # global ticks of delay

    malformed_rate: float = 0.0

    seed: int = 0

    def __post_init__(self):
        for name in (
            "bias_rate",
            "stuck_rate",
            "spike_rate",
            "drift_rate",
            "dropout_rate",
            "malformed_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        for name in (
            "bias_magnitude",
            "bias_duration",
            "stuck_duration",
            "spike_magnitude",
            "drift_slope",
            "drift_duration",
            "dropout_duration",
        ):
            low, high = getattr(self, name)
            if low > high:
                raise ValueError(f"{name} range must satisfy low <= high, got {low} > {high}")
        for name in ("bias_duration", "stuck_duration", "drift_duration", "dropout_duration"):
            low, _ = getattr(self, name)
            if low < 1:
                raise ValueError(f"{name} must start at 1 tick or more")

    @property
    def enabled(self) -> bool:
        """False for the inert zero config."""
        return any(
            getattr(self, name) > 0.0
            for name in (
                "bias_rate",
                "stuck_rate",
                "spike_rate",
                "drift_rate",
                "dropout_rate",
                "malformed_rate",
            )
        )


@dataclass(frozen=True)
class FaultEvent:
    """One materialized fault: kind + session-position interval + magnitude."""

    kind: FaultKind
    start: int
    duration: int
    magnitude: float = 0.0

    @property
    def end(self) -> int:
        """First position after the event."""
        return self.start + self.duration

    def covers(self, position: int) -> bool:
        return self.start <= position < self.end


#: The malformed-sample corruption menu: NaN, a negative reading, and values
#: far outside the physiological range — everything ingress validation must
#: catch.  Indexed by a per-event draw.
_MALFORMED_VALUES = (float("nan"), -55.0, 1200.0, 1e6)


@dataclass
class DeviceFaultPlan:
    """One device's fully materialized fault schedule over its trace.

    Built once per (device, trace length) by :meth:`FaultInjector.plan_for`;
    the replayer materializes the device's faulted trace once
    (:meth:`materialize`) and calls :meth:`delay_at` when scheduling
    delivery times.  All randomness is spent at build time — applying the
    plan is deterministic and depends only on the position, which is what
    makes fault injection commute with device clocks and session churn.
    """

    label: str
    n_ticks: int
    events: List[FaultEvent] = field(default_factory=list)
    #: (n_ticks,) additive CGM offset (bias ramps + drift + spikes).
    offsets: np.ndarray = None
    #: (n_ticks,) bool — stuck-at positions (hold the last delivered CGM).
    stuck: np.ndarray = None
    #: (n_ticks,) bool / float — malformed positions and their raw values.
    malformed_mask: np.ndarray = None
    malformed_values: np.ndarray = None
    #: (n_ticks,) int — extra global ticks of delivery delay (dropout bursts).
    delays: np.ndarray = None

    def __post_init__(self):
        n = self.n_ticks
        if self.offsets is None:
            self.offsets = np.zeros(n)
        if self.stuck is None:
            self.stuck = np.zeros(n, dtype=bool)
        if self.malformed_mask is None:
            self.malformed_mask = np.zeros(n, dtype=bool)
        if self.malformed_values is None:
            self.malformed_values = np.zeros(n)
        if self.delays is None:
            self.delays = np.zeros(n, dtype=int)

    @property
    def n_events(self) -> int:
        return len(self.events)

    def kinds_at(self, position: int) -> Tuple[FaultKind, ...]:
        """Every fault kind active at one session position."""
        return tuple(event.kind for event in self.events if event.covers(position))

    def delay_at(self, position: int) -> int:
        """Extra global ticks this position's delivery is delayed by."""
        if position >= self.n_ticks:
            return 0
        return int(self.delays[position])

    def total_delay(self) -> int:
        """Sum of all delivery delays — extends the replay safety cap."""
        return int(self.delays.sum())

    def apply(
        self,
        position: int,
        sample: np.ndarray,
        held_cgm: Optional[float],
    ) -> Tuple[np.ndarray, Tuple[FaultKind, ...], Optional[float]]:
        """Corrupt one sample; return ``(sample, kinds, new_held_cgm)``.

        ``held_cgm`` is the CGM value the device last *transmitted* (post
        fault) — the stuck-at hold value.  When no fault covers ``position``
        the caller's array is returned **unmodified and by identity**, which
        is what makes the zero config bitwise-inert.
        """
        true_cgm = float(sample[CGM_COLUMN])
        kinds = self.kinds_at(position)
        if not kinds:
            return sample, kinds, true_cgm
        corrupted = np.array(sample, dtype=np.float64, copy=True)
        cgm = true_cgm
        if self.stuck[position] and held_cgm is not None and np.isfinite(held_cgm):
            cgm = float(held_cgm)
        cgm = cgm + float(self.offsets[position])
        # Benign faults stay physiological: a biased/stuck/drifting sensor
        # still reports a plausible glucose value.
        cgm = float(np.clip(cgm, SENSOR_FLOOR, MAX_PLAUSIBLE_GLUCOSE))
        if self.malformed_mask[position]:
            # Malformed garbage overrides everything — this is the one fault
            # kind ingress validation exists to catch.
            cgm = float(self.malformed_values[position])
        corrupted[CGM_COLUMN] = cgm
        held = cgm if np.isfinite(cgm) else held_cgm
        return corrupted, kinds, held

    def materialize(self, features: np.ndarray) -> Tuple[np.ndarray, List[Tuple[str, ...]]]:
        """The device's whole transmitted trace and its per-position fault kinds.

        Runs :meth:`apply` in position order over the fault-covered
        positions, carrying the stuck-at hold value exactly as the live
        device does (the hold after an uncovered position is its true CGM),
        and copies every other row as it is.  Returns ``(faulted, kinds)``:
        the ``(n, n_features)`` trace and, per position, the tuple of active
        :class:`FaultKind` values (empty where no fault covers it).  A plan
        without events returns ``features`` itself.
        """
        kinds: List[Tuple[str, ...]] = [()] * len(features)
        if not self.events:
            return features, kinds
        faulted = np.array(features, dtype=np.float64, copy=True)
        covered = sorted(
            {
                position
                for event in self.events
                for position in range(event.start, min(event.end, len(features)))
            }
        )
        held: Optional[float] = None
        previous = -1
        for position in covered:
            if position > previous + 1:
                held = float(features[position - 1, CGM_COLUMN])
            row, active, held = self.apply(position, features[position], held)
            faulted[position] = row
            kinds[position] = tuple(kind.value for kind in active)
            previous = position
        return faulted, kinds


class FaultInjector:
    """Materialize per-device fault plans from a :class:`SensorFaultConfig`.

    The injector is stateless across devices: each plan is drawn from
    ``config.seed`` derived with the device label, so adding or removing
    devices from a replay never changes another device's faults, and
    replaying the same cohort twice injects identical faults.
    """

    def __init__(self, config: Optional[SensorFaultConfig] = None):
        self.config = config if config is not None else SensorFaultConfig()

    @property
    def enabled(self) -> bool:
        return self.config.enabled

    # ------------------------------------------------------------------ planning
    def plan_for(self, label: str, n_ticks: int) -> DeviceFaultPlan:
        """Build the deterministic fault schedule for one device's trace."""
        plan = DeviceFaultPlan(label=str(label), n_ticks=int(n_ticks))
        config = self.config
        if not config.enabled or n_ticks <= 0:
            return plan
        root = as_random_state(config.seed).derive(f"faults:{label}")

        def draw_events(kind: FaultKind, rate: float, duration_range, fixed_duration=None):
            """Non-overlapping (within a kind) events via per-tick hazards."""
            if rate <= 0.0:
                return []
            rng = root.derive(kind.value)
            events = []
            position = 0
            while position < n_ticks:
                if float(rng.random()) < rate:
                    if fixed_duration is not None:
                        duration = fixed_duration
                    else:
                        low, high = duration_range
                        duration = int(rng.integers(low, high + 1))
                    duration = min(duration, n_ticks - position)
                    events.append((position, duration, rng))
                    position += duration
                else:
                    position += 1
            return events

        for start, duration, rng in draw_events(
            FaultKind.BIAS, config.bias_rate, config.bias_duration
        ):
            magnitude = float(rng.uniform(*config.bias_magnitude))
            if float(rng.random()) < 0.5:
                magnitude = -magnitude
            plan.events.append(FaultEvent(FaultKind.BIAS, start, duration, magnitude))
            # Ramp from 0 to full magnitude over the first half, then hold.
            ramp = np.minimum(np.arange(1, duration + 1) / max(duration // 2, 1), 1.0)
            plan.offsets[start : start + duration] += magnitude * ramp

        for start, duration, _ in draw_events(
            FaultKind.STUCK, config.stuck_rate, config.stuck_duration
        ):
            plan.events.append(FaultEvent(FaultKind.STUCK, start, duration))
            plan.stuck[start : start + duration] = True

        for start, duration, rng in draw_events(
            FaultKind.SPIKE, config.spike_rate, None, fixed_duration=1
        ):
            magnitude = float(rng.uniform(*config.spike_magnitude))
            if float(rng.random()) < 0.5:
                magnitude = -magnitude
            plan.events.append(FaultEvent(FaultKind.SPIKE, start, duration, magnitude))
            plan.offsets[start] += magnitude

        for start, duration, rng in draw_events(
            FaultKind.DRIFT, config.drift_rate, config.drift_duration
        ):
            slope = float(rng.uniform(*config.drift_slope))
            if float(rng.random()) < 0.5:
                slope = -slope
            plan.events.append(FaultEvent(FaultKind.DRIFT, start, duration, slope))
            plan.offsets[start : start + duration] += slope * np.arange(1, duration + 1)

        for start, duration, _ in draw_events(
            FaultKind.DROPOUT, config.dropout_rate, config.dropout_duration
        ):
            plan.events.append(FaultEvent(FaultKind.DROPOUT, start, duration, float(duration)))
            # The whole burst lands on its first position: delivery of that
            # sample is delayed `duration` global ticks (samples are a
            # sequence — delayed, never skipped, like clock dropouts).
            plan.delays[start] += duration

        for start, duration, rng in draw_events(
            FaultKind.MALFORMED, config.malformed_rate, None, fixed_duration=1
        ):
            choice = int(rng.integers(0, len(_MALFORMED_VALUES)))
            value = _MALFORMED_VALUES[choice]
            plan.events.append(FaultEvent(FaultKind.MALFORMED, start, duration, value))
            plan.malformed_mask[start] = True
            plan.malformed_values[start] = value

        plan.events.sort(key=lambda event: (event.start, event.kind.value))
        return plan
