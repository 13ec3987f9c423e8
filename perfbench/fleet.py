"""The three fleet workloads: closed-loop replays of relabelled CGM sessions.

A fleet tick delivers one sample per live session and the next tick is sent
only after the previous one returns.  Each run repeats *passes*: a pass
opens every session, replays ``horizon`` session ticks through
``StreamReplayer`` and closes the sessions.  Every pass starts from fresh
copies of the detectors and a fresh attacker and scheduler, so all passes of
a run produce bitwise-identical outputs (checked).

Tick intervals are measured between successive ``scheduler.tick`` starts.
The first ``history`` ticks of a pass (the forecaster's warm-up) and the
ticks past the horizon (stragglers delayed by dropout faults) are excluded.
Untraced passes sample the host's speed before every tick, and their times
are reported at nominal host speed (see hostspeed.py).
"""

from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import os
import pickle
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data import SyntheticOhioT1DM, make_patient_profile
from repro.data.cohort import Cohort, PatientRecord
from repro.detectors import (
    GaussianHMMDetector,
    KNNDistanceDetector,
    LSTMVAEDetector,
    MADGANDetector,
    VotingEnsembleDetector,
)
from repro.glucose import GlucoseModelZoo
from repro.obs import Observer
from repro.serving import (
    AttackEpisode,
    HealthConfig,
    IngressConfig,
    IngressPolicy,
    OnlineAttacker,
    SensorFaultConfig,
    ShardedScheduler,
    StreamReplayer,
    StreamScheduler,
    SupervisorConfig,
)

from .common import (
    Outcome,
    children_private_kib,
    layer_defaults,
    loop_metrics,
    mean,
    median,
    peak_rss_mb,
    repeat_sized,
    repeat_setup,
)
from .hostspeed import SpeedProbe
from .tracing import TimedScheduler, Tracer, rows_of_first_arg

#: One patient per control band (excellent, fair, very poor); sessions cycle
#: through their test traces.
FLEET_PATIENTS = (("A", 5), ("A", 0), ("A", 2))
ZOO_KWARGS = dict(
    predictor_kwargs=dict(epochs=2, hidden_size=16), train_personalized=False, seed=5
)
MADGAN_KWARGS = dict(epochs=5, hidden_size=12, inversion_steps=40, warm_inversion_steps=10, seed=0)
VAE_KWARGS = dict(epochs=5, hidden_size=12, latent_dim=3, batch_size=32, seed=0)
HMM_KWARGS = dict(n_states=4, n_iter=5, seed=0)
EPISODE_TICKS = 12
#: Workers of ``fleet_fabric_1024``; the lean fleet shares its inputs.
FABRIC_SHARDS = 2
#: Sessions of one patient start ``OFFSET_STEP`` samples apart (mod
#: ``OFFSETS``), so the fleet's windows cover most of the test day rather
#: than three stretches of it: the attacker's and detectors' work then
#: varies far less with the seed.
OFFSET_STEP = 37
OFFSETS = 240
#: Sampled (session, tick) pairs per run for the prediction/verdict checks.
CHECKED_WINDOWS = 64
PREDICTION_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FleetSpec:
    sessions: int
    lanes: int
    horizon: int
    monitors: Tuple[str, ...]
    attack: bool
    shards: int = 0
    #: Wall time of one untraced pass on the sizing VM (see ``repeat_sized``).
    pass_s: float = 1.0


FLEETS = {
    "fleet_full_256": FleetSpec(256, 1, 36, ("knn", "madgan", "vae_hmm"), attack=True, pass_s=5.0),
    "fleet_lean_1024": FleetSpec(1024, 8, 48, ("knn",), attack=False, pass_s=5.0),
    "fleet_fabric_1024": FleetSpec(1024, 8, 48, ("knn",), attack=False, shards=FABRIC_SHARDS, pass_s=7.0),
}


@dataclass
class SessionRecord(PatientRecord):
    """A patient record served under its own session label.

    The session's stream starts ``offset`` samples into the record's trace,
    so sessions that share a patient replay different times of day.
    """

    session_label: str = ""
    offset: int = 0

    @property
    def label(self) -> str:
        return self.session_label

    def features(self, split: str = "train") -> np.ndarray:
        return super().features(split)[self.offset :]


@dataclass
class FleetFixture:
    spec: FleetSpec
    fleet: Cohort
    zoo: GlucoseModelZoo
    detectors: Dict[str, tuple]
    episodes: Optional[Dict[str, List[AttackEpisode]]]
    faults: SensorFaultConfig

    @property
    def history(self) -> int:
        return self.zoo.aggregate.history

    def predictors(self) -> list:
        unique = {id(model): model for model in self.zoo.models.values()}
        return list(unique.values())


def shard_of(lane_key: str, n_shards: int) -> int:
    """The worker the fabric places a lane on.

    ``ShardedScheduler.shard_for`` reads only ``n_shards`` from its instance,
    so it is called on a stand-in rather than on a fabric with live workers.
    """
    return ShardedScheduler.shard_for(SimpleNamespace(n_shards=n_shards), lane_key, "")


def lane_variants(predictor, n_lanes: int, rng: np.random.Generator) -> list:
    """``n_lanes`` copies of one forecaster, each nudged by ~1e-9 to hash apart.

    Lanes (sessions sharing a model hash) are the sharded fabric's placement
    unit, so a fleet served by one model could not spread across workers.
    Placement hashes the weights, so free nudges would split 8 lanes 4/4
    over two workers only 27 % of the time, and the fabric's throughput,
    whose tick waits for the busier worker, swung by up to 1.5x with the seed.
    The nudges are redrawn from ``rng`` until every worker of
    ``FABRIC_SHARDS`` gets the same number of lanes.
    """
    while True:
        variants = [predictor]
        for _ in range(1, n_lanes):
            clone = copy.deepcopy(predictor)
            for param in clone.model.parameters():
                param.data = param.data + rng.normal(0.0, 1e-9, size=param.data.shape)
            variants.append(clone)
        placed = Counter(shard_of(variant.state_hash(), FABRIC_SHARDS) for variant in variants)
        if len(placed) == FABRIC_SHARDS and max(placed.values()) - min(placed.values()) <= 1:
            return variants


def build_fixture(spec: FleetSpec, seed: int) -> Tuple[FleetFixture, Dict[str, Tuple[float, float]]]:
    """Generate the fleet's inputs from ``seed``; returns the fixture and its set-up spans."""
    rng = np.random.default_rng(seed)
    started = perf_counter()
    profiles = [make_patient_profile(subset, pid) for subset, pid in FLEET_PATIENTS]
    cohort = SyntheticOhioT1DM(train_days=2, test_days=1, seed=seed, profiles=profiles).generate()
    cohort_done = perf_counter()

    zoo = GlucoseModelZoo(**ZOO_KWARGS).fit(cohort)
    records = list(cohort)
    labels = [f"s{index:04d}" for index in range(spec.sessions)]
    fleet = Cohort(
        records={
            label: SessionRecord(
                profile=records[index % len(records)].profile,
                train=records[index % len(records)].train,
                test=records[index % len(records)].test,
                session_label=label,
                offset=(index // len(records)) * OFFSET_STEP % OFFSETS,
            )
            for index, label in enumerate(labels)
        }
    )
    zoo_done = perf_counter()
    # Not set-up time: the lanes are the benchmark's stand-in for a zoo of
    # distinct models, and the number of redraws depends on the seed.
    if spec.lanes > 1:
        variants = lane_variants(zoo.aggregate, spec.lanes, rng)
        for index, label in enumerate(labels):
            zoo.models[label] = variants[index % spec.lanes]
    detectors_started = perf_counter()

    train_windows, _, _ = zoo.dataset.from_cohort(cohort, split="train")
    detectors = {
        "knn": (KNNDistanceDetector(n_neighbors=5).fit(train_windows[::4, -1:, :]), "sample")
    }
    if "madgan" in spec.monitors:
        detectors["madgan"] = (MADGANDetector(**MADGAN_KWARGS).fit(train_windows[::2]), "window")
    if "vae_hmm" in spec.monitors:
        benign = train_windows[::2]
        ensemble = VotingEnsembleDetector(
            [LSTMVAEDetector(**VAE_KWARGS).fit(benign), GaussianHMMDetector(**HMM_KWARGS).fit(benign)],
            min_votes=2,
        )
        detectors["vae_hmm"] = (ensemble, "window")
    detectors_done = perf_counter()

    episodes = None
    if spec.attack:
        warmup = zoo.aggregate.history
        starts = rng.integers(warmup, spec.horizon - EPISODE_TICKS + 1, size=spec.sessions)
        episodes = {
            label: [AttackEpisode(start=int(start), duration=EPISODE_TICKS)]
            for label, start in zip(labels, starts)
        }
    faults = SensorFaultConfig(
        bias_rate=0.01,
        stuck_rate=0.01,
        spike_rate=0.02,
        drift_rate=0.005,
        dropout_rate=0.01,
        seed=int(rng.integers(2**31)),
    )
    fixture = FleetFixture(spec, fleet, zoo, detectors, episodes, faults)
    spans = {
        "setup.cohort_s": (started, cohort_done),
        "setup.zoo_fit_s": (cohort_done, zoo_done),
        "setup.detector_fit_s": (detectors_started, detectors_done),
    }
    return fixture, spans


def make_scheduler(shards: int, observer: Optional[Observer] = None):
    """The fleet's scheduler: single-process, or the supervised shard fabric."""
    health, ingress = HealthConfig(), IngressConfig(policy=IngressPolicy.CLAMP)
    if shards:
        return ShardedScheduler(
            n_shards=shards,
            health=health,
            ingress=ingress,
            obs=observer,
            supervision=SupervisorConfig(),
        )
    return StreamScheduler(health=health, ingress=ingress)


def report_fingerprint(report) -> str:
    """Digest of every delivered sample, prediction, verdict and flag of a pass."""
    digest = hashlib.sha256()
    codes = {None: 2, False: 0, True: 1}
    for session_id, trace in sorted(report.sessions.items()):
        digest.update(session_id.encode())
        digest.update(np.stack([outcome.sample for outcome in trace.ticks]).tobytes())
        digest.update(trace.predictions().tobytes())
        flags = bytearray()
        for outcome in trace.ticks:
            flags += bytes((outcome.attacked, outcome.dropped, outcome.error is not None))
            for name in report.detector_names:
                verdict = outcome.verdicts.get(name)
                flags.append(3 if verdict is None or verdict.warming else codes[verdict.flagged])
        digest.update(bytes(flags))
    return digest.hexdigest()[:16]


@dataclass
class PassResult:
    timed: TimedScheduler
    #: ``(start, end)`` of ``StreamReplayer.replay`` on the ``perf_counter`` clock.
    span: Tuple[float, float]
    attacker: Optional[OnlineAttacker]
    detectors: Dict[str, tuple]
    tracer: Optional[Tracer]
    fingerprint: str
    #: Session-ticks whose outcome carries an ``error``.
    errored: int
    children_kib: int
    observer: Optional[Observer] = None
    #: The pass's ``ReplayReport``; kept for the first pass only.
    report: object = None


def _instrument(stack: ExitStack, tracer: Tracer, fixture: FleetFixture, detectors, attacker) -> None:
    """Wrap the single-process layers' entry points on their instances."""
    if attacker is not None:
        stack.enter_context(tracer.instrument(attacker, "attacker.intercept", ["intercept"]))
    for predictor in fixture.predictors():
        stack.enter_context(
            tracer.instrument(predictor, "glucose.step_stream", ["step_stream"], rows_of_first_arg)
        )
    for name, (detector, _) in detectors.items():
        span = f"detectors.{name}"
        # The calls that receive a tick's windows.  MAD-GAN's
        # predict_incremental calls begin_scores_incremental itself; the
        # coalescing scheduler calls the latter directly.
        scoring = ["predict", "predict_incremental", "begin_scores_incremental"]
        stack.enter_context(tracer.instrument(detector, span, scoring, rows_of_first_arg))
        stack.enter_context(
            tracer.instrument(detector, span, ["scores", "invert_cold", "finish_predict_incremental"])
        )


def replay_pass(
    fixture: FleetFixture,
    trace: bool,
    shards: Optional[int] = None,
    keep_report: bool = False,
    probe: Optional[SpeedProbe] = None,
) -> PassResult:
    """Open the fleet, replay ``horizon`` ticks, close it; one closed-loop pass.

    ``shards`` overrides the spec's worker count (0 replays the same inputs
    on a single-process scheduler).  ``probe`` samples the host's speed
    before every tick.
    """
    # Start every pass from the same heap: the previous pass's garbage must
    # not be collected inside this pass's ticks, nor be inherited by forked
    # shard workers.
    gc.collect()
    spec = fixture.spec
    detectors = {name: (copy.deepcopy(detector), unit) for name, (detector, unit) in fixture.detectors.items()}
    attacker = OnlineAttacker(fixture.episodes) if fixture.episodes is not None else None
    tracer = Tracer() if trace else None
    sharded = spec.shards if shards is None else shards
    observer = Observer() if sharded else None
    opened = perf_counter()
    scheduler = make_scheduler(sharded, observer)
    start_s = perf_counter() - opened
    timed = TimedScheduler(scheduler, tracer, payload_from=fixture.history, probe=probe)
    replayer = StreamReplayer(
        fixture.zoo, detectors=detectors, attacker=attacker, scheduler=timed, faults=fixture.faults
    )
    children = 0
    try:
        with ExitStack() as stack:
            if tracer is not None and not sharded:
                _instrument(stack, tracer, fixture, detectors, attacker)
            elif tracer is not None and attacker is not None:
                stack.enter_context(tracer.instrument(attacker, "attacker.intercept", ["intercept"]))
            started = perf_counter()
            report = replayer.replay(fixture.fleet, split="test", max_ticks=spec.horizon)
            span = (started, perf_counter())
        children = children_private_kib()
    finally:
        if sharded:
            scheduler.shutdown()
    timed.open_seconds += start_s
    # Keep only what the checks and layer counts read.  A run holds every
    # pass's result, and each retained fleet would make the program's
    # garbage collections in later passes slower.
    timed.release()
    errored = sum(1 for trace in report.sessions.values() for tick in trace.ticks if tick.error)
    return PassResult(
        timed,
        span,
        attacker if trace else None,
        detectors if keep_report else {},
        tracer,
        report_fingerprint(report),
        errored,
        children,
        observer if trace else None,
        report if keep_report else None,
    )


def measured_ticks(fixture: FleetFixture, timed: TimedScheduler) -> range:
    """Tick indices whose interval to the next tick start is measured."""
    return range(fixture.history, min(fixture.spec.horizon, len(timed.tick_starts)) - 1)


def intervals_of(
    fixture: FleetFixture, passes: List[PassResult], probe: Optional[SpeedProbe] = None, scaled: bool = True
) -> Tuple[List[float], List[int]]:
    """Measured tick intervals (s) and the sessions each tick delivered.

    With the ``probe`` that sampled these (untraced) passes, an interval
    leaves out the probe run inside it and, if ``scaled``, is in seconds at
    nominal host speed.
    """
    intervals, delivered = [], []
    for result in passes:
        starts = result.timed.tick_starts
        for tick in measured_ticks(fixture, result.timed):
            if probe is None:
                intervals.append(starts[tick + 1] - starts[tick])
            else:
                intervals.append(probe.normalized(starts[tick], starts[tick + 1], scaled))
            delivered.append(result.timed.delivered[tick])
    return intervals, delivered


def quality(report) -> Dict[str, float]:
    """kNN detection and false-alarm rates and the robustness shares of one pass."""
    alarms, benign = report.benign_false_alarms("knn")
    ticks = [outcome for trace in report.sessions.values() for outcome in trace.ticks]
    health = report.health_summary()
    detection = report.detection_rate("knn") if report.episodes else 0.0
    return {
        "replay.detection_rate_knn": float(detection),
        "replay.false_alarm_rate_knn": alarms / benign if benign else 0.0,
        "faults.faulted_share": sum(1 for outcome in ticks if outcome.fault) / len(ticks),
        "health.dropped_share": sum(1 for outcome in ticks if outcome.dropped) / len(ticks),
        "health.quarantines": float(sum(counts["quarantines"] for counts in health.values())),
    }


def check_pass(fixture: FleetFixture, result: PassResult, outcome: Outcome, rng: np.random.Generator) -> None:
    """Streamed predictions and stateless verdicts against the offline paths.

    Windows are sampled from sessions that dropped no tick, so the session's
    ring holds exactly the delivered (post-ingress) samples.  MAD-GAN is not
    compared: its streaming inversion is warm-started and its offline
    ``predict`` draws from the detector's RNG.
    """
    history = fixture.history
    report = result.report
    clean = [
        trace
        for _, trace in sorted(report.sessions.items())
        if trace.n_ticks >= history and not trace.dropped_ticks
    ]
    if not outcome.check("fleet.sessions_checkable", bool(clean)):
        return
    worst_gap = 0.0
    verdicts_equal = True
    for _ in range(CHECKED_WINDOWS):
        trace = clean[int(rng.integers(len(clean)))]
        tick = int(rng.integers(history - 1, trace.n_ticks))
        ticks = trace.ticks[tick - history + 1 : tick + 1]
        window = np.stack([item.sample for item in ticks])
        streamed = ticks[-1].prediction
        offline = float(fixture.zoo.model_for(trace.patient_label).predict(window[np.newaxis])[0])
        gap = abs(offline - streamed) if streamed is not None else float("inf")
        worst_gap = max(worst_gap, gap)
        outcome.attempted += 1
        if gap > PREDICTION_TOLERANCE:
            outcome.failed += 1
        for name, (detector, unit) in result.detectors.items():
            if name == "madgan":
                continue
            view = window[-1:][np.newaxis] if unit == "sample" else window[np.newaxis]
            equal = bool(detector.predict(view)[0]) == ticks[-1].verdicts[name].flagged
            verdicts_equal &= equal
            outcome.attempted += 1
            outcome.failed += 0 if equal else 1
    outcome.checks["fleet.predictions_within_1e-10"] = worst_gap <= PREDICTION_TOLERANCE
    outcome.checks["fleet.verdicts_equal_offline"] = verdicts_equal
    outcome.info["max_prediction_gap"] = worst_gap


def count_session_ticks(result: PassResult, outcome: Outcome) -> None:
    """Each delivered session-tick is an operation; errored or missing ones fail."""
    outcome.attempted += sum(result.timed.delivered)
    outcome.failed += result.errored + result.timed.missing_outcomes


def traced_layers(fixture: FleetFixture, passes: List[PassResult], sharded: bool) -> Dict[str, float]:
    """Per-layer numbers from the traced passes (means over measured ticks)."""
    per_interval: Dict[str, List[float]] = {}
    intervals, tick_ms, replay_self, busy_mean, busy_max, imbalance = [], [], [], [], [], []
    for result in passes:
        tracer, timed = result.tracer, result.timed
        table = tracer.per_tick()
        roots = tracer.roots_per_tick()
        for tick in measured_ticks(fixture, timed):
            interval = timed.tick_starts[tick + 1] - timed.tick_starts[tick]
            intervals.append(interval)
            tick_ms.append(timed.tick_ends[tick] - timed.tick_starts[tick])
            replay_self.append(interval - roots[tick])
            for name in table:
                per_interval.setdefault(name, []).append(table[name].get(tick, 0.0))
            if sharded:
                workers = timed.worker_busy[tick]
                busy_mean.append(mean(workers))
                busy_max.append(max(workers))
                imbalance.append(max(workers) / mean(workers))

    def ms(name: str) -> float:
        return mean(per_interval.get(name, [])) * 1e3

    layers = {
        "replay.self_ms_per_tick": mean(replay_self) * 1e3,
        "attacker.intercept_ms_per_tick": ms("attacker.intercept"),
        "scheduler.tick_ms": mean(tick_ms) * 1e3,
        "glucose.step_stream_ms_per_tick": ms("glucose.step_stream"),
    }
    for key in fixture.spec.monitors:
        layers[f"detectors.{key}.ms_per_tick"] = ms(f"detectors.{key}")
    if sharded:
        # The scheduler layer runs inside the workers: its time is the
        # slowest worker's busy time; the rest of the parent's tick is IPC
        # (serialize, pipe, merge).
        layers["scheduler.self_ms_per_tick"] = mean(busy_max) * 1e3
        layers["shard.worker_busy_ms_per_tick"] = mean(busy_mean) * 1e3
        layers["shard.ipc_ms_per_tick"] = layers["scheduler.tick_ms"] - mean(busy_max) * 1e3
        layers["shard.imbalance"] = mean(imbalance)
        samples = [item for result in passes for item in result.timed.payload_samples]
        layers["shard.payload_bytes_per_tick"] = mean(
            [len(pickle.dumps(inputs)) + len(pickle.dumps(outputs)) for inputs, outputs in samples]
        )
    else:
        layers["scheduler.self_ms_per_tick"] = ms("scheduler.tick")
    stages = [
        "replay.self_ms_per_tick",
        "attacker.intercept_ms_per_tick",
        "scheduler.self_ms_per_tick",
        "glucose.step_stream_ms_per_tick",
        *(f"detectors.{key}.ms_per_tick" for key in fixture.spec.monitors),
    ]
    if sharded:
        stages.append("shard.ipc_ms_per_tick")
    interval_ms = mean(intervals) * 1e3
    layers["trace.self_sum_gap_pct"] = abs(sum(layers[name] for name in stages) - interval_ms) / interval_ms * 100.0
    layers["trace.min_replay_self_ms"] = min(replay_self) * 1e3
    return layers


def count_layers(fixture: FleetFixture, result: PassResult) -> Dict[str, float]:
    """Per-pass counts: the same on every pass of a run (outputs are bitwise equal)."""
    layers: Dict[str, float] = {}
    timed = result.timed
    measured = list(measured_ticks(fixture, timed))
    layers["scheduler.sessions_per_tick"] = mean([timed.delivered[tick] for tick in measured])
    if result.attacker is not None:
        records = result.attacker.records
        searched = [record for record in records if record.eligible]
        layers["attacker.model_queries"] = float(sum(record.queries for record in records))
        layers["attacker.warm_hit_ratio"] = (
            sum(1 for record in searched if record.warm_started) / len(searched) if searched else 0.0
        )
    if result.tracer is not None:
        totals = result.tracer.totals()
        step = totals.get("glucose.step_stream")
        if step is not None and step["calls"]:
            layers["glucose.rows_per_call"] = step["rows"] / step["calls"]
        for key in fixture.spec.monitors:
            layers[f"detectors.{key}.windows_scored"] = float(totals.get(f"detectors.{key}", {"rows": 0})["rows"])
    windows, cold = timed.inversions.get("madgan", (0, 0))
    if windows:
        layers["detectors.madgan.cold_share"] = cold / windows
    if result.observer is not None:
        layers["obs.spans_recorded"] = float(len(result.observer.spans))
        snapshot = result.observer.registry.snapshot()
        layers["obs.series_recorded"] = float(sum(len(section) for section in snapshot.values()))
    return layers


def run_fleet(name: str, seed: int, seconds: float, trace: bool) -> Outcome:
    spec = FLEETS[name]
    outcome = Outcome()
    rng = np.random.default_rng(seed)

    # The fabric's workers run on every core; see SpeedProbe.
    probe = SpeedProbe(cores=sorted(os.sched_getaffinity(0)) if spec.shards else None)
    fixture, setups = repeat_setup(lambda: build_fixture(spec, seed), probe)

    layers = layer_defaults()

    def first_pass() -> PassResult:
        """The first pass, whose report is checked and then dropped."""
        result = replay_pass(fixture, trace=False, keep_report=True, probe=probe)
        check_pass(fixture, result, outcome, rng)
        if spec.attack:
            tampered = any(trace.attacked_ticks for trace in result.report.sessions.values())
            outcome.check("fleet.attacker_tampered", tampered)
        layers.update(quality(result.report))
        result.report = None
        return result

    numbering = itertools.count()

    def plain_pass() -> PassResult:
        return first_pass() if next(numbering) == 0 else replay_pass(fixture, trace=False, probe=probe)

    # With tracing, untraced and traced passes alternate, so both see the
    # same host conditions and their ratio is the tracing overhead.
    if trace:
        pairs = repeat_sized(seconds, 2 * spec.pass_s, lambda: (plain_pass(), replay_pass(fixture, trace=True)))
        plain, traced = [pair[0] for pair in pairs], [pair[1] for pair in pairs]
    else:
        plain, traced = repeat_sized(seconds, spec.pass_s, plain_pass), []

    first = plain[0]
    fingerprints = {result.fingerprint for result in plain + traced}
    outcome.check("fleet.passes_bitwise_identical", len(fingerprints) == 1)
    for result in plain + traced:
        count_session_ticks(result, outcome)
    if spec.shards:
        reference = replay_pass(fixture, trace=False, shards=0)
        outcome.check("fleet.sharded_bitwise_equal_single_process", reference.fingerprint == first.fingerprint)
        outcome.info["single_process_fingerprint"] = reference.fingerprint

    intervals, delivered = intervals_of(fixture, plain, probe)
    loop = loop_metrics(intervals, delivered)
    # Sessions open before the pass's first probe: scale by the pass's slowdown.
    open_s = median([result.timed.open_seconds / probe.slowdown(*result.span) for result in plain])
    setup_parts = {key: median([timings[key] for timings in setups]) for key in setups[0]}
    outcome.end_to_end = {
        "setup_s": median([sum(timings.values()) for timings in setups]) + open_s,
        "session_ticks_per_s": loop.pop("session_ticks_per_s"),
        "tick_tail_ms": loop.pop("tick_tail_ms"),
        "pipeline_s": median([probe.normalized(*result.span) for result in plain]),
        "peak_rss_mb": peak_rss_mb(median([result.children_kib for result in plain + traced])),
    }
    outcome.info.update(
        {
            "fingerprint": first.fingerprint,
            "passes": len(plain),
            "pass_tick_p50_ms": [median(intervals_of(fixture, [result], probe)[0]) * 1e3 for result in plain],
            "pass_slowdown": [probe.slowdown(*result.span) for result in plain],
            "raw_pass_s": [result.span[1] - result.span[0] for result in plain],
            "traced_passes": len(traced),
            "tick_intervals_ms": [round(value * 1e3, 3) for value in intervals],
            "sessions": spec.sessions,
            "horizon_ticks": spec.horizon,
        }
    )
    quality_keys = ["replay.false_alarm_rate_knn"]
    if spec.attack:
        quality_keys.insert(0, "replay.detection_rate_knn")
    outcome.info["quality"] = {key: layers[key] for key in quality_keys}
    layers.update(setup_parts)
    layers.update(loop)
    layers["setup.open_sessions_s"] = open_s
    if trace:
        layers.update(count_layers(fixture, traced[0]))
        layers.update(traced_layers(fixture, traced, sharded=bool(spec.shards)))
        traced_intervals, _ = intervals_of(fixture, traced)
        untraced_intervals, _ = intervals_of(fixture, plain, probe, scaled=False)
        layers["trace.overhead_pct"] = (mean(traced_intervals) / mean(untraced_intervals) - 1.0) * 100.0
        outcome.check("trace.self_sum_within_3pct", layers["trace.self_sum_gap_pct"] <= 3.0)
        outcome.check("trace.replay_self_non_negative", layers.pop("trace.min_replay_self_ms") >= -0.05)
    outcome.layers = layers
    return outcome
