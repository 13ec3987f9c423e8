"""Bitwise pin of the serving tick over a multi-lane chaos replay.

Three replays, one per ingress policy, push every branch of
:meth:`StreamScheduler.tick` through one digest each: five lanes (four
personalized forecasters plus an aggregate lane shared by four relabelled
sessions), malformed, stuck, bias, spike and dropout faults, health
quarantine and probationary re-admission, the online attacker, a sample
detector (kNN), a stateless window detector (HMM) and the incremental,
cross-lane coalesced MAD-GAN, all under an :class:`~repro.obs.Observer`.

The digests were recorded from the per-session tick implementation on
x86-64 (numpy 2, OpenBLAS).  They cover every outcome field, the health
timelines, the episode outcomes and the observer's series snapshot, events
and span identities (span wall-clock seconds excluded).  A change that moves
one rounding, one counter or one event fails here.  A different BLAS build
may round the fixture's matmuls differently; the digests are then
re-recorded from an unchanged tick on that platform.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pytest

from repro.data.cohort import Cohort, PatientRecord
from repro.detectors import GaussianHMMDetector, KNNDistanceDetector, MADGANDetector
from repro.obs import Observer
from repro.serving import (
    AttackEpisode,
    HealthConfig,
    IngressConfig,
    IngressPolicy,
    OnlineAttacker,
    SensorFaultConfig,
    StreamReplayer,
    StreamScheduler,
)

GOLDEN = {
    "clamp": "4802cf25687ec789f15caf1f871b78cf8758720ef31e178971a615d61c1c61c7",
    "hold_last": "f210c02e57f992f8b8d8b96e28a2c37b66e8d370c5b4c7052d8ce1288a772efc",
    "reject": "0c7d6806a07cabddf0e04b597361201e6ea8907bc3bfb408e09c58dc6c469a52",
}

FAULTS = SensorFaultConfig(
    bias_rate=0.03,
    stuck_rate=0.06,
    spike_rate=0.05,
    dropout_rate=0.03,
    malformed_rate=0.3,
    seed=7,
)
HEALTH = HealthConfig(
    degrade_after=1, quarantine_after=2, recover_after=3, backoff_ticks=3, max_readmissions=2
)
MAX_TICKS = 60


@dataclass
class _Relabelled(PatientRecord):
    """A patient's record served under another label, ``offset`` samples in."""

    session_label: str = ""
    offset: int = 0

    @property
    def label(self) -> str:
        return self.session_label

    def features(self, split: str = "train") -> np.ndarray:
        return super().features(split)[self.offset :]


@pytest.fixture(scope="module")
def fleet(tiny_cohort):
    """The tiny cohort plus four relabelled sessions on the aggregate lane.

    Lanes interleave in delivery order, so a refused first delivery of one
    lane moves that lane behind the next one.
    """
    records = {}
    for index, record in enumerate(tiny_cohort):
        records[record.label] = record
        label = f"{record.label}~agg"
        records[label] = _Relabelled(
            profile=record.profile,
            train=record.train,
            test=record.test,
            session_label=label,
            offset=7 * (index + 1),
        )
    return Cohort(records=records)


@pytest.fixture(scope="module")
def detectors(tiny_zoo, tiny_cohort):
    windows, _, _ = tiny_zoo.dataset.from_cohort(tiny_cohort, split="train")
    return {
        "knn": KNNDistanceDetector(n_neighbors=5).fit(windows[::4, -1:, :]),
        "hmm": GaussianHMMDetector(n_states=3, n_iter=3, seed=0).fit(windows[::6]),
        "madgan": MADGANDetector(
            epochs=1,
            hidden_size=8,
            inversion_steps=6,
            warm_inversion_steps=3,
            max_samples=150,
            seed=0,
        ).fit(windows[::6]),
    }


def _replay(policy, fleet, tiny_zoo, detectors):
    import copy

    observer = Observer()
    labels = list(fleet.records)
    attacker = OnlineAttacker(
        {
            labels[0]: [AttackEpisode(start=16, duration=12)],
            labels[2]: [AttackEpisode(start=20, duration=10)],
            labels[5]: [AttackEpisode(start=14, duration=14)],
        }
    )
    fresh = copy.deepcopy(detectors)
    replayer = StreamReplayer(
        tiny_zoo,
        detectors={
            "knn": (fresh["knn"], "sample"),
            "hmm": (fresh["hmm"], "window"),
            "madgan": (fresh["madgan"], "window"),
        },
        attacker=attacker,
        scheduler=StreamScheduler(
            health=HEALTH, ingress=IngressConfig(policy=policy), obs=observer
        ),
        faults=FAULTS,
        divergence_watchdog=2,
        obs=observer,
    )
    report = replayer.replay(fleet, split="test", max_ticks=MAX_TICKS)
    return report, observer


def _tick_record(outcome):
    verdicts = tuple(
        (name, v.tick, v.warming, v.flagged, v.score, v.degraded)
        for name, v in sorted(outcome.verdicts.items())
    )
    return (
        outcome.session_id,
        outcome.tick,
        np.asarray(outcome.sample, dtype=np.float64).tobytes().hex(),
        "nan" if outcome.prediction is None else float(outcome.prediction).hex(),
        outcome.attacked,
        outcome.fault,
        outcome.ingress,
        outcome.dropped,
        outcome.error,
        verdicts,
    )


def _digest(report, observer) -> str:
    parts = []
    for session_id, trace in sorted(report.sessions.items()):
        parts.append(
            (
                session_id,
                trace.patient_label,
                tuple(trace.delivered_at),
                tuple(scenario.value for scenario in trace.scenarios),
                tuple(_tick_record(outcome) for outcome in trace.ticks),
                tuple(
                    (event.tick, event.state.value, event.reason, event.delivered_at, event.backoff)
                    for event in trace.health_timeline
                ),
            )
        )
    parts.append(
        tuple(
            (e.session_id, e.detector, e.episode.start, e.episode.duration, e.detected, e.first_flag_tick)
            for e in report.episodes
        )
    )
    parts.append(repr(observer.registry.snapshot()))
    parts.append(
        tuple((event.kind, tuple(sorted(event.fields.items()))) for event in observer.events)
    )
    parts.append(
        tuple(
            (span.stage, span.tick, span.lane, span.sessions, tuple(sorted(span.detail.items())))
            for span in observer.spans
        )
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


@pytest.mark.parametrize(
    "policy", [IngressPolicy.CLAMP, IngressPolicy.HOLD_LAST, IngressPolicy.REJECT]
)
def test_chaos_replay_digest(policy, fleet, tiny_zoo, detectors):
    report, observer = _replay(policy, fleet, tiny_zoo, detectors)
    ticks = [outcome for trace in report.sessions.values() for outcome in trace.ticks]
    # The replay must reach the branches the digest is meant to pin.
    assert any("malformed" in outcome.fault for outcome in ticks)
    assert any("stuck" in outcome.fault for outcome in ticks)
    assert any(outcome.verdicts.get("madgan") for outcome in ticks)
    tags = {outcome.ingress for outcome in ticks}
    states = {
        event.state.value for trace in report.sessions.values() for event in trace.health_timeline
    }
    if policy is IngressPolicy.REJECT:
        # Rejected deliveries are consecutive errors: sessions quarantine,
        # re-admit on probation and finally fail.
        assert {"rejected", "quarantined"} <= tags
        assert {"quarantined", "recovered", "failed"} <= states
    else:
        assert "held" in tags and any(outcome.attacked for outcome in ticks)
        if policy is IngressPolicy.CLAMP:
            assert "clamped" in tags
    assert _digest(report, observer) == GOLDEN[policy.value]
