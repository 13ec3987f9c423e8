"""The ``risk_profile`` workload: the paper's offline risk-profiling pipeline.

One *pass* runs ``RiskProfilingFramework.assess`` (train-split attack
campaign, risk profiles, clustering), a test-split ``AttackCampaign`` and
``SelectiveTrainingExperiment`` with ``default_detector_factories`` under
the Less-Vulnerable and All-Patients strategies.  A run holds a fixed
number of passes sized to its ``--seconds`` (see ``common.repeat_sized``);
every pass must produce the same result (checked).
Untraced passes and set-up sample the host's speed every 50 ms, and their
times are reported at nominal host speed (see hostspeed.py).

The experiment trains on the paper's Table II less-vulnerable group, as
``scripts/pipeline_smoke.py`` does, not on the cluster the two-day cohort
yields for the seed.  That cluster ranges from two patients to eleven
across seeds, and detector training time scales with it, so a pass's
work would depend on the seed's clustering rather than on the code.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from repro.attacks import AttackCampaign
from repro.data import SyntheticOhioT1DM, expected_less_vulnerable_labels
from repro.eval import DetectorSpec, SelectiveTrainingExperiment, default_detector_factories
from repro.glucose import GlucoseModelZoo
from repro.risk import RiskProfilingFramework, SelectionPlanner

from .common import (
    Outcome,
    layer_defaults,
    loop_metrics,
    mean,
    median,
    peak_rss_mb,
    repeat_sized,
    repeat_setup,
)
from .hostspeed import SpeedProbe
from .tracing import Tracer

ZOO_KWARGS = dict(predictor_kwargs=dict(epochs=2, hidden_size=12), train_personalized=True, seed=3)
CAMPAIGN_STRIDE = 4
STRATEGIES = ("Less Vulnerable", "All Patients")
#: Reduced epoch budgets so a pass takes a few seconds on one core.
FACTORY_KWARGS = dict(madgan_epochs=3, madgan_inversion_steps=20, vae_epochs=3, hmm_iterations=5)
DETECTOR_KEYS = {
    "kNN": "knn",
    "OneClassSVM": "ocsvm",
    "MAD-GAN": "madgan",
    "LSTM-VAE": "lstm_vae",
    "HMM": "hmm",
}
#: Wall time of one untraced pass on the sizing VM (see ``repeat_sized``).
PASS_S = 6.0
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
RECALL_TOLERANCE = 1e-9


def build_inputs(seed: int):
    """The 12-patient cohort for ``seed``, its personalized model zoo and their set-up spans."""
    started = perf_counter()
    cohort = SyntheticOhioT1DM(train_days=2, test_days=1, seed=seed).generate()
    cohort_done = perf_counter()
    zoo = GlucoseModelZoo(**ZOO_KWARGS).fit(cohort)
    spans = {
        "setup.cohort_s": (started, cohort_done),
        "setup.zoo_fit_s": (cohort_done, perf_counter()),
    }
    return (cohort, zoo), spans


def traced_factory(tracer: Tracer, key: str, factory):
    """A factory whose detectors record ``eval.fit.<key>`` / ``eval.score.<key>`` spans."""

    def build():
        detector = factory()
        fit = detector.fit

        def fit_then_trace_scoring(*args, **kwargs):
            result = fit(*args, **kwargs)
            # Wrapped only after fitting, so scoring a detector does while it
            # calibrates counts as fit time.
            detector.predict = tracer.wrap(f"eval.score.{key}", detector.predict)
            return result

        detector.fit = tracer.wrap(f"eval.fit.{key}", fit_then_trace_scoring)
        return detector

    return build


def pipeline_pass(cohort, zoo, tracer: Optional[Tracer] = None) -> dict:
    """One full assess -> test campaign -> selective-training pass."""
    framework = RiskProfilingFramework(zoo, campaign=AttackCampaign(zoo, stride=CAMPAIGN_STRIDE))
    test_campaign = AttackCampaign(zoo, stride=CAMPAIGN_STRIDE)
    factories = default_detector_factories(**FACTORY_KWARGS)
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer.instrument(framework, "risk.assess", ["assess"]))
            stack.enter_context(tracer.instrument(framework, "risk.cluster", ["cluster"]))
            for campaign in (framework.campaign, test_campaign):
                stack.enter_context(tracer.instrument(campaign, "campaign.run", ["run_cohort"]))
            factories = {
                name: DetectorSpec(traced_factory(tracer, DETECTOR_KEYS[name], spec.factory), spec.unit)
                for name, spec in factories.items()
            }
        started = perf_counter()
        assessment = framework.assess(cohort, split="train")
        test_result = test_campaign.run_cohort(cohort, split="test")
        selections = SelectionPlanner(
            all_labels=cohort.labels, less_vulnerable=expected_less_vulnerable_labels()
        ).plan(STRATEGIES)
        experiment = SelectiveTrainingExperiment(
            train_campaign=assessment.campaign,
            test_campaign=test_result,
            detector_factories=factories,
        )
        recall: Dict[str, Dict[str, float]] = {}
        errors: List[str] = []
        for name, spec in factories.items():
            recall[name] = {}
            for strategy in STRATEGIES:
                try:
                    result = experiment.run_strategy(spec, selections[strategy], name)
                except Exception as error:  # a raised fit/score is a failed operation
                    errors.append(f"{name}/{strategy}: {type(error).__name__}: {error}")
                    continue
                recall[name][strategy] = result.recall
        ended = perf_counter()

    records = [record.result for record in assessment.campaign.records + test_result.records]
    eligible = [result for result in records if result.eligible]
    summary = {
        "less_vulnerable": sorted(assessment.less_vulnerable),
        "recall": recall,
    }
    return {
        "span": (started, ended),
        "summary": summary,
        "fingerprint": hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()[:16],
        "errors": errors,
        "fits": len(factories) * len(STRATEGIES),
        "campaign": {
            "model_queries": float(sum(result.queries for result in records)),
            "success_ratio": sum(1 for result in eligible if result.success) / len(eligible) if eligible else 0.0,
        },
        "labels": list(cohort.labels),
    }


def probed_pipeline_pass(cohort, zoo, probe: SpeedProbe) -> dict:
    with probe.periodic():
        return pipeline_pass(cohort, zoo)


def traced_pipeline_pass(cohort, zoo) -> dict:
    tracer = Tracer()
    return dict(pipeline_pass(cohort, zoo, tracer), tracer=tracer)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}


def matches_reference(summary: dict, reference: dict) -> bool:
    if summary["less_vulnerable"] != reference["less_vulnerable"]:
        return False
    for detector, per_strategy in reference["recall"].items():
        for strategy, value in per_strategy.items():
            got = summary["recall"].get(detector, {}).get(strategy)
            if got is None or abs(got - value) > RECALL_TOLERANCE:
                return False
    return True


def knn_recall_gain(summary: dict) -> float:
    knn = summary["recall"].get("kNN", {})
    return knn.get("Less Vulnerable", 0.0) - knn.get("All Patients", 0.0)


def traced_layers(passes: List[dict]) -> Dict[str, float]:
    """Per-pass means of the pipeline's layer spans (inclusive seconds)."""
    layers: Dict[str, float] = {}
    count = len(passes)
    sums: Dict[str, float] = {}
    for result in passes:
        for name, entry in result["tracer"].totals().items():
            sums[name] = sums.get(name, 0.0) + entry["self_s"]
    layers["campaign.s"] = sums.get("campaign.run", 0.0) / count
    layers["risk.cluster_s"] = sums.get("risk.cluster", 0.0) / count
    for key in DETECTOR_KEYS.values():
        layers[f"eval.fit_s.{key}"] = sums.get(f"eval.fit.{key}", 0.0) / count
        layers[f"eval.score_s.{key}"] = sums.get(f"eval.score.{key}", 0.0) / count
    return layers


def run_risk_profile(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    probe = SpeedProbe()
    (cohort, zoo), setups = repeat_setup(lambda: build_inputs(seed), probe)

    # With tracing, untraced and traced passes alternate (see fleet.py).
    if trace:
        pairs = repeat_sized(
            seconds,
            2 * PASS_S,
            lambda: (probed_pipeline_pass(cohort, zoo, probe), traced_pipeline_pass(cohort, zoo)),
        )
        plain, traced = [pair[0] for pair in pairs], [pair[1] for pair in pairs]
    else:
        plain, traced = repeat_sized(seconds, PASS_S, lambda: probed_pipeline_pass(cohort, zoo, probe)), []

    for result in plain + traced:
        outcome.attempted += result["fits"]
        outcome.failed += len(result["errors"])
    first = plain[0]
    summary = first["summary"]
    outcome.check("pipeline.no_fit_or_score_raised", not any(result["errors"] for result in plain + traced))
    outcome.check(
        "pipeline.passes_identical",
        len({result["fingerprint"] for result in plain + traced}) == 1,
    )
    outcome.check(
        "pipeline.less_vulnerable_is_a_proper_subset",
        0 < len(summary["less_vulnerable"]) < len(first["labels"]),
    )
    reference = load_reference().get(str(seed))
    if reference is not None:
        outcome.check("pipeline.matches_reference", matches_reference(summary, reference))
    outcome.info["reference"] = "compared" if reference is not None else "none recorded for this seed"

    walls = [probe.normalized(*result["span"]) for result in plain]
    loop = loop_metrics(walls, [len(first["labels"])] * len(walls))
    outcome.end_to_end = {
        "setup_s": median([sum(timings.values()) for timings in setups]),
        "session_ticks_per_s": loop.pop("session_ticks_per_s"),
        "tick_tail_ms": loop.pop("tick_tail_ms"),
        "pipeline_s": median(walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    outcome.info.update(
        {
            "fingerprint": first["fingerprint"],
            "passes": len(plain),
            "pass_wall_s": walls,
            "pass_slowdown": [probe.slowdown(*result["span"]) for result in plain],
            "raw_pass_s": [result["span"][1] - result["span"][0] for result in plain],
            "traced_passes": len(traced),
            "less_vulnerable": summary["less_vulnerable"],
            "recall": summary["recall"],
            "quality": {"eval.knn_recall_gain": knn_recall_gain(summary)},
        }
    )
    layers = layer_defaults()
    for key in setups[0]:
        layers[key] = median([timings[key] for timings in setups])
    layers.update(loop)
    layers["eval.knn_recall_gain"] = knn_recall_gain(summary)
    layers["campaign.model_queries"] = first["campaign"]["model_queries"]
    layers["campaign.success_ratio"] = first["campaign"]["success_ratio"]
    if trace:
        layers.update(traced_layers(traced))
        untraced = [probe.normalized(*result["span"], scaled=False) for result in plain]
        traced_walls = [result["span"][1] - result["span"][0] for result in traced]
        layers["trace.overhead_pct"] = (mean(traced_walls) / mean(untraced) - 1.0) * 100.0
    outcome.layers = layers
    return outcome
