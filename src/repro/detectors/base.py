"""Common interface and helpers for anomaly detectors.

Every detector consumes feature windows of shape ``(n, history, features)``
(the same windows the forecaster sees) and produces:

* ``scores(windows)`` — a continuous anomaly score, larger = more anomalous,
* ``predict(windows)`` — binary labels, 1 = malicious/anomalous, 0 = benign.

Unsupervised detectors (OneClassSVM, MAD-GAN, distance-based kNN) are fit on
benign windows only and calibrate a score threshold on the benign training
distribution.  The supervised kNN classifier additionally accepts labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import flatten_windows
from repro.utils.timeseries import StandardScaler
from repro.utils.validation import check_array, check_fitted, check_probability


class AnomalyDetector:
    """Base class for anomaly detectors operating on feature windows."""

    #: Human-readable detector name used in experiment reports.
    name: str = "detector"

    def fit(self, windows: np.ndarray, labels: Optional[np.ndarray] = None) -> "AnomalyDetector":
        raise NotImplementedError

    def scores(self, windows: np.ndarray) -> np.ndarray:
        """Continuous anomaly scores (larger = more anomalous)."""
        raise NotImplementedError

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Binary predictions: 1 for anomalous/malicious, 0 for benign."""
        raise NotImplementedError

    def predict_with_scores(self, windows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(predict(windows), scores(windows))`` for one batch.

        Detectors whose decision thresholds their own scores override this to
        score once (see :class:`CalibratedDetector`), so a caller that wants
        both gets the very scores the flags came from.
        """
        return self.predict(windows), self.scores(windows)

    # ------------------------------------------------------------------ helpers
    @staticmethod
    def _flatten(windows: np.ndarray) -> np.ndarray:
        windows = check_array(windows, "windows", ndim=3, min_samples=1)
        return flatten_windows(windows)


@dataclass
class ThresholdCalibrator:
    """Convert continuous anomaly scores into binary decisions.

    The threshold is the ``quantile``-th quantile of the benign training
    scores: a benign false-positive budget of ``1 - quantile`` is accepted in
    exchange for sensitivity to anomalous scores.
    """

    quantile: float = 0.95
    threshold_: Optional[float] = None

    def fit(self, benign_scores: np.ndarray) -> "ThresholdCalibrator":
        check_probability(self.quantile, "quantile")
        benign_scores = check_array(benign_scores, "benign_scores", ndim=1, allow_empty=False)
        self.threshold_ = float(np.quantile(benign_scores, self.quantile))
        return self

    def predict(self, scores: np.ndarray) -> np.ndarray:
        check_fitted(self, ("threshold_",))
        scores = check_array(scores, "scores", ndim=1)
        return (scores > self.threshold_).astype(int)


class CalibratedDetector(AnomalyDetector):
    """A detector whose decision is ``calibrator.predict(scores)``.

    Subclasses set ``self.calibrator`` (a :class:`ThresholdCalibrator`) and
    fit it on benign scores.  Scoring may draw from the detector's RNG
    (MAD-GAN's cold inversion does), so :meth:`predict_with_scores` scores
    once and thresholds those scores rather than scoring twice.
    """

    calibrator: ThresholdCalibrator

    def predict(self, windows: np.ndarray) -> np.ndarray:
        """Binary decisions for raw windows: 1 = anomalous (see :meth:`scores`)."""
        return self.calibrator.predict(self.scores(windows))

    def predict_with_scores(self, windows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        scores = self.scores(windows)
        return self.calibrator.predict(scores), scores


class ScaledDetectorMixin:
    """Mixin providing feature scaling of flattened windows."""

    def _fit_scaler(self, flat: np.ndarray) -> np.ndarray:
        self._scaler = StandardScaler().fit(flat)
        return self._scaler.transform(flat)

    def _apply_scaler(self, flat: np.ndarray) -> np.ndarray:
        if getattr(self, "_scaler", None) is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        return self._scaler.transform(flat)
