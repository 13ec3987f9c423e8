"""A simple majority-vote ensemble over anomaly detectors.

Not part of the paper's evaluation, but a natural extension: the paper's
framework trains *any* static detector selectively, and combining detectors
it studies is the obvious next step.  Any :class:`AnomalyDetector` can join —
the ablation benchmarks vote the paper's three (kNN, OneClassSVM, MAD-GAN),
and the chaos suite adds an LSTM-VAE + HMM window ensemble whose members fail
in genuinely different ways (reconstruction likelihood vs state-sequence
likelihood; see ``docs/detectors.md``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.detectors.base import AnomalyDetector
from repro.utils.validation import check_array


class VotingEnsembleDetector(AnomalyDetector):
    """Flag a window as malicious when at least ``min_votes`` members do."""

    name = "ensemble"

    def __init__(self, detectors: Sequence[AnomalyDetector], min_votes: Optional[int] = None):
        if not detectors:
            raise ValueError("the ensemble needs at least one detector")
        self.detectors: List[AnomalyDetector] = list(detectors)
        if min_votes is None:
            min_votes = len(self.detectors) // 2 + 1
        if not 1 <= min_votes <= len(self.detectors):
            raise ValueError("min_votes must be between 1 and the number of detectors")
        self.min_votes = int(min_votes)

    def fit(self, windows: np.ndarray, labels: Optional[np.ndarray] = None) -> "VotingEnsembleDetector":
        for detector in self.detectors:
            try:
                detector.fit(windows, labels)
            except ValueError:
                # Unsupervised members reject labels-only problems and vice
                # versa; fall back to benign-only fitting when possible.
                detector.fit(windows)
        return self

    # ------------------------------------------------------------- degradation
    def active_detectors(self, exclude: Optional[Sequence] = None) -> List[AnomalyDetector]:
        """The members still voting after dropping ``exclude``.

        ``exclude`` may hold member indices, names, or the detector objects
        themselves — whatever a health-aware caller has on hand when a
        member is quarantined or its stream degrades.
        """
        if not exclude:
            return self.detectors
        dropped = set()
        for item in exclude:
            if isinstance(item, (int, np.integer)):
                dropped.add(int(item))
            else:
                for index, detector in enumerate(self.detectors):
                    if detector is item or getattr(detector, "name", None) == item:
                        dropped.add(index)
        active = [d for i, d in enumerate(self.detectors) if i not in dropped]
        if not active:
            raise ValueError("cannot exclude every ensemble member")
        return active

    def effective_min_votes(self, n_active: int) -> int:
        """Vote threshold renormalized to the surviving member count.

        Preserves the configured vote *fraction*: with 2 of 3 members alive
        and ``min_votes=2`` the degraded ensemble still needs
        ``ceil(2 * 2/3) = 2`` votes, while a bare majority config (2-of-3)
        over 1 survivor degrades to 1-of-1 rather than an impossible 2.
        """
        if not 1 <= n_active <= len(self.detectors):
            raise ValueError("n_active must be between 1 and the number of detectors")
        fraction = self.min_votes / len(self.detectors)
        return max(1, int(np.ceil(fraction * n_active - 1e-12)))

    def _votes(self, windows: np.ndarray, exclude: Optional[Sequence]) -> np.ndarray:
        """``(n_active, n)`` member flags, one ``predict`` per active member."""
        active = self.active_detectors(exclude)
        return np.stack([detector.predict(windows) for detector in active])

    def _decide(self, votes: np.ndarray) -> np.ndarray:
        return (votes.sum(axis=0) >= self.effective_min_votes(len(votes))).astype(int)

    def scores(self, windows: np.ndarray, exclude: Optional[Sequence] = None) -> np.ndarray:
        check_array(windows, "windows", ndim=3, min_samples=1)
        return self._votes(windows, exclude).mean(axis=0)

    def predict(self, windows: np.ndarray, exclude: Optional[Sequence] = None) -> np.ndarray:
        """Majority vote; ``exclude`` drops degraded members and renormalizes.

        With ``exclude`` empty this is exactly the configured
        ``min_votes``-of-N vote; with members dropped the threshold shrinks
        proportionally (:meth:`effective_min_votes`) so one quarantined
        detector cannot silently veto the whole ensemble.
        """
        return self._decide(self._votes(windows, exclude))

    def predict_with_scores(self, windows: np.ndarray, exclude: Optional[Sequence] = None):
        """``(predict, scores)`` from one vote: each member predicts once."""
        votes = self._votes(windows, exclude)
        return self._decide(votes), votes.mean(axis=0)
