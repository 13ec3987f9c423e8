"""Tests for the anomaly detectors (kNN, OneClassSVM, MAD-GAN, ensemble)."""

import hashlib

import numpy as np
import pytest

from tests.conftest import make_toy_windows
from repro.nn import functional as F
from repro.detectors import (
    KNNClassifierDetector,
    KNNDistanceDetector,
    MADGANDetector,
    OneClassSVMDetector,
    ThresholdCalibrator,
    VotingEnsembleDetector,
    kernel_matrix,
    minkowski_distances,
)


class TestThresholdCalibrator:
    def test_quantile_threshold(self):
        calibrator = ThresholdCalibrator(quantile=0.9).fit(np.arange(100.0))
        assert calibrator.threshold_ == pytest.approx(89.1)

    def test_predict_flags_above_threshold(self):
        calibrator = ThresholdCalibrator(quantile=0.5).fit(np.array([0.0, 1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(calibrator.predict(np.array([0.0, 10.0])), [0, 1])

    def test_requires_fit(self):
        with pytest.raises(RuntimeError):
            ThresholdCalibrator().predict(np.array([1.0]))

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            ThresholdCalibrator(quantile=1.5).fit(np.arange(10.0))


class TestDistances:
    def test_euclidean_matches_manual(self, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(7, 3))
        distances = minkowski_distances(a, b, p=2.0)
        manual = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        np.testing.assert_allclose(distances, manual, atol=1e-9)

    def test_manhattan(self):
        distances = minkowski_distances(np.array([[0.0, 0.0]]), np.array([[1.0, 2.0]]), p=1.0)
        assert distances[0, 0] == pytest.approx(3.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            minkowski_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_kernel_matrix_rbf_diagonal_is_one(self, rng):
        data = rng.normal(size=(6, 4))
        gram = kernel_matrix(data, data, "rbf", gamma=0.5, coef0=0.0, degree=3)
        np.testing.assert_allclose(np.diag(gram), 1.0)

    def test_kernel_matrix_linear(self, rng):
        data = rng.normal(size=(4, 3))
        np.testing.assert_allclose(
            kernel_matrix(data, data, "linear", 1.0, 0.0, 3), data @ data.T
        )

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ValueError):
            kernel_matrix(np.zeros((2, 2)), np.zeros((2, 2)), "mystery", 1.0, 0.0, 3)


class TestKNNClassifier:
    def test_detects_separable_anomalies(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNClassifierDetector(n_neighbors=5).fit(windows, labels)
        predictions = detector.predict(windows)
        recall = np.mean(predictions[labels == 1] == 1)
        false_positive_rate = np.mean(predictions[labels == 0] == 1)
        assert recall > 0.7
        assert false_positive_rate < 0.2

    def test_requires_labels(self, toy_detection_data):
        windows, _ = toy_detection_data
        with pytest.raises(ValueError):
            KNNClassifierDetector().fit(windows)

    def test_rejects_non_binary_labels(self, toy_detection_data):
        windows, labels = toy_detection_data
        with pytest.raises(ValueError):
            KNNClassifierDetector().fit(windows, labels + 1)

    def test_scores_are_fractions(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNClassifierDetector().fit(windows, labels)
        scores = detector.scores(windows[:10])
        assert np.all(scores >= 0.0)
        assert np.all(scores <= 1.0)

    def test_distance_weighting_supported(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNClassifierDetector(weights="distance").fit(windows, labels)
        assert detector.predict(windows[:5]).shape == (5,)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KNNClassifierDetector().predict(np.zeros((1, 12, 4)))

    def test_single_timestep_windows_supported(self, toy_detection_data):
        windows, labels = toy_detection_data
        samples = windows[:, -1:, :]
        detector = KNNClassifierDetector().fit(samples, labels)
        assert detector.predict(samples[:3]).shape == (3,)


class TestKNNDistance:
    def test_flags_outliers(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNDistanceDetector(quantile=0.95).fit(windows[labels == 0])
        predictions = detector.predict(windows)
        assert np.mean(predictions[labels == 1] == 1) > 0.8

    def test_benign_false_positive_rate_bounded(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNDistanceDetector(quantile=0.95).fit(windows[labels == 0])
        predictions = detector.predict(windows[labels == 0])
        assert np.mean(predictions) < 0.25

    def test_accepts_labels_and_filters_benign(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = KNNDistanceDetector().fit(windows, labels)
        assert detector.predict(windows[:4]).shape == (4,)


class TestOneClassSVM:
    def test_rbf_detects_anomalies(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.1, seed=0)
        detector.fit(windows[labels == 0])
        predictions = detector.predict(windows)
        assert np.mean(predictions[labels == 1] == 1) > 0.8
        assert np.mean(predictions[labels == 0] == 1) < 0.35

    def test_nu_controls_benign_rejection(self, toy_detection_data):
        windows, labels = toy_detection_data
        benign = windows[labels == 0]
        tight = OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.05, seed=0).fit(benign)
        loose = OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.5, seed=0).fit(benign)
        tight_rate = np.mean(tight.predict(benign))
        loose_rate = np.mean(loose.predict(benign))
        assert loose_rate > tight_rate

    def test_decision_function_sign_convention(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.1, seed=0).fit(
            windows[labels == 0]
        )
        decisions = detector.decision_function(windows)
        predictions = detector.predict(windows)
        np.testing.assert_array_equal(predictions, (decisions < 0).astype(int))

    def test_invalid_nu_rejected(self):
        with pytest.raises(ValueError):
            OneClassSVMDetector(nu=0.0)

    def test_subsampling_limits_training_size(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.2, max_samples=30, seed=0)
        detector.fit(windows[labels == 0])
        assert len(detector._train_scaled) <= 30

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            OneClassSVMDetector().predict(np.zeros((1, 12, 4)))

    def test_sigmoid_kernel_runs(self, toy_detection_data):
        windows, labels = toy_detection_data
        detector = OneClassSVMDetector(kernel="sigmoid", coef0=10.0, nu=0.5, seed=0)
        detector.fit(windows[labels == 0][:40])
        assert detector.predict(windows[:5]).shape == (5,)


class TestMADGAN:
    @pytest.fixture(scope="class")
    def fitted_madgan(self):
        windows, labels = make_toy_windows(
            n_benign=120, n_malicious=0, seed=3
        )
        detector = MADGANDetector(epochs=4, hidden_size=12, inversion_steps=25, seed=0)
        detector.fit(windows[labels == 0])
        return detector

    def test_training_history_recorded(self, fitted_madgan):
        assert len(fitted_madgan.history_.generator_losses) == 4
        assert len(fitted_madgan.history_.discriminator_losses) == 4

    def test_detects_large_manipulations(self, fitted_madgan):
        windows, labels = make_toy_windows(
            n_benign=30, n_malicious=30, seed=9
        )
        predictions = fitted_madgan.predict(windows)
        assert np.mean(predictions[labels == 1] == 1) > 0.7

    def test_benign_false_positive_rate_bounded(self, fitted_madgan):
        windows, labels = make_toy_windows(
            n_benign=40, n_malicious=0, seed=11
        )
        assert np.mean(fitted_madgan.predict(windows)) < 0.3

    def test_wrong_window_shape_rejected(self, fitted_madgan):
        with pytest.raises(ValueError):
            fitted_madgan.predict(np.zeros((2, 5, 4)))

    def test_scores_before_fit_raise(self):
        with pytest.raises(RuntimeError):
            MADGANDetector().scores(np.zeros((1, 12, 4)))

    def test_invalid_reconstruction_weight(self):
        with pytest.raises(ValueError):
            MADGANDetector(reconstruction_weight=1.5)


class TestMADGANFastPathRegression:
    """The graph-free inversion/scoring fast paths are pinned to the autodiff
    reference: reconstruction errors within 1e-8, detection decisions
    unchanged."""

    @pytest.fixture(scope="class")
    def fitted(self):
        windows, labels = make_toy_windows(n_benign=90, n_malicious=0, seed=3)
        detector = MADGANDetector(epochs=3, hidden_size=10, inversion_steps=20, seed=0)
        detector.fit(windows[labels == 0])
        return detector

    def test_reconstruction_errors_match_graph_path(self, fitted):
        windows, _ = make_toy_windows(n_benign=12, n_malicious=8, seed=21)
        scaled = fitted._scale(windows)
        latent = fitted._sample_latent(len(scaled)) * 0.1
        fast = fitted._reconstruction_errors(scaled, fast_path=True, initial_latent=latent)
        graph = fitted._reconstruction_errors(scaled, fast_path=False, initial_latent=latent)
        np.testing.assert_allclose(fast, graph, atol=1e-8, rtol=0.0)

    def test_discrimination_scores_match_graph_path(self, fitted):
        windows, _ = make_toy_windows(n_benign=10, n_malicious=5, seed=22)
        scaled = fitted._scale(windows)
        fast = fitted._discrimination_scores(scaled)
        fitted.use_fast_path = False
        try:
            graph = fitted._discrimination_scores(scaled)
        finally:
            fitted.use_fast_path = True
        np.testing.assert_allclose(fast, graph, atol=1e-10, rtol=0.0)

    def test_detection_decisions_unchanged(self, fitted):
        # Same fitted detector, same latent initialization: routing the DR
        # score through the fast path must not flip a single decision on the
        # seed fixture windows.
        windows, _ = make_toy_windows(n_benign=20, n_malicious=12, seed=33)
        scaled = fitted._scale(windows)
        latent = fitted._sample_latent(len(scaled)) * 0.1

        def decisions(fast_path: bool) -> np.ndarray:
            reconstruction = fitted._reconstruction_errors(
                scaled, fast_path=fast_path, initial_latent=latent
            )
            fitted.use_fast_path = fast_path
            try:
                scores = fitted._dr_scores(scaled, reconstruction)
            finally:
                fitted.use_fast_path = True
            return fitted.calibrator.predict(scores)

        np.testing.assert_array_equal(decisions(True), decisions(False))

    def test_inversion_grad_matches_autodiff(self, fitted):
        windows, _ = make_toy_windows(n_benign=6, n_malicious=0, seed=44)
        scaled = fitted._scale(windows)
        latent_values = fitted._sample_latent(len(scaled)) * 0.1
        assert_inversion_grad_matches_autodiff(fitted.generator, latent_values, scaled)

    @pytest.mark.parametrize("timesteps", [1, 12])
    @pytest.mark.parametrize("batch", [1, 7, 64])
    def test_inversion_grad_matches_autodiff_across_shapes(self, fitted, batch, timesteps):
        # timesteps=1 exercises the single-step backward (no recurrence).
        windows, _ = make_toy_windows(n_benign=batch, n_malicious=0, seed=44)
        scaled = fitted._scale(windows)[:, :timesteps]
        latent_values = fitted._sample_latent(batch)[:, :timesteps] * 0.1
        assert_inversion_grad_matches_autodiff(fitted.generator, latent_values, scaled)

    def test_scoring_caches_no_workspace(self, fitted):
        # The inversion workspace lives for one call: snapshots and the
        # shipped model stay the size and hash of the fitted detector.
        import pickle

        windows, _ = make_toy_windows(n_benign=9, n_malicious=3, seed=45)
        size_before = len(pickle.dumps(fitted))
        hash_before = fitted.generator.state_hash()
        fitted.scores(windows)
        states = [fitted.make_inversion_state() for _ in range(len(windows))]
        fitted.scores_incremental(windows, states)
        fitted.scores_incremental(windows, states)
        assert len(pickle.dumps(fitted)) == size_before
        assert fitted.generator.state_hash() == hash_before

    def test_inversion_grad_reads_current_weights(self, fitted):
        windows, _ = make_toy_windows(n_benign=5, n_malicious=0, seed=46)
        scaled = fitted._scale(windows)
        latent = fitted._sample_latent(len(scaled)) * 0.1
        weight = fitted.generator.lstm.cell.weight_hidden
        original = weight.data
        _, grad_before = fitted.generator.inversion_grad(latent, scaled)
        grad_before = grad_before.copy()
        try:
            # Rebind `.data`, as fit does.
            noise = np.random.default_rng(0).normal(size=original.shape)
            weight.data = original + 0.05 * noise
            _, grad_after = fitted.generator.inversion_grad(latent, scaled)
            assert not np.array_equal(grad_after, grad_before)
            assert_inversion_grad_matches_autodiff(fitted.generator, latent, scaled)
        finally:
            weight.data = original


def assert_inversion_grad_matches_autodiff(generator, latent_values, target):
    """``inversion_grad`` within 1e-10 (generated) / 1e-12 (gradient) of autodiff."""
    from repro.nn import Parameter, Tensor

    generated_fast, grad_fast = generator.inversion_grad(latent_values, target)

    latent = Parameter(latent_values.copy(), name="latent")
    generator.zero_grad()
    generated = generator(latent)
    residual = generated - Tensor(target)
    (residual * residual).mean().backward()

    np.testing.assert_allclose(generated_fast, generated.numpy(), atol=1e-10, rtol=0.0)
    np.testing.assert_allclose(grad_fast, latent.grad, atol=1e-12, rtol=0.0)
    generator.zero_grad()


def reference_inversion_grad(generator, latent, target):
    """Per-step reference for ``SequenceGenerator.inversion_grad``.

    The straightforward form of the latent-only BPTT: batch-major arrays,
    one gate slice per call, fresh arrays everywhere.  The kernel must match
    it bit for bit, so every elementwise expression and every matmul here
    keeps the operation order and operand layout the kernel promises.
    """
    cell = generator.lstm.cell
    weight_input = cell.weight_input.data
    weight_hidden = cell.weight_hidden.data
    head_weight = generator.head.weight.data
    batch, timesteps, latent_dim = latent.shape
    size = generator.hidden_size
    projections = (latent.reshape(batch * timesteps, latent_dim) @ weight_input).reshape(
        batch, timesteps, 4 * size
    )
    hidden = np.zeros((batch, size))
    cell_state = np.zeros((batch, size))
    hidden_seq = np.empty((batch, timesteps, size))
    saved = []
    for step in range(timesteps):
        gates = (projections[:, step, :] + hidden @ weight_hidden) + cell.bias.data
        i = F.sigmoid(gates[:, 0:size])
        f = F.sigmoid(gates[:, size : 2 * size])
        g = np.tanh(gates[:, 2 * size : 3 * size])
        o = F.sigmoid(gates[:, 3 * size :])
        prev_cell = cell_state
        cell_state = f * cell_state + i * g
        tanh_c = np.tanh(cell_state)
        hidden = o * tanh_c
        hidden_seq[:, step, :] = hidden
        saved.append((i, f, g, o, prev_cell, tanh_c))
    generated = (
        hidden_seq.reshape(batch * timesteps, size) @ head_weight + generator.head.bias.data
    ).reshape(batch, timesteps, -1)

    residual = generated - target
    d_generated = residual * (1.0 / residual.size)
    d_generated = d_generated + d_generated
    d_hidden_seq = (
        d_generated.reshape(batch * timesteps, -1) @ head_weight.T
    ).reshape(batch, timesteps, size)
    d_hidden = np.zeros((batch, size))
    d_cell = np.zeros((batch, size))
    d_projections = np.empty_like(projections)
    for step in range(timesteps - 1, -1, -1):
        i, f, g, o, prev_cell, tanh_c = saved[step]
        dh = d_hidden_seq[:, step, :] + d_hidden
        dc = d_cell + dh * o * (1.0 - tanh_c**2)
        d_gates = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * prev_cell * f * (1.0 - f),
                dc * i * (1.0 - g**2),
                dh * tanh_c * o * (1.0 - o),
            ],
            axis=1,
        )
        d_cell = dc * f
        d_hidden = d_gates @ weight_hidden.T
        d_projections[:, step, :] = d_gates
    d_latent = (
        d_projections.reshape(batch * timesteps, 4 * size) @ weight_input.T
    ).reshape(latent.shape)
    return generated, d_latent


def _digest(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestMADGANInversionGolden:
    """Bitwise pin of the generator-inversion kernel.

    The sha256 digests below were recorded from the previous inversion
    implementation on x86-64 (numpy 2, OpenBLAS).  Every output that goes
    through the kernel — one-shot gradients at three batch sizes, the
    calibration done by ``fit``, cold scores, a warm/cold incremental stream
    and its final carry-over states — must reproduce them bit for bit.  A
    kernel change that alters one rounding anywhere fails here, even when it
    would pass the 1e-12 autodiff tolerance.  A different BLAS build may
    round the fixture's matmuls differently, so the digests are re-recorded
    from an unchanged kernel on such a platform;
    ``test_inversion_grad_matches_per_step_reference`` checks the same
    bitwise contract on any platform.
    """

    GOLDEN = {
        "calibration": (
            "e6b3a0fe9cfaa6d1452ccebc129f00e1fee08b0e59a35d6e0a264f9ba1a73411"
        ),
        "grad_b1": (
            "c4c82aca23f3d7586688c2ec2869d5d6e203986bcfc32f8a1b33121bad9d1c07"
        ),
        "grad_b21": (
            "346ced7738469a75082fa6e850735f7e06a4c76575d5491dd535c7e624c21cd7"
        ),
        "grad_b192": (
            "e3b117c5ae949b9cddb499c488417013d65b031810e0473d5f98d08281b586a9"
        ),
        "cold_scores": (
            "ac96ed6d65311ef29502e244ac56c2075431b0ee11f15474970e97d09ca7bcaf"
        ),
        "stream_scores": (
            "9000ce0303491181f7ff3ff3085c0079429a55c8010f62860e5160e8bd29dce3"
        ),
        "stream_states": (
            "489be2b536188f6c39b1905dbfa63181eb4ebc961db3b69a3ee3c0db52c19faa"
        ),
    }

    @pytest.fixture(scope="class")
    def fitted(self):
        windows, labels = make_toy_windows(n_benign=90, n_malicious=0, seed=3)
        detector = MADGANDetector(
            epochs=3,
            hidden_size=10,
            inversion_steps=20,
            warm_inversion_steps=6,
            cold_refresh_interval=8,
            seed=0,
        )
        return detector.fit(windows[labels == 0])

    def test_calibration_digest(self, fitted):
        digest = _digest(
            [fitted.calibrator.threshold_, fitted._benign_reconstruction_scale]
        )
        assert digest == self.GOLDEN["calibration"]

    @pytest.mark.parametrize("timesteps", [1, 12])
    @pytest.mark.parametrize("batch", [1, 21, 192])
    def test_inversion_grad_matches_per_step_reference(self, fitted, batch, timesteps):
        # The platform-independent twin of the digests: same bits as the
        # per-step reference under whatever BLAS this host runs.
        windows, _ = make_toy_windows(n_benign=150, n_malicious=42, seed=50)
        scaled = fitted._scale(windows)[:batch, :timesteps]
        latent = np.random.default_rng(batch).normal(size=(batch, timesteps, 4)) * 0.1
        generated, grad = fitted.generator.inversion_grad(latent, scaled)
        expected_generated, expected_grad = reference_inversion_grad(
            fitted.generator, latent, scaled
        )
        assert generated.tobytes() == expected_generated.tobytes()
        assert grad.tobytes() == expected_grad.tobytes()

    @pytest.mark.parametrize("batch", [1, 21, 192])
    def test_inversion_grad_digest(self, fitted, batch):
        windows, _ = make_toy_windows(n_benign=150, n_malicious=42, seed=50)
        scaled = fitted._scale(windows)[:batch]
        latent = np.random.default_rng(batch).normal(size=(batch, 12, 4)) * 0.1
        generated, grad = fitted.generator.inversion_grad(latent, scaled)
        assert _digest(generated, grad) == self.GOLDEN[f"grad_b{batch}"]

    def test_cold_scores_digest(self, fitted):
        from repro.utils.rng import as_random_state

        windows, _ = make_toy_windows(n_benign=20, n_malicious=12, seed=51)
        fitted._rng = as_random_state(101)
        assert _digest(fitted.scores(windows)) == self.GOLDEN["cold_scores"]

    def test_incremental_stream_digest(self, fitted):
        from repro.utils.rng import as_random_state

        n_ticks = 20
        traces = [make_toy_trace(n_ticks, seed=60 + index) for index in range(3)]
        # A spoofed stretch on stream 0: the CGM ramps away, the warm residual
        # regresses and the stream falls back to cold inversions.
        traces[0][18:24, 0] += 40.0 * np.arange(1, 7)
        fitted._rng = as_random_state(102)
        states = [fitted.make_inversion_state() for _ in traces]
        scores = []
        for tick in range(n_ticks):
            windows = np.stack(
                [trace[tick : tick + fitted.sequence_length] for trace in traces]
            )
            scores.append(fitted.scores_incremental(windows, states))
        assert states[0].fallbacks >= 2
        assert _digest(np.stack(scores)) == self.GOLDEN["stream_scores"]
        state_bits = _digest(
            *[
                np.concatenate(
                    [
                        state.latent.ravel(),
                        [state.error, state.ticks, state.fallbacks],
                        [state.consecutive_fallbacks],
                    ]
                )
                for state in states
            ]
        )
        assert state_bits == self.GOLDEN["stream_states"]


def make_toy_trace(n_ticks: int, seed: int = 5, history: int = 12):
    """A smooth benign trace whose sliding windows match the toy statistics."""
    generator = np.random.default_rng(seed)
    length = n_ticks + history - 1
    timeline = np.arange(length) / float(history)
    cgm = 110 + 18 * np.sin(2 * np.pi * (timeline + generator.uniform()))
    cgm = cgm + generator.normal(0, 2.5, size=length)
    other = generator.normal(0.0, 1.0, size=(length, 3))
    return np.column_stack([cgm, other])


def sliding_windows(trace: np.ndarray, n_ticks: int, history: int = 12):
    return np.stack([trace[tick : tick + history] for tick in range(n_ticks)])


class TestMADGANIncremental:
    """Warm-started incremental scoring is pinned to the cold path: a cold
    first call is bitwise-identical, warm continuations stay within a
    documented score tolerance with unchanged decisions, and a regressing
    warm start falls back to the cold inversion."""

    TOLERANCE = 0.5  # warm-vs-cold DR score gap bound on the toy fixture

    @pytest.fixture(scope="class")
    def fitted(self):
        windows, labels = make_toy_windows(n_benign=90, n_malicious=0, seed=3)
        detector = MADGANDetector(
            epochs=3,
            hidden_size=10,
            inversion_steps=20,
            warm_inversion_steps=6,
            seed=0,
        )
        detector.fit(windows[labels == 0])
        return detector

    def test_first_call_matches_cold_scores_exactly(self, fitted):
        from repro.utils.rng import as_random_state

        windows = sliding_windows(make_toy_trace(4), 4)
        fitted._rng = as_random_state(77)
        cold = fitted.scores(windows)
        states = [fitted.make_inversion_state() for _ in range(len(windows))]
        fitted._rng = as_random_state(77)
        warm = fitted.scores_incremental(windows, states)
        np.testing.assert_array_equal(warm, cold)
        for state in states:
            assert state.latent is not None
            assert state.latent.shape == (fitted.sequence_length, fitted.latent_dim)
            assert state.error is not None
            assert state.ticks == 1
            assert state.fallbacks == 0

    def test_warm_scores_track_cold_with_identical_decisions(self, fitted):
        n_streams, n_ticks = 3, 8
        traces = [make_toy_trace(n_ticks, seed=40 + index) for index in range(n_streams)]
        states = [fitted.make_inversion_state() for _ in range(n_streams)]
        for tick in range(n_ticks):
            windows = np.stack(
                [trace[tick : tick + fitted.sequence_length] for trace in traces]
            )
            warm = fitted.scores_incremental(windows, states)
            cold = fitted.scores(windows)
            assert np.abs(warm - cold).max() <= self.TOLERANCE
            np.testing.assert_array_equal(
                fitted.calibrator.predict(warm), fitted.calibrator.predict(cold)
            )
        assert all(state.ticks == n_ticks for state in states)

    def test_regressing_warm_start_falls_back_to_cold(self, fitted):
        windows = sliding_windows(make_toy_trace(1, seed=9), 1)
        state = fitted.make_inversion_state()
        # A stale, far-off latent with an implausibly tiny previous error:
        # the warm residual must regress beyond the fallback ratio.
        state.latent = np.full((fitted.sequence_length, fitted.latent_dim), 2.5)
        state.error = 1e-9
        state.ticks = 1
        warm = fitted.scores_incremental(windows, [state])
        assert state.fallbacks == 1
        cold = fitted.scores(windows)
        assert abs(float(warm[0]) - float(cold[0])) <= self.TOLERANCE

    def test_fallback_keeps_the_better_inversion(self, fitted):
        # Same setup, but the carried error is so tiny the fallback fires even
        # though the warm result may beat the cold restart; the stored error
        # must be the minimum of the two.
        windows = sliding_windows(make_toy_trace(1, seed=10), 1)
        state = fitted.make_inversion_state()
        state.latent = np.zeros((fitted.sequence_length, fitted.latent_dim))
        state.error = 1e-12
        warm = fitted.scores_incremental(windows, [state])
        assert state.fallbacks == 1
        assert np.isfinite(warm).all()
        assert state.error is not None and state.error >= 0.0

    def test_restored_state_without_error_is_cold_verified(self, fitted):
        # A state deserialized with a latent but no carried error must not
        # crash: the fallback comparison runs against the floor instead.
        windows = sliding_windows(make_toy_trace(1, seed=14), 1)
        state = fitted.make_inversion_state()
        state.latent = np.zeros((fitted.sequence_length, fitted.latent_dim))
        state.error = None
        scores = fitted.scores_incremental(windows, [state])
        assert np.isfinite(scores).all()
        assert state.error is not None

    def test_predict_incremental_reuses_one_inversion(self, fitted):
        windows = sliding_windows(make_toy_trace(2, seed=11), 2)
        states = [fitted.make_inversion_state() for _ in range(len(windows))]
        flags, scores = fitted.predict_incremental(windows, states, include_scores=True)
        np.testing.assert_array_equal(flags, fitted.calibrator.predict(scores))
        assert all(state.ticks == 1 for state in states)

    def test_state_alignment_validated(self, fitted):
        windows = sliding_windows(make_toy_trace(2, seed=12), 2)
        with pytest.raises(ValueError, match="same length"):
            fitted.scores_incremental(windows, [fitted.make_inversion_state()])
        bad = fitted.make_inversion_state()
        bad.latent = np.zeros((3, fitted.latent_dim))
        with pytest.raises(ValueError, match="shape"):
            fitted.scores_incremental(windows[:1], [bad])

    def test_invalid_warm_parameters_rejected(self):
        with pytest.raises(ValueError):
            MADGANDetector(warm_inversion_steps=0)
        with pytest.raises(ValueError):
            MADGANDetector(warm_fallback_ratio=0.5)
        with pytest.raises(ValueError):
            MADGANDetector(cold_refresh_interval=0)

    def test_reference_path_detector_rejects_incremental(self):
        detector = MADGANDetector(use_fast_path=False)
        with pytest.raises(ValueError, match="fast-path"):
            detector.scores_incremental(
                np.zeros((1, 12, 4)), [detector.make_inversion_state()]
            )

    def test_cold_refresh_reanchors_periodically(self, fitted):
        trace = make_toy_trace(7, seed=15)
        state = fitted.make_inversion_state()
        calls = []
        original = fitted._invert_fast

        def recording(scaled, initial, steps):
            calls.append((len(scaled), steps))
            return original(scaled, initial, steps)

        previous_interval = fitted.cold_refresh_interval
        fitted._invert_fast = recording
        fitted.cold_refresh_interval = 3
        try:
            for tick in range(6):
                window = trace[tick : tick + fitted.sequence_length][np.newaxis]
                fitted.scores_incremental(window, [state])
        finally:
            fitted._invert_fast = original
            fitted.cold_refresh_interval = previous_interval
        steps = [step for _, step in calls]
        # tick 0 cold, ticks 1-2 warm, tick 3 refresh (cold), ticks 4-5 warm
        assert steps == [
            fitted.inversion_steps,
            fitted.warm_inversion_steps,
            fitted.warm_inversion_steps,
            fitted.inversion_steps,
            fitted.warm_inversion_steps,
            fitted.warm_inversion_steps,
        ]
        assert state.ticks == 6
        assert state.fallbacks == 0

    def test_state_reset_forgets_carryover(self, fitted):
        windows = sliding_windows(make_toy_trace(1, seed=13), 1)
        state = fitted.make_inversion_state()
        fitted.scores_incremental(windows, [state])
        state.reset()
        assert state.latent is None
        assert state.error is None
        assert state.ticks == 0


class TestEnsemble:
    def test_majority_vote(self, toy_detection_data):
        windows, labels = toy_detection_data
        ensemble = VotingEnsembleDetector(
            [KNNClassifierDetector(n_neighbors=3), KNNDistanceDetector(), OneClassSVMDetector(kernel="rbf", gamma="scale", nu=0.1, seed=0)]
        )
        ensemble.fit(windows, labels)
        predictions = ensemble.predict(windows)
        assert np.mean(predictions[labels == 1] == 1) > 0.6

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            VotingEnsembleDetector([])

    def test_min_votes_validated(self):
        with pytest.raises(ValueError):
            VotingEnsembleDetector([KNNDistanceDetector()], min_votes=5)
