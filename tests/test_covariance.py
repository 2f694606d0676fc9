import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from rtfdoa import covariance
from rtfdoa.activity import SppDetector
from rtfdoa.covariance import ColumnTracker, CovarianceTracker, SmoothingConfig
from rtfdoa.errors import ConfigurationError, NumericalFailure
from reference import initial_state, update

SM = SmoothingConfig(alpha_y=0.9, alpha_n=0.95)


def _random_snapshot(rng, p):
    return rng.standard_normal(p) + 1j * rng.standard_normal(p)


def test_from_time_constants_formula():
    sm = SmoothingConfig.from_time_constants(0.25, 0.5, hop=256, sample_rate=16000)
    assert sm.alpha_y == pytest.approx(math.exp(-256 / (16000 * 0.25)))
    assert sm.alpha_n == pytest.approx(math.exp(-256 / (16000 * 0.5)))
    assert 0.9 < sm.alpha_y < sm.alpha_n < 1.0


def test_smoothing_validation():
    with pytest.raises(ConfigurationError):
        SmoothingConfig(alpha_y=1.0, alpha_n=0.5)
    with pytest.raises(ConfigurationError):
        SmoothingConfig(alpha_y=0.5, alpha_n=-0.1)
    with pytest.raises(ConfigurationError):
        SmoothingConfig.from_time_constants(0.0, 0.5, 256, 16000)


def test_initial_state_scaled_identity():
    st0 = initial_state(3, eps=1e-4)
    np.testing.assert_array_equal(st0.phi_y, 1e-4 * np.eye(3))
    np.testing.assert_array_equal(st0.phi_n, 1e-4 * np.eye(3))
    assert st0.frames_seen_y == 0 and st0.frames_seen_n == 0
    with pytest.raises(ConfigurationError):
        initial_state(0)
    with pytest.raises(ConfigurationError):
        initial_state(2, eps=0.0)


def test_alpha_zero_makes_speech_update_a_plain_outer(rng):
    sm = SmoothingConfig(alpha_y=0.0, alpha_n=0.0)
    y = _random_snapshot(rng, 3)
    out = update(initial_state(3), y, True, sm)
    np.testing.assert_allclose(out.phi_y, np.outer(y, y.conj()), atol=1e-15)
    assert out.frames_seen_y == 1 and out.frames_seen_n == 0


def test_silent_noise_frame_just_decays():
    st0 = initial_state(2, eps=1.0)
    out = update(st0, np.zeros(2), False, SM)
    np.testing.assert_allclose(out.phi_n, SM.alpha_n * np.eye(2), atol=1e-15)
    np.testing.assert_array_equal(out.phi_y, st0.phi_y)


def test_exactly_one_matrix_changes(rng):
    state = initial_state(4)
    y = _random_snapshot(rng, 4)
    speech = update(state, y, True, SM)
    assert np.array_equal(speech.phi_n, state.phi_n)
    assert not np.array_equal(speech.phi_y, state.phi_y)
    noise = update(state, y, False, SM)
    assert np.array_equal(noise.phi_y, state.phi_y)
    assert not np.array_equal(noise.phi_n, state.phi_n)
    assert (speech.frames_seen_y, speech.frames_seen_n) == (1, 0)
    assert (noise.frames_seen_y, noise.frames_seen_n) == (0, 1)


def test_update_rejects_nonfinite():
    with pytest.raises(NumericalFailure):
        update(initial_state(2), np.array([1.0, np.nan]), True, SM)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 5),
       st.floats(0.0, 0.999), st.booleans())
def test_update_preserves_hermitian_psd(seed, p, alpha, speech):
    rng = np.random.default_rng(seed)
    state = initial_state(p)
    sm = SmoothingConfig(alpha_y=alpha, alpha_n=alpha)
    for _ in range(4):
        y = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        state = update(state, y, speech, sm)
    phi = state.phi_y if speech else state.phi_n
    np.testing.assert_allclose(phi, phi.conj().T, atol=1e-12)
    eigvals = np.linalg.eigvalsh(phi)
    assert eigvals.min() >= -1e-10 * max(eigvals.max(), 1.0)


def test_trace_stays_convex_combination(rng):
    # trace of the update is the same convex combination of traces
    state = initial_state(3, eps=0.5)
    y = _random_snapshot(rng, 3)
    out = update(state, y, True, SM)
    expected = SM.alpha_y * np.trace(state.phi_y).real \
        + (1 - SM.alpha_y) * np.vdot(y, y).real
    assert np.trace(out.phi_y).real == pytest.approx(expected, rel=1e-12)


def test_smoothed_estimate_converges_to_truth():
    # stationary snapshots: relative Frobenius error of the smoothed
    # estimate settles near sqrt((1-a)/(1+a)) * tr(Phi) / ||Phi||_F
    alpha = 0.999
    sm = SmoothingConfig(alpha_y=alpha, alpha_n=alpha)
    p = 2
    truth = np.eye(p)
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        state = initial_state(p, eps=1e-6)
        for _ in range(12000):
            y = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2)
            state = update(state, y, True, sm)
        rel = np.linalg.norm(state.phi_y - truth) / np.linalg.norm(truth)
        assert rel < 0.05


def test_tracker_matches_scalar_updates(rng):
    n_bins, p = 6, 3
    tracker = CovarianceTracker(p, n_bins, SM, eps_init=1e-3)
    states = [initial_state(p, eps=1e-3) for _ in range(n_bins)]
    for _ in range(5):
        y = _random_snapshot(rng, p * n_bins).reshape(p, n_bins)
        mask = rng.random(n_bins) < 0.5
        tracker.update_frame(y, mask)
        states = [update(s, y[:, k], bool(mask[k]), SM)
                  for k, s in enumerate(states)]
    for k in range(n_bins):
        np.testing.assert_allclose(tracker.noisy[k], states[k].phi_y, atol=1e-13)
        np.testing.assert_allclose(tracker.noise[k], states[k].phi_n, atol=1e-13)


def test_tracker_stays_exactly_hermitian(rng):
    # update_frame does not re-symmetrize: the recursion itself must keep
    # every entry the exact conjugate of its mirror, bit for bit, and so
    # must the rank-one update of the tracked inverse
    n_bins, p = 33, 5
    tracker = CovarianceTracker(p, n_bins, SM)
    for _ in range(300):
        scale = 10.0 ** rng.uniform(-4.0, 4.0)
        y = scale * _random_snapshot(rng, p * n_bins).reshape(p, n_bins)
        tracker.update_frame(y, rng.random(n_bins) < 0.3)
    for phi in (tracker.noisy, tracker.noise, tracker.noise_inverse):
        assert np.array_equal(phi, phi.conj().swapaxes(-1, -2))


def test_noise_psd_is_the_noise_diagonal_bit_for_bit(rng):
    # the SPP detector's own noise PSD equals the head block of the noise
    # covariance's diagonal under the detector's masks, bootstrap frames
    # included, at snapshot scales spanning sixteen decades (each with its
    # initial PSD scaled alike); a random fifth of the bins is ten times
    # louder in each frame, so the masks mix
    n_bins, p, n_head = 33, 5, 4
    for scale in 10.0 ** np.arange(-8.0, 9.0, 4.0):
        eps = 1e-6 * scale ** 2
        detector = SppDetector(n_head, n_bins, SM.alpha_n, eps_init=eps)
        full = CovarianceTracker(p, n_bins, SM, eps_init=eps)
        mixed = 0
        for _ in range(60):
            y = scale * _random_snapshot(rng, p * n_bins).reshape(p, n_bins)
            y[:, rng.random(n_bins) < 0.2] *= 10.0
            mask = detector.step(y)
            full.update_frame(y, mask)
            assert np.array_equal(
                detector.psd, full.noise.diagonal(axis1=1, axis2=2).real[:, :n_head].T)
            mixed += 0 < np.count_nonzero(mask) < n_bins
        assert detector.frames == 60 and mixed > 30, (scale, mixed)


def _ranked_rows(masks):
    """The (frame, bin) of each row of a block update, in the documented
    order: rank by rank, the bins of a rank by speech-frame count, most
    first, then by index."""
    spoken = [np.flatnonzero(masks[:, k]) for k in range(masks.shape[1])]
    order = sorted(range(masks.shape[1]), key=lambda k: (-spoken[k].size, k))
    rows = [(spoken[k][j], k) for j in range(masks.shape[0])
            for k in order if spoken[k].size > j]
    return np.array(rows, dtype=np.intp).reshape(-1, 2).T


def test_block_update_is_the_noisy_last_column_bit_for_bit(rng):
    # the block update of the column tracker writes each speech (frame,
    # bin)'s new column into its row of the stack, and each row is the
    # last column of a full tracker that took the block frame by frame,
    # over blocks of 1 to 20 frames with random gating (a bin that is
    # speech in every frame, blocks with no speech, one-frame blocks) and
    # snapshot scales spanning sixteen decades, then over 300 one-frame
    # blocks whose gating mixes every share of speech bins
    n_bins, p, always = 33, 5, 7
    column = ColumnTracker(p, n_bins, SM)
    full = CovarianceTracker(p, n_bins, SM)
    assert np.array_equal(column.noisy_column, full.noisy[:, :, -1])
    lengths = ([1, 1, 20, 3] + [int(n) for n in rng.integers(1, 21, size=60)]
               + [1] * 300)
    for block, n in enumerate(lengths):
        scales = 10.0 ** rng.uniform(-8.0, 8.0, size=n)
        y = scales * _random_snapshot(rng, p * n_bins * n).reshape(p, n_bins, n)
        masks = rng.random((n, n_bins)) < rng.random()
        if block < 64:
            masks[:, always] = True
        if block % 9 == 2:
            masks[:] = False
        out = np.full((n * n_bins, p), np.nan + 0j)
        frames, bins = column.update_block(y, masks, out)
        assert np.array_equal(np.stack([frames, bins]), _ranked_rows(masks))
        assert np.isnan(out[frames.size:]).all()
        rows = {}
        for i in range(n):
            full.update_frame(y[:, :, i], masks[i])
            rows.update({(i, k): full.noisy[k, :, -1].copy()
                         for k in np.flatnonzero(masks[i])})
        assert len(rows) == frames.size
        for row, frame, k in zip(out, frames, bins):
            assert np.array_equal(row, rows[frame, k]), (block, frame, k)
        assert np.array_equal(column.noisy_column, full.noisy[:, :, -1])


def test_tracked_inverse_matches_inverse_of_noise(rng):
    n_bins, p = 9, 5
    tracker = CovarianceTracker(p, n_bins, SM)
    for _ in range(200):
        y = _random_snapshot(rng, p * n_bins).reshape(p, n_bins)
        tracker.update_frame(y, rng.random(n_bins) < 0.3)
    exact = np.linalg.inv(tracker.noise)
    np.testing.assert_allclose(tracker.noise_inverse, exact,
                               rtol=0, atol=1e-10 * np.abs(exact).max())


def test_tracked_inverse_does_not_drift():
    # 20 000 noise-gated frames per bin on a field whose condition number
    # runs from 1 to 3e8 over the bins. The error of the tracked inverse
    # settles within the first tenth of the run at a level set by the
    # conditioning (about 1e-4 in the worst bin) and then stays there; a
    # drifting recursion (e.g. one whose outer product is not exactly
    # Hermitian) grows by orders of magnitude per thousand frames
    rng = np.random.default_rng(5)
    n_bins, p, n_frames = 16, 5, 20000
    mixes = []
    for cond in np.logspace(0, 8.5, n_bins):
        q, _ = np.linalg.qr(_random_snapshot(rng, p * p).reshape(p, p))
        mixes.append(q * np.sqrt(np.logspace(0, -np.log10(cond), p)))
    mixes = np.array(mixes)
    tracker = CovarianceTracker(p, n_bins, SmoothingConfig(0.95, 0.97))
    no_speech = np.zeros(n_bins, dtype=bool)
    errors = []
    for frame in range(1, n_frames + 1):
        z = _random_snapshot(rng, n_bins * p).reshape(n_bins, p) / np.sqrt(2)
        tracker.update_frame(np.einsum("kpq,kq->pk", mixes, z), no_speech)
        if frame % 10 == 0:
            residual = tracker.noise_inverse @ tracker.noise - np.eye(p)
            errors.append(np.linalg.norm(residual, axis=(1, 2)))
    inverse = tracker.noise_inverse
    assert np.array_equal(inverse, inverse.conj().swapaxes(-1, -2))
    assert np.linalg.cond(tracker.noise).max() >= 1e8
    errors = np.array(errors)
    assert errors.max() < 1e-2, errors.max()
    # growth is what is under test: the trend of the log error over the
    # bins, fitted over the run after its first tenth. Seeds 0-7 fit
    # rises of -3 % to +3 % over the 18 000 frames
    settled = len(errors) // 10
    rise = np.polyfit(np.linspace(0.0, 1.0, len(errors) - settled),
                      np.log(errors[settled:]).mean(axis=1), 1)[0]
    assert rise < math.log(1.25), math.exp(rise)


@pytest.mark.parametrize("n_silent", [300, 1200])
def test_tracked_inverse_recovers_after_digital_silence(rng, n_silent):
    # at alpha = 0.5 every frame of exact zeros doubles the tracked
    # inverse: 300 of them take it past 1e90, where the first update after
    # the silence would cancel it down to rounding error, and 1200 of them
    # overflow it. Either way the bins are re-seeded from phi, so the
    # inverse stays finite and matches phi^-1 once the noise is back
    n_bins, p = 6, 5
    tracker = CovarianceTracker(p, n_bins, SmoothingConfig(0.5, 0.5))

    def frames(n, scale):
        for _ in range(n):
            y = scale * _random_snapshot(rng, p * n_bins).reshape(p, n_bins)
            tracker.update_frame(y, rng.random(n_bins) < 0.3)
            assert np.isfinite(tracker.noise_inverse).all()

    frames(50, 1.0)
    frames(n_silent, 0.0)
    frames(120, 1.0)
    inverse = tracker.noise_inverse
    assert np.array_equal(inverse, inverse.conj().swapaxes(-1, -2))
    exact = np.linalg.inv(tracker.noise)
    np.testing.assert_allclose(inverse, exact, rtol=0,
                               atol=1e-10 * np.abs(exact).max())


def _strided_frames(y: np.ndarray) -> np.ndarray:
    """The frames [P, K, L] as strided views of one block, as the pipeline
    hands them to the tracker."""
    block = np.zeros(y.shape[:2] + (2 * y.shape[2],), dtype=np.complex128)
    block[:, :, ::2] = y
    return block[:, :, ::2]


def test_gated_update_matches_reference_bit_for_bit(rng, monkeypatch):
    # the in-place update equals the plain gated recursion of
    # reference.gated_update, matrices and inverses, bit for bit:
    # over mixed masks, frames gated wholly as speech or wholly as noise,
    # snapshot scales spanning eight decades, and 100 frames of exact zeros
    # in a third of the bins, whose inverses are re-seeded when the signal
    # returns (as some are in the first frames, where phi_n is near-singular)
    n_bins, p = 24, 5
    sm = SmoothingConfig(alpha_y=0.7, alpha_n=0.5)
    tracker = CovarianceTracker(p, n_bins, sm)
    phi_y, phi_n = tracker.noisy.copy(), tracker.noise.copy()
    inv_n = tracker.noise_inverse.copy()
    reseeded = []
    floored = covariance._floored_inverse

    def counting(phi):
        reseeded.append(len(phi))
        return floored(phi)

    monkeypatch.setattr(covariance, "_floored_inverse", counting)
    n_frames = 160
    y = 10.0 ** rng.uniform(-4.0, 4.0, n_frames) * (
        rng.standard_normal((p, n_bins, n_frames))
        + 1j * rng.standard_normal((p, n_bins, n_frames)))
    silent = range(0, n_bins, 3)
    y[:, silent, 40:140] = 0.0
    masks = rng.random((n_frames, n_bins)) < rng.random((n_frames, 1))
    masks[10:20] = False
    masks[30:35] = True
    frames = _strided_frames(y)
    for i in range(n_frames):
        if i == 40:
            before_silence = sum(reseeded)
        tracker.update_frame(frames[:, :, i], masks[i])
        phi_y, phi_n, inv_n = reference.gated_update(
            phi_y, phi_n, inv_n, y[:, :, i], masks[i], sm)
        assert np.array_equal(tracker.noisy, phi_y), i
        assert np.array_equal(tracker.noise, phi_n), i
        assert np.array_equal(tracker.noise_inverse, inv_n), i
    # the kernel and the reference both re-seed through the counter
    assert before_silence > 0, reseeded
    assert sum(reseeded) - before_silence >= 2 * len(silent), reseeded


def _random_pd_stack(rng, n_bins, p):
    a = rng.standard_normal((n_bins, p, 2 * p)) + 1j * rng.standard_normal((n_bins, p, 2 * p))
    return np.einsum("kpi,kqi->kpq", a, a.conj()) / (2 * p)


def test_rank_one_inverse_matches_reference_bit_for_bit(rng):
    # in place, the input stack being the output, with the snapshots a
    # transposed view as the tracker passes them
    n_bins, p = 40, 5
    for alpha in (0.5, 0.97):
        for _ in range(20):
            inv = np.linalg.inv(_random_pd_stack(rng, n_bins, p))
            phi = _random_pd_stack(rng, n_bins, p)
            y = 10.0 ** rng.uniform(-3, 3) * _random_snapshot(
                rng, n_bins * p).reshape(p, n_bins).T
            expected = reference.rank_one_inverse(inv, y, alpha, phi)
            out = covariance._rank_one_inverse(inv.copy(), y, alpha, phi)
            assert np.array_equal(out, expected)


def test_rank_one_inverse_reseeds_only_the_bins_a_rule_flags(rng):
    # one crafted bin per re-seed rule, each alone in a stack of healthy
    # bins: only that bin is re-seeded from its phi, and every other bin
    # equals the plain Sherman-Morrison step bit for bit
    n_bins, p, alpha = 7, 5, 0.9
    eye = np.eye(p, dtype=np.complex128)
    healthy_inv = np.linalg.inv(_random_pd_stack(rng, n_bins, p))
    healthy_phi = _random_pd_stack(rng, n_bins, p)
    healthy_y = _random_snapshot(rng, n_bins * p).reshape(n_bins, p)
    crafted = {
        # y^H M y overflows while M y and (M y)(M y)^H do not: d is +inf,
        # its reciprocal 0, so the plain step is M / alpha, finite and
        # positive, and only the finiteness of d flags the bin
        "d": (1e-50 * eye, np.full(p, 1e200 + 0j), eye),
        # a negative definite M with y = 0: finite d, trace below zero
        "trace": (-eye, np.zeros(p, dtype=np.complex128), eye),
        # a healthy M against a phi whose trace makes tr(M) tr(phi) pass
        # the bound
        "bound": (eye, 1e-3 * np.ones(p, dtype=np.complex128), 1e14 * eye),
    }
    for rule, (m, y_bin, phi_bin) in crafted.items():
        bin_ = 3
        inv, y, phi = healthy_inv.copy(), healthy_y.copy(), healthy_phi.copy()
        inv[bin_], y[bin_], phi[bin_] = m, y_bin, phi_bin
        plain, d = reference.rank_one_step(inv, y, alpha)
        trace = np.einsum("kpp->k", plain).real
        trace_phi = np.einsum("kpp->k", phi).real
        # the crafted bin breaks its rule and no other
        assert np.isfinite(d[bin_]) == (rule != "d"), rule
        assert (trace[bin_] > 0.0) == (rule != "trace"), rule
        assert (trace[bin_] * trace_phi[bin_]
                <= covariance._TRACE_PRODUCT_BOUND) == (rule != "bound"), rule
        out = covariance._rank_one_inverse(inv.copy(), y, alpha, phi)
        others = np.arange(n_bins) != bin_
        assert np.array_equal(out[others], plain[others]), rule
        assert np.array_equal(out[bin_], covariance._floored_inverse(phi[[bin_]])[0]), rule
        assert not np.array_equal(out[bin_], plain[bin_]), rule
        assert np.array_equal(out, reference.rank_one_inverse(inv, y, alpha, phi))


def test_tracker_validation(rng):
    tracker = CovarianceTracker(2, 3, SM)
    with pytest.raises(ConfigurationError):
        tracker.update_frame(np.zeros((3, 3), dtype=complex), np.ones(3, bool))
    with pytest.raises(ConfigurationError):
        CovarianceTracker(0, 3, SM)
    # the column tracker keeps no noise statistic and no matrix
    column = ColumnTracker(2, 3, SM)
    for matrix in ("noise", "noisy", "noise_inverse"):
        assert not hasattr(column, matrix), matrix
    for n_channels, n_bins in ((0, 3), (2, 0)):
        with pytest.raises(ConfigurationError):
            ColumnTracker(n_channels, n_bins, SM)
    with pytest.raises(ConfigurationError, match="block shape"):
        column.update_block(np.zeros((2, 4, 1), dtype=complex),
                            np.ones((1, 4), bool), np.empty((4, 2), dtype=complex))
    with pytest.raises(ConfigurationError):
        CovarianceTracker(2, 3, SmoothingConfig(alpha_y=0.9, alpha_n=0.0))
