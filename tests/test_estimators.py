import numpy as np
import pytest
import scipy.linalg

import reference
from rtfdoa.covariance import CovarianceTracker, SmoothingConfig
from rtfdoa.errors import ConfigurationError
from rtfdoa.estimators import (
    PowerCwTracker,
    WhitenedTracker,
    _eigh_principal,
    _loaded_cholesky,
    _normalize_columns,
    batch_cs,
    batch_cw,
    batch_sc,
    schur_head_inverse,
)


def _random_psd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    return scale * (a @ a.conj().T) + 0.1 * scale * np.eye(p)


def _rank_one_plus_noise(g, phi_n, sig2=1.0):
    g = np.asarray(g, dtype=complex)
    return phi_n + sig2 * np.outer(g, g.conj())


def _cs(phi_y, phi_n):
    """CS of [K, P, P] stacks, from their reference columns."""
    return batch_cs(phi_y[..., 0], phi_n[..., 0])


# ---------------------------------------------------------------- cholesky

def test_cholesky_identity():
    fac, ok = _loaded_cholesky(np.eye(3)[None] + 0j)
    assert ok[0]
    np.testing.assert_allclose(fac[0], np.eye(3), atol=1e-9)


def test_cholesky_hand_case():
    phi = np.array([[4.0, 2.0], [2.0, 2.0]], dtype=complex)
    fac, _ = _loaded_cholesky(phi[None])
    np.testing.assert_allclose(fac[0], [[2.0, 0.0], [1.0, 1.0]], atol=1e-9)


def test_cholesky_reconstructs_random_pd(rng):
    phi = _random_psd(rng, 5)
    fac = _loaded_cholesky(phi[None])[0][0]
    assert np.allclose(np.triu(fac, 1), 0.0)
    np.testing.assert_allclose(fac @ fac.conj().T, phi,
                               atol=1e-12 * np.linalg.norm(phi))


def test_cholesky_batch_shape(rng):
    stack = np.stack([_random_psd(rng, 3) for _ in range(4)])
    fac, ok = _loaded_cholesky(stack)
    assert fac.shape == stack.shape and ok.all()
    np.testing.assert_allclose(fac @ fac.conj().transpose(0, 2, 1), stack,
                               atol=1e-10)


def test_cholesky_rejects_indefinite(rng):
    # the indefinite bin is flagged and gets an identity factor; the
    # positive-definite bins around it are still factored
    good = _random_psd(rng, 2)
    stack = np.stack([good, np.diag([1.0, -1.0]).astype(complex), good])
    fac, ok = _loaded_cholesky(stack)
    np.testing.assert_array_equal(ok, [True, False, True])
    np.testing.assert_array_equal(fac[1], np.eye(2))
    np.testing.assert_allclose(fac[2] @ fac[2].conj().T, good, atol=1e-10)


# ------------------------------------------------- dense principal vector

def test_principal_eigenvector_diagonal():
    v, ok = _eigh_principal(np.diag([3.0, 1.0]).astype(complex)[None])
    assert ok[0]
    np.testing.assert_allclose(np.abs(v[0]), [1.0, 0.0], atol=1e-12)


def test_principal_eigenvector_rank_one_direction():
    g = np.array([1.0, 0.5 - 0.5j, -0.3j])
    h = np.outer(g, g.conj()) + 0.1 * np.eye(3)
    v, ok = _eigh_principal(h[None])
    assert ok[0]
    # unit norm, and parallel to g up to a phase
    assert np.linalg.norm(v[0]) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(g / np.linalg.norm(g), v[0])) == pytest.approx(1.0, abs=1e-12)


def test_principal_eigenvector_matches_dense_solver(rng):
    # indefinite on purpose: the algebraically largest eigenvalue wins,
    # not the one of largest modulus
    h = rng.standard_normal((5, 5, 5)) + 1j * rng.standard_normal((5, 5, 5))
    h = h + h.conj().transpose(0, 2, 1)
    v, ok = _eigh_principal(h)
    assert ok.all()
    for k in range(5):
        w = np.linalg.eigvalsh(h[k])
        rho = np.vdot(v[k], h[k] @ v[k]).real
        assert np.linalg.norm(h[k] @ v[k] - rho * v[k]) <= 1e-8 * np.linalg.norm(h[k])
        assert rho == pytest.approx(w[-1], rel=1e-9)


# ------------------------------------------------------------ subtraction

def test_cs_recovers_rank_one_exactly():
    for g in ([1.0, 2.0], [1.0, 1.0j], [1.0, 0.5 - 0.5j, 2.0j]):
        g = np.array(g, dtype=complex)
        phi_n = np.eye(len(g), dtype=complex)
        phi_y = _rank_one_plus_noise(g, phi_n, sig2=0.7)
        values, valid = _cs(phi_y[None], phi_n[None])
        assert valid[0]
        np.testing.assert_allclose(values[0], g, atol=1e-14)


def test_cs_any_column_recovers_rank_one(rng):
    # under colored noise the reference column CS takes recovers g, and so
    # would any other column of phi_y - phi_n: fixing the column loses nothing
    g = np.array([1.0, 0.5 - 0.5j, -1.3 + 0.2j])
    phi_n = _random_psd(rng, 3)
    phi_y = _rank_one_plus_noise(g, phi_n, sig2=2.0)
    values, valid = _cs(phi_y[None], phi_n[None])
    assert valid[0]
    np.testing.assert_allclose(values[0], g, atol=1e-12)
    diff = phi_y - phi_n
    for j in range(3):
        np.testing.assert_allclose(diff[:, j] / diff[0, j], values[0], atol=1e-12)


def test_cs_extended_head_entries_match_head_only(rng):
    phi_y = np.stack([_random_psd(rng, 5) for _ in range(3)])
    phi_n = np.stack([_random_psd(rng, 5, scale=0.3) for _ in range(3)])
    ext, _ = _cs(phi_y, phi_n)
    head, _ = _cs(phi_y[:, :4, :4], phi_n[:, :4, :4])
    np.testing.assert_allclose(ext[:, :4], head, atol=1e-13)


def test_cs_monte_carlo_sample_covariances(rng):
    # sample covariances from 10^4 snapshots at 0 dB recover the RTF
    g = np.array([1.0, 0.5 - 0.5j])
    n_frames = 10_000
    s = (rng.standard_normal(n_frames) + 1j * rng.standard_normal(n_frames))
    s /= np.sqrt(2)
    noise = (rng.standard_normal((n_frames, 2)) + 1j * rng.standard_normal((n_frames, 2)))
    noise /= np.sqrt(2)
    y = s[:, None] * g + noise
    phi_y = (y.conj().T @ y).T / n_frames
    phi_n = (noise.conj().T @ noise).T / n_frames
    values, valid = _cs(phi_y[None], phi_n[None])
    assert valid[0]
    assert values[0, 0] == 1.0 + 0.0j
    np.testing.assert_allclose(values[0], g, atol=0.05)


def test_cs_identical_matrices_invalid():
    phi = _random_psd(np.random.default_rng(0), 3)
    values, valid = _cs(phi[None], phi[None])
    assert not valid[0]
    assert np.all(values[0] == 0.0)


def test_cs_shape_errors():
    # columns of unequal length, and matrix stacks, which CS does not take
    with pytest.raises(ConfigurationError):
        batch_cs(np.ones((1, 3), dtype=complex), np.ones((1, 2), dtype=complex))
    with pytest.raises(ConfigurationError):
        batch_cs(np.eye(3)[None].astype(complex), np.eye(3)[None].astype(complex))


# -------------------------------------------------------------- whitening

def test_cw_white_noise_reduces_to_cs(rng):
    for _ in range(5):
        p = 4
        g = np.concatenate([[1.0], rng.standard_normal(p - 1)
                            + 1j * rng.standard_normal(p - 1)])
        phi_n = 0.7 * np.eye(p, dtype=complex)
        phi_y = _rank_one_plus_noise(g, phi_n, sig2=1.3)
        cw, cw_ok = batch_cw(phi_y[None], phi_n[None])
        cs, cs_ok = _cs(phi_y[None], phi_n[None])
        assert cw_ok[0] and cs_ok[0]
        np.testing.assert_allclose(cw[0], cs[0], atol=1e-8)
        np.testing.assert_allclose(cw[0], g, atol=1e-8)


def test_cw_hand_case_unequal_noise_powers():
    # phi_n = diag(1, 4): whitening maps g = [1, 1] to [1, 0.5], the
    # eigenvector step picks that direction, de-whitening restores [1, 1]
    g = np.array([1.0, 1.0], dtype=complex)
    phi_n = np.diag([1.0, 4.0]).astype(complex)
    phi_y = _rank_one_plus_noise(g, phi_n)
    values, valid = batch_cw(phi_y[None], phi_n[None])
    assert valid[0]
    np.testing.assert_allclose(values[0], g, atol=1e-9)


def test_cw_matches_generalized_eig_oracle(rng):
    # independent route: u = phi_n x with x the top generalized
    # eigenvector of (phi_y, phi_n)
    for _ in range(8):
        p = 5
        phi_n = _random_psd(rng, p)
        g = np.concatenate([[1.0], rng.standard_normal(p - 1)
                            + 1j * rng.standard_normal(p - 1)])
        phi_y = _rank_one_plus_noise(g, phi_n, sig2=3.0)
        x = scipy.linalg.eigh(phi_y, phi_n)[1][:, -1]
        u = phi_n @ x
        ref = u / u[0]
        values, valid = batch_cw(phi_y[None], phi_n[None])
        assert valid[0]
        np.testing.assert_allclose(values[0], ref, atol=1e-8 * np.abs(ref).max())


def test_cw_indefinite_noise_invalidates_bin(rng):
    phi_y = _random_psd(rng, 3)
    bad = np.diag([1.0, -1.0, 1.0]).astype(complex)
    good = np.eye(3, dtype=complex)
    values, valid = batch_cw(np.stack([phi_y, phi_y]), np.stack([bad, good]))
    assert not valid[0]
    assert valid[1]
    assert np.all(values[0] == 0.0)


def test_cw_nonfinite_bin_flagged_invalid(rng):
    phi_n = np.eye(2, dtype=complex)
    phi_y = _rank_one_plus_noise([1.0, 1.0j], phi_n)
    broken = phi_y.copy()
    broken[0, 0] = np.nan
    values, valid = batch_cw(np.stack([broken, phi_y]),
                             np.stack([phi_n, phi_n]))
    assert not valid[0]
    assert valid[1]


def test_whitened_tracker_validation():
    with pytest.raises(ConfigurationError):
        WhitenedTracker(4, 1)


def test_power_tracker_converges_to_exact_cw(rng):
    n_bins, p = 6, 5
    phi_n = np.stack([_random_psd(rng, p) for _ in range(n_bins)])
    gains = rng.standard_normal((n_bins, p)) + 1j * rng.standard_normal((n_bins, p))
    phi_y = np.stack([_rank_one_plus_noise(gains[k], phi_n[k], 5.0)
                      for k in range(n_bins)])
    exact, exact_ok = batch_cw(phi_y, phi_n)
    assert exact_ok.all()

    tracker = PowerCwTracker(n_bins, p)
    noise_inverse = np.linalg.inv(phi_n)
    for _ in range(60):
        values, valid = tracker.estimate(phi_y, noise_inverse)
    assert valid.all()
    np.testing.assert_allclose(values, exact, atol=1e-8)
    # the rank-one model's RTF is its gain over the reference entry
    np.testing.assert_allclose(values, gains / gains[:, :1], atol=1e-8)
    np.testing.assert_array_equal(values[:, 0], 1.0)


def test_power_tracker_partial_refresh_keeps_other_bins(rng):
    # the inverse the tracker steps with moves only in the bins gated as
    # noise; the other bins keep theirs, and every bin converges to the
    # exact CW of the noise covariance it actually holds
    n_bins, p = 3, 4
    mix_a = np.stack([_random_psd(rng, p) for _ in range(n_bins)])
    mix_b = np.stack([_random_psd(rng, p) for _ in range(n_bins)])
    cov = CovarianceTracker(p, n_bins, SmoothingConfig(0.9, 0.9))

    def frames(mix, mask):
        for _ in range(200):
            z = rng.standard_normal((n_bins, p)) + 1j * rng.standard_normal((n_bins, p))
            cov.update_frame(np.einsum("kpq,kq->pk", mix, z), mask)

    frames(mix_a, np.zeros(n_bins, dtype=bool))
    kept = cov.noise_inverse.copy()
    frames(mix_b, np.array([True, False, True]))
    np.testing.assert_array_equal(cov.noise_inverse[[0, 2]], kept[[0, 2]])
    assert not np.allclose(cov.noise_inverse[1], kept[1])

    phi_y = np.stack([_rank_one_plus_noise([1.0, 2.0, 1.0j, -0.5], cov.noise[k], 10.0)
                      for k in range(n_bins)])
    tracker = PowerCwTracker(n_bins, p)
    for _ in range(60):
        values, valid = tracker.estimate(phi_y, cov.noise_inverse)
    exact, _ = batch_cw(phi_y, cov.noise)
    assert valid.all()
    np.testing.assert_allclose(values, exact, atol=1e-8)


def test_power_tracker_invalid_bins(rng):
    phi_y = np.stack([_rank_one_plus_noise([1.0, 1.0j, 2.0], np.eye(3))] * 3)
    noise_inverse = np.stack([np.eye(3, dtype=complex)] * 3)
    noise_inverse[0] = 0.0  # a zero step
    tracker = PowerCwTracker(3, 3)
    broken = phi_y.copy()
    broken[1, 0, 0] = np.nan
    values, valid = tracker.estimate(broken, noise_inverse)
    # a zero step, then a non-finite step; the third bin is fine
    np.testing.assert_array_equal(valid, [False, False, True])
    assert np.all(values[:2] == 0.0)
    # the non-finite step restarts the bin instead of poisoning it
    values, valid = tracker.estimate(phi_y, noise_inverse)
    np.testing.assert_array_equal(valid, [False, True, True])
    assert np.isfinite(values).all()
    # an inverse that turns non-zero makes its bin valid again
    _, valid = tracker.estimate(phi_y, np.stack([np.eye(3, dtype=complex)] * 3))
    assert valid.all()


def test_schur_head_inverse_matches_direct_inverse(rng):
    p = 5
    phi = np.stack([_random_psd(rng, p) for _ in range(4)])
    inv = np.linalg.inv(phi)
    head = schur_head_inverse(inv, p - 1)
    np.testing.assert_allclose(head, np.linalg.inv(phi[:, :p - 1, :p - 1]),
                               rtol=1e-10, atol=1e-10 * np.abs(head).max())
    assert schur_head_inverse(inv, p) is inv
    with pytest.raises(ConfigurationError):
        schur_head_inverse(inv, p - 2)


def test_schur_head_inverse_ignores_a_dead_channel(rng):
    # an all-zero last channel: its entry of the tracked inverse grows by
    # 1/alpha every noise frame and, at alpha = 0.5, would overflow after
    # about 1000 of them. The tracker re-seeds it instead, and the head
    # block read through the Schur complement stays the inverse that a
    # tracker without the channel follows, as do the CW steps taken with it
    n_bins, p = 6, 5
    smoothing = SmoothingConfig(0.5, 0.5)
    full = CovarianceTracker(p, n_bins, smoothing)
    head = CovarianceTracker(p - 1, n_bins, smoothing)
    cw_full, cw_head = PowerCwTracker(n_bins, p - 1), PowerCwTracker(n_bins, p - 1)
    for frame in range(1500):
        y = rng.standard_normal((p, n_bins)) + 1j * rng.standard_normal((p, n_bins))
        y[-1] = 0.0
        mask = rng.random(n_bins) < 0.3
        full.update_frame(y, mask)
        head.update_frame(y[:-1], mask)
        inverse = schur_head_inverse(full.noise_inverse, p - 1)
        values, valid = cw_full.estimate(full.noisy[:, :-1, :-1], inverse)
        expected, expected_valid = cw_head.estimate(head.noisy, head.noise_inverse)
        np.testing.assert_array_equal(valid, expected_valid)
        np.testing.assert_allclose(values, expected, rtol=0, atol=1e-8)
        if frame % 100 == 0:
            np.testing.assert_allclose(inverse, head.noise_inverse, rtol=0,
                                       atol=1e-10 * np.abs(head.noise_inverse).max())


def _pd_stack(rng, n_bins, p):
    a = rng.standard_normal((n_bins, p, 2 * p)) + 1j * rng.standard_normal((n_bins, p, 2 * p))
    scale = 10.0 ** rng.uniform(-4.0, 4.0, (n_bins, 1, 1))
    return scale * np.einsum("kpi,kqi->kpq", a, a.conj()) / (2 * p)


@pytest.mark.parametrize("dim", [5, 4])
def test_power_step_matches_reference_bit_for_bit(rng, dim):
    # values, valid flags and the carried vectors equal the plain step of
    # reference.power_step over 40 steps, on the stacks as the pipeline
    # passes them (strided head blocks and the Schur inverse for cw-head).
    # Every third step has a zero power step in bin 0, a non-finite phi_y
    # entry in bin 1 and a zero normalizer in bin 2; the others are all
    # valid and take the kernels' all-valid paths
    n_bins, p = 30, 5
    tracker = PowerCwTracker(n_bins, dim)
    w = tracker._w.copy()
    awkward = all_valid = 0
    for step in range(40):
        phi_y = _pd_stack(rng, n_bins, p)
        inverse = np.linalg.inv(_pd_stack(rng, n_bins, p))
        if step % 3 == 1:
            phi_y[0] = 0.0
            phi_y[1, 0, 1] = np.inf
            phi_y[2, 0, :] = phi_y[2, :, 0] = 0.0
        head = phi_y[:, :dim, :dim]
        # the non-finite bin's step divides inf by inf
        with np.errstate(invalid="ignore"):
            values, valid = tracker.estimate(head, schur_head_inverse(inverse, dim))
            expected, expected_valid, w = reference.power_step(
                w, tracker._start, head, reference.schur_head_inverse(inverse, dim)
                if dim < p else inverse)
        assert np.array_equal(values, expected), step
        assert np.array_equal(valid, expected_valid), step
        assert np.array_equal(tracker._w, w), step
        awkward += not valid[:3].any()
        all_valid += bool(valid.all())
    assert awkward == 13 and all_valid > 10, (awkward, all_valid)


def test_normalize_columns_matches_reference_bit_for_bit(rng):
    # into a new array, into the columns themselves, and into a strided
    # view of a wider stack (as batch_sc overwrites its columns); with every
    # row valid, and with tiny and zero normalizers
    n, m = 40, 4
    for tiny in (False, True):
        cols = 10.0 ** rng.uniform(-6.0, 6.0, (n, 1)) * (
            rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        if tiny:
            cols[::7, 0] *= 1e-14
            cols[3] = 0.0
        scale = np.linalg.norm(cols, axis=1)
        expected, expected_valid = reference.normalize_columns(cols, scale)
        assert expected_valid.all() != tiny
        wide = np.concatenate([cols, np.ones((n, 1))], axis=1)
        for target in ("new", "cols", "view"):
            c = wide[:, :m] if target == "view" else cols.copy()
            values, valid = _normalize_columns(c, scale, None if target == "new" else c)
            assert np.array_equal(values, expected), target
            assert np.array_equal(valid, expected_valid), target
            if target != "new":
                assert np.shares_memory(values, c)


def test_cs_and_schur_match_reference_bit_for_bit(rng):
    # on reference columns read as strided views of the tracked stacks; one
    # CS stack is all valid, the other has bins whose reference entries of
    # phi_y - phi_n cancel exactly or to a tiny normalizer
    n_bins, p = 40, 5
    for crafted in (False, True):
        phi_y, phi_n = _pd_stack(rng, n_bins, p), _pd_stack(rng, n_bins, p)
        if crafted:
            phi_n[::5] = phi_y[::5]
            phi_n[1::5, :, 0] = phi_y[1::5, :, 0] * (1.0 - 1e-15)
            phi_n[1::5, 0, :] = phi_n[1::5, :, 0].conj()
        for m in (4, 5):
            values, valid = batch_cs(phi_y[:, :m, 0], phi_n[:, :m, 0])
            expected, expected_valid = reference.batch_cs(phi_y[:, :m, 0],
                                                          phi_n[:, :m, 0])
            assert np.array_equal(values, expected)
            assert np.array_equal(valid, expected_valid)
            assert expected_valid.all() != crafted
        inverse = np.linalg.inv(phi_n)
        assert np.array_equal(schur_head_inverse(inverse, p - 1),
                              reference.schur_head_inverse(inverse, p - 1))


def test_power_tracker_validation():
    with pytest.raises(ConfigurationError):
        PowerCwTracker(4, 1)


# ------------------------------------------------------- spatial coherence

def test_sc_rank_one_drops_external_entry():
    a = np.array([1.0, 2.0, 0.5], dtype=complex)  # two head mics + external
    phi_y = np.outer(a, a.conj())
    values, valid = batch_sc(phi_y[None][..., -1])
    assert valid[0]
    assert values[0].shape == (2,)
    np.testing.assert_allclose(values[0], [1.0, 2.0], atol=1e-14)


def test_sc_immune_to_uncorrelated_noise():
    # noise uncorrelated with the external mic leaves the estimate exact
    a = np.array([1.0, 2.0, 0.5], dtype=complex)
    phi_head_noise = np.zeros((3, 3), dtype=complex)
    phi_head_noise[:2, :2] = _random_psd(np.random.default_rng(7), 2)
    phi_head_noise[2, 2] = 3.0
    phi_y = np.outer(a, a.conj()) + phi_head_noise
    values, valid = batch_sc(phi_y[None][..., -1])
    assert valid[0]
    np.testing.assert_allclose(values[0], [1.0, 2.0], atol=1e-14)


def test_sc_bias_grows_with_external_correlation():
    a = np.array([1.0, 2.0, 0.5], dtype=complex)
    clean = np.outer(a, a.conj())
    errors = []
    for rho in (0.0, 0.05, 0.1, 0.2):
        phi_y = clean.copy()
        phi_y[0, 2] += rho
        phi_y[2, 0] += rho
        values, _ = batch_sc(phi_y[None][..., -1])
        errors.append(np.linalg.norm(values[0] - np.array([1.0, 2.0])))
    assert errors[0] == pytest.approx(0.0, abs=1e-14)
    assert all(e2 > e1 for e1, e2 in zip(errors, errors[1:]))


def test_sc_silent_external_mic_invalid():
    phi_y = np.zeros((3, 3), dtype=complex)
    phi_y[:2, :2] = np.outer([1.0, 2.0], [1.0, 2.0])
    values, valid = batch_sc(phi_y[None][..., -1])
    assert not valid[0]
    assert np.all(values[0] == 0.0)


def test_sc_ignores_the_external_gain(rng):
    # the external channel 300 dB down scales the column's head entries by
    # g and its last entry by g^2; values and validity stay as they were,
    # where a floor relative to the whole matrix would flag every bin
    g = 1e-15
    mix = rng.standard_normal((6, 3, 3)) + 1j * rng.standard_normal((6, 3, 3))
    phi_y = mix @ mix.conj().swapaxes(-1, -2)
    phi_y[4, 0, 2] = phi_y[4, 2, 0] = 0.0  # a zero reference entry
    phi_y[5, :, 2] = phi_y[5, 2, :] = 0.0  # an all-zero column
    columns = phi_y[..., -1]
    quiet = g * columns
    quiet[:, -1] *= g
    values, valid = batch_sc(columns)
    quiet_values, quiet_valid = batch_sc(quiet)
    np.testing.assert_array_equal(valid, [True] * 4 + [False] * 2)
    np.testing.assert_array_equal(quiet_valid, valid)
    np.testing.assert_allclose(quiet_values, values, rtol=1e-14, atol=0)


def test_sc_needs_two_channels():
    with pytest.raises(ConfigurationError):
        batch_sc(np.ones((1, 1, 1), dtype=complex)[..., -1])


# ------------------------------------------------------------ shared traits

def test_all_estimators_scale_invariant(rng):
    p = 5
    phi_n = _random_psd(rng, p)
    g = np.concatenate([[1.0], rng.standard_normal(p - 1)
                        + 1j * rng.standard_normal(p - 1)])
    phi_y = _rank_one_plus_noise(g, phi_n)
    c = 3.7e4
    cs_a = _cs(phi_y[None], phi_n[None])[0]
    cs_b = _cs(c * phi_y[None], c * phi_n[None])[0]
    np.testing.assert_allclose(cs_a, cs_b, atol=1e-12)
    cw_a = batch_cw(phi_y[None], phi_n[None])[0]
    cw_b = batch_cw(c * phi_y[None], c * phi_n[None])[0]
    np.testing.assert_allclose(cw_a, cw_b, atol=1e-10)
    sc_a = batch_sc(phi_y[None][..., -1])[0]
    sc_b = batch_sc((c * phi_y[None])[..., -1])[0]
    np.testing.assert_allclose(sc_a, sc_b, atol=1e-12)


def test_reference_entry_is_exactly_one(rng):
    phi_n = np.stack([_random_psd(rng, 4) for _ in range(6)])
    phi_y = np.stack([
        _rank_one_plus_noise(np.concatenate([[1.0], rng.standard_normal(3) + 0j]),
                             phi_n[k]) for k in range(6)
    ])
    for values, valid in (_cs(phi_y, phi_n), batch_cw(phi_y, phi_n),
                          batch_sc(phi_y[..., -1])):
        assert valid.all()
        assert np.all(values[:, 0] == 1.0 + 0.0j)
