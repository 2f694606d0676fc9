import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtfdoa import activity
from rtfdoa.activity import (
    SppDetector,
    oracle_labels,
    oracle_labels_from_power,
    read_labels,
    spp,
    write_labels,
)
from rtfdoa.errors import ConfigurationError


def test_spp_at_zero_power_closed_form():
    # gamma = 0 collapses the likelihood ratio to 1 / (2 + xi)
    xi = 10.0 ** 1.5
    expected = 1.0 / (2.0 + xi)
    assert expected == pytest.approx(0.0297418, abs=1e-7)
    assert spp(0.0, 1.0) == pytest.approx(expected, rel=1e-12)


def test_spp_saturates_for_strong_power():
    assert spp(1000.0, 1.0) > 1.0 - 1e-12
    assert spp(1000.0, 1.0) <= 1.0


def test_spp_vectorized_shape():
    power = np.array([[0.0, 1.0], [10.0, 100.0]])
    out = spp(power, np.ones_like(power))
    assert out.shape == power.shape
    assert np.all((out >= 0.0) & (out <= 1.0))


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1e4), st.floats(0.0, 1e4),
       st.floats(1e-6, 1e4))
def test_spp_monotone_in_posterior_snr(p1, p2, psd):
    lo, hi = sorted((p1, p2))
    assert spp(lo, psd) <= spp(hi, psd) + 1e-15


def test_spp_clamps_nonpositive_psd(caplog):
    with caplog.at_level("WARNING"):
        out = spp(np.array([1.0, 1.0]), np.array([0.0, -2.0]))
    assert np.isfinite(out).all()
    np.testing.assert_allclose(out, spp(np.array([1.0, 1.0]),
                                        np.array([1e-12, 1e-12])))
    assert any("clamped" in r.message for r in caplog.records)


def _decide_on_unit_noise(monkeypatch, y):
    # a detector past its bootstrap, with a unit noise PSD
    monkeypatch.setattr(activity, "SPP_BOOTSTRAP_FRAMES", 0)
    return SppDetector(4, y.shape[1], 0.9, eps_init=1.0).step(y)


def test_classify_frame_decisions(monkeypatch):
    # per bin, the channel probabilities are averaged and compared with
    # the threshold; with a unit noise PSD a silent channel reads
    # 1/(2 + xi) ~ 0.03 and a loud one exactly 1.0
    loud = np.sqrt(1000.0)
    y = np.zeros((5, 5), dtype=complex)
    y[:1, 0] = loud  # one loud channel: mean 0.27
    y[:2, 1] = loud  # two: mean 0.51
    y[:3, 2] = loud
    y[:4, 3] = loud  # all four: mean exactly 1.0
    y[4, 4] = loud   # only the external channel, which the rule ignores
    mask = _decide_on_unit_noise(monkeypatch, y)
    np.testing.assert_array_equal(mask, [False, True, True, True, False])
    # strict inequality: a mean exactly at the threshold reads noise-only
    monkeypatch.setattr(activity, "SPP_THRESHOLD", 1.0)
    assert not _decide_on_unit_noise(monkeypatch, y)[3]


def test_classify_frame_order_invariant(rng, monkeypatch):
    # permuting the head channels leaves every bin's decision unchanged
    n_bins = 64
    y = (rng.standard_normal((5, n_bins))
         + 1j * rng.standard_normal((5, n_bins))) * rng.uniform(0.0, 3.0)
    mask = _decide_on_unit_noise(monkeypatch, y)
    assert mask.any() and not mask.all()
    for _ in range(5):
        order = np.concatenate([rng.permutation(4), [4]])
        np.testing.assert_array_equal(
            _decide_on_unit_noise(monkeypatch, y[order]), mask)


def test_detector_bootstrap_and_noise_gated_update(monkeypatch):
    # the first SPP_BOOTSTRAP_FRAMES frames are noise everywhere and call
    # no spp; then only the bins gated as noise absorb the frame, and only
    # the head channels are tracked
    calls = []
    monkeypatch.setattr(activity, "spp",
                        lambda power, psd: calls.append(1) or spp(power, psd))
    detector = SppDetector(2, 3, 0.5, eps_init=1.0)
    quiet = np.ones((3, 3), dtype=complex)
    for _ in range(activity.SPP_BOOTSTRAP_FRAMES):
        assert not detector.step(quiet).any()
    assert not calls and detector.psd.shape == (2, 3)
    np.testing.assert_array_equal(detector.psd, 1.0)
    y = quiet.copy()
    y[:2, 1] = 1000.0 * (1.0 + 1.0j)
    np.testing.assert_array_equal(detector.step(y), [False, True, False])
    assert len(calls) == 1
    np.testing.assert_array_equal(detector.psd, 1.0)
    y[:, 0] = 1.0 + 1.0j  # power 2: still noise, and absorbed
    np.testing.assert_array_equal(detector.step(y), [False, True, False])
    np.testing.assert_array_equal(detector.psd, [[1.5, 1.0, 1.0]] * 2)
    with pytest.raises(ConfigurationError):
        SppDetector(0, 3, 0.5)


def test_oracle_labels_from_power_margin():
    clean = np.array([[1.0, 0.0, 0.2]])
    noise = np.array([[1.0, 1.0, 1.0]])
    # -10 dB margin: clean must exceed a tenth of the noise power
    out = oracle_labels_from_power(clean, noise, margin_db=-10.0)
    np.testing.assert_array_equal(out, [[True, False, True]])
    with pytest.raises(ConfigurationError):
        oracle_labels_from_power(clean, noise[:, :2], -10.0)


def test_oracle_labels_extremes(rng):
    data = rng.standard_normal((2, 5, 7)) + 1j * rng.standard_normal((2, 5, 7))
    zeros = np.zeros_like(data)
    assert oracle_labels(data, zeros, -10.0).all()
    assert not oracle_labels(zeros, data, -10.0).any()
    # only channel 0 decides
    other = data.copy()
    other[1] *= 100.0
    np.testing.assert_array_equal(oracle_labels(data, zeros, -10.0),
                                  oracle_labels(other, zeros, -10.0))


def test_label_bitmap_roundtrip(tmp_path, rng):
    labels = rng.random((257, 37)) < 0.3  # K*L not a multiple of 8
    path = tmp_path / "labels.bin"
    write_labels(path, labels)
    back = read_labels(path)
    np.testing.assert_array_equal(back, labels)
    # a (bins, frames) slice unpacks as the grid's own slice: the two bands'
    # bins, block-sized frame ranges, ranges past the end and empty ones
    for bins in (slice(0, 129), slice(129, 257), slice(None)):
        for frames in (slice(0, 16), slice(16, 32), slice(32, 37),
                       slice(32, 48), slice(30, 1000), slice(37, 40),
                       slice(5, 5), slice(9, 3)):
            got = back[bins, frames]
            assert got.dtype == bool
            np.testing.assert_array_equal(got, labels[bins, frames])
    assert back[5:5, 0:16].shape == (0, 16)


def test_label_file_header_layout(tmp_path):
    labels = np.zeros((3, 5), dtype=bool)
    labels[0, 0] = labels[2, 4] = True
    path = tmp_path / "labels.bin"
    write_labels(path, labels)
    raw = path.read_bytes()
    assert raw[:8] == b"DOALBL01"
    k, l = struct.unpack("<II", raw[8:16])
    assert (k, l) == (3, 5)
    assert raw[16:] == np.packbits(labels.reshape(-1)).tobytes()


def test_label_read_rejects_bad_files(tmp_path):
    good = tmp_path / "good.bin"
    write_labels(good, np.ones((4, 4), dtype=bool))
    raw = bytearray(good.read_bytes())

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXXXXXX" + bytes(raw[8:]))
    with pytest.raises(ConfigurationError):
        read_labels(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(bytes(raw[:-1]))
    with pytest.raises(ConfigurationError):
        read_labels(truncated)


def test_write_labels_requires_2d(tmp_path):
    with pytest.raises(ConfigurationError):
        write_labels(tmp_path / "x.bin", np.ones(8, dtype=bool))
