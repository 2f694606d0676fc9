import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.signal

from rtfdoa.errors import ConfigurationError
from rtfdoa.evaluate import oracle_label_grid
from rtfdoa.pipeline import RunConfig
from rtfdoa.simulate import (
    FOUR_LOUDSPEAKER_AZIMUTHS,
    SceneSpec,
    compose,
    fibonacci_sphere,
    render_azimuth_free,
    render_components,
    speech_shaped_noise,
    steer,
    synthesize,
)
from rtfdoa.stft import StftConfig, num_frames, write_wav, AudioClip
from reference import diffuse_field_check

FS = 16000


def _front_power(samples):
    return float(np.mean(samples[[0, 2]] ** 2))


# ------------------------------------------------------------ scene spec

def test_scene_spec_validation():
    with pytest.raises(ConfigurationError):
        SceneSpec(seed=0, duration_s=0.0)
    with pytest.raises(ConfigurationError):
        SceneSpec(seed=0, diffuse_order=4)
    with pytest.raises(ConfigurationError):
        SceneSpec(seed=0, source_trajectory=())
    with pytest.raises(ConfigurationError):
        SceneSpec(seed=0, source_trajectory=((5.0, 0.0), (1.0, 10.0)))
    with pytest.raises(ConfigurationError):
        SceneSpec(seed=0, snr_db=float("inf"))
    with pytest.raises(ConfigurationError):
        SceneSpec(seed=0, noise_azimuths_deg=())
    with pytest.raises(ConfigurationError):
        SceneSpec(seed=0, sample_rate=0)


def test_scene_spec_json_roundtrip(tmp_path):
    spec = SceneSpec(seed=7, duration_s=12.5,
                     source_trajectory=((0.0, -50.0), (12.5, 50.0)),
                     snr_db=5.0, diffuse_order=16, reverb_proxy_db=3.0,
                     noise_azimuths_deg=FOUR_LOUDSPEAKER_AZIMUTHS,
                     external_azimuth_deg=30.0)
    path = tmp_path / "scene.json"
    spec.to_json(path)
    assert SceneSpec.from_json(path) == spec


def test_scene_spec_json_aliases(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({
        "seed": 3, "duration": 8.0, "snr": -5.0,
        "trajectory": [[0.0, 35.0]], "reverb_proxy": 6.0,
    }))
    spec = SceneSpec.from_json(path)
    assert spec.duration_s == 8.0
    assert spec.snr_db == -5.0
    assert spec.source_trajectory == ((0.0, 35.0),)
    assert spec.reverb_proxy_db == 6.0
    # a key under both spellings: the one that came last took effect
    for data, keys in (({"snr": -5.0, "snr_db": 10.0}, "'snr' and 'snr_db'"),
                       ({"duration_s": 3.0, "duration": 8.0},
                        "'duration_s' and 'duration'")):
        path.write_text(json.dumps({"seed": 1, **data}))
        with pytest.raises(ConfigurationError, match=keys):
            SceneSpec.from_json(path)


def test_scene_spec_json_rejects_bad_files(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps({"seed": 1, "wind_speed": 3.0}))
    with pytest.raises(ConfigurationError):
        SceneSpec.from_json(path)
    path.write_text(json.dumps({"duration_s": 5.0}))
    with pytest.raises(ConfigurationError):
        SceneSpec.from_json(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigurationError):
        SceneSpec.from_json(path)
    path.write_text("{broken")
    with pytest.raises(ConfigurationError):
        SceneSpec.from_json(path)


# -------------------------------------------------------------- sources

def test_fibonacci_sphere_units():
    pts = fibonacci_sphere(96)
    assert pts.shape == (96, 3)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(pts, fibonacci_sphere(96))
    # covers both hemispheres roughly evenly
    assert abs(np.mean(pts[:, 2])) < 0.05
    with pytest.raises(ConfigurationError):
        fibonacci_sphere(0)


def test_speech_shaped_noise_profile():
    rng = np.random.default_rng(42)
    x = speech_shaped_noise(rng, 4 * FS)
    assert np.sqrt(np.mean(x ** 2)) == pytest.approx(0.1, rel=1e-12)
    # modulation starts in a trough: the first 10 ms are weak
    head = np.sqrt(np.mean(x[: FS // 100] ** 2))
    assert head < 0.03
    # low-frequency emphasis of at least 10 dB between 300 Hz and 4 kHz
    freqs, psd = scipy.signal.welch(x, fs=FS, nperseg=2048)
    p300 = psd[np.argmin(np.abs(freqs - 300.0))]
    p4k = psd[np.argmin(np.abs(freqs - 4000.0))]
    assert 10.0 * np.log10(p300 / p4k) > 10.0
    # same generator state, same waveform
    np.testing.assert_array_equal(
        x, speech_shaped_noise(np.random.default_rng(42), 4 * FS))


# ------------------------------------------------------------- rendering

def test_synthesize_deterministic_and_additive():
    spec = SceneSpec(seed=123, duration_s=2.0, diffuse_order=12,
                     source_trajectory=((0.0, 35.0),))
    a = synthesize(spec)
    b = synthesize(spec)
    assert np.array_equal(a.mixed.samples, b.mixed.samples)
    assert np.array_equal(a.clean.samples, b.clean.samples)
    assert np.array_equal(a.noise.samples, b.noise.samples)
    np.testing.assert_array_equal(a.mixed.samples,
                                  a.clean.samples + a.noise.samples)
    assert a.mixed.n_channels == 5
    assert a.mixed.n_samples == 2 * FS

    other = synthesize(SceneSpec(seed=124, duration_s=2.0, diffuse_order=12,
                                 source_trajectory=((0.0, 35.0),)))
    assert not np.array_equal(other.mixed.samples, a.mixed.samples)


@pytest.mark.parametrize("snr_db", [0.0, 5.0, -10.0])
def test_snr_exact_at_front_mics(snr_db):
    out = synthesize(SceneSpec(seed=5, duration_s=2.0, diffuse_order=12,
                               snr_db=snr_db))
    measured = 10.0 * np.log10(_front_power(out.clean.samples)
                               / _front_power(out.noise.samples))
    assert measured == pytest.approx(snr_db, abs=1e-9)


def test_snr_none_disables_noise():
    out = synthesize(SceneSpec(seed=5, duration_s=1.0, diffuse_order=12,
                               snr_db=None))
    assert np.all(out.noise.samples == 0.0)
    np.testing.assert_array_equal(out.mixed.samples, out.clean.samples)


def test_compose_reuses_components_for_snr_sweeps():
    spec = SceneSpec(seed=9, duration_s=1.0, diffuse_order=12, snr_db=0.0)
    parts = render_azimuth_free(spec)
    out0 = compose(steer(parts, spec))
    out5 = compose(steer(parts, replace(spec, snr_db=5.0)))
    # same rendering, different scaling only
    np.testing.assert_array_equal(out0.clean.samples, out5.clean.samples)
    np.testing.assert_allclose(out0.noise.samples,
                               out5.noise.samples * 10.0 ** (5.0 / 20.0),
                               rtol=1e-12)
    assert out5.spec.snr_db == 5.0


def test_moving_scene_truth_interpolation():
    spec = SceneSpec(seed=13, duration_s=2.0, diffuse_order=12,
                     source_trajectory=((0.0, -50.0), (2.0, 50.0)))
    out = synthesize(spec)
    cfg = StftConfig()
    n_fr = num_frames(2 * FS, cfg)
    times = (np.arange(n_fr) * cfg.hop + cfg.frame_len / 2) / FS
    np.testing.assert_allclose(out.truth_doa_deg,
                               np.interp(times, [0.0, 2.0], [-50.0, 50.0]),
                               atol=1e-12)


def test_static_scene_truth_constant():
    out = synthesize(SceneSpec(seed=13, duration_s=1.0, diffuse_order=12,
                               source_trajectory=((0.0, 35.0),)))
    assert np.all(out.truth_doa_deg == 35.0)


def test_scene_too_short_for_one_frame():
    with pytest.raises(ConfigurationError):
        render_components(SceneSpec(seed=0, duration_s=0.01, diffuse_order=12))


def test_oracle_labels_cover_both_classes():
    out = synthesize(SceneSpec(seed=21, duration_s=4.0, diffuse_order=12,
                               snr_db=0.0))
    labels = oracle_label_grid(out, RunConfig())
    frac = labels.mean()
    assert 0.05 < frac < 0.95


def test_reverb_proxy_doubles_front_power():
    dry = synthesize(SceneSpec(seed=17, duration_s=2.0, diffuse_order=12,
                               snr_db=None))
    wet = synthesize(SceneSpec(seed=17, duration_s=2.0, diffuse_order=12,
                               snr_db=None, reverb_proxy_db=0.0))
    ratio = _front_power(wet.clean.samples) / _front_power(dry.clean.samples)
    # equal-power uncorrelated copy: expect about +3 dB at the front mics
    assert 1.5 < ratio < 2.7


def test_source_wav_is_used_and_tiled(tmp_path):
    t = np.arange(FS // 2) / FS
    tone = 0.25 * np.sin(2 * np.pi * 1000.0 * t)
    wav = tmp_path / "tone.wav"
    write_wav(wav, AudioClip(tone[None, :], FS))
    out = synthesize(SceneSpec(seed=3, duration_s=2.0, diffuse_order=12,
                               snr_db=None, source_wav=str(wav)))
    spectrum = np.abs(np.fft.rfft(out.clean.samples[0])) ** 2
    freqs = np.fft.rfftfreq(out.clean.n_samples, d=1.0 / FS)
    band = (freqs > 950.0) & (freqs < 1050.0)
    assert spectrum[band].sum() / spectrum.sum() > 0.8


# ------------------------------------------------------------- coherence

@pytest.fixture(scope="module")
def diffuse_noise():
    out = synthesize(SceneSpec(seed=31, duration_s=12.0, snr_db=0.0))
    return out


def test_diffuse_field_coherence_tracks_model(diffuse_noise):
    report = diffuse_field_check(diffuse_noise.noise,
                                 diffuse_noise.geometry)
    assert report.measured.shape == report.model.shape
    assert len(report.pairs) == 10
    band = report.freqs <= 4000.0
    # adjacent head mics follow the isotropic sinc^2 profile
    for idx, (i, j) in enumerate(report.pairs):
        if i < 4 and j < 4:
            dev = np.max(np.abs(report.measured[idx, band]
                                - report.model[idx, band]))
            assert dev < 0.15
    # the distant external mic decorrelates above 500 Hz
    ext = [idx for idx, (i, j) in enumerate(report.pairs) if j == 4]
    high = report.freqs >= 500.0
    for idx in ext:
        assert np.max(report.measured[idx, high]) < 0.15


def test_single_plane_wave_fails_diffuse_check():
    out = synthesize(SceneSpec(seed=33, duration_s=12.0, snr_db=0.0,
                               noise_azimuths_deg=(30.0,)))
    report = diffuse_field_check(out.noise, out.geometry)
    # a single plane wave is fully coherent, far off the isotropic model
    dev = np.max(report.measured - report.model)
    assert dev > 0.5


def test_four_loudspeaker_preset_renders():
    out = synthesize(SceneSpec(seed=35, duration_s=1.0, snr_db=0.0,
                               noise_azimuths_deg=FOUR_LOUDSPEAKER_AZIMUTHS))
    assert _front_power(out.noise.samples) > 0.0


def test_diffuse_check_needs_ten_seconds():
    out = synthesize(SceneSpec(seed=37, duration_s=2.0, diffuse_order=12,
                               snr_db=0.0))
    with pytest.raises(ConfigurationError):
        diffuse_field_check(out.noise, out.geometry)
