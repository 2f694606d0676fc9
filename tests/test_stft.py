import dataclasses

import numpy as np
import pytest

from rtfdoa.errors import ConfigurationError, NumericalFailure
from rtfdoa.stft import (
    AudioClip,
    StftConfig,
    WavReader,
    analyze,
    frame_times,
    num_frames,
    read_wav,
    sqrt_hann,
    write_wav,
)
from wavfiles import IEEE_FLOAT, PCM, chunk, fmt_chunk, int24_bytes, wav_bytes

FS = 16000


def test_sqrt_hann_small_values():
    w = sqrt_hann(4)
    np.testing.assert_allclose(w, [0.0, np.sqrt(0.5), 1.0, np.sqrt(0.5)], atol=1e-15)


def test_sqrt_hann_is_sine_lobe():
    # sqrt(0.5 - 0.5 cos(2 pi n / N)) == sin(pi n / N)
    n = np.arange(512)
    np.testing.assert_allclose(sqrt_hann(512), np.sin(np.pi * n / 512), atol=1e-12)
    assert sqrt_hann(512)[256] == pytest.approx(1.0)


def test_sqrt_hann_squares_to_cola_at_half_overlap():
    w2 = sqrt_hann(512) ** 2
    np.testing.assert_allclose(w2[:256] + w2[256:], 1.0, atol=1e-12)


@pytest.mark.parametrize("bad", [3, 511, 1, 0, -4])
def test_sqrt_hann_rejects_bad_lengths(bad):
    with pytest.raises(ConfigurationError):
        sqrt_hann(bad)


def test_num_frames_formula():
    cfg = StftConfig()
    assert num_frames(511, cfg) == 0
    assert num_frames(512, cfg) == 1
    assert num_frames(767, cfg) == 1
    assert num_frames(768, cfg) == 2
    assert num_frames(FS, cfg) == (FS - 512) // 256 + 1


def test_analyze_matches_naive_dft(rng):
    cfg = StftConfig(frame_len=64, hop=32)
    samples = rng.standard_normal((3, 200))
    grid = analyze(AudioClip(samples, FS), cfg)
    n_fr = num_frames(200, cfg)
    assert grid.shape == (3, 33, n_fr)

    k = np.arange(64)
    for ch in range(3):
        for l in range(n_fr):
            seg = samples[ch, l * 32:l * 32 + 64] * cfg.window
            for b in range(33):
                ref = np.sum(seg * np.exp(-2j * np.pi * b * k / 64))
                assert grid[ch, b, l] == pytest.approx(ref, abs=1e-10)


def test_analyze_zero_input_and_exact_length():
    clip = AudioClip(np.zeros((2, 512)), FS)
    grid = analyze(clip)
    assert grid.shape == (2, 257, 1)
    assert np.all(grid == 0)


def test_cosine_at_bin_center_and_window_leakage():
    # a real cosine exactly on bin c puts half the window DTFT peak there;
    # the sqrt-Hann magnitude rolls off as 1 / (4 d^2 - 1) d bins away
    cfg = StftConfig()
    w = cfg.window
    c = 128
    t = np.arange(512)
    clip = AudioClip(np.cos(2 * np.pi * c * t / 512)[None, :], FS)
    spec = np.abs(analyze(clip, cfg)[0, :, 0])

    peak = w.sum() / 2
    assert spec[c] == pytest.approx(peak, rel=1e-3)
    for d, rel in ((2, 0.02), (4, 0.02), (8, 0.02), (16, 0.02), (32, 0.08)):
        # the asymptotic law loosens far out where the negative-frequency
        # image contributes at the percent level
        expected = peak / (4 * d * d - 1)
        assert spec[c + d] == pytest.approx(expected, rel=rel)
        assert spec[c - d] == pytest.approx(expected, rel=rel)
    # 16 bins out the rolloff crosses -60 dB; beyond that everything stays under
    assert spec[c + 16] < peak * 1.05e-3
    far = np.concatenate([spec[: c - 16], spec[c + 17:]])
    assert far.max() < peak * 1e-3


def test_single_frame_parseval(rng):
    cfg = StftConfig()
    x = rng.standard_normal(512)
    spec = analyze(AudioClip(x[None, :], FS), cfg)[0, :, 0]
    # rfft double-counts interior bins once mirrored
    weights = np.full(257, 2.0)
    weights[0] = weights[-1] = 1.0
    freq_energy = np.sum(weights * np.abs(spec) ** 2) / 512
    time_energy = np.sum((x * cfg.window) ** 2)
    assert freq_energy == pytest.approx(time_energy, rel=1e-9)


def test_analyze_is_linear(rng):
    cfg = StftConfig(frame_len=64, hop=32)
    a = rng.standard_normal((2, 300))
    b = rng.standard_normal((2, 300))
    ga = analyze(AudioClip(a, FS), cfg)
    gb = analyze(AudioClip(b, FS), cfg)
    gsum = analyze(AudioClip(2.0 * a - 0.5 * b, FS), cfg)
    np.testing.assert_allclose(gsum, 2.0 * ga - 0.5 * gb, atol=1e-12 * np.abs(ga).max())


def test_analyze_deterministic(rng):
    samples = rng.standard_normal((5, 4000))
    g1 = analyze(AudioClip(samples, FS))
    g2 = analyze(AudioClip(samples.copy(), FS))
    assert np.array_equal(g1, g2)


def test_analyze_into_a_buffer_is_bit_identical(rng):
    # 40 frames: two and a half windowing chunks. The STFT written into a
    # buffer, exact or longer than the clip, equals the allocating call and
    # a one-shot transform of all windowed frames, bit for bit
    cfg = StftConfig()
    clip = AudioClip(rng.standard_normal((5, 39 * cfg.hop + cfg.frame_len)), FS)
    frames = np.lib.stride_tricks.sliding_window_view(
        clip.samples, cfg.frame_len, axis=1)[:, ::cfg.hop]
    one_shot = np.fft.rfft(frames * cfg.window, axis=-1).transpose(0, 2, 1)
    spec = analyze(clip, cfg)
    assert spec.shape == (5, cfg.n_bins, 40)
    assert np.array_equal(spec, one_shot)
    for n in (40, 57):
        buf = np.full((5, n, cfg.n_bins), np.nan, dtype=np.complex128)
        out = analyze(clip, cfg, out=buf)
        assert np.shares_memory(out, buf) and out.shape == spec.shape
        assert np.array_equal(out, spec)
        assert np.isnan(buf[:, 40:]).all()
    for bad in (np.empty((5, 39, cfg.n_bins), dtype=np.complex128),
                np.empty((4, 40, cfg.n_bins), dtype=np.complex128),
                np.empty((5, 40, cfg.n_bins + 1), dtype=np.complex128),
                np.empty((5, 40 * cfg.n_bins), dtype=np.complex128),
                np.empty((5, 40, cfg.n_bins), dtype=np.complex64)):
        with pytest.raises(ConfigurationError, match="STFT buffer"):
            analyze(clip, cfg, out=bad)


def test_analyze_rejects_short_and_nonfinite():
    with pytest.raises(ConfigurationError):
        analyze(AudioClip(np.zeros((1, 100)), FS))
    bad = np.zeros((1, 1024))
    bad[0, 700] = np.nan
    with pytest.raises(NumericalFailure):
        analyze(AudioClip(bad, FS))


def test_stft_config_validation():
    with pytest.raises(ConfigurationError):
        StftConfig(frame_len=512, hop=0)
    with pytest.raises(ConfigurationError):
        StftConfig(frame_len=512, hop=513)
    with pytest.raises(ConfigurationError):
        StftConfig(frame_len=511, hop=256)


def test_stft_config_window_is_derived_once():
    # the window is no setting: sqrt-Hann of frame_len, made on construction
    cfg = StftConfig(frame_len=64, hop=32)
    np.testing.assert_array_equal(cfg.window, sqrt_hann(64))
    assert cfg.window is cfg.window
    assert [f.name for f in dataclasses.fields(cfg)] == ["frame_len", "hop"]
    assert cfg == StftConfig(frame_len=64, hop=32)
    assert hash(cfg) == hash(StftConfig(frame_len=64, hop=32))
    with pytest.raises(TypeError):
        StftConfig(window=np.ones(512))


def test_grid_axis_annotations(rng):
    clip = AudioClip(rng.standard_normal((1, 2048)), FS)
    grid = analyze(clip)
    n_fr = grid.shape[2]
    expected_times = (np.arange(n_fr) * 256 + 256.0) / FS
    np.testing.assert_allclose(frame_times(n_fr, 512, 256, FS), expected_times)


def test_audio_clip_duration():
    clip = AudioClip(np.zeros((2, 8000)), FS)
    assert clip.duration == pytest.approx(0.5)


def test_wav_roundtrip_float32(tmp_path, rng):
    samples = np.clip(rng.standard_normal((4, 1000)) * 0.25, -1.0, 1.0)
    path = tmp_path / "probe.wav"
    write_wav(path, AudioClip(samples, FS))
    back = read_wav(path)
    assert back.sample_rate == FS
    np.testing.assert_allclose(back.samples, samples, atol=1e-6)


def test_wav_reads_int16_scaled(tmp_path):
    import scipy.io.wavfile as wavfile

    data = np.array([[0, 16384, -32768, 32767]], dtype=np.int16)
    path = tmp_path / "i16.wav"
    wavfile.write(path, FS, data.T)
    clip = read_wav(path)
    np.testing.assert_allclose(
        clip.samples[0], [0.0, 0.5, -1.0, 32767 / 32768], atol=1e-9)


def test_wav_reads_int32_and_int24_scaled(tmp_path, rng):
    import wave

    import scipy.io.wavfile as wavfile

    pcm = np.array([[0, 2 ** 30, -2 ** 31, 2 ** 31 - 1],
                    [1, -1, 256, -2 ** 30]], dtype=np.int32)
    path = tmp_path / "i32.wav"
    wavfile.write(path, FS, pcm.T)
    clip = read_wav(path)
    np.testing.assert_array_equal(clip.samples, pcm * 2.0 ** -31)
    # float samples survive a 32-bit PCM round trip to within one step
    samples = np.clip(rng.standard_normal((2, 1000)) * 0.25, -1.0, 0.999)
    wavfile.write(path, FS, np.round(samples.T * 2.0 ** 31).astype(np.int32))
    np.testing.assert_allclose(read_wav(path).samples, samples, atol=2.0 ** -31)
    # 24-bit PCM is widened to int32 in the upper three bytes
    path24 = tmp_path / "i24.wav"
    with wave.open(str(path24), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(3)
        fh.setframerate(FS)
        fh.writeframes(b"".join(v.to_bytes(3, "little", signed=True)
                                for v in (0, 2 ** 22, -2 ** 23, 2 ** 23 - 1)))
    np.testing.assert_array_equal(read_wav(path24).samples[0],
                                  [0.0, 0.5, -1.0, (2 ** 23 - 1) / 2 ** 23])


def test_wav_rejects_unsupported_dtype(tmp_path):
    import scipy.io.wavfile as wavfile

    path = tmp_path / "u8.wav"
    wavfile.write(path, FS, np.zeros(64, dtype=np.uint8))
    with pytest.raises(ConfigurationError):
        read_wav(path)
    for fmt in (fmt_chunk(PCM, 2, 64),        # 64-bit PCM
                fmt_chunk(6, 1, 8),           # A-law
                fmt_chunk(6, 2, 8, extensible=True),
                fmt_chunk(IEEE_FLOAT, 1, 16)):
        path.write_bytes(wav_bytes(fmt, bytes(64)))
        with pytest.raises(ConfigurationError, match="unsupported WAV sample format"):
            read_wav(path)


def test_wav_reads_extensible_five_channel_pcm_and_float(tmp_path, rng):
    path = tmp_path / "ext.wav"
    pcm = rng.integers(-2 ** 23, 2 ** 23, size=(5, 300))
    path.write_bytes(wav_bytes(fmt_chunk(PCM, 5, 24, extensible=True),
                               int24_bytes(pcm)))
    np.testing.assert_array_equal(read_wav(path).samples, pcm * 2.0 ** -23)
    floats = rng.standard_normal((5, 300)).astype(np.float32)
    path.write_bytes(wav_bytes(fmt_chunk(IEEE_FLOAT, 5, 32, extensible=True),
                               floats.T.tobytes()))
    clip = read_wav(path)
    assert (clip.n_channels, clip.n_samples, clip.sample_rate) == (5, 300, FS)
    np.testing.assert_array_equal(clip.samples, floats.astype(np.float64))
    # blocks that do not divide the length concatenate to the whole file
    blocks = list(WavReader(path).blocks(7))
    assert [b.shape for b in blocks[-2:]] == [(5, 7), (5, 300 % 7)]
    np.testing.assert_array_equal(np.concatenate(blocks, axis=1), clip.samples)


def test_overlapping_blocks_of_a_file_are_those_of_its_clip(tmp_path, rng):
    # 7 new samples a block, led by the 3 before them (none at the start).
    # A file's blocks are views of one buffer, which the next block
    # overwrites, so each is compared as it is drawn
    samples = rng.standard_normal((3, 40)).astype(np.float32).astype(np.float64)
    path = tmp_path / "blocks.wav"
    write_wav(path, AudioClip(samples, FS))
    clip_blocks = AudioClip(samples, FS).blocks(7, 3)
    file_blocks = WavReader(path).blocks(7, 3)
    drawn = []
    for k, (from_clip, from_file) in enumerate(zip(clip_blocks, file_blocks,
                                                   strict=True)):
        lead = max(7 * k - 3, 0)
        np.testing.assert_array_equal(from_clip, samples[:, lead:7 * k + 7])
        np.testing.assert_array_equal(from_file, from_clip)
        drawn.append(from_file)
    assert len(drawn) == 6 and drawn[-1].shape == (3, 3 + 5)
    assert all(np.shares_memory(drawn[0], block) for block in drawn[1:])


def test_wav_skips_list_and_odd_sized_chunks(tmp_path):
    samples = np.array([[0.5, -0.25, 0.125], [-1.0, 0.75, 0.0]])
    info = chunk(b"LIST", b"INFO" + chunk(b"ISFT", b"rtfdoa tests\0"))
    odd = chunk(b"junk", b"abc")  # three bytes and a pad byte
    assert len(odd) % 2 == 0 and len(odd) == 8 + 3 + 1
    path = tmp_path / "chunks.wav"
    path.write_bytes(wav_bytes(fmt_chunk(IEEE_FLOAT, 2, 64), samples.T.tobytes(),
                               extra=(info, odd)))
    np.testing.assert_array_equal(read_wav(path).samples, samples)


def test_wav_rejects_truncated_data_chunk(tmp_path):
    whole = wav_bytes(fmt_chunk(PCM, 5, 16), bytes(5 * 2 * 1000))
    path = tmp_path / "cut.wav"
    path.write_bytes(whole[:-10])
    with pytest.raises(ConfigurationError, match="truncated"):
        WavReader(path)
    path.write_bytes(whole)
    assert WavReader(path).n_samples == 1000
