import itertools
import sys

import numpy as np
import pytest

from rtfdoa import activity, stft
from rtfdoa.activity import read_labels, write_labels
from rtfdoa.covariance import ColumnTracker, CovarianceTracker, SmoothingConfig
from rtfdoa.doa import argmin_directions, cost_surface_frames
from rtfdoa.errors import ConfigurationError, NumericalFailure
from rtfdoa.estimators import batch_cs, batch_cw
from rtfdoa.evaluate import angular_errors, oracle_label_grid
from rtfdoa import pipeline
from rtfdoa.pipeline import (DETECTOR_NAMES, ESTIMATOR_NAMES, RunConfig, track,
                             track_multi)
from rtfdoa.simulate import SceneSpec, synthesize
from rtfdoa.stft import AudioClip, analyze, frame_times
from wavfiles import write_pcm

FS = 16000


def _scene(seed=41, duration_s=2.0, azimuth=35.0, snr_db=None, **kw):
    return synthesize(SceneSpec(seed=seed, duration_s=duration_s,
                                source_trajectory=((0.0, azimuth),),
                                snr_db=snr_db, diffuse_order=12, **kw))


def _labels(output):
    return oracle_label_grid(output, RunConfig())


# -------------------------------------------------------------- run config

def test_run_config_validation():
    with pytest.raises(ConfigurationError):
        RunConfig(estimator="music")
    with pytest.raises(ConfigurationError):
        RunConfig(detector="vad")
    with pytest.raises(ConfigurationError):
        RunConfig(tau_y_s=0.0)
    with pytest.raises(ConfigurationError):
        RunConfig(eval_window=0.0)
    with pytest.raises(ConfigurationError):
        RunConfig(eval_window=1.5)
    with pytest.raises(ConfigurationError):
        RunConfig(tolerance_deg=-1.0)


def test_run_config_derived_quantities():
    cfg = RunConfig()
    assert cfg.warmup_frames(FS) == 63
    assert cfg.smoothing(FS) == SmoothingConfig.from_time_constants(
        0.25, 0.5, 256, FS)
    faster = RunConfig(tau_y_s=0.15, tau_n_s=0.2)
    assert faster.warmup_frames(FS) == int(np.ceil(2 * 0.2 * FS / 256))


# ---------------------------------------------------------------- tracking

@pytest.fixture(scope="module")
def noiseless(database):
    out = _scene()
    config = RunConfig(estimator="cw-ext")
    trajs = track_multi(out.mixed, database, config,
                        estimators=ESTIMATOR_NAMES, labels=_labels(out))
    return out, trajs


def test_noiseless_scene_all_estimators_lock_on(noiseless):
    out, trajs = noiseless
    assert set(trajs) == set(ESTIMATOR_NAMES)
    for name, traj in trajs.items():
        scored = traj.valid
        assert scored.any(), name
        errs = angular_errors(traj.azimuth_deg[scored],
                              out.truth_doa_deg[scored])
        frac = np.mean(errs <= 5.0)
        assert frac >= 0.9, (name, frac)


def test_warmup_frames_flagged_invalid(noiseless):
    _, trajs = noiseless
    for traj in trajs.values():
        assert traj.warmup_frames == 63
        assert not traj.valid[:63].any()
        assert traj.valid[63:].all()


def test_trajectory_bookkeeping(noiseless):
    out, trajs = noiseless
    n_frames = analyze(out.mixed).shape[2]
    for traj in trajs.values():
        assert traj.n_frames == n_frames
        np.testing.assert_array_equal(traj.frame_times,
                                      frame_times(n_frames, 512, 256, FS))
        assert traj.processing_s > 0.0
        assert traj.cost_surface is None


def test_sc_never_reads_noise_covariance(database, monkeypatch):
    # neither sc nor the SPP detector, which reads only the noise PSD,
    # touches a noise covariance: sc alone, cs-head alone and the two
    # together (cs-head tracks its own two columns) build no covariance
    # tracker, and sc decides alike alone and beside cs-head
    out = _scene(seed=43, snr_db=5.0)
    labels = _labels(out)

    def no_tracker(self, *args, **kwargs):
        raise AssertionError("covariance tracker built")

    for detector in DETECTOR_NAMES:
        config = RunConfig(estimator="sc", detector=detector)
        with monkeypatch.context() as patch:
            patch.setattr(CovarianceTracker, "__init__", no_tracker)
            beside = track_multi(out.mixed, database, config, ("sc", "cs-head"),
                                 labels, keep_cost_surfaces=True)["sc"]
            alone = track_multi(out.mixed, database, config, ("sc",), labels,
                                keep_cost_surfaces=True)["sc"]
            assert track_multi(out.mixed, database, config, ("cs-head",),
                               labels)["cs-head"].valid.any(), detector
            # a whitening estimator builds one, so the guard does fire
            with pytest.raises(AssertionError, match="covariance tracker built"):
                track_multi(out.mixed, database, config, ("cw-ext",), labels)
        assert alone.valid.any(), detector
        for field in ("azimuth_deg", "cost", "valid", "cost_surface"):
            np.testing.assert_array_equal(getattr(alone, field),
                                          getattr(beside, field),
                                          err_msg=f"{detector} {field}")


@pytest.mark.parametrize("detector", DETECTOR_NAMES)
def test_every_estimator_set_keeps_the_least_and_decides_as_each_alone(
        database, monkeypatch, detector):
    # each estimator set keeps the least that it reads: sc a noisy column
    # tracker of its own, cs-head its own two reference columns, and the
    # cw-* estimators one shared covariance tracker with the tracked
    # inverse. What is kept, and which estimators share the pass, changes
    # no estimator's output, bit for bit, in blocks of 16 frames (under
    # SPP the first block lies inside the bootstrap)
    out = _scene(seed=51, duration_s=1.5, snr_db=5.0)
    labels = _labels(out)
    config = RunConfig(detector=detector)
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    kept = []
    init, init_column = CovarianceTracker.__init__, ColumnTracker.__init__

    def recorded(self, *args, **kwargs):
        kept.append("matrix")
        init(self, *args, **kwargs)

    def recorded_column(self, *args, **kwargs):
        kept.append("column")
        init_column(self, *args, **kwargs)

    monkeypatch.setattr(CovarianceTracker, "__init__", recorded)
    monkeypatch.setattr(ColumnTracker, "__init__", recorded_column)

    def run(names):
        kept.clear()
        trajs = track_multi(out.mixed, database, config, names, labels,
                            keep_cost_surfaces=True)
        least = ["column"] if "sc" in names else []
        if any(name.startswith("cw") for name in names):
            least.append("matrix")
        # the trackers of band 0, which runs in this process
        assert sorted(kept) == sorted(least), (names, kept)
        return trajs

    alone = {name: run((name,))[name] for name in ESTIMATOR_NAMES}
    for size in range(2, len(ESTIMATOR_NAMES) + 1):
        for names in itertools.combinations(ESTIMATOR_NAMES, size):
            for name, traj in run(names).items():
                assert alone[name].valid.any(), name
                for field in ("azimuth_deg", "cost", "valid", "cost_surface"):
                    assert np.array_equal(getattr(traj, field),
                                          getattr(alone[name], field),
                                          equal_nan=True), (names, name, field)


def _cs_step(n_bins, capacity, smoothing, n_head=4):
    return pipeline._STEPS["cs-head"](n_bins, n_head, n_head + 1, capacity,
                                      smoothing)


def test_cs_columns_are_the_tracker_reference_columns_bit_for_bit(rng):
    # cs-head's block update leaves, after each frame of the block, the
    # head block's reference columns of a full covariance tracker that took
    # the block frame by frame, noisy and noise alike, bit for bit: over
    # blocks of 128, 37 and 1 frames (and random lengths), blocks all
    # speech and with no speech, random gating, and snapshot scales
    # spanning sixteen decades; what finish stores is batch_cs of them
    n_bins, p, m = 33, 5, 4
    sm = SmoothingConfig(alpha_y=0.9, alpha_n=0.95)
    step, full = _cs_step(n_bins, 128, sm), CovarianceTracker(p, n_bins, sm)
    lengths = [128, 37, 1, 128, 37, 1] + [int(n) for n in rng.integers(1, 129, 8)]
    for block, n in enumerate(lengths):
        scales = 10.0 ** rng.uniform(-8.0, 8.0, size=n)
        y = scales * (rng.standard_normal((p, n_bins, n))
                      + 1j * rng.standard_normal((p, n_bins, n)))
        masks = rng.random((n, n_bins)) < rng.random()
        if block in (0, 1, 2):
            masks[:] = True
        elif block in (3, 4, 5):
            masks[:] = False
        step.start(n)
        step.step_block(y, masks)
        noisy, noise = [], []
        for i in range(n):
            full.update_frame(y[:, :, i], masks[i])
            noisy.append(full.noisy[:, :m, 0].copy())
            noise.append(full.noise[:, :m, 0].copy())
        assert np.array_equal(step._columns[0, :n], noisy), block
        assert np.array_equal(step._columns[1, :n], noise), block
        values, valid = batch_cs(np.concatenate(noisy), np.concatenate(noise))
        store, ever, written = step.finish(0)
        assert np.array_equal(written, valid.reshape(n, n_bins)), block
        assert np.array_equal(store[written],
                              values.astype(np.complex64)[valid]), block
    assert np.array_equal(step._carried[0], full.noisy[:, :m, 0])
    assert np.array_equal(step._carried[1], full.noise[:, :m, 0])


def _estimator_sets():
    """Each estimator alone, and all four."""
    return [(name,) for name in ESTIMATOR_NAMES] + [ESTIMATOR_NAMES]


def _record_blocks(monkeypatch, corrupt=None):
    """Count the blocks that ``analyze`` transforms, and log the block
    number (from 1) of every detector step, block step and frame update,
    in blocks of 16 frames, one band in this process. ``corrupt(block,
    spectrum)`` may alter a block's [P, K, n] STFT once it is made."""
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    monkeypatch.setattr(pipeline, "MAX_BANDS", 1)
    analyzed, seen = [], []
    analyze = pipeline.analyze

    def transformed(*args, **kwargs):
        spectrum = analyze(*args, **kwargs)
        analyzed.append(len(analyzed) + 1)
        if corrupt is not None:
            corrupt(len(analyzed), spectrum)
        return spectrum

    monkeypatch.setattr(pipeline, "analyze", transformed)
    for owner, attr in ((activity.SppDetector, "step"),
                        (pipeline._ScStep, "step_block"),
                        (pipeline._CsStep, "step_block"),
                        (CovarianceTracker, "update_frame")):
        def logged(*args, _func=getattr(owner, attr), **kwargs):
            seen.append(len(analyzed))
            return _func(*args, **kwargs)

        monkeypatch.setattr(owner, attr, logged)
    return analyzed, seen


@pytest.mark.parametrize("detector", DETECTOR_NAMES)
def test_a_non_finite_stft_entry_is_raised_before_its_block_is_read(
        database, monkeypatch, detector):
    # 79 frames: blocks of 15 and four of 16; block 3 gets a NaN, then an
    # inf, in one STFT entry of a head channel and of the external one
    # (which cs-head and cw-head do not read). The block loop raises
    # before the detector or any tracker has read the block
    out = _scene(seed=53, duration_s=(512 + 78 * 256) / FS, snr_db=5.0)
    labels = _labels(out)
    config = RunConfig(detector=detector)
    entry = {}

    def corrupt(block, spectrum):
        if block == 3:
            spectrum[entry["channel"], 100, 7] = entry["bad"]

    analyzed, seen = _record_blocks(monkeypatch, corrupt)
    for channel, bad, names in itertools.product((1, 4), (np.nan, np.inf),
                                                 _estimator_sets()):
        entry.update(channel=channel, bad=bad)
        analyzed.clear()
        seen.clear()
        with pytest.raises(NumericalFailure, match="non-finite"):
            track_multi(out.mixed, database, config, names, labels)
        assert analyzed == [1, 2, 3], (channel, bad, names)
        assert seen and max(seen) == 2, (channel, bad, names)


@pytest.mark.parametrize("gain", (1e78, 1e100, 1e155))
def test_a_level_beyond_float64s_range_is_raised_in_the_first_block(
        database, monkeypatch, gain):
    # finite samples whose block power's fourth order overflows: every
    # estimator set raises on the first block, before any step reads it
    out = _scene(seed=41, snr_db=5.0)
    samples = gain * out.mixed.samples
    assert np.isfinite(samples).all()
    labels = _labels(out)
    analyzed, seen = _record_blocks(monkeypatch)
    for detector, names in itertools.product(DETECTOR_NAMES, _estimator_sets()):
        analyzed.clear()
        with pytest.raises(NumericalFailure, match="out-of-range"):
            track_multi(AudioClip(samples, FS), database,
                        RunConfig(detector=detector), names, labels)
        assert analyzed == [1] and not seen, (detector, names)


@pytest.mark.parametrize("detector", DETECTOR_NAMES)
def test_sc_alone_block_wise_decides_as_sc_frame_by_frame(database, monkeypatch,
                                                          detector):
    # sc takes each block in one update of its column (rank by rank),
    # alone and beside an estimator that the covariance tracker serves
    # frame by frame; every set gives sc's block update the same masks
    # and sc's outputs bit for bit, in blocks of 16 frames whose oracle
    # grid holds a block all speech, a block with no speech and a bin
    # speech in every frame of every other block, and whose last block is
    # one frame. One band tracks every bin in this process, where the
    # block updates are recorded
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    monkeypatch.setattr(pipeline, "MAX_BANDS", 1)
    # 80 frames: blocks of 15, 16, 16, 16, 16 and 1 frames
    out = _scene(seed=52, duration_s=(512 + 79 * 256) / FS, snr_db=0.0)
    labels = _labels(out)
    labels[40, :] = True
    labels[:, 15:31] = True
    labels[:, 31:47] = False
    config = RunConfig(detector=detector)
    blocks = []
    update = ColumnTracker.update_block

    def recorded(self, y, masks, stack):
        blocks.append(np.array(masks))
        return update(self, y, masks, stack)

    monkeypatch.setattr(ColumnTracker, "update_block", recorded)
    alone = track_multi(out.mixed, database, config, ("sc",), labels,
                        keep_cost_surfaces=True)["sc"]
    assert [len(masks) for masks in blocks] == [15, 16, 16, 16, 16, 1]
    if detector == "oracle":
        assert blocks[1].all() and not blocks[2].any()
        assert all(masks[:, 40].all() for masks in blocks[:2] + blocks[3:])
    alone_blocks = blocks[:]
    assert alone.valid.any()
    for other in ("cs-head", "cw-ext"):
        blocks.clear()
        beside = track_multi(out.mixed, database, config, ("sc", other), labels,
                             keep_cost_surfaces=True)["sc"]
        # beside the other estimator, the same block updates run
        assert len(blocks) == len(alone_blocks), other
        for got, want in zip(blocks, alone_blocks):
            assert np.array_equal(got, want), other
        for field in ("azimuth_deg", "cost", "valid", "cost_surface"):
            assert np.array_equal(getattr(alone, field), getattr(beside, field),
                                  equal_nan=True), (detector, other, field)


def test_cost_surface_request(database):
    out = _scene(seed=44, duration_s=1.5)
    traj = track(out.mixed, database, RunConfig(estimator="cw-ext"),
                 labels=_labels(out), keep_cost_surfaces=True)
    surf = traj.cost_surface
    assert surf.shape == (traj.n_frames, database.n_directions)
    scored = traj.valid
    np.testing.assert_array_equal(
        traj.azimuth_deg[scored],
        database.directions_deg[np.nanargmin(surf[scored], axis=1)])


def test_track_matches_track_multi(database):
    out = _scene(seed=45, duration_s=1.0)
    config = RunConfig(estimator="cw-head")
    labels = _labels(out)
    single = track(out.mixed, database, config, labels=labels)
    multi = track_multi(out.mixed, database, config,
                        estimators=("cw-head", "sc"), labels=labels)["cw-head"]
    np.testing.assert_array_equal(single.azimuth_deg, multi.azimuth_deg)
    np.testing.assert_array_equal(single.valid, multi.valid)


def test_head_only_clip_supports_head_estimators(database):
    out = _scene(seed=46, duration_s=1.0)
    head_clip = AudioClip(out.mixed.samples[:4], FS)
    labels = _labels(out)
    trajs = track_multi(head_clip, database, RunConfig(estimator="cs-head"),
                        estimators=("cs-head", "cw-head"), labels=labels)
    assert set(trajs) == {"cs-head", "cw-head"}
    for name in ("sc", "cw-ext"):
        with pytest.raises(ConfigurationError):
            track_multi(head_clip, database, RunConfig(estimator=name),
                        estimators=(name,), labels=labels)


def test_track_multi_validation(database):
    out = _scene(seed=47, duration_s=1.0)
    labels = _labels(out)
    config = RunConfig()
    with pytest.raises(ConfigurationError):
        track_multi(out.mixed, database, config, estimators=())
    with pytest.raises(ConfigurationError):
        track_multi(out.mixed, database, config, estimators=("cw-ext", "cw-ext"),
                    labels=labels)
    with pytest.raises(ConfigurationError):
        track_multi(out.mixed, database, config, estimators=("srp-phat",),
                    labels=labels)
    with pytest.raises(ConfigurationError):
        track(out.mixed, database, config)  # oracle detector, no labels
    with pytest.raises(ConfigurationError):
        track(out.mixed, database, config, labels=labels[:, :10])
    resampled = AudioClip(out.mixed.samples, 8000)
    with pytest.raises(ConfigurationError):
        track(resampled, database, config, labels=labels)
    too_many = AudioClip(np.vstack([out.mixed.samples, out.mixed.samples[:1]]), FS)
    with pytest.raises(ConfigurationError):
        track(too_many, database, config, labels=labels)


def test_label_grid_of_the_wrong_length_fails_before_tracking(database,
                                                              monkeypatch, tmp_path):
    # a bitmap's length is known from its header, so one frame too many is
    # rejected before the first frame is tracked, like one frame too few
    out = _scene(seed=47, duration_s=1.0)
    labels = _labels(out)
    too_long = np.hstack([labels, labels[:, :1]])
    path = tmp_path / "labels.bin"
    write_labels(path, too_long)

    def no_update(self, y, speech_mask):
        raise AssertionError("a frame was tracked")

    monkeypatch.setattr(CovarianceTracker, "update_frame", no_update)
    for grid in (too_long, read_labels(path), labels[:, :-1], labels[:-1]):
        with pytest.raises(ConfigurationError, match="labels shaped"):
            track(out.mixed, database, RunConfig(), labels=grid)


@pytest.mark.parametrize("detector", DETECTOR_NAMES)
def test_block_length_leaves_every_output_unchanged(database, monkeypatch, detector):
    # a scene one default block and a bit long; blocks of 1, 5 and 7 frames
    # put seams inside the 10-frame SPP bootstrap and the 63-frame warm-up.
    # Under blocks of 5 its 167 frames come as 4 (no tail precedes the
    # first block), 32 blocks of 5 and a last block of 3, which reuses
    # block buffers that longer blocks have filled
    out = _scene(seed=50, duration_s=(pipeline.BLOCK_FRAMES + 40) * 256 / FS,
                 snr_db=5.0)
    labels = _labels(out)
    config = RunConfig(detector=detector)
    # the same clip with its external channel silent from the middle of the
    # first default block on, so that held values carry across the seams
    silenced = out.mixed.samples.copy()
    silenced[-1, pipeline.BLOCK_FRAMES // 2 * 256:] = 0.0
    clips = {"clip": out.mixed, "silenced": AudioClip(silenced, FS)}

    def run(clip):
        return track_multi(clip, database, config, ESTIMATOR_NAMES, labels,
                           keep_cost_surfaces=True)

    wholes = {key: run(clip) for key, clip in clips.items()}
    assert wholes["clip"]["sc"].n_frames > pipeline.BLOCK_FRAMES
    assert wholes["clip"]["sc"].n_frames == 4 + 32 * 5 + 3
    for block_frames in (1, 5, 7):
        monkeypatch.setattr(pipeline, "BLOCK_FRAMES", block_frames)
        for key, clip in clips.items():
            for name, traj in run(clip).items():
                for field in ("azimuth_deg", "cost", "valid", "cost_surface"):
                    assert np.array_equal(getattr(traj, field),
                                          getattr(wholes[key][name], field),
                                          equal_nan=True), \
                        (key, block_frames, name, field)


def _write_as(path, samples, fmt):
    """Write [channels, n] samples in [-1, 1) as float32 (``"f32"``) or as
    16-, 24- or 32-bit PCM; return the samples the file holds, as float64."""
    if fmt != "f32":
        return write_pcm(path, samples, int(fmt[1:]), FS)
    stored = AudioClip(samples.astype(np.float32), FS)
    stft.write_wav(path, stored)
    return stored.samples


@pytest.mark.parametrize("fmt", ("f32", "i16", "i24", "i32"))
def test_a_file_tracks_as_its_samples_in_memory(database, monkeypatch, tmp_path,
                                                fmt):
    # a file's blocks are decoded into one buffer behind the end of the
    # block before, a clip's are views of its samples: both frame the same
    # samples alike, over 5 whole blocks of 16 frames, a last one of 3
    # frames' hops and 100 samples that finish no frame
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    out = _scene(seed=52, duration_s=((5 * 16 + 3) * 256 + 100) / FS, snr_db=5.0)
    samples = out.mixed.samples / (1.01 * np.abs(out.mixed.samples).max())
    path = tmp_path / f"{fmt}.wav"
    held = _write_as(path, samples, fmt)
    assert np.array_equal(stft.read_wav(path).samples, held)
    config = RunConfig(detector="spp")
    from_file = track_multi(stft.WavReader(path), database, config, ESTIMATOR_NAMES)
    from_clip = track_multi(AudioClip(held, FS), database, config, ESTIMATOR_NAMES)
    assert from_file["sc"].n_frames == (5 * 16 + 3 + 100 // 256) - 1
    for name in ESTIMATOR_NAMES:
        for field in ("azimuth_deg", "cost", "valid"):
            assert np.array_equal(getattr(from_file[name], field),
                                  getattr(from_clip[name], field),
                                  equal_nan=True), (name, field)


def test_a_non_finite_sample_that_no_frame_reads_is_raised(database, monkeypatch,
                                                            tmp_path):
    # the last block's 100 new samples finish no frame, and are checked all
    # the same, from a clip and from a file
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    samples = 0.1 * np.random.default_rng(8).standard_normal((5, 3 * 16 * 256 + 100))
    samples[3, -50] = np.nan
    n_frames = stft.num_frames(samples.shape[1], RunConfig().stft)
    assert (n_frames - 1) * 256 + 512 < samples.shape[1] - 50
    path = tmp_path / "late_nan.wav"
    stft.write_wav(path, AudioClip(samples, FS))
    for source in (AudioClip(samples, FS), stft.WavReader(path)):
        with pytest.raises(NumericalFailure, match="non-finite samples"):
            track_multi(source, database, RunConfig(detector="spp"), ("sc",))


def test_timed_layers_run_where_they_are_looked_up(database, monkeypatch):
    # a benchmark times spp and analyze by wrapping them under their names
    # in every rtfdoa module that holds them; on an SPP + sc run the
    # wrappers must see spp once per frame after the bootstrap and analyze
    # once per block, or those layers would silently read zero
    out = _scene(seed=49, snr_db=5.0)
    counts = {}
    for owner, attr in ((activity, "spp"), (stft, "analyze")):
        func = getattr(owner, attr)

        def counted(*args, _func=func, _attr=attr, **kwargs):
            counts[_attr] = counts.get(_attr, 0) + 1
            return _func(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("rtfdoa"):
                for key, value in list(vars(module).items()):
                    if value is func:
                        monkeypatch.setattr(module, key, counted)
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    traj = track(out.mixed, database, RunConfig(estimator="sc", detector="spp"))
    n_blocks = -(-out.mixed.n_samples // (16 * 256))
    assert n_blocks > 1
    assert counts == {"spp": traj.n_frames - activity.SPP_BOOTSTRAP_FRAMES,
                      "analyze": n_blocks}


def test_spp_detector_smoke(database):
    out = _scene(seed=48, duration_s=3.0, snr_db=5.0)
    config = RunConfig(estimator="cw-ext", detector="spp")
    traj = track(out.mixed, database, config)
    scored = traj.valid
    assert scored.any()
    errs = angular_errors(traj.azimuth_deg[scored], out.truth_doa_deg[scored])
    assert np.mean(errs <= 5.0) > 0.5


# ------------------------------------------- tracked CW against exact CW

def _exact_cw_decisions(clip, labels, database, config, name):
    """Grid decisions of the exact one-shot ``batch_cw`` on every frame's
    covariances, held and costed as the pipeline does; (azimuths, ok)."""
    data = analyze(clip, config.stft)
    n_bins, n_frames = data.shape[1:]
    n_head = database.n_mics
    dim = clip.n_channels if name == "cw-ext" else n_head
    tracker = CovarianceTracker(clip.n_channels, n_bins,
                                config.smoothing(clip.sample_rate))
    held = np.zeros((n_bins, n_head), dtype=np.complex64)
    ever = np.zeros(n_bins, dtype=bool)
    store = np.zeros((n_frames, n_bins, n_head), dtype=np.complex64)
    valid_store = np.zeros((n_frames, n_bins), dtype=bool)
    for l in range(n_frames):
        tracker.update_frame(np.ascontiguousarray(data[:, :, l]), labels[:, l])
        values, valid = batch_cw(tracker.noisy[:, :dim, :dim],
                                 tracker.noise[:, :dim, :dim])
        held[valid] = values[valid, :n_head]
        ever |= valid
        store[l] = held
        valid_store[l] = ever
    azimuths, _, ok = argmin_directions(
        cost_surface_frames(store, valid_store, database), database)
    return azimuths, ok


def _decision_agreement(scene, database, config, names):
    """Share of post-warm-up frames where tracked and exact CW decide alike."""
    labels = oracle_label_grid(scene, config)
    trajs = track_multi(scene.mixed, database, config, names, labels)
    shares = {}
    for name in names:
        traj = trajs[name]
        azimuths, ok = _exact_cw_decisions(scene.mixed, labels, database,
                                           config, name)
        after = np.arange(traj.n_frames) >= traj.warmup_frames
        same = (traj.valid == ok) & (~ok | (traj.azimuth_deg == azimuths))
        shares[name] = float(np.mean(same[after]))
    return shares


def test_tracked_cw_agrees_with_exact_cw_on_moving_source(database):
    # the criterion-6 scene: the direction turns every frame
    scene = synthesize(SceneSpec(seed=11, duration_s=25.0, snr_db=0.0,
                                 source_trajectory=((0.0, -50.0),
                                                    (25.0, 50.0))))
    config = RunConfig(tau_y_s=0.15, eval_window=1.0, tolerance_deg=15.0)
    shares = _decision_agreement(scene, database, config, ("cw-ext",))
    # 97.7 % when the one-step tracker landed
    assert shares["cw-ext"] >= 0.97


def test_tracked_cw_agrees_with_exact_cw_at_minus_15_db(database):
    # at low SNR the two largest generalized eigenvalues draw close, so
    # one power step per frame lags the exact solution most here
    scene = synthesize(SceneSpec(seed=3, duration_s=10.0, snr_db=-15.0,
                                 source_trajectory=((0.0, 35.0),)))
    shares = _decision_agreement(scene, database, RunConfig(),
                                 ("cw-ext", "cw-head"))
    # 96.6 % and 94.5 % when the one-step tracker landed
    assert shares["cw-ext"] >= 0.96
    assert shares["cw-head"] >= 0.94


def test_cw_head_decides_alike_with_and_without_external_channel(database):
    # with the external channel the head-block inverse comes from the
    # tracked 5x5 inverse by a Schur complement; without it the tracker
    # follows the 4x4 inverse directly
    out = synthesize(SceneSpec(seed=46, duration_s=4.0, snr_db=0.0,
                               source_trajectory=((0.0, -50.0), (4.0, 50.0))))
    labels = _labels(out)
    config = RunConfig(estimator="cw-head")
    full = track(out.mixed, database, config, labels=labels)
    head = track(AudioClip(out.mixed.samples[:4], FS), database, config,
                 labels=labels)
    np.testing.assert_array_equal(full.azimuth_deg, head.azimuth_deg)
    np.testing.assert_array_equal(full.valid, head.valid)
    np.testing.assert_allclose(full.cost, head.cost, rtol=0, atol=1e-6)


def test_cw_head_ignores_a_dead_external_channel(database):
    # an all-zero external channel leaves phi_n singular in its direction,
    # so its entry of the tracked 5x5 inverse grows by 1/alpha_n every
    # noise frame. At tau_n = 14 ms (alpha_n = 0.32) it would overflow
    # after about 600 noise frames, and this -10 dB scene gates a bin as
    # noise in 76 % of its 750 frames. The tracker re-seeds it, so the
    # head block's inverse, and with it every decision of cw-head, stays
    # as it is without the channel
    out = synthesize(SceneSpec(seed=46, duration_s=12.0, snr_db=-10.0,
                               source_trajectory=((0.0, -50.0), (12.0, 50.0))))
    labels = _labels(out)
    samples = out.mixed.samples.copy()
    samples[4] = 0.0
    config = RunConfig(estimator="cw-head", tau_n_s=0.0139)
    full = track(AudioClip(samples, FS), database, config, labels=labels)
    head = track(AudioClip(samples[:4], FS), database, config, labels=labels)
    np.testing.assert_array_equal(full.azimuth_deg, head.azimuth_deg)
    np.testing.assert_array_equal(full.valid, head.valid)
    np.testing.assert_allclose(full.cost, head.cost, rtol=0, atol=1e-6)
