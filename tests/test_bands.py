"""Frequency bands tracked in parallel processes.

``track_multi`` splits the bins into bands, one per usable CPU and at
most ``pipeline.MAX_BANDS`` (two), and tracks every band but the first in
a forked process. These tests force the band count through
``os.sched_getaffinity``, raising the cap where they force three bands,
and blocks shorter than the scene, since a run of one block forks
nothing; they check that the results do not depend on the band count,
that a failure in any band reaches the caller, and that no process
outlives the call.
"""
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from rtfdoa import pipeline
from rtfdoa.activity import read_labels, write_labels
from rtfdoa.covariance import CovarianceTracker
from rtfdoa.errors import NumericalFailure
from rtfdoa.evaluate import oracle_label_grid, run_sweep
from rtfdoa.pipeline import DETECTOR_NAMES, ESTIMATOR_NAMES, RunConfig, track_multi
from rtfdoa.simulate import SceneSpec, synthesize
from rtfdoa.stft import AudioClip, WavReader, write_wav

FS = 16000
N_BINS = 257  # the default STFT's


class _BandFailure(Exception):
    """Raised on purpose inside a band process."""


def _force_cpus(monkeypatch, n):
    """``n`` usable CPUs, all of which a run may use."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(pipeline, "MAX_BANDS", max(n, pipeline.MAX_BANDS))


def _children() -> set[int]:
    """Pids of this process's children, zombies included."""
    pids = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended meanwhile
            continue
        if int(fields[1]) == os.getpid():
            pids.add(int(stat.parent.name))
    return pids


@pytest.fixture(scope="module")
def scene():
    # 1.5 s, 92 frames: with blocks of 7 frames the first seam falls inside
    # the 10-frame SPP bootstrap
    return synthesize(SceneSpec(seed=52, duration_s=1.5, snr_db=5.0,
                                source_trajectory=((0.0, -40.0), (1.5, 20.0))))


def test_bands_are_whole_chunks_one_per_usable_cpu(monkeypatch):
    long = pipeline.BLOCK_FRAMES + 1
    for cpus, edges in ((1, [0, 257]), (2, [0, 129, 257]),
                        (3, [0, 65, 161, 257]),
                        (64, [0, *range(33, 257, 32), 257])):
        _force_cpus(monkeypatch, cpus)
        bands = pipeline._bands(N_BINS, long, ESTIMATOR_NAMES)
        assert bands == list(zip(edges[:-1], edges[1:])), cpus
    # never more bands than chunks
    _force_cpus(monkeypatch, 4)
    assert pipeline._bands(17, long, ESTIMATOR_NAMES) == [(0, 17)]
    assert pipeline._bands(34, long, ESTIMATOR_NAMES) == [(0, 33), (33, 34)]


def test_a_run_forks_at_most_once_and_only_where_a_band_gains(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
    long, whole = pipeline.BLOCK_FRAMES + 1, [(0, N_BINS)]
    # two bands at most, whatever the CPU count
    for names in (("sc", "cw-ext"), ("cs-head",), ("cw-head",), ("cw-ext",),
                  ESTIMATOR_NAMES):
        assert pipeline._bands(N_BINS, long, names) == [(0, 129), (129, 257)]
    # sc alone, and a recording of one block
    assert pipeline._bands(N_BINS, long, ("sc",)) == whole
    assert pipeline._bands(N_BINS, long - 1, ESTIMATOR_NAMES) == whole
    # a process that runs another thread forks nothing
    found = []
    thread = threading.Thread(target=lambda: found.append(
        pipeline._bands(N_BINS, long, ESTIMATOR_NAMES)))
    thread.start()
    thread.join(timeout=60)
    assert found == [whole]
    # nor does one whose usable CPUs cannot be read
    monkeypatch.delattr(os, "sched_getaffinity")
    assert pipeline._bands(N_BINS, long, ESTIMATOR_NAMES) == whole


def test_one_band_needs_neither_affinity_nor_fork(database, scene, monkeypatch):
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    _force_cpus(monkeypatch, 1)
    want = track_multi(scene.mixed, database, RunConfig(detector="spp"),
                       ("cw-ext",))["cw-ext"]
    monkeypatch.delattr(os, "sched_getaffinity")

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(pipeline.multiprocessing, "get_context", no_fork)
    before = _children()
    got = track_multi(scene.mixed, database, RunConfig(detector="spp"),
                      ("cw-ext",))["cw-ext"]
    assert got.valid.any()
    assert np.array_equal(got.azimuth_deg, want.azimuth_deg, equal_nan=True)
    assert _children() <= before


@pytest.mark.parametrize("detector", DETECTOR_NAMES)
def test_band_count_leaves_every_output_unchanged(database, scene, monkeypatch,
                                                  tmp_path, detector):
    config = RunConfig(detector=detector)
    labels = oracle_label_grid(scene, config)
    write_wav(tmp_path / "mixed.wav", scene.mixed)
    write_labels(tmp_path / "labels.bin", labels)
    sources = {"clip": (scene.mixed, labels),
               "wav": (WavReader(tmp_path / "mixed.wav"),
                       read_labels(tmp_path / "labels.bin"))}
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 7)
    received = []
    receive = pipeline._receive
    monkeypatch.setattr(pipeline, "_receive",
                        lambda *args: received.append(1) or receive(*args))

    def run(cpus, key, cost_from=0):
        _force_cpus(monkeypatch, cpus)
        source, grid = sources[key]
        return track_multi(source, database, config, ESTIMATOR_NAMES, grid,
                           keep_cost_surfaces=True, cost_from=cost_from)

    # a float WAV holds the clip in single precision, so each source has
    # its own reference: the same source under one band
    for key in sources:
        for cost_from in (0, 45):  # frame 45 lies inside a block of 7
            want = run(1, key, cost_from)
            assert not received
            for cpus in (2, 3):
                got = run(cpus, key, cost_from)
                assert len(received) == (cpus - 1) * -(-92 // 7)
                received.clear()
                for name in ESTIMATOR_NAMES:
                    assert got[name].valid.any(), (key, name)
                    for field in ("azimuth_deg", "cost", "valid", "cost_surface"):
                        assert np.array_equal(getattr(got[name], field),
                                              getattr(want[name], field),
                                              equal_nan=True), \
                            (key, cost_from, cpus, name, field)


def _fail_in_later_bands(monkeypatch, error, after=40):
    """Make update_frame raise ``error`` at frame ``after`` in every
    process but this one."""
    parent, update = os.getpid(), CovarianceTracker.update_frame
    frames = [0]

    def update_frame(self, *args, **kwargs):
        frames[0] += 1
        if os.getpid() != parent and frames[0] > after:
            raise error
        return update(self, *args, **kwargs)

    monkeypatch.setattr(CovarianceTracker, "update_frame", update_frame)


@pytest.mark.parametrize("cpus", (1, 2, 3))
def test_a_non_finite_sample_mid_file_is_raised_and_leaves_no_process(
        database, scene, monkeypatch, cpus):
    _force_cpus(monkeypatch, cpus)
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    samples = scene.mixed.samples.copy()
    samples[2, 60 * 256] = np.nan  # in the fourth block
    before = _children()
    with pytest.raises(NumericalFailure, match="clip contains non-finite samples"):
        track_multi(AudioClip(samples, FS), database, RunConfig(detector="spp"),
                    ESTIMATOR_NAMES)
    assert _children() <= before


@pytest.mark.parametrize("cpus", (2, 3))
@pytest.mark.parametrize("error", (_BandFailure("band failure at frame 41"),
                                   NumericalFailure("a numerical failure in a band")))
def test_a_failure_in_a_later_band_reaches_the_caller(database, scene,
                                                      monkeypatch, cpus, error):
    _force_cpus(monkeypatch, cpus)
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    labels = oracle_label_grid(scene, RunConfig())
    _fail_in_later_bands(monkeypatch, error)
    before = _children()
    with pytest.raises(type(error), match=str(error)) as raised:
        track_multi(scene.mixed, database, RunConfig(), ESTIMATOR_NAMES, labels)
    assert type(raised.value) is type(error)
    assert _children() <= before


def test_a_band_process_that_dies_is_reported(database, scene, monkeypatch):
    _force_cpus(monkeypatch, 2)
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    parent, update = os.getpid(), CovarianceTracker.update_frame

    def update_frame(self, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(1)
        return update(self, *args, **kwargs)

    monkeypatch.setattr(CovarianceTracker, "update_frame", update_frame)
    before = _children()
    with pytest.raises(RuntimeError, match="bins 129 to 256 ended without a result"):
        track_multi(scene.mixed, database, RunConfig(detector="spp"),
                    ("cs-head",))
    assert _children() <= before


@pytest.mark.parametrize("cpus", (2, 3))
def test_an_interrupt_leaves_no_process(database, scene, monkeypatch, cpus):
    # the band processes may be blocked sending a block the parent never
    # reads; they are ended all the same
    _force_cpus(monkeypatch, cpus)
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 8)
    calls = [0]
    receive = pipeline._receive

    def interrupted(*args):
        calls[0] += 1
        if calls[0] == cpus + 1:
            raise KeyboardInterrupt
        return receive(*args)

    monkeypatch.setattr(pipeline, "_receive", interrupted)
    before = _children()
    with pytest.raises(KeyboardInterrupt):
        track_multi(scene.mixed, database, RunConfig(detector="spp"),
                    ESTIMATOR_NAMES)
    assert _children() <= before


def test_band_processes_hold_blas_to_one_thread(database, scene, monkeypatch,
                                                tmp_path):
    _force_cpus(monkeypatch, 3)
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)

    def single_blas_thread():
        (tmp_path / str(os.getpid())).touch()

    monkeypatch.setattr(pipeline, "_single_blas_thread", single_blas_thread)
    track_multi(scene.mixed, database, RunConfig(detector="spp"), ("cs-head",))
    pids = {int(path.name) for path in tmp_path.iterdir()}
    assert len(pids) == 2 and os.getpid() not in pids


def test_sweep_cells_run_one_band(database, monkeypatch, tmp_path):
    # a sweep already runs one forked cell per usable CPU; its cells must
    # not fork bands on top, or 2 workers would become 4 processes on 2 CPUs
    _force_cpus(monkeypatch, 2)
    # cells of several blocks, tracked by an estimator that gains from bands
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", 16)
    bands = pipeline._bands

    def logged(*args):
        result = bands(*args)
        with open(tmp_path / "bands.log", "a") as log:
            log.write(f"{os.getpid()} {len(result)} {args[1]}\n")
        return result

    monkeypatch.setattr(pipeline, "_bands", logged)
    rows = run_sweep({"estimators": ["cw-ext"], "azimuths_deg": [35.0, -35.0],
                      "snrs_db": [5.0], "seeds": [1], "duration_s": 2.0,
                      "detector": "spp"}, database)
    assert not any(row["error"] for row in rows)
    entries = [line.split() for line in
               (tmp_path / "bands.log").read_text().splitlines()]
    assert len(entries) == 2  # one per cell
    assert {count for _, count, _ in entries} == {"1"}
    assert str(os.getpid()) not in {pid for pid, _, _ in entries}
    # the same cell outside a pool worker runs two
    n_frames = int(entries[0][2])
    assert len(bands(N_BINS, n_frames, ("cw-ext",))) == 2
