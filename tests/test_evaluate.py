import csv
import json
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest

from rtfdoa import evaluate, pipeline
from rtfdoa.errors import ConfigurationError
from rtfdoa.evaluate import (
    SWEEP_COLUMNS,
    Metrics,
    accuracy,
    angular_errors,
    evaluate_csv,
    oracle_label_grid,
    read_trajectory_csv,
    read_truth_csv,
    run_scene,
    run_sweep,
    score,
    write_metrics_json,
    write_sweep_csv,
    write_trajectory_csv,
    write_truth_csv,
)
from rtfdoa.pipeline import ESTIMATOR_NAMES, DoaTrajectory, RunConfig, track_multi
from rtfdoa.simulate import (SceneSpec, compose, render_azimuth_free, steer,
                             synthesize)


def _traj(az, valid, warmup=0, estimator="sc", times=None, **kw):
    az = np.asarray(az, dtype=float)
    if times is None:
        times = np.arange(az.size) * 0.016
    return DoaTrajectory(estimator=estimator, azimuth_deg=az,
                         cost=np.full(az.size, 0.5),
                         valid=np.asarray(valid, dtype=bool),
                         frame_times=times, warmup_frames=warmup, **kw)


# ------------------------------------------------------------------ errors

def test_angular_error_wraps():
    errs = angular_errors([10.0, 175.0, -175.0, 0.0, 90.0],
                          [10.0, -175.0, 175.0, 180.0, -90.0])
    assert errs[0] == 0.0
    np.testing.assert_allclose(errs[1:], [10.0, 10.0, 180.0, 180.0])


def test_angular_errors_vectorized():
    errs = angular_errors([10.0, 20.0, 175.0, np.nan], [10.0, 90.0, -175.0, 0.0])
    np.testing.assert_allclose(errs[:3], [0.0, 70.0, 10.0])
    assert np.isnan(errs[3])


def test_accuracy_worked_example():
    # errors 0, 70, 10 against a 5 degree tolerance: one hit of three
    acc = accuracy(np.array([10.0, 20.0, 175.0]), np.ones(3, bool),
                   np.array([10.0, 90.0, -175.0]), tolerance_deg=5.0)
    assert acc == pytest.approx(100.0 / 3.0)


def test_accuracy_counts_invalid_as_miss():
    az = np.array([0.0, 0.0])
    truth = np.zeros(2)
    assert accuracy(az, np.array([True, True]), truth) == 100.0
    assert accuracy(az, np.array([True, False]), truth) == 50.0
    assert accuracy(az, np.array([False, False]), truth) == 0.0


def test_accuracy_permutation_invariant(rng):
    az = rng.uniform(-180, 180, 40)
    truth = rng.uniform(-180, 180, 40)
    valid = rng.random(40) < 0.8
    perm = rng.permutation(40)
    assert accuracy(az, valid, truth) == accuracy(az[perm], valid[perm], truth[perm])


def test_accuracy_validation():
    with pytest.raises(ConfigurationError):
        accuracy(np.array([]), np.array([], dtype=bool), np.array([]))
    with pytest.raises(ConfigurationError):
        accuracy(np.zeros(3), np.ones(3, bool), np.zeros(2))


# ----------------------------------------------------------------- scoring

def test_score_window_selection():
    # 10 frames, warmup 4: a half window scores frames 5..9
    truth = np.zeros(10)
    traj = _traj(np.zeros(10), np.ones(10, bool), warmup=4)
    m = score(traj, truth, eval_window=0.5)
    assert m.frames_scored == 5
    # the full window still starts at the warm-up horizon
    m_full = score(traj, truth, eval_window=1.0)
    assert m_full.frames_scored == 6
    with pytest.raises(ConfigurationError):
        score(_traj(np.zeros(10), np.ones(10, bool), warmup=12), truth)
    # the window and tolerance obey the rule a run config obeys
    for kwargs in ({"eval_window": 1.5}, {"eval_window": 0.0},
                   {"tolerance_deg": -1.0}, {"tolerance_deg": np.nan}):
        with pytest.raises(ConfigurationError):
            score(traj, truth, **kwargs)


def test_score_rms_over_valid_frames_only():
    az = np.array([0.0, 3.0, 4.0, 90.0])
    valid = np.array([True, True, True, False])
    traj = _traj(az, valid)
    m = score(traj, np.zeros(4), eval_window=1.0, tolerance_deg=5.0)
    assert m.rms_error_deg == pytest.approx(np.sqrt(np.mean([0.0, 9.0, 16.0])))
    assert m.accuracy_pct == pytest.approx(75.0)
    assert m.invalid_frames == 1
    assert m.errors_deg[3] is None
    assert m.errors_deg[1] == pytest.approx(3.0)


def test_score_rms_none_when_nothing_valid():
    traj = _traj([np.nan, np.nan], [False, False])
    m = score(traj, np.zeros(2), eval_window=1.0)
    assert m.rms_error_deg is None
    assert m.accuracy_pct == 0.0


def test_score_real_time_factor_paths():
    traj = _traj(np.zeros(4), np.ones(4, bool), processing_s=0.5)
    timed = score(traj, np.zeros(4), eval_window=1.0, duration_s=2.0)
    assert timed.real_time_factor == pytest.approx(0.25)
    untimed = score(_traj(np.zeros(4), np.ones(4, bool)), np.zeros(4),
                    eval_window=1.0, duration_s=2.0)
    assert untimed.real_time_factor is None
    no_duration = score(traj, np.zeros(4), eval_window=1.0)
    assert no_duration.real_time_factor is None


def test_score_truth_length_mismatch():
    with pytest.raises(ConfigurationError):
        score(_traj(np.zeros(4), np.ones(4, bool)), np.zeros(3))


def test_metrics_json_deterministic(tmp_path):
    m = Metrics(estimator="sc", tolerance_deg=5.0, frames_total=10,
                frames_scored=5, accuracy_pct=80.0, rms_error_deg=2.5,
                invalid_frames=1, real_time_factor=None,
                errors_deg=(0.0, None, 2.0))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_metrics_json(a, m)
    write_metrics_json(b, m)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert payload["real_time_factor"] is None
    assert payload["errors_deg"] == [0.0, None, 2.0]
    assert "noise_reads" not in payload


# --------------------------------------------------------------- run_scene

@pytest.fixture(scope="module")
def quiet_scene():
    return synthesize(SceneSpec(seed=61, duration_s=2.0, diffuse_order=12,
                                source_trajectory=((0.0, -35.0),),
                                snr_db=None))


def test_run_scene_noiseless_everyone_perfect(quiet_scene, database):
    results = run_scene(quiet_scene, database, RunConfig(),
                        estimators=ESTIMATOR_NAMES)
    assert set(results) == set(ESTIMATOR_NAMES)
    for name, (traj, metrics) in results.items():
        assert metrics.accuracy_pct == 100.0, name
        assert metrics.real_time_factor is not None
        assert metrics.frames_total == traj.n_frames


def test_run_scene_defaults_to_configured_estimator(quiet_scene, database):
    results = run_scene(quiet_scene, database, RunConfig(estimator="sc"))
    assert set(results) == {"sc"}


@pytest.mark.parametrize("block_frames", [pipeline.BLOCK_FRAMES, 40])
def test_run_scene_costs_only_the_scored_window(database, monkeypatch,
                                                block_frames):
    # 186 frames: the half window starts at frame 93, past the 63-frame
    # warm-up; with 40-frame blocks it starts inside the third block
    monkeypatch.setattr(pipeline, "BLOCK_FRAMES", block_frames)
    scene = synthesize(SceneSpec(seed=62, duration_s=3.0, diffuse_order=12,
                                 source_trajectory=((0.0, 35.0),), snr_db=5.0))
    config = RunConfig()
    results = run_scene(scene, database, config, ESTIMATOR_NAMES)
    full = track_multi(scene.mixed, database, config, ESTIMATOR_NAMES,
                       oracle_label_grid(scene, config))
    for name, (traj, metrics) in results.items():
        start = traj.n_frames - metrics.frames_scored
        assert (traj.n_frames, start) == (186, 93)
        assert np.isnan(traj.azimuth_deg[:start]).all(), name
        assert np.isnan(traj.cost[:start]).all(), name
        assert not traj.valid[:start].any(), name
        for field in ("azimuth_deg", "cost", "valid"):
            assert np.array_equal(getattr(traj, field)[start:],
                                  getattr(full[name], field)[start:],
                                  equal_nan=True), (name, field)
        assert full[name].valid[config.warmup_frames(16000):start].any(), name


# -------------------------------------------------------------------- CSVs

def test_trajectory_csv_roundtrip(tmp_path):
    az = np.array([np.nan, 10.0, -175.1234])
    traj = _traj(az, [False, True, True], estimator="cw-ext",
                 times=np.array([0.016, 0.032, 0.048]))
    path = tmp_path / "doa.csv"
    write_trajectory_csv(path, traj)
    back = read_trajectory_csv(path)
    np.testing.assert_array_equal(back["frame"], [0, 1, 2])
    np.testing.assert_allclose(back["time_s"], traj.frame_times, atol=1e-6)
    assert np.isnan(back["azimuth_deg"][0])
    np.testing.assert_allclose(back["azimuth_deg"][1:], az[1:], atol=1e-4)
    np.testing.assert_array_equal(back["valid"], traj.valid)


def test_trajectory_csv_bytes_are_those_of_csv_writer(tmp_path, rng):
    # NaN warm-up rows, invalid rows with and without an azimuth, a
    # negative zero and long frame times, against the csv module's rows
    n = 300
    az = rng.uniform(-180.0, 180.0, n)
    cost = rng.uniform(0.0, 1.6, n)
    az[:40] = cost[:40] = np.nan
    valid = rng.random(n) < 0.8
    valid[:40] = False
    az[60:70] = np.nan  # invalid frames that kept no azimuth
    az[75] = -0.0
    times = (np.arange(n) * 256 + 256) / 16000.0 + 3600.0
    traj = replace(_traj(az, valid, warmup=40, times=times), cost=cost)
    path = tmp_path / "doa.csv"
    write_trajectory_csv(path, traj)
    want = tmp_path / "want.csv"
    with open(want, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(evaluate.TRAJECTORY_COLUMNS)
        for i in range(n):
            writer.writerow([i, f"{times[i]:.6f}", f"{az[i]:.4f}",
                             f"{cost[i]:.8f}", int(valid[i])])
    assert path.read_bytes() == want.read_bytes()
    assert b"\r\n39,3600.640000,nan,nan,0\r\n" in want.read_bytes()


def test_truth_csv_roundtrip(tmp_path):
    times = np.array([0.016, 0.032])
    truth = np.array([35.0, 36.5])
    path = tmp_path / "truth.csv"
    write_truth_csv(path, times, truth)
    back = read_truth_csv(path)
    np.testing.assert_array_equal(back["frame_index"], [0, 1])
    np.testing.assert_allclose(back["azimuth_deg"], truth, atol=1e-4)


def test_csv_header_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigurationError, match="unexpected trajectory header"):
        read_trajectory_csv(bad)
    with pytest.raises(ConfigurationError, match="unexpected truth header"):
        read_truth_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("frame,time_s,azimuth_deg,cost,valid\n")
    with pytest.raises(ConfigurationError, match="trajectory CSV holds no frames"):
        read_trajectory_csv(empty)
    empty.write_text("frame_index,time_s,azimuth_deg\n")
    with pytest.raises(ConfigurationError, match="truth CSV holds no frames"):
        read_truth_csv(empty)
    # a cell that is not a number, or a row of the wrong length
    for row in ("0,0.016,abc", "0,0.016", "0,0.016,35.0,1"):
        bad.write_text(f"frame_index,time_s,azimuth_deg\n0,0.0,35.0\n{row}\n")
        with pytest.raises(ConfigurationError, match="truth CSV"):
            read_truth_csv(bad)


def test_evaluate_csv_reproducible(tmp_path):
    az = np.concatenate([np.full(3, np.nan), np.full(7, -35.0)])
    valid = az == az
    traj = _traj(az, valid, warmup=3)
    doa_csv = tmp_path / "doa.csv"
    truth_csv = tmp_path / "truth.csv"
    write_trajectory_csv(doa_csv, traj)
    write_truth_csv(truth_csv, traj.frame_times, np.full(10, -35.0))

    m1 = evaluate_csv(doa_csv, truth_csv, warmup_frames=3, estimator="sc")
    assert m1.real_time_factor is None
    assert m1.accuracy_pct == 100.0
    out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
    write_metrics_json(out1, m1)
    write_metrics_json(out2, evaluate_csv(doa_csv, truth_csv, warmup_frames=3,
                                          estimator="sc"))
    assert out1.read_bytes() == out2.read_bytes()


def test_evaluate_csv_rejects_truth_at_another_hop(tmp_path):
    # same frame count, but the truth was written at half the hop
    traj = _traj(np.full(10, -35.0), np.ones(10, bool),
                 times=(np.arange(10) * 256 + 256) / 16000)
    doa_csv = tmp_path / "doa.csv"
    truth_csv = tmp_path / "truth.csv"
    write_trajectory_csv(doa_csv, traj)
    write_truth_csv(truth_csv, (np.arange(10) * 128 + 256) / 16000,
                    np.full(10, -35.0))
    with pytest.raises(ConfigurationError, match="frame 1"):
        evaluate_csv(doa_csv, truth_csv)
    # the same grid written again lines up
    write_truth_csv(truth_csv, traj.frame_times, np.full(10, -35.0))
    assert evaluate_csv(doa_csv, truth_csv).accuracy_pct == 100.0


# ------------------------------------------------------------------- sweep

def test_run_sweep_cells_and_averages(database):
    matrix = {
        "estimators": ["cs-head", "sc"],
        "azimuths_deg": [35.0, -35.0],
        "snrs_db": [30.0],
        "seeds": [1],
        "duration_s": 2.0,  # must clear the 63-frame warm-up
        "diffuse_order": 12,
    }
    rows = run_sweep(matrix, database)
    cells = [r for r in rows if r["seed"] != "avg"]
    avgs = [r for r in rows if r["seed"] == "avg"]
    assert len(cells) == 4  # 2 estimators x 2 azimuths
    assert len(avgs) == 2   # one average per estimator
    for row in cells:
        assert row["error"] == ""
        assert row["accuracy_pct"] == 100.0
    for row in avgs:
        assert row["azimuth_deg"] == "avg"
        assert row["accuracy_pct"] == 100.0
        assert row["frames_scored"] == sum(
            c["frames_scored"] for c in cells
            if c["estimator"] == row["estimator"])


def test_run_sweep_missing_axis(database):
    with pytest.raises(ConfigurationError):
        run_sweep({"estimators": ["sc"], "azimuths_deg": [0.0],
                   "snrs_db": [0.0]}, database)
    with pytest.raises(ConfigurationError):
        run_sweep({"estimators": [], "azimuths_deg": [0.0], "snrs_db": [0.0],
                   "seeds": [1]}, database)
    # a key that is no axis, run-config override or scene entry: a
    # misspelt override or a singular axis name would otherwise be ignored
    for key, value in (("tau_n", 5.0), ("snr_db", [-20]), ("detektor", "spp")):
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            run_sweep({"estimators": ["sc"], "azimuths_deg": [0.0],
                       "snrs_db": [0.0], "seeds": [1], "duration_s": 2.0,
                       "diffuse_order": 12, key: value}, database)
    # the reverb proxy as an axis and as a scalar: the scalar was ignored
    with pytest.raises(ConfigurationError,
                       match="'reverb_proxies_db' and 'reverb_proxy_db'"):
        run_sweep({"estimators": ["sc"], "azimuths_deg": [0.0],
                   "snrs_db": [0.0], "seeds": [1], "duration_s": 2.0,
                   "diffuse_order": 12, "reverb_proxies_db": [None],
                   "reverb_proxy_db": 3.0}, database)


def test_run_sweep_captures_cell_failures(database):
    matrix = {
        "estimators": ["sc"],
        "azimuths_deg": [35.0],
        "snrs_db": [0.0],
        "seeds": [1],
        "duration_s": 0.01,  # shorter than one frame: the render fails
        "diffuse_order": 12,
    }
    rows = run_sweep(matrix, database)
    assert rows, "failure must still produce rows"
    assert all(r["error"] for r in rows)
    assert all(r["accuracy_pct"] is None for r in rows)
    assert not any(r["seed"] == "avg" for r in rows)


def test_run_sweep_propagates_program_errors(database, monkeypatch):
    # only configuration and numerical failures become error rows; a
    # program error leaves run_sweep, from this process and from workers
    def broken_render(*args, **kwargs):
        raise TypeError("broken render")

    monkeypatch.setattr(evaluate, "render_azimuth_free", broken_render)
    matrix = {"estimators": ["sc"], "snrs_db": [0.0], "seeds": [1],
              "duration_s": 2.0, "diffuse_order": 12}
    for azimuths in ([35.0], [35.0, -35.0]):
        with pytest.raises(TypeError, match="broken render"):
            run_sweep({**matrix, "azimuths_deg": azimuths}, database)
        assert multiprocessing.active_children() == []


def test_run_sweep_leaves_no_worker_behind(database):
    matrix = {
        "estimators": ["sc"],
        "azimuths_deg": [35.0, -35.0],
        "snrs_db": [30.0],
        "seeds": [1],
        "duration_s": 2.0,
        "diffuse_order": 12,
    }
    rows = run_sweep(matrix, database)
    assert not any(r["error"] for r in rows)
    assert multiprocessing.active_children() == []
    # every cell fails, in one unit and in several
    for azimuths in ([35.0], [35.0, -35.0]):
        rows = run_sweep({**matrix, "azimuths_deg": azimuths,
                          "snrs_db": [0.0], "duration_s": 0.01}, database)
        assert rows and all(r["error"] for r in rows)
        assert multiprocessing.active_children() == []


def test_run_sweep_rows_match_single_unit_sweeps(database):
    # cells run (seed, reverb, external)-major, so the rows of the whole
    # matrix must be put back in the serial order
    matrix = {
        "estimators": list(ESTIMATOR_NAMES),
        "azimuths_deg": [35.0, -145.0],
        "snrs_db": [-5.0, 5.0],
        "seeds": [1, 2],
        "reverb_proxies_db": [None, 5.0],
        "externals": [[45.0, 1.6], [-60.0, 1.2]],
        "duration_s": 2.0,
        "diffuse_order": 12,
    }
    rows = run_sweep(matrix, database)
    cells = [r for r in rows if r["seed"] != "avg"]
    serial = []
    for seed in matrix["seeds"]:
        for azimuth in matrix["azimuths_deg"]:
            unit = run_sweep({**matrix, "seeds": [seed],
                              "azimuths_deg": [azimuth]}, database)
            serial.extend(r for r in unit if r["seed"] != "avg")
    assert len(cells) == 2 * 2 * 2 * 2 * 2 * len(ESTIMATOR_NAMES)
    assert not any(r["error"] for r in cells)
    assert cells == serial


def test_serial_sweep_renders_once_per_seed_reverb_and_external(database,
                                                                monkeypatch):
    # one CPU: every cell runs in this process, through one render cache
    monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0})
    calls = []
    render = evaluate.render_azimuth_free

    def counted(spec, stft_config=None):
        calls.append((spec.seed, spec.reverb_proxy_db,
                      spec.external_azimuth_deg, spec.external_distance_m))
        return render(spec, stft_config)

    monkeypatch.setattr(evaluate, "render_azimuth_free", counted)
    rows = run_sweep({"estimators": ["sc"], "azimuths_deg": [35.0, -145.0],
                      "snrs_db": [0.0, 10.0], "seeds": [1, 2],
                      "reverb_proxies_db": [None, 5.0],
                      "externals": [[45.0, 1.6], [-60.0, 1.2]],
                      "duration_s": 2.0, "diffuse_order": 12}, database)
    cells = [r for r in rows if r["seed"] != "avg"]
    assert len(cells) == 32 and not any(r["error"] for r in cells)
    assert calls == [(seed, reverb, *ext) for seed in (1, 2)
                     for reverb in (None, 5.0)
                     for ext in ((45.0, 1.6), (-60.0, 1.2))]


def test_serial_sweep_renders_reverb_levels_once(database, monkeypatch):
    # the render only reads whether a scene is reverberant; steer scales
    # the reverb copy to each cell's level
    monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0})
    matrix = {"estimators": ["sc", "cw-ext"], "azimuths_deg": [35.0],
              "snrs_db": [0.0, 10.0], "seeds": [1], "duration_s": 2.0,
              "diffuse_order": 12}
    single = [r for reverb in (3.0, 5.0, 8.0)
              for r in run_sweep({**matrix, "reverb_proxies_db": [reverb]},
                                 database) if r["seed"] != "avg"]
    calls = []
    render = evaluate.render_azimuth_free

    def counted(spec, stft_config=None):
        calls.append(spec.reverb_proxy_db)
        return render(spec, stft_config)

    monkeypatch.setattr(evaluate, "render_azimuth_free", counted)
    rows = run_sweep({**matrix, "reverb_proxies_db": [3.0, 5.0, 8.0]}, database)
    assert calls == [3.0]
    cells = [r for r in rows if r["seed"] != "avg"]
    assert len(cells) == 12 and not any(r["error"] for r in cells)
    assert repr(cells) == repr(single)


@pytest.mark.parametrize("detector", ["oracle", "spp"])
def test_run_sweep_cells_are_run_scene_metrics(database, detector):
    # a sweep cell is run_scene on the group's render, steered to a spec
    # that holds the cell's SNR
    matrix = {"estimators": list(ESTIMATOR_NAMES), "azimuths_deg": [-35.0],
              "snrs_db": [-5.0, 10.0], "seeds": [3],
              "reverb_proxies_db": [5.0], "duration_s": 2.0,
              "diffuse_order": 12, "detector": detector}
    cells = [r for r in run_sweep(matrix, database) if r["seed"] != "avg"]
    spec = SceneSpec(seed=3, duration_s=2.0, source_trajectory=((0.0, -35.0),),
                     diffuse_order=12, reverb_proxy_db=5.0)
    parts = render_azimuth_free(spec)
    config = RunConfig(detector=detector)
    expected = []
    for snr in matrix["snrs_db"]:
        results = run_scene(compose(steer(parts, replace(spec, snr_db=snr))),
                            database, config, ESTIMATOR_NAMES)
        expected.extend((name, snr, m.frames_scored, m.accuracy_pct,
                         m.rms_error_deg, m.invalid_frames)
                        for name, (_, m) in results.items())
    assert [(r["estimator"], r["snr_db"], r["frames_scored"],
             r["accuracy_pct"], r["rms_error_deg"], r["invalid_frames"])
            for r in cells] == expected
    assert not any(r["error"] for r in cells)


def test_null_snr_sweep_cell_is_noiseless(database):
    # a null SNR is a noiseless cell, not the spec's default SNR
    matrix = {"estimators": ["cs-head", "sc"], "azimuths_deg": [35.0],
              "snrs_db": [None], "seeds": [4], "duration_s": 2.0,
              "diffuse_order": 12}
    cells = [r for r in run_sweep(matrix, database) if r["seed"] != "avg"]
    scene = synthesize(SceneSpec(seed=4, duration_s=2.0, snr_db=None,
                                 source_trajectory=((0.0, 35.0),),
                                 diffuse_order=12))
    assert not scene.noise.samples.any()
    results = run_scene(scene, database, RunConfig(), ("cs-head", "sc"))
    assert [(r["estimator"], r["snr_db"], r["frames_scored"],
             r["accuracy_pct"], r["rms_error_deg"], r["invalid_frames"])
            for r in cells] == [
        (name, None, m.frames_scored, m.accuracy_pct, m.rms_error_deg,
         m.invalid_frames) for name, (_, m) in results.items()]


def test_write_sweep_csv_format(tmp_path, database):
    rows = run_sweep({
        "estimators": ["sc"], "azimuths_deg": [35.0], "snrs_db": [30.0],
        "seeds": [1], "duration_s": 2.0, "diffuse_order": 12,
    }, database)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, rows)
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert tuple(parsed[0].keys()) == SWEEP_COLUMNS
    assert parsed[0]["accuracy_pct"] == "100.0000"
    avg = [r for r in parsed if r["seed"] == "avg"][0]
    assert avg["rms_error_deg"] == ""
