import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rtfdoa.activity import write_labels
from rtfdoa.cli import main, run_config_from_dict
from rtfdoa.errors import ConfigurationError
from rtfdoa.evaluate import (angular_errors, read_trajectory_csv,
                             read_truth_csv, write_trajectory_csv)
from rtfdoa.pipeline import BLOCK_FRAMES, DoaTrajectory, RunConfig
from rtfdoa.stft import AudioClip, StftConfig, read_wav, write_wav
from wavfiles import IEEE_FLOAT, fmt_chunk, wav_header

SCENE = {
    "seed": 7,
    "duration_s": 2.0,
    "snr_db": 30.0,
    "source_trajectory": [[0.0, 35.0]],
    "diffuse_order": 12,
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One prototypes+simulate pass shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    scene = root / "scene.json"
    scene.write_text(json.dumps(SCENE))
    db = root / "prototypes.rtfdb"
    assert main(["prototypes", "--output", str(db)]) == 0
    sim = root / "sim"
    assert main(["simulate", "--scene", str(scene),
                 "--output-dir", str(sim)]) == 0
    return {"root": root, "scene": scene, "db": db, "sim": sim}


def test_prototypes_outputs(workspace):
    db = workspace["db"]
    assert db.exists()
    resolved = json.loads((db.parent / "prototypes.rtfdb.config.json").read_text())
    assert resolved["n_directions"] == 72
    assert resolved["encoding"] == "base64"


def test_simulate_outputs(workspace):
    sim = workspace["sim"]
    for name in ("mixed.wav", "clean.wav", "noise.wav", "truth.csv",
                 "labels.bin", "scene.resolved.json", "config.json"):
        assert (sim / name).exists(), name
    truth = read_truth_csv(sim / "truth.csv")
    assert np.all(truth["azimuth_deg"] == 35.0)
    resolved = json.loads((sim / "config.json").read_text())
    assert resolved["scene"]["seed"] == 7
    # the resolved spec file parses back to the same scene
    from rtfdoa.simulate import SceneSpec
    assert SceneSpec.from_json(sim / "scene.resolved.json") == \
        SceneSpec.from_json(workspace["scene"])


def test_estimate_then_evaluate(workspace, tmp_path):
    sim, db = workspace["sim"], workspace["db"]
    doa = tmp_path / "doa.csv"
    surface = tmp_path / "surface.npy"
    rc = main(["estimate", "--input", str(sim / "mixed.wav"),
               "--database", str(db), "--labels", str(sim / "labels.bin"),
               "--estimator", "cw-ext", "--output", str(doa),
               "--cost-surface", str(surface)])
    assert rc == 0
    config = json.loads((tmp_path / "doa.csv.config.json").read_text())
    assert config["estimator"] == "cw-ext"
    assert config["labels"].endswith("labels.bin")

    traj = read_trajectory_csv(doa)
    cube = np.load(surface)
    assert cube.shape == (traj["frame"].size, 72)

    metrics_path = tmp_path / "metrics.json"
    rc = main(["evaluate", "--doa", str(doa), "--truth", str(sim / "truth.csv"),
               "--warmup-frames", str(config["warmup_frames"]),
               "--estimator-label", "cw-ext", "--output", str(metrics_path)])
    assert rc == 0
    metrics = json.loads(metrics_path.read_text())
    assert metrics["estimator"] == "cw-ext"
    assert metrics["accuracy_pct"] >= 90.0
    assert metrics["real_time_factor"] is None


def test_estimate_csv_is_reproducible(workspace, tmp_path):
    sim, db = workspace["sim"], workspace["db"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        assert main(["estimate", "--input", str(sim / "mixed.wav"),
                     "--database", str(db), "--labels", str(sim / "labels.bin"),
                     "--estimator", "sc", "--output", str(path)]) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_config_file_and_flag_precedence(workspace, tmp_path):
    sim, db = workspace["sim"], workspace["db"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"estimator": "cs-head", "tau_y_s": 0.2}))
    doa = tmp_path / "doa.csv"
    rc = main(["estimate", "--input", str(sim / "mixed.wav"),
               "--database", str(db), "--labels", str(sim / "labels.bin"),
               "--config", str(cfg), "--estimator", "sc",
               "--output", str(doa)])
    assert rc == 0
    resolved = json.loads((tmp_path / "doa.csv.config.json").read_text())
    assert resolved["estimator"] == "sc"      # flag beats file
    assert resolved["tau_y_s"] == 0.2         # file beats default
    assert resolved["tau_n_s"] == RunConfig().tau_n_s


def test_sweep_command(workspace, tmp_path):
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({
        "estimators": ["sc"], "azimuths_deg": [35.0], "snrs_db": [30.0],
        "seeds": [1], "duration_s": 2.0, "diffuse_order": 12,
    }))
    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        assert main(["sweep", "--matrix", str(matrix),
                     "--database", str(workspace["db"]),
                     "--output", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    lines = outs[0].decode().splitlines()
    assert lines[0].startswith("estimator,")
    assert len(lines) == 3  # header, one cell, one average
    resolved = json.loads((tmp_path / "s1.csv.config.json").read_text())
    assert resolved["matrix"]["estimators"] == ["sc"]
    assert "estimator" not in resolved


def test_sweep_rejects_estimator_flag(workspace, tmp_path, capsys):
    # the matrix's estimators run; a flag naming one would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--matrix", str(tmp_path / "m.json"),
              "--database", str(workspace["db"]), "--estimator", "cw-ext",
              "--output", str(tmp_path / "s.csv")])
    assert exc.value.code == 2
    assert "--estimator" in capsys.readouterr().err


def test_exit_code_on_bad_configuration(workspace, tmp_path, capsys):
    # step that does not divide the circle
    assert main(["prototypes", "--output", str(tmp_path / "db"),
                 "--step-deg", "7"]) == 2
    # corrupt header in the DOA file
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["evaluate", "--doa", str(bad),
                 "--truth", str(workspace["sim"] / "truth.csv"),
                 "--output", str(tmp_path / "m.json")]) == 2
    # unknown key in the run-config file, a misspelt one or one that
    # older resolved configs carry (the faithful recursion and the numeric
    # settings that are now module constants)
    cfg = tmp_path / "run.json"
    for key, value in (("estimater", "sc"), ("faithful_noise_recursion", False),
                       ("eps_init", 1e-6), ("spp_bootstrap_frames", 10),
                       ("spp_config", {"threshold": 0.5}),
                       ("estimator_config", {"column_index": 0})):
        cfg.write_text(json.dumps({key: value}))
        assert main(["estimate", "--input", str(workspace["sim"] / "mixed.wav"),
                     "--database", str(workspace["db"]), "--config", str(cfg),
                     "--output", str(tmp_path / "d.csv")]) == 2, key
        assert f"unknown 'run-config' keys: ['{key}']" in capsys.readouterr().err
    # sweep matrix missing a required axis, or holding a key it does not know
    matrix = tmp_path / "matrix.json"
    for data in ({"estimators": ["sc"]},
                 {"estimators": ["sc"], "azimuths_deg": [35.0], "snrs_db": [30.0],
                  "seeds": [1], "detektor": "spp"}):
        matrix.write_text(json.dumps(data))
        assert main(["sweep", "--matrix", str(matrix),
                     "--database", str(workspace["db"]),
                     "--output", str(tmp_path / "s.csv")]) == 2, data
    # a scoring window or tolerance that a run config rejects is rejected
    # by evaluate too
    truth = workspace["sim"] / "truth.csv"
    table = read_truth_csv(truth)
    doa = tmp_path / "doa.csv"
    write_trajectory_csv(doa, DoaTrajectory(
        estimator="sc", azimuth_deg=table["azimuth_deg"],
        cost=np.zeros(table["time_s"].size), valid=np.ones(table["time_s"].size, bool),
        frame_times=table["time_s"], warmup_frames=0))
    evaluate = ["evaluate", "--doa", str(doa), "--truth", str(truth),
                "--output", str(tmp_path / "m.json")]
    assert main(evaluate) == 0
    matrix.write_text(json.dumps({
        "estimators": ["sc"], "azimuths_deg": [35.0], "snrs_db": [30.0],
        "seeds": [1], "duration_s": 2.0, "diffuse_order": 12}))
    for flag, value in (("--eval-window", "1.5"), ("--eval-window", "0"),
                        ("--tolerance", "-1"), ("--tolerance", "nan")):
        assert main(evaluate + [flag, value]) == 2, (flag, value)
        assert main(["sweep", "--matrix", str(matrix),
                     "--database", str(workspace["db"]),
                     "--output", str(tmp_path / "s.csv"), flag, value]) == 2
    # flags that only changed the resolved config, or selected the removed
    # faithful recursion, are gone
    for flag in (["--oracle-margin-db", "20"], ["--faithful-noise-recursion"]):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--input", str(workspace["sim"] / "mixed.wav"),
                  "--database", str(workspace["db"]), *flag,
                  "--output", str(tmp_path / "d.csv")])
        assert exc.value.code == 2, flag


def test_exit_code_on_unknown_nested_config_key(workspace, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    # stft.window was a run-config key that took no effect
    for section, key in (("stft", "bogus"), ("stft", "window")):
        cfg.write_text(json.dumps({section: {key: 1}}))
        assert main(["estimate", "--input", str(workspace["sim"] / "mixed.wav"),
                     "--database", str(workspace["db"]), "--config", str(cfg),
                     "--output", str(tmp_path / "d.csv")]) == 2
        assert f"unknown '{section}' keys: ['{key}']" in capsys.readouterr().err


def test_exit_code_on_wrong_value_type(workspace, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    for data, key in (({"tau_y_s": "0.3"}, "tau_y_s"),
                      ({"tau_n_s": True}, "tau_n_s"),
                      ({"estimator": 1}, "estimator"),
                      ({"stft": {"hop": 128.0}}, "hop")):
        cfg.write_text(json.dumps(data))
        assert main(["estimate", "--input", str(workspace["sim"] / "mixed.wav"),
                     "--database", str(workspace["db"]), "--config", str(cfg),
                     "--output", str(tmp_path / "d.csv")]) == 2
        assert f"key '{key}' must be a" in capsys.readouterr().err
    # an int stands for a float
    assert run_config_from_dict({"tau_y_s": 1}).tau_y_s == 1
    # the run-config entries of a sweep matrix get the same check, and its
    # axes are checked before any cell runs
    matrix = tmp_path / "matrix.json"
    good = {"estimators": ["sc"], "azimuths_deg": [35.0], "snrs_db": [30.0],
            "seeds": [1], "duration_s": 2.0, "diffuse_order": 12}
    for key, value in (("tau_y_s", "0.3"), ("duration_s", "abc"),
                       ("seeds", ["x"]), ("reverb_proxies_db", ["5"]),
                       ("externals", [[45]]), ("azimuths_deg", 35)):
        matrix.write_text(json.dumps({**good, key: value}))
        assert main(["sweep", "--matrix", str(matrix),
                     "--database", str(workspace["db"]),
                     "--output", str(tmp_path / "s.csv")]) == 2, key
        assert f"key '{key}' must be a" in capsys.readouterr().err
    matrix.write_text(json.dumps({**good, "reverb_proxies_db": [None],
                                  "reverb_proxy_db": 3.0}))
    assert main(["sweep", "--matrix", str(matrix),
                 "--database", str(workspace["db"]),
                 "--output", str(tmp_path / "s.csv")]) == 2
    assert "'reverb_proxies_db' and 'reverb_proxy_db'" in capsys.readouterr().err
    # scene files are checked field by field
    scene = tmp_path / "scene.json"
    for key, value in (("seed", "x"), ("seed", 1.5), ("duration_s", "abc"),
                       ("reverb_proxy_db", "5"), ("diffuse_order", 12.5)):
        scene.write_text(json.dumps({**SCENE, key: value}))
        assert main(["simulate", "--scene", str(scene),
                     "--output-dir", str(tmp_path / "sim")]) == 2, (key, value)
        assert f"scene key '{key}' must be a" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["database", "input", "doa", "scene",
                                     "directory", "truncated"])
def test_exit_code_on_missing_or_unreadable_input(workspace, tmp_path, capsys,
                                                  command):
    sim, db = workspace["sim"], str(workspace["db"])
    missing = str(tmp_path / "missing")
    not_wav = tmp_path / "not.wav"
    not_wav.write_text("not a RIFF file\n")
    folder = tmp_path / "folder.wav"
    folder.mkdir()
    truncated = tmp_path / "truncated.wav"
    truncated.write_bytes((sim / "mixed.wav").read_bytes()[:-1000])
    argv, culprit = {
        "database": (["estimate", "--input", str(sim / "mixed.wav"),
                      "--database", missing,
                      "--output", str(tmp_path / "d.csv")], missing),
        "input": (["estimate", "--input", str(not_wav), "--database", db,
                   "--output", str(tmp_path / "d.csv")], str(not_wav)),
        "doa": (["evaluate", "--doa", missing, "--truth", str(sim / "truth.csv"),
                 "--output", str(tmp_path / "m.json")], missing),
        "scene": (["simulate", "--scene", missing,
                   "--output-dir", str(tmp_path / "sim")], missing),
        "directory": (["estimate", "--input", str(folder), "--database", db,
                       "--output", str(tmp_path / "d.csv")], str(folder)),
        "truncated": (["estimate", "--input", str(truncated), "--database", db,
                       "--output", str(tmp_path / "d.csv")], str(truncated)),
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and culprit in err


def test_exit_code_on_numerical_failure(workspace, tmp_path):
    wav = tmp_path / "nan.wav"
    samples = np.zeros((5, 16000))
    samples[2, 4000] = np.nan
    write_wav(wav, AudioClip(samples, 16000))
    # a bitmap that fits the recording: a misfit one exits 2 before any frame
    labels = tmp_path / "labels.bin"
    write_labels(labels, np.ones((257, (16000 - 512) // 256 + 1), dtype=bool))
    rc = main(["estimate", "--input", str(wav),
               "--database", str(workspace["db"]), "--labels", str(labels),
               "--estimator", "sc", "--output", str(tmp_path / "d.csv")])
    assert rc == 3
    # a NaN in the last of several blocks: earlier blocks were tracked, but
    # nothing is written
    samples = np.random.default_rng(3).standard_normal((5, (3 * BLOCK_FRAMES + 2) * 256))
    samples[1, -300] = np.nan
    write_wav(wav, AudioClip(0.1 * samples, 16000))
    out = tmp_path / "late.csv"
    assert main(["estimate", "--input", str(wav), "--database", str(workspace["db"]),
                 "--detector", "spp", "--estimator", "sc", "--output", str(out)]) == 3
    assert list(tmp_path.glob("late.csv*")) == []
    # a recording shorter than one frame is a configuration error
    write_wav(wav, AudioClip(np.zeros((5, 511)), 16000))
    assert main(["estimate", "--input", str(wav), "--database", str(workspace["db"]),
                 "--detector", "spp", "--estimator", "sc", "--output", str(out)]) == 2


def test_exit_code_on_a_level_beyond_float64s_range(workspace, tmp_path):
    # 64-bit float WAVs of finite samples at 1e78 and 1e155 full scale:
    # every estimator exits 3 and writes nothing
    from scipy.io import wavfile

    clip = read_wav(workspace["sim"] / "mixed.wav")
    for gain in (1e78, 1e155):
        wav = tmp_path / f"loud-{gain:g}.wav"
        wavfile.write(wav, clip.sample_rate, gain * clip.samples.T)
        for estimator in ("sc", "cs-head", "cw-head", "cw-ext"):
            out = tmp_path / f"{estimator}.csv"
            assert main(["estimate", "--input", str(wav),
                         "--database", str(workspace["db"]),
                         "--detector", "spp", "--estimator", estimator,
                         "--output", str(out)]) == 3, (gain, estimator)
            assert list(tmp_path.glob(f"{estimator}.csv*")) == [], (gain, estimator)


def test_estimate_with_an_all_zero_external_channel(workspace, tmp_path):
    # a dead external microphone: sc, whose reference it is, flags every
    # frame invalid; the estimators that can do without it still lock on
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps({"seed": 4, "duration_s": 4.0, "snr_db": 5.0,
                                 "source_trajectory": [[0.0, 35.0]]}))
    sim = tmp_path / "sim"
    assert main(["simulate", "--scene", str(scene), "--output-dir", str(sim)]) == 0
    clip = read_wav(sim / "mixed.wav")
    samples = clip.samples.copy()
    samples[4] = 0.0
    wav = tmp_path / "dead_ext.wav"
    write_wav(wav, AudioClip(samples, clip.sample_rate))
    for detector in ("oracle", "spp"):
        for estimator in ("sc", "cs-head", "cw-ext"):
            out = tmp_path / f"{detector}-{estimator}.csv"
            assert main(["estimate", "--input", str(wav),
                         "--database", str(workspace["db"]),
                         "--labels", str(sim / "labels.bin"),
                         "--detector", detector, "--estimator", estimator,
                         "--output", str(out)]) == 0, (detector, estimator)
            traj = read_trajectory_csv(out)
            if estimator == "sc":
                assert not traj["valid"].any(), detector
                continue
            half = traj["frame"] >= traj["frame"].size // 2
            hits = traj["valid"][half] & (
                angular_errors(traj["azimuth_deg"][half], 35.0) <= 5.0)
            assert hits.mean() >= 0.9, (detector, estimator, hits.mean())


def _leaves(config, prefix=""):
    """(dotted name, value, default) of every settable run-config value."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield f"{prefix}{f.name}", value, f.default


def test_run_config_dict_roundtrip():
    config = RunConfig(
        estimator="cw-head", detector="spp", tau_y_s=0.3, tau_n_s=0.7,
        eval_window=0.8, tolerance_deg=10.0, oracle_margin_db=-5.0,
        stft=StftConfig(frame_len=256, hop=128))
    leaves = list(_leaves(config))
    assert len(leaves) == 9
    assert [name for name, value, default in leaves if value == default] == []
    back = run_config_from_dict(json.loads(json.dumps(dataclasses.asdict(config))))
    assert back == config
    assert hash(back) == hash(config)
    assert back != RunConfig()
    assert RunConfig() == RunConfig() and hash(RunConfig()) == hash(RunConfig())
    with pytest.raises(ConfigurationError):
        run_config_from_dict({"no_such_key": 1})


def test_resolved_config_reproduces_the_estimate(workspace, tmp_path):
    sim, db = workspace["sim"], workspace["db"]
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"eval_window": 0.8, "stft": {"hop": 128}}))
    first = tmp_path / "first.csv"
    assert main(["estimate", "--input", str(sim / "mixed.wav"),
                 "--database", str(db), "--config", str(cfg),
                 "--estimator", "cw-ext", "--detector", "spp", "--tau-y", "0.2",
                 "--tau-n", "0.6", "--output", str(first)]) == 0
    resolved = json.loads((tmp_path / "first.csv.config.json").read_text())
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    cfg.write_text(json.dumps({k: v for k, v in resolved.items() if k in fields}))
    second = tmp_path / "second.csv"
    assert main(["estimate", "--input", str(sim / "mixed.wav"),
                 "--database", str(db), "--config", str(cfg),
                 "--output", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    again = json.loads((tmp_path / "second.csv.config.json").read_text())
    assert again == resolved


def test_estimate_records_only_the_config_it_reads(workspace, tmp_path):
    # the resolved config holds the tracking keys and the run's extras, not
    # the scoring keys or the oracle margin, which an estimate never reads;
    # a shared config file that sets them is still validated in full
    sim, db = workspace["sim"], workspace["db"]
    cfg = tmp_path / "run.json"
    shared = {"eval_window": 0.8, "tolerance_deg": 10.0, "oracle_margin_db": -5.0}
    cfg.write_text(json.dumps(shared))
    doa = tmp_path / "doa.csv"
    assert main(["estimate", "--input", str(sim / "mixed.wav"),
                 "--database", str(db), "--labels", str(sim / "labels.bin"),
                 "--config", str(cfg), "--estimator", "sc",
                 "--output", str(doa)]) == 0
    resolved = json.loads((tmp_path / "doa.csv.config.json").read_text())
    assert set(resolved) == {"estimator", "detector", "tau_y_s", "tau_n_s", "stft",
                             "warmup_frames", "input", "database", "labels"}
    assert resolved["stft"] == dataclasses.asdict(RunConfig().stft)
    for key, bad in (("eval_window", 1.5), ("tolerance_deg", -1.0),
                     ("oracle_margin_db", "loud")):
        cfg.write_text(json.dumps({**shared, key: bad}))
        assert main(["estimate", "--input", str(sim / "mixed.wav"),
                     "--database", str(db), "--labels", str(sim / "labels.bin"),
                     "--config", str(cfg), "--estimator", "sc",
                     "--output", str(tmp_path / "bad.csv")]) == 2, key
        assert not (tmp_path / "bad.csv").exists(), key


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal takes most of a second to import and only tests use it;
    # scipy.io (which loads scipy.sparse) is imported only to write WAVs
    src = Path(__file__).resolve().parents[1] / "src"
    modules = ("scipy.signal", "scipy.io", "scipy.sparse")
    out = subprocess.run(
        [sys.executable, "-c",
         f"import rtfdoa.cli, sys; print([m for m in {modules} if m in sys.modules])"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_estimate_peak_memory_is_flat_in_duration(workspace, tmp_path):
    # the recording is streamed block by block, and an oracle bitmap is
    # unpacked block by block, so 8 times the audio must not raise the
    # process's peak RSS by more than 10 %. A small launcher takes the peak
    # from os.wait4: a child's ru_maxrss also counts the memory of the
    # process that started it (Linux folds the high-water mark of the
    # pre-exec address space into it), here the test runner's
    launcher = ("import os, subprocess, sys; p = subprocess.Popen(sys.argv[1:]); "
                "_, status, usage = os.wait4(p.pid, 0); "
                "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    rng = np.random.default_rng(11)
    peaks = {}
    for seconds in (20, 160):
        wav = tmp_path / f"noise_{seconds}s.wav"
        n_samples = seconds * 16000
        with open(wav, "wb") as fh:
            fh.write(wav_header(fmt_chunk(IEEE_FLOAT, 5, 32), n_samples * 5 * 4))
            for start in range(0, n_samples, 1 << 16):
                block = rng.standard_normal((min(1 << 16, n_samples - start), 5))
                fh.write((0.1 * block).astype("<f4").tobytes())
        labels = tmp_path / f"labels_{seconds}s.bin"
        write_labels(labels, rng.random((257, (n_samples - 512) // 256 + 1)) < 0.5)
        for detector in ("spp", "oracle"):
            out = subprocess.run(
                [sys.executable, "-c", launcher, sys.executable, "-m", "rtfdoa",
                 "estimate", "--input", str(wav), "--database", str(workspace["db"]),
                 "--detector", detector, "--estimator", "sc",
                 *(["--labels", str(labels)] if detector == "oracle" else []),
                 "--output", str(tmp_path / f"{seconds}_{detector}.csv")],
                capture_output=True, text=True, env=env)
            code, peak_kb = map(int, out.stdout.split())
            assert code == 0, out.stderr
            peaks[detector, seconds] = peak_kb
        wav.unlink()
    for detector in ("spp", "oracle"):
        assert peaks[detector, 160] <= 1.10 * peaks[detector, 20], peaks


def test_module_entry_point(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "rtfdoa", "prototypes", "--step-deg", "45",
         "--output", str(tmp_path / "db")],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "db").exists()
