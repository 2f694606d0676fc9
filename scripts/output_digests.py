#!/usr/bin/env python3
"""SHA-256 digests of every deterministic output of the tracker.

    python3 scripts/output_digests.py > digests.txt

Prints one ``<name> <sha256>`` line per output, in a fixed order:

* ``track/...``: the azimuths, costs, valid flags and cost surface of
  ``track_multi`` for every non-empty set of estimators, under both
  detectors, with one and with two usable CPUs (so one or two frequency
  bands), costing from frame 0 and from frame 70, on two fixed scenes: a
  3 s moving source at 0 dB and a 2.5 s static one at -5 dB;
* ``scene/...``: the same of ``sc`` and ``cs-head``, each alone and
  beside ``cw-ext``, under both detectors on three harder scenes: a 24 s
  static one at -5 dB whose five channels drop out for 2 s from 8 s on
  (under SPP most bins are gated as speech after it), a 12 s moving one
  at 5 dB whose external channel dies at 6 s, and a 60 s static one at
  0 dB;
* ``level/...``: the same of each estimator alone and of all four,
  under both detectors, with one and with two usable CPUs, on a 3 s
  static scene at 5 dB scaled by 1e78 and by 1e155 (finite samples
  beyond what float64 statistics of them hold), or the type and
  message of the exception the run raised;
* ``sweep/...``: the rows of ``run_sweep`` (four estimators, two
  azimuths, three SNRs, two seeds) under each detector;
* ``source/...``: the same of ``sc`` and ``cw-ext`` under both
  detectors on a 3 s static scene at 5 dB whose ``source_wav`` is a 2 s
  mono file (so the source is tiled), written as 16- and as 24-bit PCM
  by the tests' ``wavfiles.write_pcm`` and read by ``read_wav``;
* ``estimate/...``: the CSV and the ``--cost-surface`` dump of
  ``rtfdoa estimate`` for every estimator and detector on three
  simulated recordings, written as 32-bit float WAVs, and on the first
  of them written as 16-, 24- and 32-bit integer PCM by the tests'
  ``wavfiles.write_pcm``, since each is decoded apart.

A change meant to leave every output as it was is checked by running
this in the parent's checkout and in the change's, and diffing the two
outputs. The digests depend on the machine's floating-point libraries,
so compare only runs on the same machine.
"""
import contextlib
import hashlib
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import numpy as np

from rtfdoa.activity import write_labels
from rtfdoa.cli import main as cli_main
from rtfdoa.doa import generate_prototypes, save_database
from rtfdoa.evaluate import oracle_label_grid, run_sweep
from rtfdoa.geometry import default_geometry
from rtfdoa.pipeline import DETECTOR_NAMES, ESTIMATOR_NAMES, RunConfig, track_multi
from rtfdoa.simulate import SceneSpec, speech_shaped_noise, synthesize
from rtfdoa.stft import AudioClip, write_wav
from wavfiles import write_pcm

COST_FROM = (0, 70)
CPUS = (1, 2)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@contextlib.contextmanager
def usable_cpus(n: int):
    """Let the pipeline see ``n`` usable CPUs, which fixes its band count."""
    real = getattr(os, "sched_getaffinity", None)
    os.sched_getaffinity = lambda pid: set(range(n))
    try:
        yield
    finally:
        if real is None:
            del os.sched_getaffinity
        else:
            os.sched_getaffinity = real


def estimator_sets():
    return [names for size in range(1, len(ESTIMATOR_NAMES) + 1)
            for names in itertools.combinations(ESTIMATOR_NAMES, size)]


def track_digests(db) -> None:
    scenes = {
        "moving-0dB": SceneSpec(seed=31, duration_s=3.0, snr_db=0.0,
                                source_trajectory=((0.0, -40.0), (3.0, 40.0))),
        "static-m5dB": SceneSpec(seed=32, duration_s=2.5, snr_db=-5.0,
                                 source_trajectory=((0.0, 35.0),)),
    }
    for scene_name, spec in scenes.items():
        scene = synthesize(spec)
        for detector in DETECTOR_NAMES:
            config = RunConfig(detector=detector, tau_y_s=0.15)
            labels = oracle_label_grid(scene, config)
            for names, cpus, cost_from in itertools.product(
                    estimator_sets(), CPUS, COST_FROM):
                with usable_cpus(cpus):
                    trajs = track_multi(scene.mixed, db, config, names, labels,
                                        keep_cost_surfaces=True,
                                        cost_from=cost_from)
                run = f"track/{scene_name}/{detector}/{'+'.join(names)}/" \
                      f"cpus={cpus}/from={cost_from}"
                for name, t in trajs.items():
                    print(f"{run}/{name} "
                          f"{digest(t.azimuth_deg, t.cost, t.valid, t.cost_surface)}")


def _silenced(scene, channels: slice, from_s: float, to_s: float | None = None):
    """The scene's mixture with ``channels`` zeroed from ``from_s`` to ``to_s``."""
    samples = scene.mixed.samples.copy()
    rate = scene.mixed.sample_rate
    stop = None if to_s is None else int(to_s * rate)
    samples[channels, int(from_s * rate):stop] = 0.0
    return AudioClip(samples, rate)


def scene_digests(db) -> None:
    scenes = {
        "dropout-m5dB": (SceneSpec(seed=3, duration_s=24.0, snr_db=-5.0,
                                   source_trajectory=((0.0, 35.0),)),
                         lambda scene: _silenced(scene, slice(None), 8.0, 10.0)),
        "dead-external-5dB": (SceneSpec(seed=21, duration_s=12.0, snr_db=5.0,
                                        source_trajectory=((0.0, -60.0),
                                                           (12.0, 60.0))),
                              lambda scene: _silenced(scene, slice(-1, None), 6.0)),
        "static-60s-0dB": (SceneSpec(seed=5, duration_s=60.0, snr_db=0.0,
                                     source_trajectory=((0.0, 35.0),)),
                           lambda scene: scene.mixed),
    }
    for scene_name, (spec, mixture) in scenes.items():
        scene = synthesize(spec)
        clip = mixture(scene)
        for detector, names in itertools.product(
                DETECTOR_NAMES, (("sc",), ("sc", "cw-ext"),
                                 ("cs-head",), ("cs-head", "cw-ext"))):
            config = RunConfig(detector=detector)
            trajs = track_multi(clip, db, config, names,
                                oracle_label_grid(scene, config),
                                keep_cost_surfaces=True)
            for name, t in trajs.items():
                print(f"scene/{scene_name}/{detector}/{'+'.join(names)}/{name} "
                      f"{digest(t.azimuth_deg, t.cost, t.valid, t.cost_surface)}")


def level_digests(db) -> None:
    scene = synthesize(SceneSpec(seed=33, duration_s=3.0, snr_db=5.0,
                                 source_trajectory=((0.0, 35.0),)))
    sets = [(name,) for name in ESTIMATOR_NAMES] + [ESTIMATOR_NAMES]
    for gain, detector in itertools.product((1e78, 1e155), DETECTOR_NAMES):
        config = RunConfig(detector=detector)
        labels = oracle_label_grid(scene, config)
        clip = AudioClip(gain * scene.mixed.samples, scene.mixed.sample_rate)
        for names, cpus in itertools.product(sets, CPUS):
            run = f"level/{gain:g}/{detector}/{'+'.join(names)}/cpus={cpus}"
            try:
                with usable_cpus(cpus):
                    trajs = track_multi(clip, db, config, names, labels,
                                        keep_cost_surfaces=True)
            except Exception as exc:
                print(f"{run} raised {type(exc).__name__}: {exc}")
                continue
            for name, t in trajs.items():
                print(f"{run}/{name} "
                      f"{digest(t.azimuth_deg, t.cost, t.valid, t.cost_surface)}")


def sweep_digests(db) -> None:
    matrix = {"estimators": list(ESTIMATOR_NAMES), "azimuths_deg": [-35.0, 125.0],
              "snrs_db": [-5.0, 0.0, 5.0], "seeds": [5, 6], "duration_s": 2.0,
              "diffuse_order": 32}
    for detector in DETECTOR_NAMES:
        rows = run_sweep({**matrix, "detector": detector}, db)
        blob = json.dumps(rows, sort_keys=True).encode()
        print(f"sweep/{detector} {hashlib.sha256(blob).hexdigest()}")


def source_digests(db) -> None:
    source = speech_shaped_noise(np.random.default_rng(51), 2 * 16000)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "source.wav"
        for bits in (16, 24):
            write_pcm(path, source[None, :], bits)
            scene = synthesize(SceneSpec(seed=51, duration_s=3.0, snr_db=5.0,
                                         source_trajectory=((0.0, 35.0),),
                                         source_wav=str(path)))
            for detector in DETECTOR_NAMES:
                config = RunConfig(detector=detector)
                trajs = track_multi(scene.mixed, db, config, ("sc", "cw-ext"),
                                    oracle_label_grid(scene, config),
                                    keep_cost_surfaces=True)
                for name, t in trajs.items():
                    print(f"source/i{bits}/{detector}/{name} "
                          f"{digest(t.azimuth_deg, t.cost, t.valid, t.cost_surface)}")


def estimate_digests(db) -> None:
    specs = {
        "static-10dB": SceneSpec(seed=41, duration_s=4.0, snr_db=10.0,
                                 source_trajectory=((0.0, -70.0),)),
        "moving-5dB": SceneSpec(seed=42, duration_s=6.0, snr_db=5.0,
                                source_trajectory=((0.0, 60.0), (6.0, -20.0))),
        "static-m10dB": SceneSpec(seed=43, duration_s=5.0, snr_db=-10.0,
                                  source_trajectory=((0.0, 150.0),)),
    }
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        save_database(db, tmp / "db.rtfdb")
        for scene_name, spec in specs.items():
            scene = synthesize(spec)
            write_labels(tmp / "labels.bin",
                         oracle_label_grid(scene, RunConfig()))
            formats = ["f32"] + (["i16", "i24", "i32"]
                                 if scene_name == "static-10dB" else [])
            for fmt in formats:
                if fmt == "f32":
                    write_wav(tmp / "mixed.wav", scene.mixed)
                else:
                    write_pcm(tmp / "mixed.wav", scene.mixed.samples,
                              int(fmt[1:]), scene.mixed.sample_rate)
                name = scene_name if fmt == "f32" else f"{scene_name}-{fmt}"
                estimate_runs(tmp, name)


def estimate_runs(tmp: Path, name: str) -> None:
    """Print the digests of ``rtfdoa estimate`` on ``tmp/mixed.wav`` for
    every detector and estimator."""
    for detector, estimator in itertools.product(DETECTOR_NAMES, ESTIMATOR_NAMES):
        args = ["estimate", "--input", str(tmp / "mixed.wav"),
                "--database", str(tmp / "db.rtfdb"),
                "--output", str(tmp / "doa.csv"),
                "--cost-surface", str(tmp / "cost.npy"),
                "--detector", detector, "--estimator", estimator]
        if detector == "oracle":
            args += ["--labels", str(tmp / "labels.bin")]
        code = cli_main(args)
        csv = hashlib.sha256((tmp / "doa.csv").read_bytes()).hexdigest()
        surface = digest(np.load(tmp / "cost.npy"))
        print(f"estimate/{name}/{detector}/{estimator} "
              f"exit={code} {csv} {surface}")


def main() -> int:
    db = generate_prototypes(default_geometry())
    track_digests(db)
    scene_digests(db)
    level_digests(db)
    sweep_digests(db)
    source_digests(db)
    estimate_digests(db)
    return 0


if __name__ == "__main__":
    sys.exit(main())
