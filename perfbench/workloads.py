"""The benchmark's workloads: input generation, one round of operations,
and checks of the program's outputs against values derived here.

Each workload lists the operations of one round; every round runs the
same ones, so the share of failed operations does not depend on the run
length or the seed.
"""
from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.io.wavfile

from rtfdoa import evaluate
from rtfdoa.doa import generate_prototypes, load_database, save_database
from rtfdoa.errors import ConfigurationError, NumericalFailure
from rtfdoa.geometry import default_geometry
from rtfdoa.pipeline import RunConfig
from rtfdoa.simulate import SceneOutput, SceneSpec, synthesize
from rtfdoa.stft import AudioClip, write_wav
from speed import Gauge, ReferenceKernel

HERE = Path(__file__).resolve().parent
SR = 16000
FRAME = 512
HOP = 256
TAU_N_S = 0.5
CLI_TIMEOUT_S = 120.0


def frame_count(n_samples: int) -> int:
    return (n_samples - FRAME) // HOP + 1


def warmup_frames(tau_y_s: float) -> int:
    return math.ceil(2.0 * max(tau_y_s, TAU_N_S) * SR / HOP)


def wrapped_error(est_deg, truth_deg) -> np.ndarray:
    # not rtfdoa.evaluate.angular_errors: the checks stay apart from the program
    return np.abs((np.asarray(est_deg, dtype=float) - truth_deg + 180.0)
                  % 360.0 - 180.0)


def write_database(out: Path) -> None:
    save_database(generate_prototypes(default_geometry()), out / "db.rtfdb")


@dataclass
class Outcome:
    """Result of one operation; ``fingerprint`` must repeat in every round."""

    audio_s: float  # input audio processed, 0 when the operation failed
    attempted: int
    failed: int
    output: object
    fingerprint: bytes
    peak_rss_mb: float | None = None
    slowdown: float | None = None  # of the core a child process ran on


@dataclass
class Check:
    """Problems found in one round's outputs, and its pooled RMS error."""

    problems: list
    rms_error_deg: float


class SweepStatic:
    """``run_sweep`` over a reduced criterion-5 matrix, rendering included.

    One operation is one ``run_sweep`` call per scene seed, so that the
    machine's speed is sampled between calls.
    """

    name = "sweep-static"
    in_process = True
    estimators = ("cs-head", "cw-ext", "cw-head", "sc")

    def __init__(self, seed: int, quick: bool) -> None:
        self.seeds = [3 * seed + 1] if quick else [3 * seed + i for i in (1, 2, 3)]
        self.matrix = {
            "estimators": list(self.estimators),
            "azimuths_deg": [35.0] if quick else [-145.0, -35.0, 35.0],
            "snrs_db": [-5.0, 5.0],
            "duration_s": 2.0,
        }
        self.db = None

    def prepare(self, out: Path) -> None:
        write_database(out)

    def load(self, out: Path) -> None:
        self.db = load_database(out / "db.rtfdb")

    def warm_up(self) -> None:
        m = self.matrix
        evaluate.run_sweep({**m, "azimuths_deg": m["azimuths_deg"][:1],
                            "snrs_db": m["snrs_db"][:1], "seeds": self.seeds[:1]},
                           self.db)

    def _sweep(self, seed: int) -> Outcome:
        rows = evaluate.run_sweep({**self.matrix, "seeds": [seed]}, self.db)
        cells = [r for r in rows if r["seed"] != "avg"]
        ok_conditions = {(r["azimuth_deg"], r["snr_db"])
                         for r in cells if not r["error"]}
        return Outcome(audio_s=len(ok_conditions) * self.matrix["duration_s"],
                       attempted=len(cells),
                       failed=sum(1 for r in cells if r["error"]), output=rows,
                       fingerprint=json.dumps(rows, sort_keys=True).encode())

    def operations(self, tracer=None) -> list:
        return [functools.partial(self._sweep, seed) for seed in self.seeds]

    def check(self, outputs: list) -> Check:
        m = self.matrix
        problems = []
        n = frame_count(int(round(m["duration_s"] * SR)))
        scored = n - max(warmup_frames(0.25), n - int(round(0.5 * n)))
        expected = len(m["estimators"]) * len(m["azimuths_deg"]) * len(m["snrs_db"])
        num = den = 0.0
        for seed, rows in zip(self.seeds, outputs):
            cells = [r for r in rows if r["seed"] != "avg"]
            if len(cells) != expected:
                problems.append(f"seed {seed}: {len(cells)} cell rows, "
                                f"expected {expected}")
            errors = [r for r in cells if r["error"]]
            if errors:
                problems.append(f"seed {seed}: {len(errors)} error rows, first: "
                                f"{errors[0]['error']}")
            wrong = [r for r in cells
                     if not r["error"] and r["frames_scored"] != scored]
            if wrong:
                problems.append(f"seed {seed}: {len(wrong)} cells score "
                                f"{wrong[0]['frames_scored']} frames, expected {scored}")
            acc = {(r["estimator"], r["snr_db"]): r["accuracy_pct"]
                   for r in rows if r["seed"] == "avg"}
            for snr in m["snrs_db"]:
                for est in ("sc", "cw-head", "cw-ext"):
                    if snr >= 0.0 and acc.get((est, snr), -1.0) < 90.0:
                        problems.append(f"seed {seed}: {est} at {snr} dB: "
                                        f"{acc.get((est, snr))}% < 90%")
                for est in ("sc", "cw-head"):
                    if acc.get((est, snr), -1.0) < acc.get(("cs-head", snr), 101.0):
                        problems.append(f"seed {seed}: {est} below cs-head "
                                        f"at {snr} dB")
            # run_sweep exposes per-cell RMS only; pool it over valid frames
            for r in cells:
                valid = r["frames_scored"] - r["invalid_frames"]
                if not r["error"] and r["rms_error_deg"] is not None and valid > 0:
                    num += r["rms_error_deg"] ** 2 * valid
                    den += valid
        if den == 0:
            problems.append("no valid scored frame")
        return Check(problems, math.sqrt(num / den) if den else float("nan"))


class MovingTrack:
    """Criterion-6-shaped moving sources, ``sc`` and ``cw-ext`` via run_scene.

    Rendering happens in set-up.
    """

    name = "moving-track"
    in_process = True
    estimators = ("sc", "cw-ext")
    tau_y_s = 0.15

    def __init__(self, seed: int, quick: bool) -> None:
        duration = 4.0 if quick else 10.0
        half = 5.0 * duration  # 10 deg/s, 2.5 times criterion 6's rate
        self.specs = []
        for i in range(1 if quick else 2):
            ends = (-half, half) if i % 2 == 0 else (half, -half)
            self.specs.append(SceneSpec(
                seed=2 * seed + 1 + i, duration_s=duration, snr_db=0.0,
                source_trajectory=((0.0, ends[0]), (duration, ends[1]))))
        self.config = RunConfig(tau_y_s=self.tau_y_s, eval_window=1.0,
                                tolerance_deg=15.0)
        self.scenes: list[SceneOutput] = []
        self.db = None

    def prepare(self, out: Path) -> None:
        write_database(out)
        for i, spec in enumerate(self.specs):
            scene = synthesize(spec)
            np.savez(out / f"scene{i}.npz", mixed=scene.mixed.samples,
                     clean=scene.clean.samples, noise=scene.noise.samples,
                     truth=scene.truth_doa_deg)

    def load(self, out: Path) -> None:
        self.db = load_database(out / "db.rtfdb")
        self.scenes = []
        for i, spec in enumerate(self.specs):
            with np.load(out / f"scene{i}.npz") as data:
                self.scenes.append(SceneOutput(
                    mixed=AudioClip(data["mixed"], SR),
                    clean=AudioClip(data["clean"], SR),
                    noise=AudioClip(data["noise"], SR),
                    truth_doa_deg=data["truth"], geometry=spec.geometry(),
                    spec=spec))

    def warm_up(self) -> None:
        evaluate.run_scene(self.scenes[0], self.db, self.config, self.estimators)

    def _track(self, scene: SceneOutput) -> Outcome:
        n_ops = len(self.estimators)
        try:
            results = evaluate.run_scene(scene, self.db, self.config, self.estimators)
        except (ConfigurationError, NumericalFailure):
            return Outcome(0.0, n_ops, n_ops, None, b"failed")
        trajs = {name: traj for name, (traj, _) in results.items()}
        blob = b"".join(t.azimuth_deg.tobytes() + t.valid.tobytes() + t.cost.tobytes()
                        for t in trajs.values())
        return Outcome(scene.mixed.duration, n_ops, 0, trajs, blob)

    def operations(self, tracer=None) -> list:
        return [functools.partial(self._track, scene) for scene in self.scenes]

    def check(self, outputs: list) -> Check:
        problems = []
        sq_sum, n_valid = 0.0, 0
        warmup = warmup_frames(self.tau_y_s)
        for spec, per_scene in zip(self.specs, outputs):
            if per_scene is None:
                continue
            n = frame_count(int(round(spec.duration_s * SR)))
            times = (np.arange(n) * HOP + FRAME / 2.0) / SR
            knots = np.array(spec.source_trajectory)
            truth = np.interp(times, knots[:, 0], knots[:, 1])
            for name, traj in per_scene.items():
                tag = f"seed {spec.seed} {name}"
                if traj.n_frames != n or traj.warmup_frames != warmup:
                    problems.append(f"{tag}: {traj.n_frames} frames / warm-up "
                                    f"{traj.warmup_frames}, expected {n} / {warmup}")
                    continue
                valid = traj.valid[warmup:]
                err = wrapped_error(traj.azimuth_deg[warmup:], truth[warmup:])
                hits = np.count_nonzero(valid & (err <= 15.0)) / valid.size
                if not valid.any():
                    problems.append(f"{tag}: no valid frame")
                    continue
                rms = math.sqrt(float(np.mean(err[valid] ** 2)))
                if rms > 10.0 or hits < 0.8:
                    problems.append(f"{tag}: RMS {rms:.2f} deg, "
                                    f"{100 * hits:.1f}% within 15 deg")
                sq_sum += float(np.sum(err[valid] ** 2))
                n_valid += int(np.count_nonzero(valid))
        if n_valid == 0:
            problems.append("no valid scored frame")
        return Check(problems, math.sqrt(sq_sum / n_valid) if n_valid else float("nan"))


def run_child(cmd: list, env: dict, stderr_path: Path,
              timeout_s: float = CLI_TIMEOUT_S,
              cpu: int | None = None) -> tuple[int, float]:
    """Run a process to its end, pinned to ``cpu`` if given; return its
    exit code and its own peak RSS."""
    with open(stderr_path, "wb") as err:
        # the child inherits the affinity of the thread that starts it
        own = os.sched_getaffinity(0)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                    stderr=err)
        finally:
            os.sched_setaffinity(0, own)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class EstimateLong:
    """``rtfdoa estimate --detector spp --estimator sc`` on a long WAV.

    Each round runs the CLI on the float WAV and on the same samples as
    32-bit integer PCM; ``read_wav`` rejects the latter (exit code 2), so
    that operation counts as failed. The CLI is pinned to one core, on
    which a ``speed.Gauge`` samples the machine's speed while it runs.
    """

    name = "estimate-long"
    in_process = False
    azimuth_deg = 37.0  # off the 5-degree grid: every decision errs by 2 deg
    kinds = ("f32", "i32")

    def __init__(self, seed: int, quick: bool) -> None:
        self.segment_s = 4.0 if quick else 20.0
        self.repeats = 2 if quick else 6
        self.spec = SceneSpec(seed=seed, duration_s=self.segment_s, snr_db=5.0,
                              source_trajectory=((0.0, self.azimuth_deg),))
        self.out: Path | None = None
        self.n_samples = 0
        self.kernel = ReferenceKernel()
        self.cpu = min(os.sched_getaffinity(0))

    def prepare(self, out: Path) -> None:
        write_database(out)
        mixed = synthesize(self.spec).mixed.samples
        samples = np.tile(mixed, (1, self.repeats))
        write_wav(out / "long_f32.wav", AudioClip(samples, SR))
        pcm = np.clip(np.round(samples * 2.0 ** 31), -2.0 ** 31, 2.0 ** 31 - 1)
        scipy.io.wavfile.write(out / "long_i32.wav", SR,
                               np.ascontiguousarray(pcm.T.astype(np.int32)))

    def load(self, out: Path) -> None:
        self.out = out
        self.n_samples = int(round(self.segment_s * SR)) * self.repeats

    def warm_up(self) -> None:
        """Each operation is its own process; nothing stays warm in between."""

    def _command(self, kind: str, tracer) -> list:
        args = ["estimate", "--input", str(self.out / f"long_{kind}.wav"),
                "--database", str(self.out / "db.rtfdb"), "--detector", "spp",
                "--estimator", "sc", "--output", str(self.out / f"doa_{kind}.csv")]
        if tracer is None:
            return [sys.executable, "-m", "rtfdoa", *args]
        return [sys.executable, str(HERE / "cli_traced.py"),
                str(self.out / "spans.json"), *args]

    def _estimate(self, kind: str, tracer) -> Outcome:
        csv_path = self.out / f"doa_{kind}.csv"
        csv_path.unlink(missing_ok=True)
        env = dict(os.environ, PERFBENCH_SPAWN_T=repr(time.time()))
        with Gauge(self.kernel, self.cpu) as gauge:
            code, peak = run_child(self._command(kind, tracer), env,
                                   self.out / f"estimate_{kind}.err", cpu=self.cpu)
        spans = self.out / "spans.json"
        if tracer is not None and spans.exists():
            tracer.merge(json.loads(spans.read_text()), tracer.round)
            spans.unlink()
        if code != 0:
            return Outcome(0.0, 1, 1, None, f"exit {code}".encode())
        blob = csv_path.read_bytes()
        return Outcome(self.n_samples / SR, 1, 0, blob, blob, peak,
                       gauge.slowdown())

    def operations(self, tracer=None) -> list:
        return [functools.partial(self._estimate, kind, tracer) for kind in self.kinds]

    def check(self, outputs: list) -> Check:
        problems = []
        n = frame_count(self.n_samples)
        rms = float("nan")
        for kind, blob in zip(self.kinds, outputs):
            if blob is None:
                continue
            rows = list(csv.reader(io.StringIO(blob.decode())))
            if rows[:1] != [["frame", "time_s", "azimuth_deg", "cost", "valid"]]:
                problems.append(f"{kind}: unexpected header {rows[:1]}")
                continue
            rows = rows[1:]
            if len(rows) != n:
                problems.append(f"{kind}: {len(rows)} rows, expected {n}")
                continue
            bad_time = [l for l, row in enumerate(rows)
                        if row[0] != str(l) or row[1] != f"{(HOP * l + HOP) / SR:.6f}"]
            if bad_time:
                problems.append(f"{kind}: frame/time_s wrong from row {bad_time[0]}")
            half = rows[n // 2:]
            az = np.array([float(r[2]) for r in half])
            valid = np.array([r[4] == "1" for r in half])
            err = wrapped_error(az, self.azimuth_deg)
            hits = np.count_nonzero(valid & (err <= 5.0)) / len(half)
            if hits < 0.9:
                problems.append(f"{kind}: {100 * hits:.1f}% of second-half frames "
                                f"within 5 deg of {self.azimuth_deg}")
            if kind == "f32":
                rms = (math.sqrt(float(np.mean(err[valid] ** 2)))
                       if valid.any() else float("nan"))
        if outputs[0] is None:
            problems.append("the float WAV was not estimated")
        return Check(problems, rms)


WORKLOADS = {w.name: w for w in (SweepStatic, MovingTrack, EstimateLong)}
