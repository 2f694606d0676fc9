"""Scoring, result serialization, and condition sweeps.

The headline metric is the percentage of frames whose wrapped angular
error stays within a tolerance (default 5 degrees); invalid frames count
as incorrect. Scoring covers the trailing ``eval_window`` fraction of the
frames, never earlier than the warm-up horizon.

Every simulated scene is scored on one path, :func:`run_scene`: oracle
labels from :func:`oracle_label_grid`, then ``track_multi``, then
:func:`score`. Each cell of :func:`run_sweep` is one call.

File formats (stable, consumed by the CLI):

* DOA trajectory CSV: ``frame,time_s,azimuth_deg,cost,valid``
* truth CSV: ``frame_index,time_s,azimuth_deg``
* metrics JSON: flat object, sorted keys; ``real_time_factor`` is null
  when scoring came from files rather than a timed in-process run, so
  re-running an identical configuration reproduces the file bit for bit.
"""
from __future__ import annotations

import csv
import json
import logging
import multiprocessing
import os
from dataclasses import asdict, dataclass, replace
from itertools import product
from operator import itemgetter
from pathlib import Path

import numpy as np

from .activity import oracle_labels
from .doa import PrototypeDatabase
from .errors import ConfigurationError, NumericalFailure
from .pipeline import (DoaTrajectory, RunConfig, _single_blas_thread, check_scoring,
                       config_from_dict, track_multi)
from .simulate import (SceneOutput, SceneSpec, azimuth_free, compose, is_integer,
                       is_number, render_azimuth_free, steer)
from .stft import AudioClip, analyze, num_frames

log = logging.getLogger(__name__)

TRAJECTORY_COLUMNS = ("frame", "time_s", "azimuth_deg", "cost", "valid")
TRUTH_COLUMNS = ("frame_index", "time_s", "azimuth_deg")


def angular_errors(est_deg: np.ndarray, truth_deg: np.ndarray) -> np.ndarray:
    """Absolute azimuth differences wrapped into [0, 180] degrees; NaN
    estimates give NaN errors."""
    est = np.asarray(est_deg, dtype=np.float64)
    truth = np.asarray(truth_deg, dtype=np.float64)
    return np.abs((est - truth + 180.0) % 360.0 - 180.0)


def accuracy(azimuth_deg: np.ndarray, valid: np.ndarray,
             truth_deg: np.ndarray,
             tolerance_deg: float = RunConfig.tolerance_deg) -> float:
    """Percent of frames localized within tolerance; invalid frames fail."""
    azimuth = np.asarray(azimuth_deg, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    truth = np.asarray(truth_deg, dtype=np.float64)
    if azimuth.size == 0:
        raise ConfigurationError("cannot score an empty window")
    if azimuth.shape != truth.shape or azimuth.shape != valid.shape:
        raise ConfigurationError("estimate, validity, and truth lengths differ")
    errors = angular_errors(azimuth, truth)
    hits = valid & (errors <= tolerance_deg)
    return float(100.0 * np.count_nonzero(hits) / azimuth.size)


@dataclass(frozen=True)
class Metrics:
    """Scores of one estimator over one recording's evaluation window."""

    estimator: str
    tolerance_deg: float
    frames_total: int
    frames_scored: int
    accuracy_pct: float
    rms_error_deg: float | None
    invalid_frames: int
    real_time_factor: float | None
    errors_deg: tuple


def write_metrics_json(path: str | Path, metrics: Metrics) -> None:
    Path(path).write_text(
        json.dumps(asdict(metrics), indent=2, sort_keys=True) + "\n")


def _scored_start(n_frames: int, warmup: int, eval_window: float) -> int:
    """First scored frame: the trailing ``eval_window`` fraction of the
    frames, never earlier than the warm-up horizon."""
    return max(warmup, n_frames - int(round(eval_window * n_frames)))


def score(traj: DoaTrajectory, truth_deg: np.ndarray,
          tolerance_deg: float = RunConfig.tolerance_deg,
          eval_window: float = RunConfig.eval_window,
          duration_s: float | None = None) -> Metrics:
    """Score a trajectory against per-frame truth azimuths.

    ``eval_window`` selects the trailing fraction of frames; the window
    additionally starts no earlier than the trajectory's warm-up. Both it
    and ``tolerance_deg`` obey :func:`~rtfdoa.pipeline.check_scoring`. The
    real-time factor is null unless the trajectory carries a processing
    time and ``duration_s`` is given.
    """
    check_scoring(eval_window, tolerance_deg)
    truth = np.asarray(truth_deg, dtype=np.float64)
    if truth.size != traj.n_frames:
        raise ConfigurationError(
            f"truth holds {truth.size} frames, trajectory {traj.n_frames}")
    start = _scored_start(traj.n_frames, traj.warmup_frames, eval_window)
    if start >= traj.n_frames:
        raise ConfigurationError("scoring window is empty")
    window = slice(start, traj.n_frames)
    az = traj.azimuth_deg[window]
    valid = traj.valid[window]
    tr = truth[window]
    acc = accuracy(az, valid, tr, tolerance_deg)
    errors = angular_errors(az, tr)
    errors_out = tuple(float(e) if v else None for e, v in zip(errors, valid))
    rms = None
    if valid.any():
        rms = float(np.sqrt(np.mean(errors[valid] ** 2)))
    rtf = None
    if traj.processing_s > 0.0 and duration_s is not None:
        rtf = float(traj.processing_s / duration_s)
    return Metrics(estimator=traj.estimator, tolerance_deg=tolerance_deg,
                   frames_total=traj.n_frames, frames_scored=az.size,
                   accuracy_pct=acc, rms_error_deg=rms,
                   invalid_frames=int(np.count_nonzero(~valid)),
                   real_time_factor=rtf,
                   errors_deg=errors_out)


def oracle_label_grid(output: SceneOutput, config: RunConfig) -> np.ndarray:
    """Oracle activity labels of a rendered scene, from the reference
    channels of its clean and noise components; the sweep, ``run_scene``
    and ``rtfdoa simulate`` all label through here."""
    clean, noise = (analyze(AudioClip(c.samples[:1], c.sample_rate), config.stft)
                    for c in (output.clean, output.noise))
    return oracle_labels(clean, noise, config.oracle_margin_db)


def run_scene(output: SceneOutput, db: PrototypeDatabase, config: RunConfig,
              estimators: tuple[str, ...] | None = None
              ) -> dict[str, tuple[DoaTrajectory, Metrics]]:
    """Track a rendered scene and score every estimator against its truth.

    Only the frames that :func:`score` reads are costed: ``track_multi``
    gets the start of the scoring window as its ``cost_from``. The
    returned trajectories therefore hold NaN azimuth and cost, and are
    invalid, before that frame; from it on they equal a run that costs
    every frame.
    """
    labels = None
    if config.detector == "oracle":
        labels = oracle_label_grid(output, config)
    mixed = output.mixed
    cost_from = _scored_start(num_frames(mixed.n_samples, config.stft),
                              config.warmup_frames(mixed.sample_rate),
                              config.eval_window)
    trajs = track_multi(mixed, db, config, estimators, labels,
                        cost_from=cost_from)
    results = {}
    for name, traj in trajs.items():
        metrics = score(traj, output.truth_doa_deg, config.tolerance_deg,
                        config.eval_window, duration_s=output.mixed.duration)
        results[name] = (traj, metrics)
    return results


def write_trajectory_csv(path: str | Path, traj: DoaTrajectory) -> None:
    """Stable five-column CSV; invalid azimuth and cost print as nan.

    The rows are those of :func:`csv.writer`'s default dialect (no cell
    needs quoting), formatted one line each from Python floats."""
    rows = zip(traj.frame_times.tolist(), traj.azimuth_deg.tolist(),
               traj.cost.tolist(), traj.valid.tolist())
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRAJECTORY_COLUMNS) + "\r\n")
        fh.writelines(f"{i},{t:.6f},{az:.4f},{cost:.8f},{ok:d}\r\n"
                      for i, (t, az, cost, ok) in enumerate(rows))


def _read_table(path: str | Path, columns: tuple[str, ...], what: str) -> np.ndarray:
    """The float rows of the CSV ``what`` under the header ``columns``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != columns:
            raise ConfigurationError(f"unexpected {what} header: {header}")
        rows = list(reader)
    if not rows:
        raise ConfigurationError(f"{what} CSV holds no frames")
    for i, row in enumerate(rows, 1):
        if len(row) != len(columns):
            raise ConfigurationError(f"{what} CSV row {i} holds {len(row)} cells")
    try:
        return np.array([[float(c) for c in row] for row in rows])
    except ValueError as exc:
        raise ConfigurationError(f"{what} CSV: {exc}") from exc


def read_trajectory_csv(path: str | Path) -> dict[str, np.ndarray]:
    data = _read_table(path, TRAJECTORY_COLUMNS, "trajectory")
    return {
        "frame": data[:, 0].astype(int),
        "time_s": data[:, 1],
        "azimuth_deg": data[:, 2],
        "cost": data[:, 3],
        "valid": data[:, 4] > 0.5,
    }


def write_truth_csv(path: str | Path, frame_times: np.ndarray,
                    azimuth_deg: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_COLUMNS)
        for i, (t, a) in enumerate(zip(frame_times, azimuth_deg)):
            writer.writerow([i, f"{t:.6f}", f"{a:.4f}"])


def read_truth_csv(path: str | Path) -> dict[str, np.ndarray]:
    data = _read_table(path, TRUTH_COLUMNS, "truth")
    return {"frame_index": data[:, 0].astype(int), "time_s": data[:, 1],
            "azimuth_deg": data[:, 2]}


def evaluate_csv(doa_csv: str | Path, truth_csv: str | Path,
                 tolerance_deg: float = RunConfig.tolerance_deg,
                 eval_window: float = RunConfig.eval_window,
                 warmup_frames: int = 0, estimator: str = "unknown") -> Metrics:
    """Score a written trajectory against a written truth table.

    The two tables must hold the same frames: a truth row whose
    ``time_s`` differs from the trajectory's by more than the written
    precision (1e-6 s) raises :class:`ConfigurationError`. The CSV
    carries no timing, so ``real_time_factor`` is null and the output is
    reproducible byte for byte.
    """
    doa = read_trajectory_csv(doa_csv)
    truth = read_truth_csv(truth_csv)
    if truth["time_s"].size == doa["time_s"].size:
        off = np.flatnonzero(np.abs(truth["time_s"] - doa["time_s"]) > 1e-6)
        if off.size:
            i = off[0]
            raise ConfigurationError(
                f"truth frame {i} is at {truth['time_s'][i]:.6f} s, "
                f"trajectory frame {i} at {doa['time_s'][i]:.6f} s")
    traj = DoaTrajectory(estimator=estimator, azimuth_deg=doa["azimuth_deg"],
                         cost=doa["cost"], valid=doa["valid"],
                         frame_times=doa["time_s"], warmup_frames=warmup_frames)
    return score(traj, truth["azimuth_deg"], tolerance_deg, eval_window)


SWEEP_COLUMNS = ("estimator", "azimuth_deg", "snr_db", "seed",
                 "reverb_proxy_db", "external_azimuth_deg",
                 "external_distance_m", "frames_scored", "accuracy_pct",
                 "rms_error_deg", "invalid_frames", "error")


def _is_number_or_null(value) -> bool:
    return value is None or is_number(value)


def _is_external(value) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(is_number, value)))


# sweep-matrix axes: (required, what each entry must be, check of an entry)
_SWEEP_AXES = {
    "estimators": (True, "estimator names", lambda v: isinstance(v, str)),
    "azimuths_deg": (True, "numbers", is_number),
    "snrs_db": (True, "numbers or null", _is_number_or_null),
    "seeds": (True, "integers", is_integer),
    "reverb_proxies_db": (False, "numbers or null", _is_number_or_null),
    "externals": (False, "[azimuth_deg, distance_m] pairs", _is_external),
}
# run-config entries a matrix may override, and scene entries shared by its cells
_SWEEP_OVERRIDES = ("detector", "tau_y_s", "tau_n_s", "eval_window",
                    "tolerance_deg")
_SWEEP_SCENE_KEYS = ("reverb_proxy_db", "duration_s", "diffuse_order")


def _check_sweep_matrix(matrix: dict) -> None:
    """Raise :class:`ConfigurationError`, naming the key, for an unknown
    key, a missing required axis, an axis of the wrong shape or type, or
    the reverb proxy given both as an axis and as a scalar.
    The scalar scene entries are checked by the :class:`SceneSpec` they go
    into."""
    unknown = set(matrix) - set(_SWEEP_AXES) - set(_SWEEP_OVERRIDES) \
        - set(_SWEEP_SCENE_KEYS)
    if unknown:
        raise ConfigurationError(f"unknown sweep matrix keys: {sorted(unknown)}")
    if "reverb_proxies_db" in matrix and "reverb_proxy_db" in matrix:
        raise ConfigurationError("sweep matrix holds both 'reverb_proxies_db' "
                                 "and 'reverb_proxy_db'; give one of them")
    for key, (required, what, check) in _SWEEP_AXES.items():
        if key not in matrix:
            if required:
                raise ConfigurationError(f"sweep matrix misses '{key}'")
            continue
        axis = matrix[key]
        if not isinstance(axis, (list, tuple)) or not all(map(check, axis)):
            raise ConfigurationError(
                f"sweep matrix key '{key}' must be a list of {what}")


def run_sweep(matrix: dict, db: PrototypeDatabase,
              base_config: RunConfig | None = None) -> list[dict]:
    """Cross product of sweep axes on static scenes.

    Required axes: ``estimators``, ``azimuths_deg``, ``snrs_db``,
    ``seeds``. Optional axes: ``reverb_proxies_db`` (default anechoic)
    and ``externals`` as [azimuth_deg, distance_m] pairs. Besides the
    axes a matrix may hold the run-config entries ``detector``,
    ``tau_y_s``, ``tau_n_s``, ``eval_window`` and ``tolerance_deg``, which
    override ``base_config``, and the scene entries ``reverb_proxy_db``
    (only without ``reverb_proxies_db``), ``duration_s`` and
    ``diffuse_order``. Every key is checked before any cell runs; an
    unknown key, a missing axis, an axis that is not a list of entries of
    its type, or both reverb keys at once raise
    :class:`ConfigurationError` naming the keys.

    A cell is one seed, azimuth, reverb proxy, external position and SNR.
    Every cell's :class:`~rtfdoa.simulate.SceneSpec`, SNR included, is
    built before any cell runs, so a value it rejects (a NaN SNR, say)
    raises :class:`ConfigurationError` first; a null SNR is a noiseless
    cell. A cell is steered to its azimuth, composed at its SNR, and
    labelled, tracked and scored by :func:`run_scene`, so all estimators
    share one covariance pass per cell. Cells are grouped by their
    :func:`~rtfdoa.simulate.azimuth_free` spec, which fixes the render they
    share, and groups run in the order they first occur: (seed,
    reverberant or not, external position)-major. Each process keeps the
    last render in a one-entry cache that lives only for the call, so
    memory does not grow with the matrix. Cells that fail with
    :class:`ConfigurationError` or :class:`NumericalFailure` are captured
    as rows with an ``error`` note instead of aborting the sweep; any
    other exception propagates. Averaged rows (seed and azimuth columns
    ``avg``) are appended per remaining condition.

    Cells run in as many forked worker processes as this process may use
    CPUs (``os.sched_getaffinity``), each worker with one BLAS thread and
    its own cache, or in this process when that is one CPU or there is a
    single cell. Workers inherit the database instead of receiving a copy.
    Rows come back in the serial order (seed, then azimuth, reverb proxy,
    external position, SNR, estimator) with the values a serial run
    gives, and no worker outlives the call. A forked worker holds only
    the calling thread, so call this from a process whose other threads
    hold no locks the workers need.
    """
    base = base_config or RunConfig()
    _check_sweep_matrix(matrix)
    estimators = tuple(matrix["estimators"])
    azimuths = [float(a) for a in matrix["azimuths_deg"]]
    snrs = [None if s is None else float(s) for s in matrix["snrs_db"]]
    seeds = [int(s) for s in matrix["seeds"]]
    if not (estimators and azimuths and snrs and seeds):
        raise ConfigurationError("sweep axes must be non-empty")
    reverbs = matrix.get("reverb_proxies_db", [matrix.get("reverb_proxy_db")])
    externals = [tuple(e) for e in matrix.get("externals", [(45.0, 1.6)])]
    duration = matrix.get("duration_s", 30.0)
    diffuse_order = matrix.get("diffuse_order", 96)
    overrides = {k: matrix[k] for k in _SWEEP_OVERRIDES if k in matrix}
    if overrides:
        # reject entries of the wrong type as a run-config file would
        config_from_dict(RunConfig, overrides, "sweep matrix")
        base = replace(base, **overrides)

    # every cell's scene in the serial order, then its index in the order
    # of dispatch: the cells of one azimuth-free render back to back
    specs = [SceneSpec(seed=seed, duration_s=duration,
                       source_trajectory=((0.0, azimuth),), snr_db=snr,
                       diffuse_order=diffuse_order, reverb_proxy_db=reverb,
                       external_azimuth_deg=ext_az, external_distance_m=ext_dist)
             for seed, azimuth, reverb, (ext_az, ext_dist), snr
             in product(seeds, azimuths, reverbs, externals, snrs)]
    groups: dict[SceneSpec, list[int]] = {}
    for i, spec in enumerate(specs):
        groups.setdefault(azimuth_free(spec), []).append(i)
    order = [i for group in groups.values() for i in group]

    run_cell = _SweepCells(db, base, estimators)
    workers = min(len(os.sched_getaffinity(0)), len(specs))
    if workers <= 1:
        chunks = [run_cell(specs[i]) for i in order]
    else:
        # fork: workers inherit run_cell and the database it holds
        pool = multiprocessing.get_context("fork").Pool(
            workers, initializer=_init_sweep_worker, initargs=(run_cell,))
        try:
            chunks = pool.map(_run_sweep_worker_cell, [specs[i] for i in order],
                              chunksize=1)
            pool.close()
        except BaseException:
            pool.terminate()
            raise
        finally:
            pool.join()
    # back to the serial order
    rows: list[dict] = [row for _, chunk in sorted(zip(order, chunks),
                                                   key=itemgetter(0))
                        for row in chunk]

    averaged: dict[tuple, list[dict]] = {}
    for r in rows:
        if not r["error"]:
            averaged.setdefault((r["estimator"], r["snr_db"], r["reverb_proxy_db"],
                                 r["external_azimuth_deg"],
                                 r["external_distance_m"]), []).append(r)
    for name, snr, reverb, (ext_az, ext_dist) in product(estimators, snrs,
                                                          reverbs, externals):
        cells = averaged.get((name, snr, reverb, ext_az, ext_dist))
        if not cells:
            continue
        rows.append({
            "estimator": name, "azimuth_deg": "avg", "snr_db": snr,
            "seed": "avg", "reverb_proxy_db": reverb,
            "external_azimuth_deg": ext_az, "external_distance_m": ext_dist,
            "frames_scored": int(np.sum([c["frames_scored"] for c in cells])),
            "accuracy_pct": float(np.mean([c["accuracy_pct"] for c in cells])),
            "rms_error_deg": None,
            "invalid_frames": int(np.sum([c["invalid_frames"] for c in cells])),
            "error": "",
        })
    return rows


class _SweepCells:
    """Rows of one sweep cell, given its scene spec.

    Holds the last azimuth-free render, or the error that rendering it
    raised, keyed by its :func:`~rtfdoa.simulate.azimuth_free` spec.
    """

    def __init__(self, db: PrototypeDatabase, base: RunConfig,
                 estimators: tuple[str, ...]) -> None:
        self.db = db
        self.base = base
        self.estimators = estimators
        self._key = None
        self._parts = None

    def __call__(self, spec: SceneSpec) -> list[dict]:
        key = azimuth_free(spec)
        if self._key != key:
            self._key, self._parts = None, None  # free the old render first
            try:
                self._parts = render_azimuth_free(spec, self.base.stft)
            except (ConfigurationError, NumericalFailure) as exc:
                self._parts = exc
            self._key = key
        cond = {"snr_db": spec.snr_db,
                "azimuth_deg": spec.source_trajectory[0][1], "seed": spec.seed,
                "reverb_proxy_db": spec.reverb_proxy_db,
                "external_azimuth_deg": spec.external_azimuth_deg,
                "external_distance_m": spec.external_distance_m}
        failure = self._parts if isinstance(self._parts, Exception) else None
        if failure is None:
            try:
                results = run_scene(compose(steer(self._parts, spec)),
                                    self.db, self.base, self.estimators)
            except (ConfigurationError, NumericalFailure) as exc:
                failure = exc
        if failure is not None:
            log.warning("cell %s failed: %s", cond, failure)
            return [{"estimator": name, **cond, "frames_scored": 0,
                     "accuracy_pct": None, "rms_error_deg": None,
                     "invalid_frames": 0,
                     "error": f"{type(failure).__name__}: {failure}"}
                    for name in self.estimators]
        return [{"estimator": name, **cond,
                 "frames_scored": metrics.frames_scored,
                 "accuracy_pct": metrics.accuracy_pct,
                 "rms_error_deg": metrics.rms_error_deg,
                 "invalid_frames": metrics.invalid_frames,
                 "error": ""}
                for name, (_, metrics) in results.items()]


# set in each forked sweep worker by its pool initializer
_worker_cells = None


def _init_sweep_worker(run_cell) -> None:
    global _worker_cells
    _worker_cells = run_cell
    _single_blas_thread()


def _run_sweep_worker_cell(spec: SceneSpec) -> list[dict]:
    return _worker_cells(spec)


def write_sweep_csv(path: str | Path, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            out = dict(row)
            for key in ("accuracy_pct", "rms_error_deg"):
                if out.get(key) is not None:
                    out[key] = f"{out[key]:.4f}"
                else:
                    out[key] = ""
            writer.writerow(out)
