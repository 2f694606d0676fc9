"""Command-line entry point.

Subcommands: ``prototypes`` (build a matching database), ``simulate``
(scene JSON to WAVs, truth CSV, and label bitmap), ``estimate`` (WAV
plus database to per-frame DOA CSV), ``evaluate`` (DOA CSV plus truth
CSV to metrics JSON), ``sweep`` (condition matrix JSON to results CSV).

Configuration precedence is CLI flag over config file over built-in
default, and every subcommand writes the resolved configuration it reads
next to its outputs. Exit codes: 0 success, 2 configuration error (a
missing or unreadable input file included), 3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .activity import write_labels, read_labels
from .doa import (DEFAULT_GRID_STEP_DEG, default_grid, generate_prototypes,
                  load_database, save_database)
from .errors import ConfigurationError, NumericalFailure
from .evaluate import (evaluate_csv, oracle_label_grid, run_sweep,
                       write_metrics_json, write_sweep_csv,
                       write_trajectory_csv, write_truth_csv)
from .geometry import default_geometry
from .pipeline import (DETECTOR_NAMES, ESTIMATOR_NAMES, RunConfig,
                       config_from_dict, track)
from .simulate import SceneSpec, synthesize
from .stft import (DEFAULT_SAMPLE_RATE, StftConfig, WavReader, frame_times,
                   write_wav)

log = logging.getLogger(__name__)


def _load_json(path: str) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"unreadable JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} must hold a JSON object")
    return data


# the run-config fields that an estimate reads; the scoring and oracle
# margin fields of a shared config file are validated but not recorded
_ESTIMATE_KEYS = ("estimator", "detector", "tau_y_s", "tau_n_s", "stft")


def _write_resolved(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    """Config file entries, overridden by the flags that were given: each
    run-config flag's ``dest`` is the :class:`RunConfig` field it sets."""
    data = _load_json(args.config) if args.config else {}
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            data[f.name] = value
    return config_from_dict(RunConfig, data, "run-config")


def _cmd_prototypes(args: argparse.Namespace) -> int:
    geometry = default_geometry()
    grid = default_grid(args.step_deg)
    db = generate_prototypes(geometry, grid, sample_rate=args.sample_rate,
                             fft_size=args.frame_len,
                             head_shadow=args.head_shadow)
    out = Path(args.output)
    save_database(db, out, encoding=args.encoding)
    _write_resolved(out.with_suffix(out.suffix + ".config.json"), {
        "geometry_id": geometry.geometry_id,
        "step_deg": args.step_deg,
        "n_directions": db.n_directions,
        "sample_rate": args.sample_rate,
        "fft_size": args.frame_len,
        "head_shadow": args.head_shadow,
        "encoding": args.encoding,
    })
    log.info("wrote %d-direction database to %s", db.n_directions, out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = SceneSpec.from_json(args.scene)
    stft_cfg = StftConfig(frame_len=args.frame_len, hop=args.hop)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scene = synthesize(spec, stft_cfg)
    write_wav(out_dir / "mixed.wav", scene.mixed)
    write_wav(out_dir / "clean.wav", scene.clean)
    write_wav(out_dir / "noise.wav", scene.noise)
    times = frame_times(scene.truth_doa_deg.size, stft_cfg.frame_len,
                        stft_cfg.hop, spec.sample_rate)
    write_truth_csv(out_dir / "truth.csv", times, scene.truth_doa_deg)
    labels = oracle_label_grid(scene, RunConfig(
        stft=stft_cfg, oracle_margin_db=args.oracle_margin_db))
    write_labels(out_dir / "labels.bin", labels)
    resolved = json.loads(Path(args.scene).read_text())
    spec.to_json(out_dir / "scene.resolved.json")
    _write_resolved(out_dir / "config.json", {
        "scene_file": str(args.scene),
        "scene": resolved,
        "stft": dataclasses.asdict(stft_cfg),
        "oracle_margin_db": args.oracle_margin_db,
        "outputs": ["mixed.wav", "clean.wav", "noise.wav", "truth.csv",
                    "labels.bin", "scene.resolved.json"],
    })
    log.info("simulated %.1f s scene into %s", spec.duration_s, out_dir)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    config = _resolve_run_config(args)
    source = WavReader(args.input)
    db = load_database(args.database)
    labels = read_labels(args.labels) if args.labels else None
    # the CSV is written only once the last block has been tracked, so a
    # failure anywhere in the recording leaves no partial output
    traj = track(source, db, config, labels,
                 keep_cost_surfaces=args.cost_surface is not None)
    out = Path(args.output)
    write_trajectory_csv(out, traj)
    if args.cost_surface is not None:
        np.save(args.cost_surface, traj.cost_surface)
    resolved = {key: value for key, value in dataclasses.asdict(config).items()
                if key in _ESTIMATE_KEYS}
    resolved["warmup_frames"] = traj.warmup_frames
    resolved["input"] = str(args.input)
    resolved["database"] = str(args.database)
    resolved["labels"] = str(args.labels) if args.labels else None
    _write_resolved(out.with_suffix(out.suffix + ".config.json"), resolved)
    rtf = traj.processing_s * source.sample_rate / source.n_samples
    log.info("estimated %d frames (real-time factor %.3f)", traj.n_frames, rtf)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    metrics = evaluate_csv(args.doa, args.truth,
                           tolerance_deg=args.tolerance_deg,
                           eval_window=args.eval_window,
                           warmup_frames=args.warmup_frames,
                           estimator=args.estimator_label)
    out = Path(args.output)
    write_metrics_json(out, metrics)
    _write_resolved(out.with_suffix(out.suffix + ".config.json"), {
        "doa": str(args.doa), "truth": str(args.truth),
        "tolerance_deg": args.tolerance_deg, "eval_window": args.eval_window,
        "warmup_frames": args.warmup_frames,
        "estimator_label": args.estimator_label,
    })
    log.info("accuracy %.2f%% over %d frames", metrics.accuracy_pct,
             metrics.frames_scored)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    matrix = _load_json(args.matrix)
    db = load_database(args.database)
    base = _resolve_run_config(args)
    rows = run_sweep(matrix, db, base)
    out = Path(args.output)
    write_sweep_csv(out, rows)
    resolved = dataclasses.asdict(base)
    del resolved["estimator"]  # the matrix's estimators run, recorded below
    resolved["matrix"] = matrix
    resolved["database"] = str(args.database)
    _write_resolved(out.with_suffix(out.suffix + ".config.json"), resolved)
    log.info("wrote %d sweep rows to %s", len(rows), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtfdoa",
        description="Binaural DOA estimation from tracked RTF vectors")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prototypes", help="build a prototype database file")
    p.add_argument("--output", required=True)
    p.add_argument("--step-deg", type=float, default=DEFAULT_GRID_STEP_DEG)
    p.add_argument("--sample-rate", type=int, default=DEFAULT_SAMPLE_RATE)
    p.add_argument("--frame-len", type=int, default=StftConfig.frame_len)
    p.add_argument("--head-shadow", action="store_true",
                   help="add a rigid-sphere level term")
    p.add_argument("--encoding", choices=("base64", "raw"), default="base64")
    p.set_defaults(func=_cmd_prototypes)

    p = sub.add_parser("simulate", help="render a scene from a JSON spec")
    p.add_argument("--scene", required=True, help="SceneSpec JSON file")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--frame-len", type=int, default=StftConfig.frame_len)
    p.add_argument("--hop", type=int, default=StftConfig.hop)
    p.add_argument("--oracle-margin-db", type=float,
                   default=RunConfig.oracle_margin_db)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("estimate", help="per-frame DOA from a WAV recording")
    p.add_argument("--input", required=True, help="multichannel WAV")
    p.add_argument("--database", required=True, help="prototype database file")
    p.add_argument("--output", required=True, help="DOA CSV path")
    p.add_argument("--labels", default=None, help="oracle label bitmap")
    p.add_argument("--config", default=None, help="run-config JSON file")
    p.add_argument("--estimator", choices=ESTIMATOR_NAMES, default=None)
    p.add_argument("--detector", choices=DETECTOR_NAMES, default=None)
    p.add_argument("--tau-y", dest="tau_y_s", type=float, default=None,
                   help="noisy-covariance time constant in seconds")
    p.add_argument("--tau-n", dest="tau_n_s", type=float, default=None,
                   help="noise-covariance time constant in seconds")
    p.add_argument("--cost-surface", default=None,
                   help="optional .npy dump of the full cost surface")
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("evaluate", help="score a DOA CSV against a truth CSV")
    p.add_argument("--doa", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--output", required=True, help="metrics JSON path")
    p.add_argument("--tolerance", dest="tolerance_deg", type=float,
                   default=RunConfig.tolerance_deg)
    p.add_argument("--eval-window", type=float, default=RunConfig.eval_window)
    p.add_argument("--warmup-frames", type=int, default=0)
    p.add_argument("--estimator-label", default="unknown")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="run a condition matrix to a results CSV")
    p.add_argument("--matrix", required=True, help="sweep matrix JSON")
    p.add_argument("--database", required=True)
    p.add_argument("--output", required=True, help="results CSV path")
    p.add_argument("--config", default=None, help="run-config JSON file")
    p.add_argument("--detector", choices=DETECTOR_NAMES, default=None)
    p.add_argument("--tau-y", dest="tau_y_s", type=float, default=None)
    p.add_argument("--tau-n", dest="tau_n_s", type=float, default=None)
    p.add_argument("--eval-window", type=float, default=None)
    p.add_argument("--tolerance", dest="tolerance_deg", type=float, default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # names the file and the reason, e.g. "[Errno 21] Is a directory: 'x'"
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
