"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The quick mode runs every workload on tiny inputs and must print every
metric that BENCHMARK.json names, with its unit, and pass its checks.
The remaining tests feed the checks wrong outputs and expect them to be
caught, and check that the tracer survives a hook that no longer exists.
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from rtfdoa.pipeline import DoaTrajectory  # noqa: E402


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_quick_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in named}
            == {k: v["unit"] for k, v in result["metrics"].items()})
    if trace:
        assert json.loads(lines[-2])["missing_hooks"] == []
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _sweep_rows(bench, scored, cs_accuracy=0.0):
    """run_sweep's rows for one seed: cells, then per-condition averages."""
    m = bench.matrix
    rows = [{"estimator": est, "azimuth_deg": az, "snr_db": snr,
             "seed": bench.seeds[0], "frames_scored": scored, "accuracy_pct": 100.0,
             "rms_error_deg": 1.0, "invalid_frames": 0, "error": ""}
            for az in m["azimuths_deg"] for snr in m["snrs_db"]
            for est in m["estimators"]]
    for est in m["estimators"]:
        for snr in m["snrs_db"]:
            acc = cs_accuracy if est == "cs-head" else 100.0
            rows.append({"estimator": est, "azimuth_deg": "avg", "snr_db": snr,
                         "seed": "avg", "frames_scored": scored, "accuracy_pct": acc,
                         "rms_error_deg": None, "invalid_frames": 0, "error": ""})
    return rows


def test_sweep_check_catches_wrong_rows():
    bench = workloads.SweepStatic(0, quick=True)
    # 2 s: 124 frames; the trailing half would start at 62, warm-up ends at 63
    ok = bench.check([_sweep_rows(bench, 61)])
    assert ok.problems == [] and ok.rms_error_deg == pytest.approx(1.0)
    assert bench.check([_sweep_rows(bench, 62)]).problems
    assert bench.check([_sweep_rows(bench, 61, cs_accuracy=100.5)]).problems
    rows = _sweep_rows(bench, 61)
    rows[0]["error"] = "NumericalFailure: boom"
    assert bench.check([rows]).problems


def _trajectory(bench, shift_deg):
    spec = bench.specs[0]
    n = workloads.frame_count(int(spec.duration_s * workloads.SR))
    times = (np.arange(n) * workloads.HOP + workloads.FRAME / 2) / workloads.SR
    knots = np.array(spec.source_trajectory)
    az = np.round(np.interp(times, knots[:, 0], knots[:, 1]) / 5.0) * 5.0 + shift_deg
    return DoaTrajectory(estimator="sc", azimuth_deg=az, cost=np.zeros(n),
                         valid=np.ones(n, dtype=bool), frame_times=times,
                         warmup_frames=workloads.warmup_frames(bench.tau_y_s))


def test_moving_check_uses_interpolated_truth():
    bench = workloads.MovingTrack(0, quick=True)
    assert bench.check([{"sc": _trajectory(bench, 0.0)}]).problems == []
    assert bench.check([{"sc": _trajectory(bench, 20.0)}]).problems


def _csv(n, azimuth, time_of=lambda l: (256 * l + 256) / 16000):
    lines = ["frame,time_s,azimuth_deg,cost,valid"]
    lines += [f"{l},{time_of(l):.6f},{azimuth:.4f},0.10000000,1" for l in range(n)]
    return ("\r\n".join(lines) + "\r\n").encode()


def test_estimate_check_catches_wrong_csv(tmp_path):
    bench = workloads.EstimateLong(0, quick=True)
    bench.load(tmp_path)
    n = workloads.frame_count(bench.n_samples)
    ok = bench.check([_csv(n, 35.0), None])
    assert ok.problems == [] and ok.rms_error_deg == pytest.approx(2.0)
    assert bench.check([_csv(n - 1, 35.0), None]).problems
    assert bench.check([_csv(n, 45.0), None]).problems
    assert bench.check([_csv(n, 35.0, lambda l: 256 * l / 16000), None]).problems
    assert bench.check([None, None]).problems


def test_tracer_reports_missing_hook_and_restores():
    from rtfdoa import pipeline, stft

    original = stft.analyze
    tracer = tracing.Tracer({"rtfdoa.stft.analyze": None,
                             "rtfdoa.stft.no_such_function": None,
                             "rtfdoa.no_such_module.f": None})
    tracer.install()
    try:
        assert pipeline.analyze is stft.analyze is not original
        stft.analyze(stft.AudioClip(np.zeros((1, 1024))))
    finally:
        tracer.uninstall()
    assert pipeline.analyze is stft.analyze is original
    assert tracer.missing == {"rtfdoa.stft.no_such_function",
                              "rtfdoa.no_such_module.f"}
    assert [s[0] for s in tracer.spans] == ["rtfdoa.stft.analyze"]
