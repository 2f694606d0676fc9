"""Acceptance suite: end-to-end checks of the estimation chain.

Each test verifies one criterion and reports a single PASS/FAIL line
through the session ``acceptance`` recorder; conftest replays the lines
in the terminal summary. Criteria cover oracle exactness of the three
RTF estimators, the angle-metric properties, grid identifiability,
accuracy trends on static and moving simulated scenes, the diffuse
noise model, covariance convergence, and determinism plus speed of the
command-line pipeline.
"""
import json
import time

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from rtfdoa.cli import main
from rtfdoa.covariance import CovarianceTracker, SmoothingConfig
from rtfdoa.doa import argmin_directions, cost_surface_frames
from rtfdoa.estimators import batch_cs, batch_cw, batch_sc
from rtfdoa.evaluate import run_scene, run_sweep
from rtfdoa.pipeline import RunConfig, track
from rtfdoa.simulate import SceneSpec, render_components, synthesize
from rtfdoa.stft import AudioClip
from reference import diffuse_field_check, hermitian_angle

N_DRAWS = 100


def _random_rank_one(rng):
    """Exact noisy covariance: phi_x * g g^H on top of a Hermitian-PD floor."""
    g = rng.normal(size=5) + 1j * rng.normal(size=5)
    g[0] = 1.0
    while abs(g[4]) < 0.3:  # keep the external entry audible
        g[4] = complex(rng.normal(), rng.normal())
    phi_x = float(rng.uniform(0.5, 4.0))
    a = (rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8))) / np.sqrt(8)
    phi_n = a @ a.conj().T + 0.5 * np.eye(5)
    return g, phi_x, phi_n


def test_criterion_1_exact_matrix_recovery(acceptance, rng):
    t0 = time.perf_counter()
    worst = {"cs": 0.0, "cw-ext": 0.0, "cw-head": 0.0, "sc": 0.0}
    for _ in range(N_DRAWS):
        g, phi_x, phi_n = _random_rank_one(rng)
        phi_y = phi_x * np.outer(g, g.conj()) + phi_n

        # one-element stacks through the batched kernels
        head_y, head_n = phi_y[None, :4, :4], phi_n[None, :4, :4]
        cs, cs_ok = batch_cs(head_y[..., 0], head_n[..., 0])
        cw_e, cw_e_ok = batch_cw(phi_y[None], phi_n[None])
        cw_h, cw_h_ok = batch_cw(head_y, head_n)
        assert cs_ok[0] and cw_e_ok[0] and cw_h_ok[0]
        worst["cs"] = max(worst["cs"], np.abs(cs[0] - g[:4]).max())
        worst["cw-ext"] = max(worst["cw-ext"], np.abs(cw_e[0] - g).max())
        worst["cw-head"] = max(worst["cw-head"], np.abs(cw_h[0] - g[:4]).max())

        # the coherence route is exact once the noise has no cross terms
        # between the external and the head microphones
        phi_n_sc = phi_n.copy()
        phi_n_sc[4, :4] = 0.0
        phi_n_sc[:4, 4] = 0.0
        phi_y_sc = (phi_x * np.outer(g, g.conj()) + phi_n_sc)[None]
        sc, sc_ok = batch_sc(phi_y_sc[..., -1])
        assert sc_ok[0]
        worst["sc"] = max(worst["sc"], np.abs(sc[0] - g[:4]).max())
    elapsed = time.perf_counter() - t0
    ok = (worst["cs"] <= 1e-10 and worst["sc"] <= 1e-10
          and worst["cw-ext"] <= 1e-8 and worst["cw-head"] <= 1e-8
          and elapsed < 1.0)
    acceptance(1, "exact-matrix recovery", ok,
               f"{N_DRAWS} draws, max errors cs={worst['cs']:.2e} "
               f"sc={worst['sc']:.2e} cw-ext={worst['cw-ext']:.2e} "
               f"cw-head={worst['cw-head']:.2e} in {elapsed:.2f}s")


def test_criterion_2_whitening_equals_subtraction_on_white_noise(acceptance,
                                                                 rng):
    worst = 0.0
    for _ in range(N_DRAWS):
        g, phi_x, _ = _random_rank_one(rng)
        sigma2 = float(rng.uniform(0.1, 10.0))
        phi_n = sigma2 * np.eye(5)
        phi_y = phi_x * np.outer(g, g.conj()) + phi_n

        head_y, head_n = phi_y[None, :4, :4], phi_n[None, :4, :4]
        cs = batch_cs(head_y[..., 0], head_n[..., 0])[0][0]
        cw_h = batch_cw(head_y, head_n)[0][0]
        cw_e = batch_cw(phi_y[None], phi_n[None])[0][0]
        worst = max(worst, np.abs(cw_h - cs).max(),
                    np.abs(cw_e[:4] - cs).max())
    ok = worst <= 1e-8
    acceptance(2, "CW equals CS under white noise", ok,
               f"{N_DRAWS} draws, max |CW - CS| = {worst:.2e}")


_cnum = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                           allow_infinity=False)
_pairs = st.lists(st.tuples(_cnum, _cnum), min_size=2, max_size=6)
_scale = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                            allow_nan=False, allow_infinity=False)


@settings(max_examples=1000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(pairs=_pairs, scale=_scale)
def _angle_property_bundle(pairs, scale):
    arr = np.array(pairs, dtype=complex)
    a, b = arr[:, 0], arr[:, 1]
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    assume(na > 1e-9 and nb > 1e-9)
    ang = hermitian_angle(a, b)
    assert 0.0 <= ang <= np.pi / 2 + 1e-12
    assert hermitian_angle(b, a) == ang
    # collinear pairs read as zero at the 1e-9 level on the cosine scale,
    # which is an angle of sqrt(2e-9)
    assert hermitian_angle(a, scale * a) <= 4.5e-5
    cos = abs(np.vdot(a, b)) / (na * nb)
    if cos < 1.0 - 1e-6:
        assert ang > 4.5e-5
        assert abs(hermitian_angle(scale * a, b) - ang) <= 1e-12


def test_criterion_3_angle_metric_properties(acceptance, database):
    @settings(max_examples=100, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def argmin_unchanged_by_bin_rescaling(seed):
        r = np.random.default_rng(seed)
        values = r.normal(size=(257, 4)) + 1j * r.normal(size=(257, 4))
        valid = r.random(257) < 0.7
        valid[1] = True
        scales = (r.uniform(1e-3, 1e3, size=257)
                  * np.exp(2j * np.pi * r.random(257)))
        before = cost_surface_frames(values[None], valid[None], database)
        after = cost_surface_frames((values * scales[:, None])[None],
                                    valid[None], database)
        np.testing.assert_allclose(after, before, atol=1e-9)
        assert (argmin_directions(after, database)[0]
                == argmin_directions(before, database)[0])

    failures = []
    for prop in (_angle_property_bundle, argmin_unchanged_by_bin_rescaling):
        try:
            prop()
        except Exception as exc:  # keep the falsifying case in the report
            failures.append(f"{type(exc).__name__}: "
                            f"{str(exc).splitlines()[0][:160]}")
    acceptance(3, "Hermitian-angle properties", not failures,
               failures[0] if failures else
               "range/symmetry/collinearity/scaling over 1000 cases, "
               "argmin rescaling invariance over 100 cases")


def test_criterion_4_grid_identifiability(acceptance, database):
    t0 = time.perf_counter()
    valid = np.ones(database.vectors.shape[:2], dtype=bool)
    surface = cost_surface_frames(database.vectors, valid, database)
    azimuths, _, ok = argmin_directions(surface, database)
    elapsed = time.perf_counter() - t0
    exact = bool(ok.all() and np.array_equal(azimuths, database.directions_deg))
    acceptance(4, "grid identifiability", exact and elapsed < 10.0,
               f"all {database.n_directions} prototypes matched themselves "
               f"in {elapsed:.2f}s")


def test_criterion_5_static_scene_accuracy_trend(acceptance, database):
    t0 = time.perf_counter()
    rows = run_sweep({
        "estimators": ["cs-head", "cw-ext", "cw-head", "sc"],
        "azimuths_deg": [-145.0, -35.0, 35.0],
        "snrs_db": [-10.0, -5.0, 0.0, 5.0, 10.0],
        "seeds": [1, 2, 3, 4, 5],
        "duration_s": 30.0,
    }, database)
    elapsed = time.perf_counter() - t0

    broken = [r for r in rows if r["error"]]
    acc = {(r["estimator"], r["snr_db"]): r["accuracy_pct"]
           for r in rows if r["seed"] == "avg"}
    high_snr = [acc[(est, snr)]
                for est in ("cw-ext", "cw-head", "sc")
                for snr in (0.0, 5.0, 10.0)]
    trend = [acc[(better, snr)] - acc[("cs-head", snr)]
             for better in ("sc", "cw-head")
             for snr in (-10.0, -5.0, 0.0, 5.0, 10.0)]
    ok = (not broken and min(high_snr) >= 90.0 and min(trend) >= 0.0
          and elapsed < 300.0)
    acceptance(5, "static accuracy vs SNR", ok,
               f"min accuracy at SNR>=0 dB {min(high_snr):.2f}%, "
               f"worst (SC|CW-head)-CS margin {min(trend):+.2f} pts, "
               f"{len(rows)} rows in {elapsed:.0f}s")


def test_criterion_6_moving_source_tracking(acceptance, database):
    t0 = time.perf_counter()
    scene = synthesize(SceneSpec(seed=11, duration_s=25.0, snr_db=0.0,
                                 source_trajectory=((0.0, -50.0),
                                                    (25.0, 50.0))))
    config = RunConfig(tau_y_s=0.15, eval_window=1.0, tolerance_deg=15.0)
    results = run_scene(scene, database, config, estimators=("sc", "cw-ext"))
    elapsed = time.perf_counter() - t0
    rms = {name: m.rms_error_deg for name, (_, m) in results.items()}
    acc = {name: m.accuracy_pct for name, (_, m) in results.items()}
    ok = (all(v is not None and v <= 10.0 for v in rms.values())
          and all(v >= 80.0 for v in acc.values()) and elapsed < 60.0)
    acceptance(6, "moving source tracking", ok,
               f"RMS sc={rms['sc']:.2f} deg cw-ext={rms['cw-ext']:.2f} deg, "
               f"within 15 deg sc={acc['sc']:.1f}% cw-ext={acc['cw-ext']:.1f}%"
               f" in {elapsed:.0f}s")


def test_criterion_7_diffuse_field_coherence(acceptance):
    spec = SceneSpec(seed=404, duration_s=16.0, external_distance_m=1.5)
    comps = render_components(spec)
    noise = AudioClip(comps.noise_unit, spec.sample_rate)
    report = diffuse_field_check(noise, comps.geometry)

    head_dev = 0.0
    for pair in ((0, 1), (2, 3)):  # the 15 mm in-ear pairs
        k = report.pairs.index(pair)
        band = report.freqs <= 4000.0
        head_dev = max(head_dev, float(np.max(
            np.abs(report.measured[k][band] - report.model[k][band]))))
    ext_msc = 0.0
    for i in range(4):
        k = report.pairs.index((i, 4))
        band = report.freqs >= 500.0
        ext_msc = max(ext_msc, float(np.max(report.measured[k][band])))
    ok = head_dev <= 0.1 and ext_msc < 0.1
    acceptance(7, "diffuse-field coherence", ok,
               f"head pairs max |msc - sinc^2| = {head_dev:.3f}, "
               f"external pairs max msc above 500 Hz = {ext_msc:.3f}")


def test_criterion_8_covariance_convergence(acceptance):
    smoothing = SmoothingConfig.from_time_constants(0.25, 0.25, 256, 16000)
    frames_per_10_tau = int(round(10 * 0.25 * 16000 / 256))
    n_frames = 3 * frames_per_10_tau

    rng0 = np.random.default_rng(99)
    a = (rng0.normal(size=(5, 5)) + 1j * rng0.normal(size=(5, 5))) / np.sqrt(5)
    truth = a @ a.conj().T + 0.5 * np.eye(5)
    chol = np.linalg.cholesky(truth)

    # one bin of the shipped tracker, every frame labelled speech
    speech = np.ones(1, dtype=bool)
    pooled = np.zeros_like(truth)
    for seed in range(1, 11):
        r = np.random.default_rng(seed)
        tracker = CovarianceTracker(5, 1, smoothing)
        acc = np.zeros_like(truth)
        for t in range(n_frames):
            z = (r.normal(size=5) + 1j * r.normal(size=5)) / np.sqrt(2)
            tracker.update_frame((chol @ z)[:, None], speech)
            if t >= frames_per_10_tau:
                acc += tracker.noisy[0]
        pooled += acc / (n_frames - frames_per_10_tau)
    pooled /= 10.0
    rel = float(np.linalg.norm(pooled - truth) / np.linalg.norm(truth))
    acceptance(8, "covariance convergence", rel <= 0.05,
               f"relative Frobenius error {rel:.4f} pooled over 10 seeds "
               f"past 10 time constants")


def test_criterion_9_determinism_and_speed(acceptance, database, tmp_path):
    scene_file = tmp_path / "scene.json"
    scene_file.write_text(json.dumps({
        "seed": 7, "duration_s": 2.0, "snr_db": 30.0,
        "source_trajectory": [[0.0, 35.0]], "diffuse_order": 12,
    }))
    db_file = tmp_path / "db"
    assert main(["prototypes", "--output", str(db_file)]) == 0
    sim = tmp_path / "sim"
    assert main(["simulate", "--scene", str(scene_file),
                 "--output-dir", str(sim)]) == 0
    blobs = []
    for name in ("a", "b"):
        doa = tmp_path / f"{name}.csv"
        metrics = tmp_path / f"{name}.json"
        assert main(["estimate", "--input", str(sim / "mixed.wav"),
                     "--database", str(db_file),
                     "--labels", str(sim / "labels.bin"),
                     "--estimator", "cw-ext", "--output", str(doa)]) == 0
        assert main(["evaluate", "--doa", str(doa),
                     "--truth", str(sim / "truth.csv"),
                     "--warmup-frames", "63",
                     "--output", str(metrics)]) == 0
        blobs.append(doa.read_bytes() + metrics.read_bytes())
    identical = blobs[0] == blobs[1]

    clip = synthesize(SceneSpec(seed=21, duration_s=10.0, snr_db=5.0)).mixed
    traj = track(clip, database, RunConfig(estimator="cw-ext", detector="spp"))
    rtf = traj.processing_s / clip.duration
    acceptance(9, "determinism and speed", identical and rtf < 0.25,
               f"repeated CSV+JSON byte-identical: {identical}, "
               f"real-time factor {rtf:.3f} on a 10 s 5-channel scene")
