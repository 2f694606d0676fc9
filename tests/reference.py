"""Scalar references that the tests compare the shipped kernels against.

* ``CovarianceState``/``initial_state``/``update``: the gated covariance
  recursion for one bin, one snapshot at a time; ``CovarianceTracker``
  runs the same recursion over every bin of a frame at once.
* ``hermitian_angle``: the angle between two complex vectors, which
  ``cost_surface_frames`` averages over frequency.
* ``diffuse_field_check``: Welch coherence of a rendered noise field
  against the isotropic sinc^2 model, a check on the scene simulator.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import signal as sps

from rtfdoa.covariance import DEFAULT_EPS_INIT, SmoothingConfig
from rtfdoa.errors import ConfigurationError, NumericalFailure
from rtfdoa.geometry import SPEED_OF_SOUND, ArrayGeometry
from rtfdoa.stft import AudioClip


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


@dataclass(frozen=True)
class CovarianceState:
    """Tracked pair of Hermitian covariance matrices for a single bin."""

    phi_y: np.ndarray
    phi_n: np.ndarray
    frames_seen_y: int = 0
    frames_seen_n: int = 0


def initial_state(n_channels: int, eps: float = DEFAULT_EPS_INIT) -> CovarianceState:
    if n_channels < 1 or eps <= 0.0:
        raise ConfigurationError("need n_channels >= 1 and eps > 0")
    eye = eps * np.eye(n_channels, dtype=np.complex128)
    return CovarianceState(phi_y=eye.copy(), phi_n=eye.copy())


def update(state: CovarianceState, y: np.ndarray,
           label: bool, smoothing: SmoothingConfig) -> CovarianceState:
    """One gated recursion step; returns the new state."""
    y = np.asarray(y, dtype=np.complex128)
    if not np.isfinite(y).all():
        raise NumericalFailure("snapshot contains non-finite values")
    outer = np.outer(y, y.conj())
    if bool(label):
        phi_y = _hermitize(smoothing.alpha_y * state.phi_y
                           + (1.0 - smoothing.alpha_y) * outer)
        return replace(state, phi_y=phi_y, frames_seen_y=state.frames_seen_y + 1)
    phi_n = _hermitize(smoothing.alpha_n * state.phi_n
                       + (1.0 - smoothing.alpha_n) * outer)
    return replace(state, phi_n=phi_n, frames_seen_n=state.frames_seen_n + 1)


def hermitian_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle between complex vectors, invariant to complex scaling.

    ``arccos(|a^H b| / (||a|| ||b||))`` with the argument clamped to
    [0, 1] against rounding; ranges over [0, pi/2].
    """
    av = np.asarray(a, dtype=np.complex128).ravel()
    bv = np.asarray(b, dtype=np.complex128).ravel()
    if av.shape != bv.shape:
        raise ConfigurationError("vectors must have equal length")
    na = np.linalg.norm(av)
    nb = np.linalg.norm(bv)
    if na == 0.0 or nb == 0.0:
        raise ConfigurationError("hermitian angle undefined for zero vectors")
    ratio = np.abs(np.vdot(av, bv)) / (na * nb)
    return float(np.arccos(np.clip(ratio, 0.0, 1.0)))


@dataclass(frozen=True)
class CoherenceReport:
    """Measured vs. modeled magnitude-squared coherence per mic pair."""

    freqs: np.ndarray
    pairs: tuple[tuple[int, int], ...]
    distances_m: np.ndarray
    measured: np.ndarray
    model: np.ndarray


def diffuse_field_check(noise: AudioClip, geometry: ArrayGeometry,
                        pairs: tuple[tuple[int, int], ...] | None = None,
                        nperseg: int = 512) -> CoherenceReport:
    """Estimate pairwise coherence and compare with the isotropic model.

    The model is sinc^2(2 f d / c) for microphone distance d. Requires at
    least 10 s of signal for a stable Welch estimate.
    """
    if noise.duration < 10.0:
        raise ConfigurationError("need at least 10 s of noise for coherence")
    include_external = noise.n_channels == geometry.n_channels
    positions = geometry.positions(include_external=include_external)
    if noise.n_channels != positions.shape[0]:
        raise ConfigurationError("channel count does not match geometry")
    if pairs is None:
        n = positions.shape[0]
        pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    freqs = None
    measured = []
    distances = []
    for i, j in pairs:
        freqs, coh = sps.coherence(noise.samples[i], noise.samples[j],
                                   fs=noise.sample_rate, nperseg=nperseg)
        measured.append(coh)
        distances.append(np.linalg.norm(positions[i] - positions[j]))
    distances = np.asarray(distances)
    model = np.sinc(2.0 * freqs[None, :] * distances[:, None] / SPEED_OF_SOUND) ** 2
    return CoherenceReport(freqs=freqs, pairs=tuple(pairs),
                           distances_m=distances,
                           measured=np.asarray(measured), model=model)
