"""Scalar references that the tests compare the shipped kernels against.

* ``CovarianceState``/``initial_state``/``update``: the gated covariance
  recursion for one bin, one snapshot at a time; ``CovarianceTracker``
  runs the same recursion over every bin of a frame at once.
* ``hermitian_angle``: the angle between two complex vectors, which
  ``cost_surface_frames`` averages over frequency.
* ``diffuse_field_check``: Welch coherence of a rendered noise field
  against the isotropic sinc^2 model, a check on the scene simulator.
* ``gated_update``, ``rank_one_step``, ``rank_one_inverse``,
  ``normalize_columns``, ``batch_cs``, ``schur_head_inverse``,
  ``power_step`` and ``unit_conjugates``: the kernels of the
  whitening and subtraction path written plainly, each result a new
  array, with the arithmetic of the shipped kernels, which run in place
  and, in the normalization and the power step, skip their masking where
  every bin is valid. The tests compare the two bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import signal as sps

from rtfdoa import covariance
from rtfdoa.covariance import DEFAULT_EPS_INIT, SmoothingConfig
from rtfdoa.errors import ConfigurationError, NumericalFailure
from rtfdoa.estimators import DENOM_FLOOR
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
    positions = (geometry.positions() if noise.n_channels == geometry.n_channels
                 else geometry.head_positions)
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


def rank_one_step(inv: np.ndarray, y: np.ndarray, alpha: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """The plain Sherman-Morrison step of the tracked noise inverse for a
    [K, P, P] stack ``inv`` and snapshots ``y`` [K, P], with no re-seed:
    the stepped stack and ``d`` [K]."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g = np.einsum("kpq,kq->kp", inv, y)
        d = alpha / (1.0 - alpha) + np.einsum("kp,kp->k", y.conj(), g).real
        out = np.einsum("kp,kq->kpq", g, g.conj())
        out *= (1.0 / d)[:, None, None]
        np.subtract(inv, out, out=out)
        out *= 1.0 / alpha
    return out, d


def rank_one_inverse(inv: np.ndarray, y: np.ndarray, alpha: float,
                     phi: np.ndarray) -> np.ndarray:
    """:func:`rank_one_step` with the re-seed rule of the tracker."""
    out, d = rank_one_step(inv, y, alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        trace = np.einsum("kpp->k", out).real
        usable = (np.isfinite(d) & (trace > 0.0)
                  & (trace * np.einsum("kpp->k", phi).real
                     <= covariance._TRACE_PRODUCT_BOUND))
    if not usable.all():
        stale = np.flatnonzero(~usable)
        out[stale] = covariance._floored_inverse(phi[stale])
    return out


def gated_update(phi_y: np.ndarray, phi_n: np.ndarray, inv_n: np.ndarray | None,
                 y: np.ndarray, mask: np.ndarray, smoothing: SmoothingConfig):
    """One frame of the gated recursion over [K, P, P] stacks, for a frame
    ``y`` [P, K] and a speech mask [K]: the new ``(phi_y, phi_n, inv_n)``
    (``inv_n`` None if not tracked)."""
    phi_y, phi_n = phi_y.copy(), phi_n.copy()
    inv_n = None if inv_n is None else inv_n.copy()
    outer = np.einsum("pk,qk->kpq", y, y.conj())
    speech = np.flatnonzero(mask)
    a_y, a_n = smoothing.alpha_y, smoothing.alpha_n
    if speech.size:
        phi_y[speech] = a_y * phi_y[speech] + (1.0 - a_y) * outer[speech]
    noise = np.flatnonzero(~mask)
    if noise.size:
        phi = a_n * phi_n[noise] + (1.0 - a_n) * outer[noise]
        phi_n[noise] = phi
        if inv_n is not None:
            inv_n[noise] = rank_one_inverse(inv_n[noise], y[:, noise].T, a_n, phi)
    return phi_y, phi_n, inv_n


def normalize_columns(cols: np.ndarray, scale: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Each row divided by its first entry; rows whose normalizer is tiny
    against ``scale`` are all zeros and invalid."""
    denom = cols[:, 0]
    valid = np.abs(denom) >= np.maximum(DENOM_FLOOR * scale,
                                        np.finfo(np.float64).tiny)
    safe = np.where(valid, denom, 1.0)
    values = np.divide(cols, safe[:, None])
    values[~valid] = 0.0
    values[valid, 0] = 1.0
    return values, valid


def batch_cs(noisy: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Covariance subtraction from the [K, P] reference columns of ``phi_y``
    and ``phi_n``: their difference, judged against the noisy column's norm."""
    return normalize_columns(noisy - noise, np.linalg.norm(noisy, axis=1))


def schur_head_inverse(inv: np.ndarray, dim: int) -> np.ndarray:
    """Inverses of the leading ``dim = P - 1`` blocks from the inverses."""
    head = inv[:, :dim, :dim]
    return head - np.einsum("kp,kq->kpq", inv[:, :dim, dim],
                            inv[:, dim, :dim] / inv[:, dim, dim, None])


def power_step(w: np.ndarray, start: np.ndarray, phi_y: np.ndarray,
               noise_inverse: np.ndarray):
    """One generalized power step from the unit vectors ``w`` [K, P]:
    ``(values, valid, w_next)``, ``w`` restarting from ``start`` where the
    step gives a zero or non-finite vector."""
    tiny = np.finfo(np.float64).tiny
    u = np.einsum("kpq,kq->kp", phi_y, w)
    w = np.einsum("kpq,kq->kp", noise_inverse, u)
    norm = np.linalg.norm(w, axis=1)
    stepped = np.isfinite(norm) & (norm > tiny)
    w_next = np.where(stepped[:, None],
                      w / np.where(stepped, norm, 1.0)[:, None], start)
    values, valid = normalize_columns(u, np.linalg.norm(u, axis=1))
    valid &= stepped
    values[~valid] = 0.0
    return values, valid, w_next


def unit_conjugates(est: np.ndarray) -> np.ndarray:
    """The conjugates of a [..., M] stack divided by their norms over M,
    at least the smallest normal number of the dtype."""
    tiny = np.finfo(est.real.dtype).tiny
    norms = np.maximum(np.linalg.norm(est, axis=-1), tiny)
    return est.conj() / norms[..., None]
