"""Recursive covariance tracking with activity-gated updates.

Per bin, two Hermitian matrices are tracked: the noisy-signal covariance
``phi_y`` and the noise covariance ``phi_n``. Exactly one of them absorbs
the current snapshot, selected by the activity label, through an
exponentially smoothed convex combination::

    phi <- alpha * phi + (1 - alpha) * y y^H

Both matrices start from ``eps * I`` and are re-symmetrized after every
rank-one update so that accumulated rounding cannot break hermitianness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .activity import ActivityLabel
from .errors import ConfigurationError, NumericalFailure

DEFAULT_EPS_INIT = 1e-6


@dataclass(frozen=True)
class SmoothingConfig:
    """Exponential smoothing factors for the two tracked covariances."""

    alpha_y: float
    alpha_n: float

    def __post_init__(self) -> None:
        for name, a in (("alpha_y", self.alpha_y), ("alpha_n", self.alpha_n)):
            if not 0.0 <= a < 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1)")

    @classmethod
    def from_time_constants(cls, tau_y_s: float, tau_n_s: float,
                            hop: int, sample_rate: int) -> "SmoothingConfig":
        """Map time constants to per-frame factors, ``alpha = exp(-hop/(fs*tau))``."""
        if tau_y_s <= 0.0 or tau_n_s <= 0.0:
            raise ConfigurationError("time constants must be positive")
        return cls(alpha_y=math.exp(-hop / (sample_rate * tau_y_s)),
                   alpha_n=math.exp(-hop / (sample_rate * tau_n_s)))


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


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def update(state: CovarianceState, y: np.ndarray,
           label: ActivityLabel | bool, smoothing: SmoothingConfig,
           faithful_noise_recursion: bool = False) -> CovarianceState:
    """One gated recursion step; returns the new state.

    ``faithful_noise_recursion`` decays the previous *noisy* matrix inside
    the noise update (a published variant of the recursion) instead of the
    previous noise matrix.
    """
    y = np.asarray(y, dtype=np.complex128)
    if not np.isfinite(y).all():
        raise NumericalFailure("snapshot contains non-finite values")
    outer = np.outer(y, y.conj())
    if bool(label):
        phi_y = _hermitize(smoothing.alpha_y * state.phi_y
                           + (1.0 - smoothing.alpha_y) * outer)
        return replace(state, phi_y=phi_y, frames_seen_y=state.frames_seen_y + 1)
    base = state.phi_y if faithful_noise_recursion else state.phi_n
    phi_n = _hermitize(smoothing.alpha_n * base
                       + (1.0 - smoothing.alpha_n) * outer)
    return replace(state, phi_n=phi_n, frames_seen_n=state.frames_seen_n + 1)


class CovarianceTracker:
    """Vectorized per-bin covariance recursion over a whole STFT grid."""

    def __init__(self, n_channels: int, n_bins: int,
                 smoothing: SmoothingConfig,
                 eps_init: float = DEFAULT_EPS_INIT,
                 faithful_noise_recursion: bool = False) -> None:
        if n_channels < 1 or n_bins < 1:
            raise ConfigurationError("need n_channels >= 1 and n_bins >= 1")
        eye = np.eye(n_channels, dtype=np.complex128)
        self._phi_y = np.tile(eps_init * eye, (n_bins, 1, 1))
        self._phi_n = np.tile(eps_init * eye, (n_bins, 1, 1))
        self.smoothing = smoothing
        self.faithful_noise_recursion = faithful_noise_recursion
        self.n_channels = n_channels
        self.n_bins = n_bins
        self.frames_seen_y = np.zeros(n_bins, dtype=np.int64)
        self.frames_seen_n = np.zeros(n_bins, dtype=np.int64)

    @property
    def noisy(self) -> np.ndarray:
        """Noisy-signal covariances [K, P, P]. Treat as read-only."""
        return self._phi_y

    @property
    def noise(self) -> np.ndarray:
        """Noise covariances [K, P, P]. Treat as read-only."""
        return self._phi_n

    def update_frame(self, y: np.ndarray, speech_mask: np.ndarray) -> None:
        """Consume one frame: ``y`` is [P, K], ``speech_mask`` a boolean [K]."""
        if y.shape != (self.n_channels, self.n_bins):
            raise ConfigurationError("frame shape does not match tracker")
        if not np.isfinite(y).all():
            raise NumericalFailure("frame contains non-finite values")
        mask = np.asarray(speech_mask, dtype=bool)
        outer = np.einsum("pk,qk->kpq", y, y.conj())
        a_y = self.smoothing.alpha_y
        a_n = self.smoothing.alpha_n
        if mask.any():
            upd = _hermitize(a_y * self._phi_y[mask] + (1.0 - a_y) * outer[mask])
            self._phi_y[mask] = upd
            self.frames_seen_y[mask] += 1
        inv = ~mask
        if inv.any():
            # noise bins were not touched above, so phi_y still holds l-1
            base = self._phi_y[inv] if self.faithful_noise_recursion else self._phi_n[inv]
            upd = _hermitize(a_n * base + (1.0 - a_n) * outer[inv])
            self._phi_n[inv] = upd
            self.frames_seen_n[inv] += 1

    def state(self, k: int) -> CovarianceState:
        """Copy of the tracked state of bin ``k``."""
        return CovarianceState(phi_y=self._phi_y[k].copy(),
                               phi_n=self._phi_n[k].copy(),
                               frames_seen_y=int(self.frames_seen_y[k]),
                               frames_seen_n=int(self.frames_seen_n[k]))
