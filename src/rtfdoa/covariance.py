"""Recursive covariance tracking with activity-gated updates.

Per bin, two Hermitian matrices are tracked: the noisy-signal covariance
``phi_y`` and the noise covariance ``phi_n``. Exactly one of them absorbs
the current snapshot, selected by the activity label, through an
exponentially smoothed convex combination::

    phi <- alpha * phi + (1 - alpha) * y y^H

Both matrices start from ``eps * I`` and stay exactly Hermitian in
floating point without re-symmetrization: entry (q, p) of ``y y^H`` is
computed from the same two products as entry (p, q), with the imaginary
difference taken in the opposite order, so it is the exact conjugate
(and the diagonal is exactly real); scaling by a real factor and adding
two Hermitian matrices entry by entry keep that symmetry bit for bit.
``tests/test_covariance.py`` pins this over long random runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
            self._phi_y[mask] = a_y * self._phi_y[mask] + (1.0 - a_y) * outer[mask]
        inv = ~mask
        if inv.any():
            # noise bins were not touched above, so phi_y still holds l-1
            base = self._phi_y[inv] if self.faithful_noise_recursion else self._phi_n[inv]
            self._phi_n[inv] = a_n * base + (1.0 - a_n) * outer[inv]
