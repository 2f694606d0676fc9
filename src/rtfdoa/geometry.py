"""Microphone array geometry and plane-wave propagation delays.

Azimuth convention: degrees, measured counterclockwise in the horizontal
plane, 0 deg straight ahead (+x axis), +90 deg to the left (+y axis).
All positions are in meters, relative to the center of the head.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

SPEED_OF_SOUND = 343.0  # m/s

# mics closer than this are treated as coincident
_MIN_MIC_DISTANCE = 1e-6

# the head-mounted array: the ears' distance, and the front-back spacing of
# an ear's two mics, in meters
EAR_DISTANCE_M = 0.16
MIC_SPACING_M = 0.015
# the external microphone's default place: its azimuth in degrees and its
# distance from the center of the head in meters
EXTERNAL_AZIMUTH_DEG = 45.0
EXTERNAL_DISTANCE_M = 1.6


def binaural_head_positions() -> np.ndarray:
    """Positions of a two-mics-per-ear head-mounted array.

    Channel order: left-front, left-rear, right-front, right-rear.
    The two mics of each ear sit :data:`MIC_SPACING_M` apart along the
    front-back axis; the ears are :data:`EAR_DISTANCE_M` apart.
    """
    hx = MIC_SPACING_M / 2.0
    hy = EAR_DISTANCE_M / 2.0
    return np.array([
        [+hx, +hy, 0.0],
        [-hx, +hy, 0.0],
        [+hx, -hy, 0.0],
        [-hx, -hy, 0.0],
    ])


def azimuth_to_unit(azimuth_deg) -> np.ndarray:
    """Unit propagation vector(s) pointing from the array toward the source."""
    az = np.deg2rad(np.asarray(azimuth_deg, dtype=np.float64))
    u = np.stack([np.cos(az), np.sin(az), np.zeros_like(az)], axis=-1)
    return u


@dataclass(frozen=True)
class ArrayGeometry:
    """Head-mounted microphone positions plus an optional external microphone.

    The first head microphone is the reference channel. ``front_indices``
    names the two front microphones (one per ear) used for broadband
    level measurements.
    """

    head_positions: np.ndarray
    external_position: np.ndarray | None = None
    front_indices: tuple[int, int] = (0, 2)
    geometry_id: str = "binaural-4mic"

    def __post_init__(self) -> None:
        head = np.atleast_2d(np.asarray(self.head_positions, dtype=np.float64))
        if head.ndim != 2 or head.shape[1] != 3 or head.shape[0] < 2:
            raise ConfigurationError("head_positions must be an [M,3] array with M >= 2")
        object.__setattr__(self, "head_positions", head)
        ext = self.external_position
        if ext is not None:
            ext = np.asarray(ext, dtype=np.float64).reshape(3)
            object.__setattr__(self, "external_position", ext)
        pos = self.positions()
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        np.fill_diagonal(dist, np.inf)
        if dist.min() < _MIN_MIC_DISTANCE:
            raise ConfigurationError("coincident microphones in geometry")
        for idx in self.front_indices:
            if not 0 <= idx < head.shape[0]:
                raise ConfigurationError(f"front index {idx} out of range")

    @property
    def n_head(self) -> int:
        return self.head_positions.shape[0]

    @property
    def n_channels(self) -> int:
        return self.n_head + (0 if self.external_position is None else 1)

    def positions(self) -> np.ndarray:
        """All microphone positions [P,3]; the external mic comes last."""
        if self.external_position is not None:
            return np.vstack([self.head_positions, self.external_position[None, :]])
        return self.head_positions


def default_geometry(external_azimuth_deg: float = EXTERNAL_AZIMUTH_DEG,
                     external_distance_m: float = EXTERNAL_DISTANCE_M
                     ) -> ArrayGeometry:
    """Default binaural array with one external microphone in the far field."""
    ext = external_distance_m * azimuth_to_unit(external_azimuth_deg)
    return ArrayGeometry(
        head_positions=binaural_head_positions(),
        external_position=ext,
    )


def plane_wave_delays(positions: np.ndarray, azimuth_deg) -> np.ndarray:
    """Arrival-time offsets of a far-field plane wave at each microphone.

    A wave from azimuth ``theta`` travels along ``-u(theta)``; a microphone
    displaced toward the source hears the wavefront earlier, so its delay
    ``tau = -(p . u) / c`` is negative. Returns seconds, shaped like the
    broadcast of ``azimuth_deg`` with a trailing microphone axis.
    """
    return plane_wave_delays_3d(positions, azimuth_to_unit(azimuth_deg))


def plane_wave_delays_3d(positions: np.ndarray, unit_vectors: np.ndarray) -> np.ndarray:
    """Same as :func:`plane_wave_delays` for arbitrary 3-D unit directions."""
    pos = np.asarray(positions, dtype=np.float64)
    u = np.asarray(unit_vectors, dtype=np.float64)
    return -(u @ pos.T) / SPEED_OF_SOUND
