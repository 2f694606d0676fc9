"""Per-bin speech activity: speech presence probability and oracle labels.

The detector decides, per time-frequency bin, whether the incoming frame
updates the noisy-signal covariance (speech plus noise) or the noise
covariance (noise only).
"""
from __future__ import annotations

import logging
import struct

import numpy as np

from .errors import ConfigurationError

log = logging.getLogger(__name__)

_LABEL_MAGIC = b"DOALBL01"

# the fixed-prior detector of Gerkmann & Hendriks (IEEE TASLP 2012): a-priori
# speech presence probability q and a-priori SNR xi of the active state
SPP_PRIOR = 0.5
SPP_FIXED_SNR_DB = 15.0
# non-positive noise PSD values are clamped to this before dividing
NOISE_PSD_FLOOR = 1e-12


def spp(noisy_power, noise_psd) -> np.ndarray:
    """Speech presence probability of noisy periodogram values.

    With a-posteriori SNR ``gamma = noisy_power / noise_psd``, prior ``q``
    (:data:`SPP_PRIOR`) and fixed a-priori SNR ``xi``
    (:data:`SPP_FIXED_SNR_DB`)::

        p = 1 / (1 + (1-q)/q * (1+xi) * exp(-gamma * xi / (1+xi)))

    Non-positive noise PSD values are clamped to :data:`NOISE_PSD_FLOOR`.
    """
    power = np.asarray(noisy_power, dtype=np.float64)
    psd = np.asarray(noise_psd, dtype=np.float64)
    if np.any(psd <= 0.0):
        log.warning("non-positive noise PSD clamped to floor %.1e", NOISE_PSD_FLOOR)
        psd = np.maximum(psd, NOISE_PSD_FLOOR)
    xi = 10.0 ** (SPP_FIXED_SNR_DB / 10.0)
    gamma = power / psd
    odds_inv = (1.0 - SPP_PRIOR) / SPP_PRIOR * (1.0 + xi) * np.exp(-gamma * xi / (1.0 + xi))
    return 1.0 / (1.0 + odds_inv)


def oracle_labels_from_power(clean_power: np.ndarray, noise_power: np.ndarray,
                             margin_db: float) -> np.ndarray:
    """Activity grid from reference-channel periodograms (any matching shape)."""
    clean_power = np.asarray(clean_power)
    noise_power = np.asarray(noise_power)
    if clean_power.shape != noise_power.shape:
        raise ConfigurationError("power grids must share shape")
    margin = 10.0 ** (margin_db / 10.0)
    return clean_power > margin * noise_power


def oracle_labels(clean: np.ndarray, noise: np.ndarray,
                  margin_db: float) -> np.ndarray:
    """Ground-truth activity grid from the separated scene components.

    ``clean`` and ``noise`` are the [C, K, L] STFTs of the two components.
    A bin is labeled speech-plus-noise when the reference-channel speech
    periodogram exceeds the noise periodogram by ``margin_db`` (a run's
    is ``RunConfig.oracle_margin_db``):
    ``|X1|^2 > 10^(margin_db/10) * |N1|^2``. Returns a boolean [K, L] grid
    (True = speech plus noise).
    """
    if clean.shape[1:] != noise.shape[1:]:
        raise ConfigurationError("clean and noise grids must share [K, L] shape")
    return oracle_labels_from_power(np.abs(clean[0]) ** 2,
                                    np.abs(noise[0]) ** 2, margin_db)


def write_labels(path, labels: np.ndarray) -> None:
    """Serialize a boolean [K, L] label grid as a packed bitmap.

    Layout: 8-byte magic, K and L as little-endian uint32, then the grid
    bits row-major (bin-major) with most-significant-bit-first packing.
    """
    grid = np.asarray(labels, dtype=bool)
    if grid.ndim != 2:
        raise ConfigurationError("label grid must be 2-D [K, L]")
    k, l = grid.shape
    header = _LABEL_MAGIC + struct.pack("<II", k, l)
    payload = np.packbits(grid.reshape(-1))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


class LabelBitmap:
    """A [K, L] label grid held as the packed bits of a label file.

    Only :meth:`columns` unpacks, so a caller that reads a block of
    frames at a time holds one bit per bin and frame for the whole
    recording and one byte per bin and frame for the block. ``np.asarray``
    unpacks the whole grid.
    """

    ndim = 2

    def __init__(self, bits: np.ndarray, n_bins: int, n_frames: int) -> None:
        if bits.size != (n_bins * n_frames + 7) // 8:
            raise ConfigurationError("label bitmap payload size mismatch")
        self._bits = bits
        self.shape = (n_bins, n_frames)

    def columns(self, start: int, stop: int) -> np.ndarray:
        """Labels of frames ``start`` to ``stop`` (exclusive), [K, n] bool."""
        n_bins, n_frames = self.shape
        if not 0 <= start <= stop <= n_frames:
            raise ConfigurationError(
                f"frames {start}:{stop} outside a bitmap of {n_frames}")
        # bit of bin k, frame l: k * L + l, most significant bit first
        bit = np.arange(n_bins)[:, None] * n_frames + np.arange(start, stop)
        return ((self._bits[bit >> 3] << (bit & 7)) & 0x80) != 0

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        grid = self.columns(0, self.shape[1])
        return grid if dtype is None else grid.astype(dtype)


def read_labels(path) -> LabelBitmap:
    """Read a label bitmap written by :func:`write_labels`, still packed."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:8] != _LABEL_MAGIC:
        raise ConfigurationError("not a label bitmap (bad magic)")
    k, l = struct.unpack("<II", blob[8:16])
    return LabelBitmap(np.frombuffer(blob, dtype=np.uint8, offset=16), k, l)
