"""Per-bin speech activity: speech presence probability and oracle labels.

The detector decides, per time-frequency bin, whether the incoming frame
updates the noisy-signal covariance (speech plus noise) or the noise
covariance (noise only).

The SPP detector (:class:`SppDetector`) keeps its own noise PSD of the
head channels, which nothing else reads: each step decides the frame's
speech mask through :func:`spp` and then absorbs the frame into the PSD
in the bins gated as noise, in place, through frame-sized buffers it
allocates once. The PSD follows the recursion of the noise covariance's
diagonal, so under the same masks it equals the head block of that
diagonal bit for bit, and the detector decides alike whatever the
covariance tracker keeps of the noise.
"""
from __future__ import annotations

import logging
import struct

import numpy as np

from .covariance import DEFAULT_EPS_INIT
from .errors import ConfigurationError

log = logging.getLogger(__name__)

_LABEL_MAGIC = b"DOALBL01"

# the fixed-prior detector of Gerkmann & Hendriks (IEEE TASLP 2012): a-priori
# speech presence probability q and a-priori SNR xi of the active state
SPP_PRIOR = 0.5
SPP_FIXED_SNR_DB = 15.0
# non-positive noise PSD values are clamped to this before dividing
NOISE_PSD_FLOOR = 1e-12
# the SPP detector gates the first frames as noise, so that the noise PSD
# it divides by has absorbed some frames before it decides
SPP_BOOTSTRAP_FRAMES = 10
# a bin is speech when its head channels' mean SPP exceeds this
SPP_THRESHOLD = 0.5


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
    if (psd <= 0.0).any():
        log.warning("non-positive noise PSD clamped to floor %.1e", NOISE_PSD_FLOOR)
        psd = np.maximum(psd, NOISE_PSD_FLOOR)
    xi = 10.0 ** (SPP_FIXED_SNR_DB / 10.0)
    # the formula's operations in its order, in place on gamma's array (0-d
    # for scalar arguments, which [()] turns back into a scalar)
    p = np.asarray(power / psd)
    np.negative(p, out=p)
    p *= xi
    p /= 1.0 + xi
    np.exp(p, out=p)
    p *= (1.0 - SPP_PRIOR) / SPP_PRIOR * (1.0 + xi)
    p += 1.0
    return np.divide(1.0, p, out=p)[()]


class SppDetector:
    """The fixed-prior SPP detector with its own noise PSD of the head
    channels, ``[n_head, K]``.

    :meth:`step` gates every bin as noise for the first
    :data:`SPP_BOOTSTRAP_FRAMES` frames; then a bin is speech when its head
    channels' mean :func:`spp` exceeds :data:`SPP_THRESHOLD`. In the bins
    gated as noise the PSD then absorbs the frame,
    ``psd <- alpha_n * psd + (1 - alpha_n) |y_p|^2``, from ``eps_init``:
    the noise covariance's recursion restricted to its diagonal, with
    ``|y_p|^2`` formed as ``re^2 + im^2``, which equals the real part of
    the outer product's ``y_p conj(y_p)`` bit for bit.
    """

    def __init__(self, n_head: int, n_bins: int, alpha_n: float,
                 eps_init: float = DEFAULT_EPS_INIT) -> None:
        if n_head < 1 or n_bins < 1:
            raise ConfigurationError("need n_head >= 1 and n_bins >= 1")
        self.n_head = n_head
        self.alpha_n = alpha_n
        self.psd = np.full((n_head, n_bins), eps_init)
        self.frames = 0
        self._power = np.empty((n_head, n_bins))
        self._scratch = np.empty((n_head, n_bins))
        self._mean = np.empty(n_bins)
        self._noise = np.empty(n_bins, dtype=bool)

    def step(self, y: np.ndarray) -> np.ndarray:
        """Decide one frame (``y`` [P, K], head channels first) and update
        the PSD; returns the speech mask, a boolean [K]."""
        head = y[:self.n_head]
        power, scratch = self._power, self._scratch
        if self.frames < SPP_BOOTSTRAP_FRAMES:
            mask = np.zeros(self.psd.shape[1], dtype=bool)
        else:
            np.abs(head, out=power)
            probabilities = spp(np.square(power, out=power), self.psd)
            # the mean over the head channels, without np.mean's overhead
            mean = np.add.reduce(probabilities, axis=0, out=self._mean)
            mean /= self.n_head
            mask = mean > SPP_THRESHOLD
        self.frames += 1
        np.multiply(head.real, head.real, out=power)
        np.multiply(head.imag, head.imag, out=scratch)
        power += scratch
        power *= 1.0 - self.alpha_n
        np.multiply(self.psd, self.alpha_n, out=scratch)
        scratch += power
        np.logical_not(mask, out=self._noise)
        np.copyto(self.psd, scratch, where=self._noise)
        return mask


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

    Only indexing by a (bins, frames) pair of slices unpacks, and only the
    bits it names, so a caller that reads a block of frames of a band at a
    time holds one bit per bin and frame for the whole recording and one
    byte per bin and frame for the block's bins. ``np.asarray`` unpacks
    the whole grid.
    """

    def __init__(self, bits: np.ndarray, n_bins: int, n_frames: int) -> None:
        if bits.size != (n_bins * n_frames + 7) // 8:
            raise ConfigurationError("label bitmap payload size mismatch")
        self._bits = bits
        self.shape = (n_bins, n_frames)

    def __getitem__(self, key: tuple[slice, slice]) -> np.ndarray:
        """The labels of a (bins, frames) pair of slices, a new bool array
        equal to that slice of the unpacked grid."""
        rows, cols = key
        n_bins, n_frames = self.shape
        # bit of bin k, frame l: k * L + l, most significant bit first
        bit = np.arange(n_bins)[rows, None] * n_frames + np.arange(n_frames)[cols]
        return ((self._bits[bit >> 3] << (bit & 7)) & 0x80) != 0

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        grid = self[:, :]
        return grid if dtype is None else grid.astype(dtype)


def read_labels(path) -> LabelBitmap:
    """Read a label bitmap written by :func:`write_labels`, still packed."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:8] != _LABEL_MAGIC:
        raise ConfigurationError("not a label bitmap (bad magic)")
    k, l = struct.unpack("<II", blob[8:16])
    return LabelBitmap(np.frombuffer(blob, dtype=np.uint8, offset=16), k, l)
