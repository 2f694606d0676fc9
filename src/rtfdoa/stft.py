"""STFT analysis frontend and WAV input/output.

Analysis uses a square-root Hann window with 50% overlap by default
(512 samples / 256 hop at 16 kHz). Frames are left-aligned: frame ``l``
covers samples ``[l*hop, l*hop + frame_len)`` and the trailing remainder
that does not fill a whole frame is dropped.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
import scipy.io.wavfile

from .errors import ConfigurationError, NumericalFailure

log = logging.getLogger(__name__)

DEFAULT_SAMPLE_RATE = 16000


def sqrt_hann(frame_len: int) -> np.ndarray:
    """Square-root periodic Hann window, ``sqrt(0.5 - 0.5*cos(2*pi*n/N))``.

    Its square satisfies the constant-overlap-add property at 50% overlap,
    which makes the analysis/synthesis pair exactly reconstructing.
    """
    if frame_len < 2 or frame_len % 2 != 0:
        raise ConfigurationError("frame_len must be an even integer >= 2")
    n = np.arange(frame_len)
    return np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame_len))


@dataclass(frozen=True)
class AudioClip:
    """Multichannel audio held as a [channels, samples] float64 matrix."""

    samples: np.ndarray
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self) -> None:
        data = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if data.ndim != 2:
            raise ConfigurationError("samples must be a [channels, samples] matrix")
        object.__setattr__(self, "samples", data)
        if self.sample_rate <= 0:
            raise ConfigurationError("sample_rate must be positive")

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.n_samples / self.sample_rate


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters. ``fft_size`` equals ``frame_len`` (no zero padding)."""

    frame_len: int = 512
    hop: int = 256
    window: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.frame_len < 2:
            raise ConfigurationError("frame_len must be >= 2")
        if not 0 < self.hop <= self.frame_len:
            raise ConfigurationError("hop must satisfy 0 < hop <= frame_len")
        win = self.window
        if win is None:
            win = sqrt_hann(self.frame_len)
        else:
            win = np.asarray(win, dtype=np.float64)
            if win.shape != (self.frame_len,):
                raise ConfigurationError("window length must equal frame_len")
            if win.min() < 0.0 or win.max() > 1.0:
                raise ConfigurationError("window values must lie in [0, 1]")
        object.__setattr__(self, "window", win)

    @property
    def fft_size(self) -> int:
        return self.frame_len

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass(frozen=True)
class TFGrid:
    """One-sided STFT coefficients, shaped [channels, bins, frames]."""

    data: np.ndarray
    sample_rate: int
    frame_len: int
    hop: int

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.ndim != 3 or not np.iscomplexobj(data):
            raise ConfigurationError("TFGrid data must be a complex [C,K,L] array")
        object.__setattr__(self, "data", data)

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]

    @property
    def n_frames(self) -> int:
        return self.data.shape[2]

    @property
    def frame_times(self) -> np.ndarray:
        """Center time of each frame in seconds."""
        idx = np.arange(self.n_frames)
        return (idx * self.hop + self.frame_len / 2.0) / self.sample_rate


def num_frames(n_samples: int, cfg: StftConfig) -> int:
    """Number of full analysis frames for a signal of ``n_samples``."""
    if n_samples < cfg.frame_len:
        return 0
    return (n_samples - cfg.frame_len) // cfg.hop + 1


def analyze(clip: AudioClip, cfg: StftConfig | None = None) -> TFGrid:
    """Windowed one-sided STFT of all channels.

    Raises :class:`ConfigurationError` when the clip is shorter than one
    frame and :class:`NumericalFailure` on non-finite samples.
    """
    cfg = cfg or StftConfig()
    x = clip.samples
    if x.shape[1] < cfg.frame_len:
        raise ConfigurationError(
            f"clip of {x.shape[1]} samples is shorter than one frame ({cfg.frame_len})")
    if not np.isfinite(x).all():
        raise NumericalFailure("clip contains non-finite samples")
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len, axis=1)
    frames = frames[:, ::cfg.hop, :]                      # [C, L, N]
    spec = np.fft.rfft(frames * cfg.window, axis=-1)      # [C, L, K]
    return TFGrid(data=np.ascontiguousarray(spec.transpose(0, 2, 1)),
                  sample_rate=clip.sample_rate,
                  frame_len=cfg.frame_len,
                  hop=cfg.hop)


def read_wav(path) -> AudioClip:
    """Read a multichannel WAV file (16-, 24- or 32-bit PCM, or float).

    Integer PCM is scaled to [-1, 1); scipy returns 24-bit PCM as int32
    with the samples in the upper three bytes, so it takes the same
    2^-31 scale as 32-bit PCM. A sample rate other than 16 kHz is
    accepted but logged as a warning. A file that is not a WAV raises
    :class:`ConfigurationError`.
    """
    try:
        rate, data = scipy.io.wavfile.read(path)
    except ValueError as exc:
        raise ConfigurationError(f"{path} is not a readable WAV: {exc}") from exc
    if data.ndim == 1:
        data = data[:, None]
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        # scale in place: a second float64 copy would raise peak memory
        samples = data.astype(np.float64)
        samples *= 2.0 ** -31
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    else:
        raise ConfigurationError(f"unsupported WAV sample format {data.dtype}")
    if rate != DEFAULT_SAMPLE_RATE:
        log.warning("WAV sample rate %d Hz differs from the expected 16 kHz", rate)
    return AudioClip(samples=samples.T, sample_rate=int(rate))


def write_wav(path, clip: AudioClip) -> None:
    """Write the clip as 32-bit float WAV."""
    scipy.io.wavfile.write(path, clip.sample_rate,
                           np.ascontiguousarray(clip.samples.T, dtype=np.float32))
