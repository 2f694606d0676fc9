"""STFT analysis frontend and WAV input/output.

Analysis uses a square-root Hann window with 50% overlap by default
(512 samples / 256 hop at 16 kHz). Frames are left-aligned: frame ``l``
covers samples ``[l*hop, l*hop + frame_len)`` and the trailing remainder
that does not fill a whole frame is dropped.

Audio reaches the tracker through one small interface, which
:class:`AudioClip` (samples in memory) and :class:`WavReader` (a file
read block by block) both provide: ``n_channels``, ``sample_rate``,
``n_samples`` and ``blocks(n, overlap=0)``, an iterator of channel-major
float64 blocks of ``n`` new samples each (the last may have fewer), each
led by the ``overlap`` samples that precede them (fewer at the start).
A tracker that asks for the samples its last frames left unfinished gets
blocks that it frames as it would the whole recording, without copying
one block's end in front of the next: a clip's blocks are overlapping
views of its samples, and a file's are views of one buffer into which
each block is decoded behind the overlap kept from the one before it.
The next block overwrites that buffer, with or without an overlap, so a
caller uses or copies each block of a file before it draws the next.
"""
from __future__ import annotations

import logging
import os
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalFailure

log = logging.getLogger(__name__)

DEFAULT_SAMPLE_RATE = 16000

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bytes 2..16 of a WAVE_FORMAT_EXTENSIBLE sub-format GUID; bytes 0..2 hold
# the format tag (RFC 2361)
_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# (format tag, bytes per sample) -> (stored dtype, scale to [-1, 1)); 24-bit
# PCM is widened to int32 with the sample in the upper three bytes
_SAMPLE_FORMATS = {
    (_WAVE_FORMAT_PCM, 2): ("<i2", 2.0 ** -15),
    (_WAVE_FORMAT_PCM, 3): ("<i4", 2.0 ** -31),
    (_WAVE_FORMAT_PCM, 4): ("<i4", 2.0 ** -31),
    (_WAVE_FORMAT_IEEE_FLOAT, 4): ("<f4", 1.0),
    (_WAVE_FORMAT_IEEE_FLOAT, 8): ("<f8", 1.0),
}
_READ_BLOCK_SAMPLES = 1 << 16
# frames windowed at a time by analyze()
_WINDOW_FRAMES = 16


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

    def blocks(self, n: int, overlap: int = 0) -> Iterator[np.ndarray]:
        """Views of the samples: ``n`` new ones a block, led by the
        ``overlap`` before them (see the module docstring)."""
        for start in range(0, self.n_samples, n):
            yield self.samples[:, max(start - overlap, 0):start + n]


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters. ``fft_size`` equals ``frame_len`` (no zero padding).
    ``window``, set on construction, is always ``sqrt_hann(frame_len)``."""

    frame_len: int = 512
    hop: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "window", sqrt_hann(self.frame_len))
        if not 0 < self.hop <= self.frame_len:
            raise ConfigurationError("hop must satisfy 0 < hop <= frame_len")

    @property
    def fft_size(self) -> int:
        return self.frame_len

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


def num_frames(n_samples: int, cfg: StftConfig) -> int:
    """Number of full analysis frames for a signal of ``n_samples``."""
    if n_samples < cfg.frame_len:
        return 0
    return (n_samples - cfg.frame_len) // cfg.hop + 1


def frame_times(n_frames: int, frame_len: int, hop: int,
                sample_rate: int) -> np.ndarray:
    """Center time of each of ``n_frames`` left-aligned frames in seconds."""
    idx = np.arange(n_frames)
    return (idx * hop + frame_len / 2.0) / sample_rate


def analyze(clip: AudioClip, cfg: StftConfig | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """Windowed one-sided STFT of all channels, [channels, bins, frames]
    complex128; every STFT of the package is this one.

    The result is a transposed view of a [channels, frames, bins] array,
    not a contiguous one. ``out``, if given, is that array: a complex128
    [channels, n, bins] buffer with ``n`` at least the clip's frame count,
    whose first frames receive the STFT (a caller that transforms block
    after block allocates it once). The windowed frames go through a small
    scratch buffer, a few frames at a time, so that no windowed copy of the
    whole clip is made. Raises :class:`ConfigurationError` when the clip is
    shorter than one frame or ``out`` does not fit, and
    :class:`NumericalFailure` on non-finite samples.
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
    n_chan, n_frames = frames.shape[:2]
    if out is None:
        out = np.empty((n_chan, n_frames, cfg.n_bins), dtype=np.complex128)
    elif (out.dtype != np.complex128 or out.ndim != 3 or out.shape[0] != n_chan
          or out.shape[1] < n_frames or out.shape[2] != cfg.n_bins):
        raise ConfigurationError(
            f"STFT buffer of {out.dtype} {out.shape} does not hold "
            f"complex128 {(n_chan, n_frames, cfg.n_bins)}")
    windowed = np.empty((n_chan, min(_WINDOW_FRAMES, n_frames), cfg.frame_len))
    for start in range(0, n_frames, _WINDOW_FRAMES):
        stop = min(start + _WINDOW_FRAMES, n_frames)
        chunk = windowed[:, :stop - start]
        np.multiply(frames[:, start:stop], cfg.window, out=chunk)
        np.fft.rfft(chunk, axis=-1, out=out[:, start:stop])   # [C, L, K]
    return out[:, :n_frames].transpose(0, 2, 1)


class WavReader:
    """A RIFF/WAVE file read as consecutive float64 blocks.

    Reads 16-, 24- and 32-bit PCM and 32- and 64-bit float samples, with a
    plain or a ``WAVE_FORMAT_EXTENSIBLE`` format chunk, and skips every
    other chunk (odd sizes padded to even, as RIFF requires). Integer PCM
    is scaled to [-1, 1). The header is parsed on construction; a file
    that is not such a WAV, or whose data chunk runs past the end of the
    file, raises :class:`ConfigurationError`. A sample rate other than
    16 kHz is accepted but logged as a warning.
    """

    def __init__(self, path) -> None:
        self.path = path
        with open(path, "rb") as fh:
            fmt, self._data_start, data_bytes = self._read_header(fh)
            file_bytes = os.fstat(fh.fileno()).st_size
        tag, self.n_channels, self.sample_rate, self._frame_bytes, bits = fmt
        width = self._frame_bytes // self.n_channels
        known = _SAMPLE_FORMATS.get((tag, width))
        if known is None or (tag == _WAVE_FORMAT_PCM and bits <= 8) or (
                tag == _WAVE_FORMAT_IEEE_FLOAT and bits != 8 * width):
            raise ConfigurationError(
                f"{path}: unsupported WAV sample format (format tag {tag}, "
                f"{bits} bits in {width}-byte samples)")
        self._dtype, self._scale = known
        self._width = width
        if data_bytes % self._frame_bytes:
            raise ConfigurationError(
                f"{path}: data chunk of {data_bytes} bytes is not a whole number "
                f"of {self._frame_bytes}-byte sample frames")
        if self._data_start + data_bytes > file_bytes:
            raise ConfigurationError(
                f"{path} is truncated: its data chunk declares {data_bytes} bytes, "
                f"the file holds {file_bytes - self._data_start}")
        self.n_samples = data_bytes // self._frame_bytes
        if self.sample_rate != DEFAULT_SAMPLE_RATE:
            log.warning("WAV sample rate %d Hz differs from the expected 16 kHz",
                        self.sample_rate)

    def _read_header(self, fh) -> tuple[tuple, int, int]:
        """Walk the chunks up to ``data``; return the parsed format chunk,
        the offset of the first sample and the data chunk's size."""
        riff = fh.read(12)
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:] != b"WAVE":
            raise ConfigurationError(f"{self.path} is not a RIFF/WAVE file")
        fmt = None
        while True:
            head = fh.read(8)
            if len(head) < 8:
                raise ConfigurationError(f"{self.path} holds no data chunk")
            chunk_id, size = head[:4], struct.unpack("<I", head[4:])[0]
            if chunk_id == b"data":
                if fmt is None:
                    raise ConfigurationError(
                        f"{self.path}: data chunk before the format chunk")
                return fmt, fh.tell(), size
            if chunk_id == b"fmt ":
                fmt = self._parse_format(fh.read(size))
                fh.seek(size & 1, os.SEEK_CUR)
            else:
                fh.seek(size + (size & 1), os.SEEK_CUR)

    def _parse_format(self, body: bytes) -> tuple:
        if len(body) < 16:
            raise ConfigurationError(f"{self.path}: format chunk is too short")
        tag, channels, rate, _, frame_bytes, bits = struct.unpack("<HHIIHH", body[:16])
        if tag == _WAVE_FORMAT_EXTENSIBLE:
            if len(body) < 40 or body[26:40] != _GUID_TAIL:
                raise ConfigurationError(
                    f"{self.path}: unknown WAVE_FORMAT_EXTENSIBLE sub-format")
            tag = struct.unpack("<H", body[24:26])[0]
        if channels < 1 or rate < 1 or frame_bytes == 0 or frame_bytes % channels:
            raise ConfigurationError(
                f"{self.path}: bad format chunk ({channels} channels, {rate} Hz, "
                f"{frame_bytes}-byte sample frames)")
        return tag, channels, rate, frame_bytes, bits

    def _decode(self, raw, out: np.ndarray) -> None:
        """Decode whole sample frames into the [channels, n] float64 ``out``."""
        if self._width == 3:
            wide = np.zeros((len(raw) // 3, 4), dtype=np.uint8)
            wide[:, 1:] = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
            stored = wide.view(self._dtype)
        else:
            stored = np.frombuffer(raw, dtype=self._dtype)
        np.copyto(out, stored.reshape(-1, self.n_channels).T)
        if self._scale != 1.0:
            out *= self._scale

    def blocks(self, n: int, overlap: int = 0) -> Iterator[np.ndarray]:
        """The file's samples, ``n`` new ones a block, led by the
        ``overlap`` before them (see the module docstring). The blocks are
        views of one [channels, overlap + n] buffer, which the next block
        overwrites; the file is read into one buffer of bytes."""
        n = min(n, self.n_samples)
        buffer = np.empty((self.n_channels, overlap + n))
        raw = memoryview(bytearray(n * self._frame_bytes))
        end = 0  # samples held in the buffer
        left = self.n_samples
        with open(self.path, "rb") as fh:
            fh.seek(self._data_start)
            while left:
                count = min(n, left)
                want = count * self._frame_bytes
                if fh.readinto(raw[:want]) < want:
                    raise ConfigurationError(f"{self.path} is truncated")
                left -= count
                keep = min(overlap, end)
                buffer[:, :keep] = buffer[:, end - keep:end]
                end = keep + count
                self._decode(raw[:want], buffer[:, keep:end])
                yield buffer[:, :end]


def read_wav(path) -> AudioClip:
    """Read a whole WAV file (see :class:`WavReader`) into memory."""
    reader = WavReader(path)
    samples = np.empty((reader.n_channels, reader.n_samples))
    pos = 0
    for block in reader.blocks(_READ_BLOCK_SAMPLES):
        samples[:, pos:pos + block.shape[1]] = block
        pos += block.shape[1]
    return AudioClip(samples=samples, sample_rate=reader.sample_rate)


def write_wav(path, clip: AudioClip) -> None:
    """Write the clip as 32-bit float WAV."""
    # imported here so that reading, and with it `rtfdoa estimate`, never
    # loads scipy.io and the scipy.sparse it pulls in
    import scipy.io.wavfile

    scipy.io.wavfile.write(path, clip.sample_rate,
                           np.ascontiguousarray(clip.samples.T, dtype=np.float32))
