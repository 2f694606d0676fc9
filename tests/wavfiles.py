"""RIFF/WAVE files built byte by byte, so that reader tests can exercise
layouts (extensible format chunks, extra and odd-sized chunks, truncated
data) that common writers never produce, and integer PCM files of samples
in [-1, 1) (:func:`write_pcm`), which the tests and
``scripts/output_digests.py`` share."""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

PCM = 1
IEEE_FLOAT = 3
EXTENSIBLE = 0xFFFE
# KSDATAFORMAT_SUBTYPE_* GUIDs (RFC 2361) after their two-byte format tag
GUID_TAIL = bytes.fromhex("0000" "0000" "1000" "800000aa00389b71")


def chunk(chunk_id: bytes, payload: bytes) -> bytes:
    """One chunk, padded to an even length."""
    return chunk_id + struct.pack("<I", len(payload)) + payload + b"\0" * (len(payload) % 2)


def fmt_chunk(tag: int, channels: int, bits: int, width: int | None = None,
              rate: int = 16000, extensible: bool = False) -> bytes:
    """A format chunk; ``extensible`` wraps ``tag`` in a 40-byte
    WAVE_FORMAT_EXTENSIBLE chunk."""
    width = width or bits // 8
    align = channels * width
    head = (EXTENSIBLE if extensible else tag, channels, rate, rate * align, align, bits)
    body = struct.pack("<HHIIHH", *head)
    if extensible:
        mask = (1 << channels) - 1
        body += struct.pack("<HHIH", 22, bits, mask, tag) + GUID_TAIL
    return chunk(b"fmt ", body)


def wav_header(fmt: bytes, data_bytes: int, extra: tuple[bytes, ...] = ()) -> bytes:
    """Everything before the samples: the RIFF header, the format chunk,
    ``extra`` chunks and the data chunk's own header."""
    size = 4 + len(fmt) + sum(map(len, extra)) + 8 + data_bytes + data_bytes % 2
    return (b"RIFF" + struct.pack("<I", size) + b"WAVE" + fmt + b"".join(extra)
            + b"data" + struct.pack("<I", data_bytes))


def wav_bytes(fmt: bytes, data: bytes, extra: tuple[bytes, ...] = ()) -> bytes:
    return wav_header(fmt, len(data), extra) + data + b"\0" * (len(data) % 2)


def int24_bytes(pcm: np.ndarray) -> bytes:
    """[channels, samples] integers in [-2^23, 2^23) as interleaved 24-bit PCM."""
    wide = np.ascontiguousarray(pcm.T, dtype="<i4").view(np.uint8).reshape(-1, 4)
    return wide[:, :3].tobytes()


def write_pcm(path, samples: np.ndarray, bits: int, rate: int = 16000) -> np.ndarray:
    """Write [channels, n] samples in [-1, 1) as ``bits``-bit PCM, rounded
    and clipped: 16 and 32 bits by scipy's writer, 24 bits, which it does
    not write, byte by byte. Returns the samples the file holds, as float64."""
    import scipy.io.wavfile

    scale = 2.0 ** (bits - 1)
    pcm = np.clip(np.round(samples * scale), -scale, scale - 1).astype(np.int32)
    if bits == 24:
        Path(path).write_bytes(wav_bytes(fmt_chunk(PCM, len(pcm), 24, rate=rate),
                                         int24_bytes(pcm)))
    else:
        scipy.io.wavfile.write(path, rate, np.ascontiguousarray(
            pcm.T.astype(np.int16 if bits == 16 else np.int32)))
    return pcm / scale
