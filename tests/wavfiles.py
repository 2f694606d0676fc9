"""RIFF/WAVE files built byte by byte, so that reader tests can exercise
layouts (extensible format chunks, extra and odd-sized chunks, truncated
data) that common writers never produce."""
from __future__ import annotations

import struct

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
