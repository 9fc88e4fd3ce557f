"""Minimal PNG reader/writer: 8-bit grayscale and RGB, no interlace.

The writer emits filter-0 scanlines (lossless, deterministic). The reader
copies every filter-0 row in one pass and decodes the other four standard
scanline filters row by row, so externally produced files load too.
Palette, 16-bit, and interlaced images are rejected.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .tensor import ContractError

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def write_png(path, arr: np.ndarray):
    """Write a (H, W) grayscale or (H, W, 3) RGB uint8 array."""
    arr = np.asarray(arr)
    if arr.dtype != np.uint8:
        raise ContractError(f"PNG writer needs uint8 data, got {arr.dtype}")
    if arr.ndim == 2:
        color_type, channels = 0, 1
    elif arr.ndim == 3 and arr.shape[2] == 3:
        color_type, channels = 2, 3
    else:
        raise ContractError(f"unsupported PNG array shape {arr.shape}")
    h, w = arr.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    rows = arr.reshape(h, w * channels)
    raw = b"".join(b"\x00" + rows[i].tobytes() for i in range(h))
    with open(path, "wb") as f:
        f.write(_SIGNATURE)
        f.write(_chunk(b"IHDR", ihdr))
        f.write(_chunk(b"IDAT", zlib.compress(raw, 6)))
        f.write(_chunk(b"IEND", b""))


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def _unfilter(raw: bytes, h: int, w: int, channels: int) -> np.ndarray:
    stride = w * channels
    lines = np.frombuffer(raw, dtype=np.uint8).reshape(h, 1 + stride)
    out = lines[:, 1:].copy()  # every filter-0 row, already decoded
    ftypes = lines[:, 0]
    if not ftypes.any():
        return out
    prev = np.zeros(stride, dtype=np.int64)
    for y in range(h):
        ftype = int(ftypes[y])
        line = out[y].astype(np.int64)
        if ftype == 0:
            prev = line
            continue
        if ftype == 1:  # sub: a running sum along each channel
            cur = np.cumsum(line.reshape(-1, channels), axis=0).reshape(-1) & 0xFF
        elif ftype == 2:  # up
            cur = (line + prev) & 0xFF
        elif ftype in (3, 4):  # average, paeth: byte by byte on Python ints
            # a zero pad of one pixel on the left stands for the bytes before the row
            cur, up = [0] * channels + line.tolist(), [0] * channels + prev.tolist()
            if ftype == 3:
                for x in range(channels, len(cur)):
                    cur[x] = (cur[x] + (cur[x - channels] + up[x]) // 2) & 0xFF
            else:
                for x in range(channels, len(cur)):
                    cur[x] = (cur[x] + _paeth(cur[x - channels], up[x], up[x - channels])) & 0xFF
            cur = np.array(cur[channels:], dtype=np.int64)
        else:
            raise ContractError(f"unknown PNG filter type {ftype}")
        out[y] = cur.astype(np.uint8)
        prev = cur
    return out


def read_png(path) -> np.ndarray:
    """Read an 8-bit grayscale or RGB PNG into a uint8 array.

    A truncated or corrupt file is a ContractError; chunk CRCs are not checked.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:8] != _SIGNATURE:
        raise ContractError(f"{path}: not a PNG file")
    pos = 8
    width = height = None
    color_type = channels = None
    idat = b""
    while True:
        if pos + 12 > len(blob):
            raise ContractError(f"{path}: truncated PNG (no IEND chunk)")
        (length,) = struct.unpack(">I", blob[pos:pos + 4])
        tag = blob[pos + 4:pos + 8]
        payload = blob[pos + 8:pos + 8 + length]
        pos += 12 + length
        if pos > len(blob):
            raise ContractError(f"{path}: truncated {tag!r} chunk")
        if tag == b"IHDR":
            if length != 13:
                raise ContractError(f"{path}: IHDR chunk of {length} bytes, expected 13")
            width, height, depth, color_type, comp, filt, interlace = struct.unpack(
                ">IIBBBBB", payload)
            if depth != 8:
                raise ContractError(f"{path}: only 8-bit PNGs supported, got depth {depth}")
            if color_type not in (0, 2):
                raise ContractError(f"{path}: unsupported color type {color_type}")
            if interlace != 0:
                raise ContractError(f"{path}: interlaced PNGs not supported")
            channels = 1 if color_type == 0 else 3
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if width is None or not idat:
        raise ContractError(f"{path}: missing IHDR or IDAT")
    try:
        raw = zlib.decompress(idat)
    except zlib.error as e:
        raise ContractError(f"{path}: corrupt image data ({e})") from None
    if len(raw) != height * (1 + width * channels):
        raise ContractError(f"{path}: {len(raw)} bytes of scanlines, expected "
                            f"{height * (1 + width * channels)} for {width}x{height}")
    flat = _unfilter(raw, height, width, channels)
    if channels == 1:
        return flat.reshape(height, width)
    return flat.reshape(height, width, 3)
