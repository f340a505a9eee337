"""Core raster types, the PGM codec and the bilinear affine warp.

Images are 2-D float64 arrays of shape (height, width) with intensities in
[0, 1]. Binary masks are bool arrays, tri-label masks int8 arrays (see
``BG``/``FG``/``IGNORE``). Point coordinates are (x, y) with the center of
pixel (row r, col c) at (c + 0.5, r + 0.5). Affine transforms are 2x3
matrices mapping source coordinates to output coordinates; ``affine_invert``
inverts one and ``apply_affine`` warps an image by one with
``scipy.ndimage.affine_transform``.
"""

from __future__ import annotations

import numpy as np
from scipy.ndimage import affine_transform

# tri-mask labels
BG = 0
FG = 1
IGNORE = 2


class DecodeError(ValueError):
    """Raised on malformed PGM input."""


def validate_gray(img: np.ndarray) -> np.ndarray:
    """Check shape and [0,1] range; returns the array as float64."""
    a = np.asarray(img, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected 2-D image, got shape {a.shape}")
    if not np.all(np.isfinite(a)) or a.min() < 0.0 or a.max() > 1.0:
        raise ValueError("image intensities must be finite and in [0, 1]")
    return a


# ---------------------------------------------------------------------------
# PGM codec (P2 plain / P5 binary, maxval <= 255)

def _next_token(data: bytes, pos: int):
    """Skip whitespace/comments, return (token, position after token)."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    if pos >= n:
        raise DecodeError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < n and not data[pos:pos + 1].isspace():
        pos += 1
    return data[start:pos], pos


def decode_pgm(data: bytes) -> np.ndarray:
    """Decode P2 (ASCII) or P5 (binary) graymap bytes into a [0,1] image."""
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise DecodeError(f"bad magic {magic!r} at byte 0")
    pos = 2
    header = []
    for _ in range(3):
        tok, pos = _next_token(data, pos)
        try:
            # int() would also take a sign and underscores
            if not tok.isdigit():
                raise ValueError
            header.append(int(tok))  # ValueError past int()'s digit limit
        except ValueError:
            raise DecodeError(f"non-numeric header token {tok!r} at byte {pos}")
    width, height, maxval = header
    if width < 1 or height < 1:
        raise DecodeError(f"bad dimensions {width}x{height}")
    if maxval < 1 or maxval > 255:
        raise DecodeError(f"unsupported maxval {maxval}")
    n = width * height
    if magic == b"P5":
        pos += 1  # single whitespace after maxval
        raster = data[pos:pos + n]
        if len(raster) < n:
            raise DecodeError(f"truncated raster at byte {len(data)}")
        values = np.frombuffer(raster, dtype=np.uint8, count=n)
    else:
        # each sample takes a digit and the whitespace before it
        if len(data) - pos < 2 * n:
            raise DecodeError(f"truncated raster at byte {len(data)}")
        values = np.empty(n, dtype=np.uint8)
        for i in range(n):
            tok, pos = _next_token(data, pos)
            if not tok.isdigit():
                raise DecodeError(f"non-numeric sample {tok!r} at byte {pos}")
            # more than 3 significant digits exceed maxval <= 255, and int()
            # would fail past its digit limit
            digits = tok.lstrip(b"0") or b"0"
            if len(digits) > 3 or int(digits) > maxval:
                raise DecodeError(f"sample {tok.decode()} out of range at "
                                  f"byte {pos}")
            values[i] = int(digits)
    if values.max(initial=0) > maxval:
        raise DecodeError(f"sample exceeds maxval {maxval}")
    img = values.reshape(height, width).astype(np.float64) / maxval
    return img


def encode_pgm(img: np.ndarray) -> bytes:
    """Encode a [0,1] image as binary P5, maxval 255."""
    a = validate_gray(img)
    h, w = a.shape
    raster = np.rint(a * 255.0).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (w, h) + raster.tobytes()


# ---------------------------------------------------------------------------
# Affine transforms (2x3, row-major: out = M[:, :2] @ (x, y) + M[:, 2])

def affine_invert(t: np.ndarray) -> np.ndarray:
    lin = np.asarray(t, dtype=np.float64)[:, :2]
    det = lin[0, 0] * lin[1, 1] - lin[0, 1] * lin[1, 0]
    if abs(det) < 1e-12:
        raise ValueError("singular affine transform")
    inv = np.linalg.inv(lin)
    m = np.empty((2, 3))
    m[:, :2] = inv
    m[:, 2] = -inv @ t[:, 2]
    return m


# ---------------------------------------------------------------------------
# Resampling

def apply_affine(img: np.ndarray, t: np.ndarray, out_dims,
                 fill: float = 0.0) -> np.ndarray:
    """Warp img by t; output pixel x takes the bilinear sample at t^-1(x),
    where a neighbor off the source grid reads fill."""
    inv = affine_invert(t)
    ow, oh = int(out_dims[0]), int(out_dims[1])
    if ow < 1 or oh < 1:
        raise ValueError("output dimensions must be >= 1")
    # scipy maps (row, col) indices, whose pixel centers sit at (r, c)
    # rather than at (x, y) = (c + 0.5, r + 0.5)
    m = inv[::-1, 1::-1]
    offset = m.sum(axis=1) * 0.5 + inv[::-1, 2] - 0.5
    return affine_transform(np.asarray(img, dtype=np.float64), m, offset,
                            output_shape=(oh, ow), order=1,
                            mode="grid-constant", cval=fill, prefilter=False)
