"""Run-length instance masks and convex polygon rasterization."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import Ints


@dataclass(frozen=True)
class Mask:
    """Run-length encoding of a row-major bitmap.

    Runs alternate background/foreground starting with background, so a
    bitmap whose first pixel is set encodes a leading zero-length run.
    The constructor raises ValueError unless the runs are non-negative and
    sum to width * height, so a mask read from disk fails at load.
    """

    rle: Ints
    width: int
    height: int

    def __post_init__(self):
        if min(self.rle, default=0) < 0:
            raise ValueError("negative run length")
        if sum(self.rle) != self.width * self.height:
            raise ValueError(
                f"run lengths sum to {sum(self.rle)}, expected {self.width * self.height}"
            )


# Caches nothing: a decoded bitmap is rarely asked for twice, and keeping
# them costs about 360 KB each at 800x450.  The wrapper stays because its
# cache_info().misses counts the decodes.
@lru_cache(maxsize=0)
def _decode_cached(mask: Mask) -> np.ndarray:
    runs = np.asarray(mask.rle, dtype=np.int64)
    values = (np.arange(len(runs)) % 2).astype(bool)
    flat = np.repeat(values, runs)
    out = flat.reshape(mask.height, mask.width)
    out.flags.writeable = False
    return out


def decode_mask(mask: Mask) -> np.ndarray:
    """Decode to a read-only (height, width) bool bitmap."""
    return _decode_cached(mask)


def mask_contains(mask: Mask, pixels: np.ndarray) -> np.ndarray:
    """Foreground flags of row-major pixel indices, read from the runs.

    Pixel ``p`` lies in run ``k`` when ``k`` run ends are at or below it;
    runs alternate from background, so odd ``k`` is foreground.  No bitmap
    is decoded.  Every index must lie in ``[0, width * height)``.
    """
    return np.searchsorted(np.cumsum(mask.rle), pixels, side="right") % 2 == 1


def encode_mask(bitmap: np.ndarray) -> Mask:
    """Encode a (height, width) bool bitmap row-major, background first."""
    bmp = np.asarray(bitmap, dtype=bool)
    h, w = bmp.shape
    flat = bmp.reshape(-1)
    if flat.size == 0:
        return Mask((), w, h)
    boundaries = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    edges = np.concatenate(([0], boundaries, [flat.size]))
    runs = np.diff(edges).tolist()
    if flat[0]:
        runs = [0] + runs
    return Mask(tuple(int(r) for r in runs), w, h)


def rasterize_convex_polygon(vertices, width: int, height: int) -> np.ndarray:
    """Rasterize a convex polygon: a pixel is set iff its center is inside.

    Vertices are continuous pixel coordinates in either winding order.
    """
    v = np.asarray(vertices, dtype=float).reshape(-1, 2)
    out = np.zeros((height, width), dtype=bool)
    if len(v) < 3:
        return out
    y_lo = max(0, math.floor(v[:, 1].min() - 0.5))
    y_hi = min(height - 1, math.ceil(v[:, 1].max()))
    n = len(v)
    for r in range(y_lo, y_hi + 1):
        y = r + 0.5
        xs: list[float] = []
        for i in range(n):
            p, q = v[i], v[(i + 1) % n]
            if p[1] == q[1]:
                if p[1] == y:
                    xs.extend((p[0], q[0]))
                continue
            if (p[1] - y) * (q[1] - y) <= 0:
                xs.append(p[0] + (y - p[1]) * (q[0] - p[0]) / (q[1] - p[1]))
        if len(xs) < 2:
            continue
        x_lo, x_hi = min(xs), max(xs)
        c0 = max(0, math.ceil(x_lo - 0.5))
        c1 = min(width - 1, math.floor(x_hi - 0.5))
        if c1 >= c0:
            out[r, c0 : c1 + 1] = True
    return out
