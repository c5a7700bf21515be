"""Dense 2-D grids and bit-exact image file writers.

Conventions used across the package:

* images / latents / noise fields: float64 arrays of shape (H, W, C)
* per-pixel scalar fields: float64 arrays of shape (H, W)
* binary masks: uint8 arrays of shape (H, W) with values in {0, 1}

Color files are binary PPM (P6), grayscale files binary PGM (P5), always
with maxval 255 and quantization byte = floor(clip(v, 0, 1) * 255 + 0.5),
so written bytes are reproducible across platforms.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

HEAT_ALPHA = 0.6
_HEAT_RED = np.array([1.0, 0.0, 0.0])


def _as_finite_2d(field, name: str = "field") -> np.ndarray:
    arr = np.asarray(field, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Truncated, unit-sum 1-D Gaussian kernel with radius ceil(3*sigma)."""
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    # below sigma ~ 1e-154 the square overflows to inf, whose weight is exactly 0
    with np.errstate(over="ignore"):
        kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    return kernel / kernel.sum()


def gaussian_filter(field, sigma: float) -> np.ndarray:
    """Blur a scalar field with a truncated, normalized Gaussian.

    The kernel radius is ceil(3*sigma) and the field border is extended by
    reflection (numpy ``reflect``: the edge sample is not duplicated).  The
    kernel sums to one, so constants are preserved exactly and every output
    pixel is a convex combination of input pixels.
    """
    arr = _as_finite_2d(field)
    kernel = gaussian_kernel_1d(sigma)
    radius = (kernel.size - 1) // 2
    padded = np.pad(arr, radius, mode="reflect")
    rows = sliding_window_view(padded, kernel.size, axis=0) @ kernel
    return sliding_window_view(rows, kernel.size, axis=1) @ kernel


def minmax_normalize(field) -> np.ndarray:
    """Affinely map a field onto [0, 1]; a constant field maps to all zeros."""
    arr = _as_finite_2d(field)
    lo = arr.min()
    hi = arr.max()
    if hi == lo:
        return np.zeros_like(arr)
    return (arr - lo) / (hi - lo)


def threshold(field, tau: float) -> np.ndarray:
    """Binarize a field: mask pixel is 1 iff the field value is >= tau."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    arr = _as_finite_2d(field)
    return (arr >= tau).astype(np.uint8)


def quantize_bytes(values) -> np.ndarray:
    """Clamp to [0, 1] and quantize to uint8 via floor(v * 255 + 0.5)."""
    clipped = np.clip(np.asarray(values, dtype=np.float64), 0.0, 1.0)
    return np.floor(clipped * 255.0 + 0.5).astype(np.uint8)


def write_image(grid, path) -> None:
    """Write an (H, W, 3) grid as a binary PPM (P6, maxval 255)."""
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"color output requires an (H, W, 3) grid, got shape {arr.shape}")
    height, width = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (width, height))
        fh.write(quantize_bytes(arr).tobytes())


def write_gray(field, path) -> None:
    """Write an (H, W) field as a binary PGM (P5, maxval 255)."""
    arr = _as_finite_2d(field)
    height, width = arr.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(quantize_bytes(arr).tobytes())


def write_mask(mask, path) -> None:
    """Write a {0, 1} mask as a PGM; set pixels map to byte 255."""
    arr = np.asarray(mask)
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("mask values must all be 0 or 1")
    write_gray(arr.astype(np.float64), path)


def overlay_heatmap(base, field) -> np.ndarray:
    """Blend a [0, 1] field over a color image as a red highlight.

    Output pixel = (1 - 0.6*f) * base + 0.6*f * red, so f = 0 leaves the
    base unchanged and larger field values shade toward pure red.
    """
    base_arr = np.asarray(base, dtype=np.float64)
    field_arr = np.asarray(field, dtype=np.float64)
    if base_arr.ndim != 3 or base_arr.shape[2] != 3:
        raise ValueError(f"base must be (H, W, 3), got shape {base_arr.shape}")
    if field_arr.shape != base_arr.shape[:2]:
        raise ValueError(
            f"field shape {field_arr.shape} does not match base {base_arr.shape[:2]}"
        )
    alpha = HEAT_ALPHA * field_arr[..., None]
    return (1.0 - alpha) * base_arr + alpha * _HEAT_RED
