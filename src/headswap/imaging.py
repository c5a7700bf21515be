"""Dense 2-D grids and bit-exact image file writers.

Conventions used across the package:

* images / latents / noise fields: float64 arrays of shape (H, W, C)
* per-pixel scalar fields: float64 arrays of shape (H, W); the blur,
  normalization and threshold also take (..., H, W) stacks of them
* binary masks: uint8 arrays of shape (H, W) with values in {0, 1}

Color files are binary PPM (P6), grayscale files binary PGM (P5), always
with maxval 255 and quantization byte = floor(clip(v, 0, 1) * 255 + 0.5),
so written bytes are reproducible across platforms.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import as_strided

HEAT_ALPHA = 0.6
_HEAT_RED = np.array([1.0, 0.0, 0.0])


def _as_finite_maps(field, stacked: bool = True) -> np.ndarray:
    """A non-empty (H, W) field, or a (..., H, W) stack of them if ``stacked``."""
    arr = np.asarray(field, dtype=np.float64)
    if arr.size == 0 or arr.ndim < 2 or (arr.ndim > 2 and not stacked):
        kind = "2-D array or stack of them" if stacked else "2-D array"
        raise ValueError(f"field must be a non-empty {kind}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("field contains non-finite values")
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


def _reflect_index(size: int, radius: int) -> np.ndarray:
    """The sample behind each position of ``size`` samples reflect-padded by
    ``radius`` on each side, as numpy's ``reflect`` mode pads them."""
    if size == 1:
        return np.zeros(1 + 2 * radius, dtype=np.intp)
    period = 2 * (size - 1)  # reflection about both ends repeats with this period
    index = np.abs(np.arange(-radius, size + radius)) % period
    return np.minimum(index, period - index)


@functools.lru_cache(maxsize=16)
def _blur_plan(sigma: float, height: int, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel and the row and column reflect indices of a sigma blur of
    height x width maps, made once per (sigma, height, width), read-only."""
    kernel = gaussian_kernel_1d(sigma)
    radius = (kernel.size - 1) // 2
    plan = (kernel, _reflect_index(height, radius), _reflect_index(width, radius))
    for array in plan:
        array.setflags(write=False)
    return plan


def _windows(arr: np.ndarray, size: int, axis: int) -> np.ndarray:
    """The read-only windows of ``size`` samples along ``axis``, on a new last
    axis: ``sliding_window_view(arr, size, axis=axis)``, without its checks."""
    shape = arr.shape[:axis] + (arr.shape[axis] - size + 1,) + arr.shape[axis + 1 :] + (size,)
    return as_strided(arr, shape, arr.strides + arr.strides[axis : axis + 1], writeable=False)


def gaussian_filter(field, sigma: float) -> np.ndarray:
    """Blur a scalar field, or each of a (..., H, W) stack, with a truncated, normalized Gaussian.

    The kernel radius is ceil(3*sigma) and the field border is extended by
    reflection (numpy ``reflect``: the edge sample is not duplicated).  The
    kernel sums to one, so constants are preserved exactly and every output
    pixel is a convex combination of input pixels.  A stack's maps are
    blurred each on its own, bit for bit as one at a time.
    """
    arr = _as_finite_maps(field)
    kernel, rows_index, columns_index = _blur_plan(float(sigma), *arr.shape[-2:])
    # np.pad(mode="reflect") of the last two axes, as two gathers: a 32 x 32
    # map's padding took ~10 us instead of ~45 us
    padded = np.take(np.take(arr, rows_index, axis=-2), columns_index, axis=-1)
    rows = _windows(padded, kernel.size, arr.ndim - 2) @ kernel
    return _windows(rows, kernel.size, arr.ndim - 1) @ kernel


def minmax_normalize(field) -> np.ndarray:
    """Affinely map a field, or each of a (..., H, W) stack, onto [0, 1]; a
    constant field maps to all zeros."""
    arr = _as_finite_maps(field)
    lo = arr.min(axis=(-2, -1), keepdims=True)
    span = arr.max(axis=(-2, -1), keepdims=True) - lo
    # two distinct doubles differ by at least the smallest subnormal, so only
    # a constant field's span is raised, and its zeros stay zeros
    return (arr - lo) / np.maximum(span, np.finfo(np.float64).smallest_subnormal)


def threshold(field, tau: float) -> np.ndarray:
    """Binarize a field, or a (..., H, W) stack: mask pixel is 1 iff the field value is >= tau."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    arr = _as_finite_maps(field)
    return (arr >= tau).astype(np.uint8)


def quantize_bytes(values) -> np.ndarray:
    """Clamp to [0, 1] and quantize to uint8 via floor(v * 255 + 0.5)."""
    buf = np.array(values, dtype=np.float64)  # a copy, worked on in place
    np.clip(buf, 0.0, 1.0, out=buf)
    buf *= 255.0
    buf += 0.5
    return np.floor(buf, out=buf).astype(np.uint8)


def encode_image(grid) -> bytes:
    """A finite (H, W, 3) grid as the bytes of a binary PPM (P6, maxval 255)."""
    arr = np.asarray(grid, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ValueError(f"color output requires an (H, W, 3) grid, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("grid contains non-finite values")
    height, width = arr.shape[:2]
    return b"P6\n%d %d\n255\n" % (width, height) + quantize_bytes(arr).tobytes()


def encode_gray(field) -> bytes:
    """An (H, W) field as the bytes of a binary PGM (P5, maxval 255)."""
    arr = _as_finite_maps(field, stacked=False)
    height, width = arr.shape
    return b"P5\n%d %d\n255\n" % (width, height) + quantize_bytes(arr).tobytes()


def _mask_field(mask) -> np.ndarray:
    arr = np.asarray(mask)
    if not ((arr == 0) | (arr == 1)).all():
        raise ValueError("mask values must all be 0 or 1")
    return arr.astype(np.float64)


def encode_mask(mask) -> bytes:
    """A {0, 1} mask as the bytes of a PGM; set pixels map to byte 255."""
    return encode_gray(_mask_field(mask))


def write_files(out_dir, files) -> None:
    """Create out_dir (with its parents) if missing, then write each
    ``(name, bytes)`` of ``files`` into it, in order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, data in files:
        (out_dir / name).write_bytes(data)


# The package creates its files through write_files; these three stay
# because the benchmark's tracer (bench/spans.py) wraps them by name.
def write_image(grid, path) -> None:
    """Write an (H, W, 3) grid as a binary PPM (P6, maxval 255)."""
    Path(path).write_bytes(encode_image(grid))


def write_gray(field, path) -> None:
    """Write an (H, W) field as a binary PGM (P5, maxval 255)."""
    Path(path).write_bytes(encode_gray(field))


def write_mask(mask, path) -> None:
    """Write a {0, 1} mask as a PGM; set pixels map to byte 255."""
    write_gray(_mask_field(mask), path)


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
