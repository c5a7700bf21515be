"""The benchmark's own arithmetic and output checks.

Nothing here calls headswap's metric or file code: images are parsed from
the written bytes, IoU is counted here, and the inversion oracle derives
alpha_bar from the cosine formula rather than from ``make_schedule``.
"""

from __future__ import annotations

import math
import re
import statistics
from pathlib import Path

import numpy as np

_PNM_HEADER = re.compile(rb"(P[56])\s+(\d+)\s+(\d+)\s+255\s")
COSINE_OFFSET = 0.008
ALPHA_BAR_FLOOR = 1e-4
INVERSION_TOLERANCE = 1e-12


def read_pnm(path) -> np.ndarray:
    """Raw bytes of a binary P5/P6 file with maxval 255, as (H, W) or (H, W, 3) uint8."""
    data = Path(path).read_bytes()
    match = _PNM_HEADER.match(data)
    if match is None:
        raise ValueError(f"{path}: not a P5/P6 file with maxval 255")
    channels = 3 if match.group(1) == b"P6" else 1
    width, height = int(match.group(2)), int(match.group(3))
    raster = np.frombuffer(data, dtype=np.uint8, offset=match.end())
    if raster.size != width * height * channels:
        raise ValueError(f"{path}: raster has {raster.size} bytes, expected {width * height * channels}")
    return raster.reshape((height, width, channels) if channels == 3 else (height, width))


def mask_from_pgm(pgm: np.ndarray) -> np.ndarray:
    """A written mask as booleans; any byte other than 0 or 255 is an error."""
    if not np.isin(pgm, (0, 255)).all():
        raise ValueError("mask file holds bytes other than 0 and 255")
    return pgm == 255


def iou(a, b) -> float:
    """Intersection over union of two boolean masks; 1.0 when both are empty."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    union = int((a | b).sum())
    return 1.0 if union == 0 else int((a & b).sum()) / union


def outside_mask_mismatches(output: np.ndarray, body: np.ndarray, mask: np.ndarray) -> int:
    """Pixels outside the mask whose output bytes differ from the body's."""
    differs = (output != body).any(axis=2)
    return int((differs & ~mask).sum())


def cosine_alpha_bar(T: int) -> list[float]:
    """alpha_bar[0..T] of the cosine schedule, normalized to 1 at t = 0 and floored."""
    signal = [
        math.cos((t / T + COSINE_OFFSET) / (1.0 + COSINE_OFFSET) * math.pi / 2.0) ** 2
        for t in range(T + 1)
    ]
    return [min(max(s / signal[0], ALPHA_BAR_FLOOR), 1.0) for s in signal]


def inversion_coefficients(alpha_bar) -> list[float]:
    """c_t with traj[t] = c_t * x for DDIM inversion under a one-image condition.

    With a single matching image x the predicted noise at z_t = c_t x is
    (c_t - sqrt(ab_t)) x / sqrt(1 - ab_t), so every latent stays a multiple
    of x: c_t = sqrt(ab_t) + k sqrt(1 - ab_t), k = (1 - sqrt(ab_1)) / sqrt(1 - ab_1).
    """
    k = (1.0 - math.sqrt(alpha_bar[1])) / math.sqrt(1.0 - alpha_bar[1])
    return [math.sqrt(ab) + k * math.sqrt(1.0 - ab) for ab in alpha_bar]


def inversion_deviation(traj: np.ndarray, image: np.ndarray, coefficients) -> float:
    """Largest |traj[t] - c_t x| over every step and pixel."""
    expected = np.asarray(coefficients)[:, None, None, None] * image[None]
    return float(np.abs(traj - expected).max())


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
