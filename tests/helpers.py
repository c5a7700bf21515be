"""Independent reference implementations used to pin expected test values.

These deliberately avoid the library's computational paths: the blur
reference is a direct dense 2-D convolution over an explicitly padded
array, the denoiser references evaluate naive (unshifted) exponentials in
50-digit arithmetic or the full pixel-space distances one latent at a
time, and the blended-denoise reference steps one latent at a time with
the single-latent predictor.  ``files_identical`` compares
written artifacts byte for byte.
"""

import math
from pathlib import Path

import mpmath
import numpy as np

from headswap.diffusion import cfg_combine, ddim_sample_step
from headswap.synthgen import NULL_CONDITION


def dense_gaussian_reference(field: np.ndarray, sigma: float) -> np.ndarray:
    """Direct O(n^2 k^2) convolution with a jointly normalized 2-D kernel."""
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=float)
    kernel_1d = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel = np.outer(kernel_1d, kernel_1d)
    kernel /= kernel.sum()
    padded = np.pad(field, radius, mode="reflect")
    height, width = field.shape
    out = np.zeros_like(field, dtype=float)
    size = 2 * radius + 1
    for i in range(height):
        for j in range(width):
            window = padded[i : i + size, j : j + size]
            out[i, j] = float((kernel * window).sum())
    return out


def mp_posterior_eps(images: np.ndarray, z_t: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Posterior-mean noise estimate with naive exponentials at 50 digits."""
    with mpmath.workdps(50):
        scale = mpmath.sqrt(alpha_bar)
        variance = mpmath.mpf(1) - alpha_bar
        flat = [img.ravel() for img in images]
        z = z_t.ravel()
        raw = []
        for x in flat:
            d2 = float(((z - float(scale) * x) ** 2).sum())
            raw.append(mpmath.exp(-mpmath.mpf(d2) / (2 * variance)))
        total = mpmath.fsum(raw)
        weights = [r / total for r in raw]
        x0 = np.zeros_like(z)
        for w, x in zip(weights, flat):
            x0 += float(w) * x
        eps = (z - float(scale) * x0) / float(mpmath.sqrt(variance))
    return eps.reshape(z_t.shape)


def pixel_posterior_eps(images: np.ndarray, z_t: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Posterior-mean noise estimate for a stack of latents from full pixel distances."""
    flat = images.reshape(len(images), -1)
    scale = math.sqrt(alpha_bar)
    variance = 1.0 - alpha_bar
    rows = []
    for z in z_t.reshape(len(z_t), -1):
        logits = -((z - scale * flat) ** 2).sum(axis=1) / (2.0 * variance)
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        x0 = (weights[:, None] * flat).sum(axis=0)
        rows.append((z - scale * x0) / math.sqrt(variance))
    return np.stack(rows).reshape(z_t.shape)


def per_latent_blend_denoise(traj, mask, cond_head, cfg, sched, pred) -> np.ndarray:
    """One swap's blended denoise, one latent and two evaluate calls per step."""
    inside = mask.astype(bool)[..., None]
    z = traj[cfg.edit_start]
    for t in range(cfg.edit_start, 0, -1):
        guided = cfg_combine(
            pred.evaluate(z, t, NULL_CONDITION), pred.evaluate(z, t, cond_head), cfg.w
        )
        z = np.where(inside, ddim_sample_step(z, guided, t, sched), traj[t - 1])
    return z


def files_identical(path_a, path_b) -> bool:
    """Byte-level comparison for determinism checks."""
    return Path(path_a).read_bytes() == Path(path_b).read_bytes()
