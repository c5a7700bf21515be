"""Independent reference implementations used to pin expected test values.

These deliberately avoid the library's computational paths: the blur
references are a direct dense 2-D convolution over an explicitly padded
array and, to the bit, ``np.pad`` and two ``sliding_window_view`` passes
one map at a time (``sliding_window_blur``), the denoiser references
evaluate naive (unshifted) exponentials in 50-digit arithmetic or the
full pixel-space distances one latent at a time
(``pixel_posterior_weights``), the column-class reference keys a
dict by each column's bytes (``byte_key_classes``) and rebuilds a
predictor's corpus one image gather at a time (``class_images``), and the
blended-denoise reference steps one latent at a time with the
single-latent predictor, as the inversion reference (``stepped_inversion``)
does with one ``evaluate`` call per step.
``files_identical`` compares written artifacts byte for byte, and
``read_pnm`` reads a written P5/P6 file's raster bytes back.  The avatar
reference (``paint_avatar``) paints one avatar's colours layer by layer
from its attributes, as the renderer did before it gathered from shared
layer maps, and keeps the painted image as a render of its own pixels.
``pixel_predictor`` builds a predictor over toy pixel images the same way,
each image its own palette through an identity index map.
"""

import math
from pathlib import Path

import mpmath
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from headswap.diffusion import (
    EmpiricalNoisePredictor,
    cfg_combine,
    ddim_invert_step,
    ddim_sample_step,
)
from headswap import synthgen
from headswap.synthgen import NULL_CONDITION, AttributeSpec, AvatarRender, Condition


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


def sliding_window_blur(field: np.ndarray, sigma: float) -> np.ndarray:
    """The separable blur of each (H, W) map of a (..., H, W) stack on its
    own: ``np.pad`` reflect, then a row and a column pass, each a matmul of
    the kernel over ``sliding_window_view`` windows."""
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (offsets / sigma) ** 2)
    kernel /= kernel.sum()
    out = np.empty(field.shape)
    for index in np.ndindex(field.shape[:-2]):
        padded = np.pad(field[index], radius, mode="reflect")
        rows = sliding_window_view(padded, kernel.size, axis=0) @ kernel
        out[index] = sliding_window_view(rows, kernel.size, axis=1) @ kernel
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


def pixel_posterior_weights(images: np.ndarray, z: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Posterior weights of one latent over the images, from full pixel distances."""
    flat = images.reshape(len(images), -1)
    distances = ((z.ravel() - math.sqrt(alpha_bar) * flat) ** 2).sum(axis=1)
    logits = -distances / (2.0 * (1.0 - alpha_bar))
    weights = np.exp(logits - logits.max())
    weights /= weights.sum()
    return weights


def pixel_posterior_eps(images: np.ndarray, z_t: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Posterior-mean noise estimate for a stack of latents from full pixel distances."""
    flat = images.reshape(len(images), -1)
    rows = []
    for z in z_t.reshape(len(z_t), -1):
        x0 = (pixel_posterior_weights(images, z, alpha_bar)[:, None] * flat).sum(axis=0)
        rows.append((z - math.sqrt(alpha_bar) * x0) / math.sqrt(1.0 - alpha_bar))
    return np.stack(rows).reshape(z_t.shape)


def condition_match(cond: Condition, attrs: AttributeSpec) -> bool:
    """True iff every constrained attribute equals the given value."""
    return all(getattr(attrs, name) == value for name, value in cond.constraints)


def byte_key_classes(flat: np.ndarray) -> dict:
    """The six ``ColumnClasses`` fields of a (N, D) corpus, from a dict keyed
    by each column's bytes."""
    groups: dict[bytes, int] = {}
    inv = np.array([groups.setdefault(col.tobytes(), len(groups)) for col in flat.T])
    first = np.unique(inv, return_index=True)[1]
    counts = np.bincount(inv)
    return {
        "table": np.ascontiguousarray(flat[:, first].T),
        "inv": inv,
        "first": first,
        "order": np.argsort(inv, kind="stable"),
        "starts": np.cumsum(counts) - counts,
        "counts": counts,
    }


def class_images(pred) -> np.ndarray:
    """A predictor's corpus (N, H, W, C) from its column classes, image i
    gathered as ``table[:, i][inv]``."""
    classes = pred.column_classes
    images = [classes.table[:, i][classes.inv] for i in range(len(pred))]
    return np.stack(images).reshape((len(pred),) + pred.grid_shape)


def stepped_inversion(image, cond, sched, pred) -> np.ndarray:
    """Every latent (T+1, H, W, C) of the DDIM inversion of ``image`` under
    ``cond``, one ``evaluate`` call per step, the first at step 1."""
    z = np.asarray(image, dtype=np.float64)
    latents = [z]
    for t in range(sched.T):
        z = ddim_invert_step(z, pred.evaluate(z, max(t, 1), cond), t, sched)
        latents.append(z)
    return np.stack(latents)


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


def paint_avatar(attrs: AttributeSpec) -> AvatarRender:
    """One avatar painted in place: background, clothing dots, hair, disc, brows."""
    g = synthgen
    yy, xx = np.ogrid[: g.SIZE, : g.SIZE]
    cy = g.HEAD_CY
    cx = g.HEAD_CX + g.TILT_STEP * attrs.head_tilt

    image = np.empty((g.SIZE, g.SIZE, 3), dtype=np.float64)
    image[:] = g.BACKGROUND
    rows = (g.TORSO_TOP <= yy) & (yy <= g.TORSO_BOTTOM)
    cols = (g.TORSO_LEFT <= xx) & (xx <= g.TORSO_RIGHT)
    image[rows & cols & ((yy + xx) % 2 == 0)] = g.CLOTHING_PALETTE[attrs.clothing_color]

    d2 = (yy - cy) ** 2 + (xx - cx) ** 2
    disc = d2 <= g.HEAD_RADIUS**2

    hair = np.zeros((g.SIZE, g.SIZE), dtype=bool)
    if attrs.hair_style != g.BALD:
        hair |= (d2 > g.HEAD_RADIUS**2) & (d2 <= g.HAIR_OUTER_RADIUS**2) & (yy <= cy)
    if attrs.hair_style == g.LONG:
        span = np.abs(xx - cx)
        hair |= (
            (span >= g.SIDE_HAIR_INNER)
            & (span <= g.SIDE_HAIR_OUTER)
            & (yy > cy)
            & (yy <= g.SIDE_HAIR_BOTTOM)
        )
    image[hair] = g.HAIR_PALETTE[attrs.hair_color]

    image[disc] = g.SKIN_PALETTE[attrs.skin_tone]
    for dy, dx in g.BROW_OFFSETS:
        image[cy + dy, cx + dx] = g.HAIR_PALETTE[attrs.hair_color]

    # each pixel its own palette row, through an identity index map, so the
    # render's image is the painted one bit for bit
    return AvatarRender(
        palette=image.reshape(-1, 3),
        layers=np.arange(g.SIZE * g.SIZE).reshape(g.SIZE, g.SIZE),
        head_mask=disc.astype(np.uint8),
        hair_mask=hair.astype(np.uint8),
        attrs=attrs,
    )


def pixel_predictor(images, attrs, sched) -> EmpiricalNoisePredictor:
    """A predictor over N pixel images (H, W, C): each image is its own
    palette of H * W colours, read through one identity index map."""
    images = np.asarray(images, dtype=np.float64)
    count, height, width, channels = images.shape
    pixels = np.arange(height * width).reshape(height, width)
    maps = np.broadcast_to(pixels, (count, height, width))
    return EmpiricalNoisePredictor(images.reshape(count, -1, channels), maps, attrs, sched)


def read_pnm(path) -> np.ndarray:
    """The uint8 raster of a P5 (H, W) or P6 (H, W, 3) file in the writers' header layout."""
    data = Path(path).read_bytes()
    magic, width, height = data.split(maxsplit=3)[:3]
    channels = {b"P5": (), b"P6": (3,)}[magic]
    header = b"%s\n%s %s\n255\n" % (magic, width, height)
    assert data.startswith(header), data[:20]
    raster = np.frombuffer(data, dtype=np.uint8, offset=len(header))
    return raster.reshape((int(height), int(width)) + channels)


def files_identical(path_a, path_b) -> bool:
    """Byte-level comparison for determinism checks."""
    return Path(path_a).read_bytes() == Path(path_b).read_bytes()
