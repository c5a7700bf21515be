"""Edit-region extraction from disagreeing noise predictions.

The edit map compares the head-conditioned guided prediction against the
body-conditioned prediction at the body's inversion latent.  The full
variant keeps only the component of the guided prediction orthogonal to
the body prediction (one global projection over the flattened grids);
the ablation variants use plain differences, formed on the corpus's
column-class values and gathered to pixels once.  The binary mask is then
normalize -> Gaussian filter -> threshold.  Every stage takes a stack of
pairs at once, each pair's bits those of a stack of one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from .diffusion import EmpiricalNoisePredictor, NoiseSchedule, cfg_combine, implied_noise
from .diffusion import _check_predictor, _check_step
from .imaging import gaussian_filter, minmax_normalize, threshold
from .synthgen import Condition, NULL_CONDITION

if TYPE_CHECKING:
    from .hid import RunConfig

VARIANTS = ("naive", "no_orth", "full")


class DegenerateReferenceError(ValueError):
    """Raised when the projection reference prediction is identically zero."""


def orthogonal_component(eps_h: np.ndarray, eps_b: np.ndarray) -> np.ndarray:
    """Remove from eps_h its projection onto the reference eps_b.

    The projection coefficient <eps_b, eps_h> / |eps_b|^2 is a single
    scalar over the fully flattened (H, W, C) grids, one per grid of a
    (..., H, W, C) stack.
    """
    eps_h = np.asarray(eps_h, dtype=np.float64)
    eps_b = np.asarray(eps_b, dtype=np.float64)
    if eps_h.shape != eps_b.shape:
        raise ValueError(f"prediction shapes differ: {eps_h.shape} vs {eps_b.shape}")
    # each grid as a (1, D) row and a (D, 1) column: one dot product per grid
    ref = eps_b.reshape(eps_b.shape[:-3] + (1, -1))
    column = ref.swapaxes(-1, -2)
    denom = ref @ column
    if (denom == 0.0).any():
        raise DegenerateReferenceError("reference prediction is identically zero")
    coef = (eps_h.reshape(ref.shape) @ column) / denom
    return eps_h - coef[..., None] * eps_b


def edit_maps(
    z_t: np.ndarray,
    t,
    conds_head: Sequence[Condition],
    conds_body: Sequence[Condition],
    variants: Sequence[str],
    w: float,
    pred: EmpiricalNoisePredictor,
) -> np.ndarray:
    """Each pair's edit map per variant, (P, V, H, W), at latents z_t (P, H, W, C) of step t.

    Latent p compares ``conds_head[p]`` with ``conds_body[p]``.  Like the
    denoise, it works on class values: the latents' class sums feed the
    body, null and head ``posterior_plan``s, and the implied noises, CFG and
    the plain differences act per class.  Only what a map needs as pixels is
    gathered: the ``no_orth`` or ``naive`` difference, or ``full``'s two
    predictions, whose projection's dot products run over pixels.  Raises
    ValueError for an unknown variant or a latent that is not constant on
    the column classes, as c[t_edit] x is.
    """
    sched, classes = pred.schedule, pred.column_classes
    ab = float(sched.alpha_bar[_check_step(t, 1, sched.T, sched)])
    z_t = np.asarray(z_t, dtype=np.float64)
    if z_t.shape[1:] != pred.grid_shape or not len(z_t) == len(conds_head) == len(conds_body):
        raise ValueError(f"{len(conds_head)}, {len(conds_body)} conditions for latents {z_t.shape}")
    z = z_t.reshape(len(z_t), -1)
    z_g = z.take(classes.first, axis=1)
    if not np.array_equal(z_g.take(classes.inv, axis=1), z):
        raise ValueError("every latent must be constant on the corpus's column classes")
    sums = classes.sums(z)
    eps_body, eps_null, eps_head = (
        implied_noise(pred.posterior_plan(conds)(sums, ab), z_g, ab)
        for conds in (conds_body, [NULL_CONDITION] * len(z), conds_head)
    )
    eps_head = cfg_combine(eps_null, eps_head, w)

    def pixels(eps):
        # ``take`` gathers C-ordered, so the projection's dot products keep their bits
        return eps.take(classes.inv, axis=1).reshape(z_t.shape)

    maps = np.empty((len(z_t), len(variants)) + z_t.shape[1:3])
    for v, variant in enumerate(variants):
        if variant == "full":
            diff = orthogonal_component(pixels(eps_head), pixels(eps_body))
        elif variant == "no_orth":
            diff = pixels(eps_head - eps_body)
        elif variant == "naive":  # difference of two guided predictions
            diff = pixels(eps_head - cfg_combine(eps_null, eps_body, w))
        else:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        maps[:, v] = np.abs(diff).mean(axis=-1)
    return maps


def io_map(
    traj: np.ndarray,
    t,
    cond_head: Condition,
    cond_body: Condition,
    cfg: RunConfig,
    sched: NoiseSchedule,
    pred: EmpiricalNoisePredictor,
) -> np.ndarray:
    """Per-pixel edit evidence at the latent traj[t] for the variant of ``cfg``: a stack of one."""
    _check_predictor(sched, pred)
    step = _check_step(t, 1, sched.T, sched)
    maps = edit_maps(traj[step][None], step, [cond_head], [cond_body], (cfg.variant,), cfg.w, pred)
    return maps[0, 0]


def build_iomasks(maps: np.ndarray, sigma: float, tau: float) -> np.ndarray:
    """Normalize, blur by sigma, and threshold at tau each map of a (..., H, W) stack."""
    return threshold(gaussian_filter(minmax_normalize(maps), sigma), tau)


def build_iomask(edit_map: np.ndarray, cfg: RunConfig) -> np.ndarray:
    """One edit map's binary mask, (H, W): ``build_iomasks`` for one map, the
    entry that the benchmark's tracer counts as one mask per call."""
    return build_iomasks(edit_map, cfg.sigma, cfg.tau)
