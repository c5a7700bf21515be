"""Edit-region extraction from disagreeing noise predictions.

The edit map compares the head-conditioned guided prediction against the
body-conditioned prediction at the body's inversion latent.  The full
variant keeps only the component of the guided prediction orthogonal to
the body prediction (one global projection over the flattened grids);
the ablation variants use plain differences.  The binary mask is then
normalize -> Gaussian filter -> threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffusion import EmpiricalNoisePredictor, NoiseSchedule, cfg_combine
from .diffusion import _check_predictor, _check_step
from .imaging import gaussian_filter, minmax_normalize, threshold
from .synthgen import Condition, NULL_CONDITION

VARIANTS = ("naive", "no_orth", "full")


class DegenerateReferenceError(ValueError):
    """Raised when the projection reference prediction is identically zero."""


@dataclass(frozen=True)
class IOMaskConfig:
    """Mask-extraction settings; ``RunConfig.mask`` builds them from checked values."""

    tau: float
    sigma: float
    variant: str
    w: float


def orthogonal_component(eps_h: np.ndarray, eps_b: np.ndarray) -> np.ndarray:
    """Remove from eps_h its projection onto the reference eps_b.

    The projection coefficient <eps_b, eps_h> / |eps_b|^2 is a single
    scalar over the fully flattened grids.
    """
    eps_h = np.asarray(eps_h, dtype=np.float64)
    eps_b = np.asarray(eps_b, dtype=np.float64)
    if eps_h.shape != eps_b.shape:
        raise ValueError(f"prediction shapes differ: {eps_h.shape} vs {eps_b.shape}")
    ref = eps_b.ravel()
    denom = ref @ ref
    if denom == 0.0:
        raise DegenerateReferenceError("reference prediction is identically zero")
    coef = (ref @ eps_h.ravel()) / denom
    return eps_h - coef * eps_b


def io_predictions(
    z_t: np.ndarray,
    t,
    cond_head: Condition,
    cond_body: Condition,
    w: float,
    pred: EmpiricalNoisePredictor,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The predictions every variant compares, at the latent z_t of step t.

    Returns the body-conditioned, the null and the CFG-guided
    head-conditioned prediction, each evaluated once.
    """
    eps_body = pred.evaluate(z_t, t, cond_body)
    eps_null = pred.evaluate(z_t, t, NULL_CONDITION)
    eps_head = cfg_combine(eps_null, pred.evaluate(z_t, t, cond_head), w)
    return eps_body, eps_null, eps_head


def variant_map(predictions, variant: str, w: float) -> np.ndarray:
    """One variant's edit map from ``io_predictions``, (H, W).

    It is the channel-mean absolute value of the variant's difference field.
    """
    eps_body, eps_null, eps_head = predictions
    if variant == "full":
        diff = orthogonal_component(eps_head, eps_body)
    elif variant == "no_orth":
        diff = eps_head - eps_body
    elif variant == "naive":  # difference of two guided predictions
        diff = eps_head - cfg_combine(eps_null, eps_body, w)
    else:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return np.abs(diff).mean(axis=2)


def io_map(
    traj: np.ndarray,
    t,
    cond_head: Condition,
    cond_body: Condition,
    cfg: IOMaskConfig,
    sched: NoiseSchedule,
    pred: EmpiricalNoisePredictor,
) -> np.ndarray:
    """Per-pixel edit evidence at the latent traj[t] for the variant of ``cfg``."""
    _check_predictor(sched, pred)
    step = _check_step(t, 1, sched.T, sched)
    predictions = io_predictions(traj[step], step, cond_head, cond_body, cfg.w, pred)
    return variant_map(predictions, cfg.variant, cfg.w)


def build_iomask(edit_map: np.ndarray, cfg: IOMaskConfig) -> np.ndarray:
    """Normalize, blur, and threshold an edit map into a binary mask."""
    return threshold(gaussian_filter(minmax_normalize(edit_map), cfg.sigma), cfg.tau)
