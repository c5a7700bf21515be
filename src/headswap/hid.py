"""End-to-end head swapping: invert, extract the edit mask, blend-denoise.

Inverted under its own one-image condition, the body image x has the
latents c[t] * x (``diffusion.inversion_coefficients``).  The pipeline
computes the edit mask once at c[t_edit] * x, then denoises under the
head condition while re-imposing c[t - 1] * x outside the mask at every
step.  c[0] is exactly 1, so unmasked output pixels equal the body image
exactly.  Swaps are denoised as a stack in lockstep (``swap_pairs``),
carried as one value per (swap, corpus column class) rather than per
pixel (``blend_denoise``); a single swap is a stack of one.  No stage
takes a schedule: each reads the predictor's, and ``body_inversion``
checks that the config's T is its T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .diffusion import (
    EmpiricalNoisePredictor,
    cfg_combine,
    ddim_sample_step,
    inversion_coefficients,
)
from .iomask import VARIANTS, IOMaskConfig, build_iomask, io_predictions, variant_map
from .synthgen import NULL_CONDITION, AttributeSpec, Condition, composite_spec, render_avatar


@dataclass(frozen=True)
class RunConfig:
    """Every run setting, each checked once, when the config is built.

    The one guidance scale ``w`` drives both denoising and mask extraction.
    """

    T: int = 50
    w: float = 3.0
    tau: float = 0.6
    sigma: float = 2.0
    edit_fraction: float = 0.8
    variant: str = "full"
    seed: int = 0
    pairs: int = 5
    out_dir: Path | None = None

    def __post_init__(self):
        # upper bounds on work: the denoise loop runs up to T steps per swap,
        # and the mask blur pads the map by 3 sigma per side
        if not 2 <= self.T <= 1000:
            raise ValueError(f"T must lie in [2, 1000], got {self.T}")
        if not (math.isfinite(self.w) and self.w >= 0):
            raise ValueError(f"w must be finite and non-negative, got {self.w}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")
        if not 0 < self.sigma <= 100:
            raise ValueError(f"sigma must lie in (0, 100], got {self.sigma}")
        if not (0.0 < self.edit_fraction <= 1.0 and self.edit_start >= 1):
            raise ValueError(
                f"edit_fraction must lie in (0, 1] and round to a step >= 1 at T={self.T}, "
                f"got {self.edit_fraction}"
            )
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.pairs < 1:
            raise ValueError(f"pairs must be >= 1, got {self.pairs}")

    @property
    def edit_start(self) -> int:
        """The inversion step t_edit = round(edit_fraction * T) where editing begins."""
        return round(self.edit_fraction * self.T)

    @property
    def mask(self) -> IOMaskConfig:
        return IOMaskConfig(self.tau, self.sigma, self.variant, self.w)

    def swap_config(self, variant: str) -> RunConfig:
        """A checked copy of this config with another mask variant."""
        return replace(self, variant=variant)


@dataclass(eq=False)
class SwapResult:
    """Everything a swap produces: output image, mask, map."""

    output: np.ndarray
    mask: np.ndarray
    io_map: np.ndarray
    degenerate_mask: bool


def body_condition(body: AttributeSpec) -> Condition:
    """Fully constrained condition matching exactly the body's attributes."""
    return Condition.from_mapping(vars(body))


def compose_head_condition(head: AttributeSpec, body: AttributeSpec) -> Condition:
    """The ideal swap's attributes (``composite_spec``) with clothing left free.

    The swapped head must carry the head's skin tone, hair style, and hair
    color while adopting the body's tilt; nothing about clothing is known
    to the head condition.
    """
    attrs = dict(vars(composite_spec(body, head)))
    del attrs["clothing_color"]
    return Condition.from_mapping(attrs)


def body_inversion(cfg: RunConfig, pred: EmpiricalNoisePredictor):
    """Inversion coefficients c under the predictor's schedule, whose T cfg must share."""
    if cfg.T != pred.schedule.T:
        raise ValueError(f"config T={cfg.T} does not match schedule T={pred.schedule.T}")
    return inversion_coefficients(pred.schedule)


def extract_mask(
    z_edit: np.ndarray,
    cond_head: Condition,
    cond_body: Condition,
    cfg: RunConfig,
    variants: Sequence[str],
    pred: EmpiricalNoisePredictor,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each variant's edit map at the body's latent z_edit of step cfg.edit_start, and its mask.

    The pair's three predictions are evaluated once and shared by the variants.
    """
    predictions = io_predictions(z_edit, cfg.edit_start, cond_head, cond_body, cfg.w, pred)
    maps = [variant_map(predictions, variant, cfg.w) for variant in variants]
    return [(edit_map, build_iomask(edit_map, cfg.mask)) for edit_map in maps]


def blend_denoise(
    bodies: Sequence[np.ndarray],
    masks: Sequence[np.ndarray],
    conds: Sequence[Condition],
    coefficients: np.ndarray,
    cfg: RunConfig,
    pred: EmpiricalNoisePredictor,
) -> np.ndarray:
    """Denoise a stack of swaps in lockstep from t_edit to 0: (B, H, W, C).

    Row b starts from c[t_edit] * bodies[b], is guided towards conds[b],
    and has its latent c[t - 1] * bodies[b] re-imposed outside its mask
    after every step.  The stack is carried on the corpus's column classes
    (``ColumnClasses``): a body is constant on each class, so every masked
    position of a class starts from the same value and receives the same
    posterior mean at every step, and stays one value per (row, class).
    Each step forms the rows' class sums from those values and the
    closed-form outside values, takes the null condition's posterior mean
    for the whole stack and each head condition's for its run of adjacent
    rows (``class_posterior_mean``), and applies CFG and the DDIM step to
    the (B, G) values.  The pixels are gathered once at the end, and the
    unmasked ones are the bodies themselves, bit for bit (c[0] is 1).
    Raises ValueError for a body that is not constant on the classes.
    """
    sched, classes = pred.schedule, pred.column_classes
    x = np.stack(bodies)
    x_flat = x.reshape(len(x), -1)
    x_g = x_flat[:, classes.first]
    if not np.array_equal(x_g[:, classes.inv], x_flat):
        raise ValueError("every body must be constant on the corpus's column classes")
    inside = np.broadcast_to(np.stack(masks).astype(bool)[..., None], x.shape).reshape(len(x), -1)
    n_in = classes.sums(inside.astype(np.int64))
    n_out = classes.counts - n_in
    z = coefficients[cfg.edit_start] * x_g
    starts = [b for b in range(len(conds)) if b == 0 or conds[b] != conds[b - 1]]
    runs = [(slice(a, b), conds[a]) for a, b in zip(starts, starts[1:] + [len(conds)])]
    x0_cond = np.empty_like(z)
    for t in range(cfg.edit_start, 0, -1):
        sums = n_in * z + n_out * (coefficients[t] * x_g)
        for rows, cond in runs:
            x0_cond[rows] = pred.class_posterior_mean(sums[rows], t, cond)
        x0_null = pred.class_posterior_mean(sums, t, NULL_CONDITION)
        # the noise of each masked value, rounded as ``evaluate`` rounds it
        scale, spread = -math.sqrt(sched.alpha_bar[t]), math.sqrt(1.0 - sched.alpha_bar[t])
        guided = cfg_combine((x0_null * scale + z) / spread, (x0_cond * scale + z) / spread, cfg.w)
        z = ddim_sample_step(z, guided, t, sched)
    return np.where(inside, z[:, classes.inv], x_flat).reshape(x.shape)


def swap_pairs(
    pairs: Sequence[tuple[AttributeSpec, AttributeSpec]],
    cfg: RunConfig,
    variants: Sequence[str],
    pred: EmpiricalNoisePredictor,
) -> list[list[SwapResult]]:
    """Swap every (body, head) pair under every mask variant, denoised in lockstep.

    The inversion coefficients are computed once (``body_inversion``), and
    each pair's mask predictions once, shared by its variants
    (``extract_mask``).  Then one ``blend_denoise`` call denoises all pairs
    x variants together under the head conditions.  Returns one list of
    results per pair, in the order of ``variants``.  An all-empty mask is
    reported via ``degenerate_mask``, not an error: that output equals the
    body image bit-exactly.
    """
    coefficients = body_inversion(cfg, pred)
    bodies, masks, maps, conds = [], [], [], []
    for body, head in pairs:
        image = render_avatar(body).image
        z_edit = coefficients[cfg.edit_start] * image
        cond_head, cond_body = compose_head_condition(head, body), body_condition(body)
        for edit_map, mask in extract_mask(z_edit, cond_head, cond_body, cfg, variants, pred):
            bodies.append(image)
            masks.append(mask)
            maps.append(edit_map)
            conds.append(cond_head)
    outputs = blend_denoise(bodies, masks, conds, coefficients, cfg, pred)
    results = [
        SwapResult(output, mask, edit_map, degenerate_mask=not mask.any())
        for output, mask, edit_map in zip(outputs, masks, maps)
    ]
    return [results[i : i + len(variants)] for i in range(0, len(results), len(variants))]


def run_headswap(
    body: AttributeSpec,
    head: AttributeSpec,
    cfg: RunConfig,
    pred: EmpiricalNoisePredictor,
) -> SwapResult:
    """Swap the head of the body avatar for the head avatar's: a batch of one."""
    return swap_pairs([(body, head)], cfg, (cfg.variant,), pred)[0][0]
