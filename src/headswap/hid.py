"""End-to-end head swapping: invert, extract the edit mask, blend-denoise.

Inverted under its own one-image condition, the body image x has the
latents c[t] * x (``diffusion.inversion_coefficients``).  The pipeline
computes the edit mask once at c[t_edit] * x, then denoises under the
head condition while re-imposing c[t - 1] * x outside the mask at every
step.  c[0] is exactly 1, so unmasked output pixels equal the body image
exactly.  Swaps go through in chunks of CHUNK_PAIRS pairs
(``swap_pairs``): a chunk's masks come from one stacked pass
(``extract_masks``), and its swaps are denoised as a stack in lockstep,
carried as one value per (swap, corpus column class) rather than per
pixel (``blend_denoise``); a single swap is a stack of one.  No stage
takes a schedule: each reads the predictor's, and ``body_inversion``
checks that the config's T is its T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import groupby
from pathlib import Path
from typing import Sequence

import numpy as np

from .diffusion import (
    EmpiricalNoisePredictor,
    _stacked_posterior_mean,
    cfg_combine,
    ddim_sample_step,
    inversion_coefficients,
)
from .iomask import VARIANTS, IOMaskConfig, build_iomasks, io_predictions, variant_map
from .synthgen import NULL_CONDITION, AttributeSpec, Condition, composite_spec, render_avatar

# The most pairs ``swap_pairs`` denoises in lockstep (times its variants:
# the stack height), and the most pairs ``experiment.run_experiment`` lets
# wait for its image writer.  The denoise holds one value per (row, column
# class), so stack temporaries do not bound the chunk, but larger chunks
# bought no measured speed on a 2-core machine, and 30 pairs raised the
# benchmark's ablate peak RSS from 62 to 67 MB.  A fixed height also keeps
# the null posterior's GEMM small enough that OpenBLAS does not split it
# across threads, whose count would otherwise move output bits.
CHUNK_PAIRS = 4


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


def extract_masks(
    z_edit: np.ndarray,
    conds_head: Sequence[Condition],
    conds_body: Sequence[Condition],
    cfg: RunConfig,
    variants: Sequence[str],
    pred: EmpiricalNoisePredictor,
) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's edit map and mask per variant, (P, V, H, W) each, at the
    bodies' latents z_edit (P, H, W, C) of step cfg.edit_start.

    Pair p compares ``conds_head[p]`` with ``conds_body[p]``.  The stack's
    predictions are evaluated once (``io_predictions``) and shared by the
    variants, and its maps are made masks as one stack (``build_iomasks``).
    """
    predictions = io_predictions(z_edit, cfg.edit_start, conds_head, conds_body, cfg.w, pred)
    maps = np.stack([variant_map(predictions, variant, cfg.w) for variant in variants], axis=1)
    return maps, build_iomasks(maps, cfg.mask)


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
    rows, and applies CFG and the DDIM step to the (B, G) values.  The
    posterior operands are planned once per call (``posterior_plan``: one
    group for all runs of one length and subset size, so one when every
    pair brings one run), and each step runs the kernel on them.  The
    pixels are gathered once at the end, and the unmasked ones are the
    bodies themselves, bit for bit (c[0] is 1).
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
    # runs of adjacent rows sharing a condition, and each group's runs as (R, M) row indices
    runs = [list(run) for _, run in groupby(range(len(conds)), key=conds.__getitem__)]
    plan = pred.posterior_plan([conds[run[0]] for run in runs], [len(run) for run in runs])
    heads = [(np.array([runs[r] for r in group]), columns, norms) for group, columns, norms in plan]
    [(_, null_columns, null_norms)] = pred.posterior_plan([NULL_CONDITION], [len(z)])
    x0_cond = np.empty_like(z)
    for t in range(cfg.edit_start, 0, -1):
        ab = float(sched.alpha_bar[t])
        sums = n_in * z + n_out * (coefficients[t] * x_g)
        for rows, columns, norms in heads:
            x0_cond[rows] = _stacked_posterior_mean(sums[rows], columns, norms, ab)
        x0_null = _stacked_posterior_mean(sums[None], null_columns, null_norms, ab)[0]
        # the noise of each masked value, rounded as ``evaluate`` rounds it
        scale, spread = -math.sqrt(ab), math.sqrt(1.0 - ab)
        guided = cfg_combine((x0_null * scale + z) / spread, (x0_cond * scale + z) / spread, cfg.w)
        z = ddim_sample_step(z, guided, t, sched)
    return np.where(inside, z[:, classes.inv], x_flat).reshape(x.shape)


def swap_pairs(
    pairs: Sequence[tuple[AttributeSpec, AttributeSpec]],
    cfg: RunConfig,
    variants: Sequence[str],
    pred: EmpiricalNoisePredictor,
) -> list[list[SwapResult]]:
    """Swap every (body, head) pair under every mask variant, CHUNK_PAIRS pairs at a time.

    The inversion coefficients are computed once (``body_inversion``).  Per
    chunk, the masks of every pair and variant come from one stacked pass
    (``extract_masks``), and one ``blend_denoise`` call denoises the pairs
    x variants together in lockstep under the head conditions.  Returns one
    list of results per pair, in the order of ``variants``.  An all-empty
    mask is reported via ``degenerate_mask``, not an error: that output
    equals the body image bit-exactly.
    """
    coefficients = body_inversion(cfg, pred)
    results = []
    for first in range(0, len(pairs), CHUNK_PAIRS):
        chunk = pairs[first : first + CHUNK_PAIRS]
        images = np.stack([render_avatar(body).image for body, _ in chunk])
        conds = [compose_head_condition(head, body) for body, head in chunk]
        conds_body = [body_condition(body) for body, _ in chunk]
        z_edit = coefficients[cfg.edit_start] * images
        maps, masks = extract_masks(z_edit, conds, conds_body, cfg, variants, pred)
        # one denoise row per pair x variant
        bodies = np.repeat(images, len(variants), axis=0)
        row_masks = masks.reshape(bodies.shape[:3])
        row_conds = [cond for cond in conds for _ in variants]
        outputs = blend_denoise(bodies, row_masks, row_conds, coefficients, cfg, pred)
        results += [
            [
                SwapResult(output, mask, edit_map, degenerate_mask=not mask.any())
                for output, mask, edit_map in zip(*per_pair)
            ]
            for per_pair in zip(outputs.reshape(masks.shape + images.shape[-1:]), masks, maps)
        ]
    return results


def run_headswap(
    body: AttributeSpec,
    head: AttributeSpec,
    cfg: RunConfig,
    pred: EmpiricalNoisePredictor,
) -> SwapResult:
    """Swap the head of the body avatar for the head avatar's: a batch of one."""
    return swap_pairs([(body, head)], cfg, (cfg.variant,), pred)[0][0]
