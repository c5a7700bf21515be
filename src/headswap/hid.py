"""End-to-end head swapping: invert, extract the edit mask, blend-denoise.

The pipeline inverts the body image under its own fully constrained
condition, computes the edit mask once at the edit-window start, then
denoises under the head condition while re-imposing the stored inversion
latent outside the mask at every step.  Because the final blend mixes
with the stored clean image itself, unmasked pixels of the output equal
the body image exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .diffusion import (
    EmpiricalNoisePredictor,
    NoiseSchedule,
    cfg_combine,
    ddim_sample_step,
    invert_trajectory,
)
from .iomask import VARIANTS, IOMaskConfig, build_iomask, io_map
from .synthgen import AttributeSpec, Condition, NULL_CONDITION, composite_spec, render_avatar


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
        if self.T < 2:
            raise ValueError(f"T must be at least 2, got {self.T}")
        if not (math.isfinite(self.w) and self.w >= 0):
            raise ValueError(f"w must be finite and non-negative, got {self.w}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
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
    """Everything a swap produces: output image, mask, map, trajectory."""

    output: np.ndarray
    mask: np.ndarray
    io_map: np.ndarray
    trajectory: np.ndarray
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


def invert_and_mask(
    body: AttributeSpec,
    head: AttributeSpec,
    cfg: RunConfig,
    sched: NoiseSchedule,
    pred: EmpiricalNoisePredictor,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert the body image and extract the edit mask: (trajectory, edit map, mask).

    Inversion runs under the body's own condition at guidance 1; the map
    and mask are taken at t_edit = cfg.edit_start.  traj[0] is the body image.
    """
    if cfg.T != sched.T:
        raise ValueError(f"config T={cfg.T} does not match schedule T={sched.T}")
    cond_body = body_condition(body)
    traj = invert_trajectory(render_avatar(body).image, cond_body, sched, pred)
    cond_head = compose_head_condition(head, body)
    edit_map = io_map(traj, cfg.edit_start, cond_head, cond_body, cfg.mask, sched, pred)
    return traj, edit_map, build_iomask(edit_map, cfg.mask)


def run_headswap(
    body: AttributeSpec,
    head: AttributeSpec,
    cfg: RunConfig,
    sched: NoiseSchedule,
    pred: EmpiricalNoisePredictor,
) -> SwapResult:
    """Swap the head of the body avatar for the head avatar's.

    After ``invert_and_mask``, denoise from the stored latent at t_edit
    down to 0 under the head condition, blending every step's result with
    the stored inversion latent outside the mask.  An all-empty mask is
    reported via ``degenerate_mask``, not an error: the output then equals
    the body image bit-exactly.
    """
    traj, edit_map, mask = invert_and_mask(body, head, cfg, sched, pred)
    cond_head = compose_head_condition(head, body)
    mask3 = mask.astype(bool)[..., None]

    z = traj[cfg.edit_start]
    for t in range(cfg.edit_start, 0, -1):
        guided = cfg_combine(
            pred.evaluate(z, t, NULL_CONDITION),
            pred.evaluate(z, t, cond_head),
            cfg.w,
        )
        denoised = ddim_sample_step(z, guided, t, sched)
        z = np.where(mask3, denoised, traj[t - 1])

    return SwapResult(
        output=z,
        mask=mask,
        io_map=edit_map,
        trajectory=traj,
        degenerate_mask=not mask.any(),
    )
