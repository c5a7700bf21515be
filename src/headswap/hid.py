"""End-to-end head swapping: invert, extract the edit mask, blend-denoise.

Inverted under its own one-image condition, the body image x has the
latents c[t] * x (``NoiseSchedule.inversion``), constant on the corpus's
column classes as x is.  ``swap_pairs``, the one chunk loop, runs and
times two stages on each chunk of at most CHUNK_PAIRS pairs.  Both work on
class values and reach the predictor only through ``posterior_plan``.  The
mask stage (``mask_pairs``) makes every pair's and variant's edit map in
one stacked pass at c[t_edit] * x, and its mask.  The denoise
(``blend_denoise``) takes that output as it is, and re-imposes c[t - 1] * x
outside each mask after every step, each pair's variants one stack under
its head condition.  c[0] is exactly 1, so unmasked output pixels equal the
body image exactly.  No stage takes a schedule: each reads the
predictor's, whose T ``mask_pairs`` checks against the config's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .diffusion import EmpiricalNoisePredictor, cfg_combine, ddim_sample_step, implied_noise
from .iomask import VARIANTS, build_iomasks, edit_maps
from .synthgen import NULL_CONDITION, AttributeSpec, Condition, composite_spec, render_avatar

# The most pairs ``swap_pairs`` denoises in lockstep (times its variants:
# the stack height), and the most pairs ``experiment.run_experiment`` lets
# wait for its image writer.  The denoise holds one value per (row, column
# class), so stack temporaries do not bound the chunk, but larger chunks
# bought no measured speed on a 2-core machine, and 30 pairs raised the
# benchmark's ablate peak RSS from 42.7 to 50.3 MB.  A fixed height also keeps
# the null posterior's GEMM small enough that OpenBLAS does not split it
# across threads, whose count would otherwise move output bits.
CHUNK_PAIRS = 4


@dataclass(frozen=True)
class RunConfig:
    """Every run setting (no output path), each checked once, when the config is built.

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

    def __post_init__(self):
        for name in ("T", "seed", "pairs"):
            value = getattr(self, name)
            if isinstance(value, (bool, float)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in ("w", "tau", "sigma", "edit_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
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
    def mask(self) -> RunConfig:
        """This config itself: the spelling the frozen benchmark reads, until it is re-aligned."""
        return self

    def swap_config(self, variant: str) -> RunConfig:
        """A checked copy of this config with another mask variant."""
        return replace(self, variant=variant)


@dataclass(eq=False)
class SwapResult:
    """Everything a swap produces: output image, mask, map, and its wall time."""

    output: np.ndarray
    mask: np.ndarray
    io_map: np.ndarray
    runtime_ms: float

    @property
    def degenerate_mask(self) -> bool:
        """An all-empty mask: the output equals the body image bit-exactly."""
        return not self.mask.any()


def body_condition(body: AttributeSpec) -> Condition:
    """Fully constrained condition matching exactly the body's attributes."""
    return Condition.of(**vars(body))


def compose_head_condition(head: AttributeSpec, body: AttributeSpec) -> Condition:
    """The ideal swap's attributes (``composite_spec``) with clothing left free.

    The swapped head must carry the head's skin tone, hair style, and hair
    color while adopting the body's tilt; nothing about clothing is known
    to the head condition.
    """
    attrs = dict(vars(composite_spec(body, head)))
    del attrs["clothing_color"]
    return Condition.of(**attrs)


def mask_pairs(
    pairs: Sequence[tuple[AttributeSpec, AttributeSpec]],
    cfg: RunConfig,
    variants: Sequence[str],
    pred: EmpiricalNoisePredictor,
) -> tuple[np.ndarray, list[Condition], np.ndarray, np.ndarray]:
    """The mask stage of (body, head) pairs: (images, conds_head, maps, masks).

    Checks that cfg's T is the predictor's schedule's, renders the bodies
    (P, H, W, C) and builds each pair's head condition.  One ``edit_maps``
    call at the latents c[t_edit] * x makes the maps (P, V, H, W), variant v
    under ``variants[v]``, and one ``build_iomasks`` call their masks.
    """
    sched = pred.schedule
    if cfg.T != sched.T:
        raise ValueError(f"config T={cfg.T} does not match schedule T={sched.T}")
    images = np.stack([render_avatar(body).image for body, _ in pairs])
    conds_head = [compose_head_condition(head, body) for body, head in pairs]
    conds_body = [body_condition(body) for body, _ in pairs]
    z_edit = sched.inversion[cfg.edit_start] * images
    maps = edit_maps(z_edit, cfg.edit_start, conds_head, conds_body, variants, cfg.w, pred)
    return images, conds_head, maps, build_iomasks(maps, cfg.sigma, cfg.tau)


def blend_denoise(
    images: np.ndarray,
    masks: np.ndarray,
    conds: Sequence[Condition],
    cfg: RunConfig,
    pred: EmpiricalNoisePredictor,
) -> np.ndarray:
    """Denoise bodies (P, H, W, C) under masks (P, V, H, W) in lockstep from
    t_edit to 0: (P, V, H, W, C).

    Body p's V rows are one stack under ``conds[p]``.  Row (p, v) starts
    from c[t_edit] * images[p] and has c[t - 1] * images[p] re-imposed
    outside masks[p, v] after every step.  The rows are carried on the
    corpus's column classes (``ColumnClasses``): a body is constant on each
    class, so every masked position of a class starts from the same value,
    receives the same posterior mean at every step, and stays one value per
    (row, class).  Each step maps the rows' class sums to the null
    condition's posterior mean, all rows one stack, and the head
    conditions', each planned once per call (``posterior_plan``); the
    noises (``implied_noise``), CFG and the DDIM step act on the (P V, G)
    values.  The pixels are gathered once at the end; the unmasked ones are
    the bodies, bit for bit (c[0] is 1).  Raises ValueError for a body that
    is not constant on the classes.
    """
    sched, classes = pred.schedule, pred.column_classes
    pairs, variants = masks.shape[:2]
    x = images.reshape(pairs, -1)
    x_g = x[:, classes.first]
    if not np.array_equal(x_g[:, classes.inv], x):
        raise ValueError("every body must be constant on the corpus's column classes")
    shape = masks.shape + images.shape[-1:]
    inside = np.broadcast_to(masks[..., None], shape).reshape(pairs, variants, -1)
    # one row per pair x variant, pair-major
    n_in = classes.sums(inside.astype(np.int64)).reshape(pairs * variants, -1)
    n_out = classes.counts - n_in
    x_g = np.repeat(x_g, variants, axis=0)
    c = sched.inversion
    z = c[cfg.edit_start] * x_g
    means = pred.posterior_plan([NULL_CONDITION]), pred.posterior_plan(conds)
    for t in range(cfg.edit_start, 0, -1):
        ab = float(sched.alpha_bar[t])
        sums = n_in * z + n_out * (c[t] * x_g)
        guided = cfg_combine(*(implied_noise(mean(sums, ab), z, ab) for mean in means), cfg.w)
        z = ddim_sample_step(z, guided, t, sched)
    return np.where(inside, z[:, classes.inv].reshape(inside.shape), x[:, None]).reshape(shape)


def swap_pairs(
    pairs: Sequence[tuple[AttributeSpec, AttributeSpec]],
    cfg: RunConfig,
    variants: Sequence[str],
    pred: EmpiricalNoisePredictor,
) -> Iterator[list[SwapResult]]:
    """Swap every (body, head) pair under every mask variant, CHUNK_PAIRS pairs at a time.

    Yields one list of results per pair, in pair order and in the order of
    ``variants``.  A chunk is swapped when its first pair is asked for:
    ``mask_pairs`` makes the maps and masks of every pair and variant, and
    one ``blend_denoise`` call denoises them in lockstep, each pair's
    variants one head stack.  Each result's ``runtime_ms`` is the chunk's
    wall time split evenly among its swaps.
    """
    for first in range(0, len(pairs), CHUNK_PAIRS):
        chunk = pairs[first : first + CHUNK_PAIRS]
        started = time.perf_counter()
        images, conds, maps, masks = mask_pairs(chunk, cfg, variants, pred)
        outputs = blend_denoise(images, masks, conds, cfg, pred)
        runtime_ms = (time.perf_counter() - started) * 1e3 / (len(chunk) * len(variants))
        for per_pair in zip(outputs, masks, maps):
            yield [SwapResult(*per_swap, runtime_ms) for per_swap in zip(*per_pair)]


def run_headswap(
    body: AttributeSpec,
    head: AttributeSpec,
    cfg: RunConfig,
    pred: EmpiricalNoisePredictor,
) -> SwapResult:
    """Swap the head of the body avatar for the head avatar's: a batch of one."""
    return next(swap_pairs([(body, head)], cfg, (cfg.variant,), pred))[0]
