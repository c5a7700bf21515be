"""Exact evaluation against the rendered ground truth."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .synthgen import (
    AttributeSpec,
    AvatarRender,
    HAIR_PALETTE,
    HEAD_CY,
    HEAD_RADIUS,
    LONG,
    SKIN_PALETTE,
    composite_spec,
    edit_region,
    oracle_swap,
    render_avatar,
)

HAIR_DETECT_DISTANCE = 0.15
HAIR_DETECT_FRACTION = 0.25


def mask_iou(a, b) -> float:
    """Intersection over union of two binary masks; 1.0 when both are empty."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"mask shapes differ: {a.shape} vs {b.shape}")
    a = a.astype(bool)
    b = b.astype(bool)
    union = (a | b).sum()
    if union == 0:
        return 1.0
    return float((a & b).sum() / union)


def region_mse(x, y, region) -> float:
    """Mean squared difference over a masked region (0.0 for an empty region)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    region = np.asarray(region)
    if x.shape != y.shape or region.shape != x.shape[:2]:
        raise ValueError(
            f"shape mismatch: x {x.shape}, y {y.shape}, region {region.shape}"
        )
    selected = region.astype(bool)
    if not selected.any():
        return 0.0
    diff = x[selected] - y[selected]
    return float(np.mean(diff**2))


def _nearest_palette(color: np.ndarray, palette: np.ndarray) -> int:
    return int(np.argmin(np.linalg.norm(palette - color, axis=1)))


@dataclass(frozen=True, eq=False)
class SwapReference:
    """What every swap of one (body, head) pair is scored against, rendered once."""

    body: AttributeSpec
    head: AttributeSpec
    body_image: np.ndarray
    oracle: AvatarRender
    truth: np.ndarray  # the ground-truth edit region, ground_truth_edit_mask(body, head)
    long_hair: np.ndarray  # below-disc pixels where a long-haired composite draws hair


def swap_reference(body: AttributeSpec, head: AttributeSpec) -> SwapReference:
    """Render the pair's references: the body, the oracle swap and its long-haired variant."""
    body_render = render_avatar(body)
    oracle = oracle_swap(body, head)
    long_variant = render_avatar(replace(composite_spec(body, head), hair_style=LONG))
    rows = np.arange(long_variant.layers.shape[0])[:, None]
    return SwapReference(
        body=body,
        head=head,
        body_image=body_render.image,
        oracle=oracle,
        truth=edit_region(body_render, oracle),
        long_hair=long_variant.hair_mask.astype(bool) & (rows > HEAD_CY + HEAD_RADIUS),
    )


def attribute_probe(image, ref: SwapReference) -> tuple[int, int]:
    """Score how many of {skin tone, hair color, hair style} a swap carried over.

    The probe samples the oracle swap's head-disc and hair-region pixel
    coordinates in the candidate image and classifies each region's mean
    color against the palettes.  Hair style is judged as long/not-long:
    the candidate is "long" when at least 25% of the pixels where the
    long-haired variant would place below-disc hair lie within 0.15 RGB
    distance of some hair palette entry.  A bald oracle has no hair region
    to classify, so hair color counts as matched there.
    """
    image = np.asarray(image, dtype=np.float64)
    head = ref.head

    disc = ref.oracle.head_mask.astype(bool)
    skin_ok = (
        _nearest_palette(image[disc].mean(axis=0), SKIN_PALETTE) == head.skin_tone
    )

    hair_region = ref.oracle.hair_mask.astype(bool)
    if hair_region.any():
        hair_ok = (
            _nearest_palette(image[hair_region].mean(axis=0), HAIR_PALETTE)
            == head.hair_color
        )
    else:
        hair_ok = True

    samples = image[ref.long_hair]
    distances = np.linalg.norm(samples[:, None, :] - HAIR_PALETTE[None, :, :], axis=2)
    hairlike = (distances.min(axis=1) <= HAIR_DETECT_DISTANCE).mean()
    detected_long = hairlike >= HAIR_DETECT_FRACTION
    style_ok = detected_long == (head.hair_style == LONG)

    return int(skin_ok) + int(hair_ok) + int(style_ok), 3
