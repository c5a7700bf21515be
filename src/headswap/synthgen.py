"""Deterministic procedural avatar corpus with renderable ground truth.

Every avatar is a 32x32 RGB sprite drawn from discrete attributes, stated
once in ATTRIBUTE_VALUES (names in AttributeSpec's field order).  The
renderer is integer-only geometry over fixed palettes, so renders are
bit-identical across runs and platforms, and per-render head/hair masks
provide exact edit-region ground truth.  A render is kept indexed, as its
4-colour palette and its kind's shared read-only layer map; its float
image is gathered only when it is read.  Clothing is painted as a
half-density checkerboard rather than a solid block so that the residual
clothing ambiguity of partially constrained conditions cannot saturate a
smoothed, thresholded edit map (see render_avatars).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

SIZE = 32

# hair styles, by index
BALD, SHORT, LONG = 0, 1, 2

TILT_VALUES = (-1, 0, 1)

ATTRIBUTE_VALUES = {
    "skin_tone": (0, 1, 2),
    "hair_style": (BALD, SHORT, LONG),
    "hair_color": (0, 1, 2),
    "clothing_color": (0, 1, 2, 3),
    "head_tilt": TILT_VALUES,
}
ATTRIBUTE_NAMES = tuple(ATTRIBUTE_VALUES)

# Palette geometry carries the benchmark's contrast budget.  Edit-region
# extraction normalizes per-pixel contrast and applies a fixed threshold, so
# every editable cue must produce contrasts in one narrow band or the
# strongest cue starves the others after normalization:
#   * every pair of entries (background included) is >= 0.3 apart in RGB, so
#     nearest-palette classification of rendered regions is unambiguous;
#   * hair colors form a small triangle around the clothing centroid, giving
#     hair-vs-background mean contrast 0.43 (identical for all three by
#     symmetry), hair recolor contrast 0.17, and hair-vs-clothing contrast
#     at most 0.39, so hair appearing or vanishing always owns the contrast
#     maximum in its pairs;
#   * skin tones form a larger triangle with pairwise mean contrast 0.35,
#     just under the hair band, so skin changes survive the same threshold;
#   * clothing colors sit on a half-scale tetrahedron (pairwise 0.85), far
#     enough apart that partially constrained conditions resolve clothing
#     sharply and clothing ambiguity never competes with real edit signal.
BACKGROUND = np.array([0.93, 0.93, 0.93])
SKIN_PALETTE = np.array(
    [
        [0.56, 0.04, 0.30],
        [0.30, 0.56, 0.04],
        [0.04, 0.30, 0.56],
    ]
)
HAIR_PALETTE = np.array(
    [
        [0.63, 0.37, 0.50],
        [0.50, 0.63, 0.37],
        [0.37, 0.50, 0.63],
    ]
)
CLOTHING_PALETTE = np.array(
    [
        [0.20, 0.20, 0.20],
        [0.80, 0.80, 0.20],
        [0.80, 0.20, 0.80],
        [0.20, 0.80, 0.80],
    ]
)

# sprite geometry (row, col); the head disc slides horizontally with tilt
HEAD_CY = 11
HEAD_CX = 16
TILT_STEP = 4
HEAD_RADIUS = 6
HAIR_OUTER_RADIUS = 11
SIDE_HAIR_INNER = 7  # |col - cx| range of the long-hair columns
SIDE_HAIR_OUTER = 11
SIDE_HAIR_BOTTOM = HEAD_CY + HEAD_RADIUS + 8  # 8 rows below the disc bottom
TORSO_TOP, TORSO_BOTTOM = 20, 31
TORSO_LEFT, TORSO_RIGHT = 6, 25
BROW_OFFSETS = ((-2, -2), (-2, 2))

_YY, _XX = np.ogrid[:SIZE, :SIZE]


@dataclass(frozen=True)
class AttributeSpec:
    """Discrete avatar description; the stand-in for identity/hair/pose conditioning."""

    skin_tone: int
    hair_style: int
    hair_color: int
    clothing_color: int
    head_tilt: int

    def __post_init__(self):
        for name in ATTRIBUTE_NAMES:
            value = getattr(self, name)
            if value not in ATTRIBUTE_VALUES[name]:
                raise ValueError(f"{name}={value!r} not in allowed values {ATTRIBUTE_VALUES[name]}")

    def to_ints(self) -> tuple[int, int, int, int, int]:
        return (
            self.skin_tone,
            self.hair_style,
            self.hair_color,
            self.clothing_color,
            self.head_tilt,
        )

    @classmethod
    def from_ints(cls, values: Iterable[int]) -> "AttributeSpec":
        values = tuple(int(v) for v in values)
        if len(values) != len(ATTRIBUTE_NAMES):
            raise ValueError(f"expected {len(ATTRIBUTE_NAMES)} attribute integers, got {values}")
        return cls(*values)


@dataclass(frozen=True)
class Condition:
    """Partial attribute constraint; the empty condition matches everything."""

    constraints: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        items = tuple(sorted((str(k), int(v)) for k, v in self.constraints))
        names = [k for k, _ in items]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate constraint names in {names}")
        for name, value in items:
            if name not in ATTRIBUTE_NAMES:
                raise ValueError(f"unknown attribute {name!r}")
            if value not in ATTRIBUTE_VALUES[name]:
                raise ValueError(f"{name}={value} not in {ATTRIBUTE_VALUES[name]}")
        object.__setattr__(self, "constraints", items)

    @classmethod
    def of(cls, **constraints: int) -> "Condition":
        return cls(tuple(constraints.items()))

    def as_dict(self) -> dict[str, int]:
        return dict(self.constraints)


NULL_CONDITION = Condition()


@dataclass(frozen=True, eq=False)
class AvatarRender:
    """A rendered avatar, kept indexed: its 4-colour palette (4, 3) and its
    kind's paint-layer map (H, W), plus its exact head and hair pixel masks.

    ``image`` (H, W, 3) is each pixel's palette row, gathered on first read
    and cached; it is the render's own writable array.  The layer map is the
    shared read-only table entry of the avatar's hair style and head tilt.
    """

    palette: np.ndarray
    layers: np.ndarray
    head_mask: np.ndarray
    hair_mask: np.ndarray
    attrs: AttributeSpec

    @cached_property
    def image(self) -> np.ndarray:
        return self.palette.take(self.layers, axis=0)


# the clothing checkerboard: every other pixel of the torso rectangle
_TORSO_DOTS = (
    (TORSO_TOP <= _YY) & (_YY <= TORSO_BOTTOM) & (TORSO_LEFT <= _XX) & (_XX <= TORSO_RIGHT)
) & ((_YY + _XX) % 2 == 0)

# what a pixel shows: the row of the avatar's 4-colour palette it takes
BACKGROUND_LAYER, CLOTHING_LAYER, HAIR_LAYER, SKIN_LAYER = 0, 1, 2, 3


def _paint_layers(style: int, tilt: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The paint-layer map, head disc and hair mask shared by every avatar
    of one hair style and head tilt; the colours are all that differ."""
    cy = HEAD_CY
    cx = HEAD_CX + TILT_STEP * tilt
    d2 = (_YY - cy) ** 2 + (_XX - cx) ** 2
    disc = d2 <= HEAD_RADIUS**2

    hair = np.zeros((SIZE, SIZE), dtype=bool)
    if style != BALD:
        hair |= (d2 > HEAD_RADIUS**2) & (d2 <= HAIR_OUTER_RADIUS**2) & (_YY <= cy)
    if style == LONG:
        span = np.abs(_XX - cx)
        hair |= (
            (span >= SIDE_HAIR_INNER)
            & (span <= SIDE_HAIR_OUTER)
            & (_YY > cy)
            & (_YY <= SIDE_HAIR_BOTTOM)
        )

    layers = np.where(_TORSO_DOTS, CLOTHING_LAYER, BACKGROUND_LAYER).astype(np.uint8)
    layers[hair] = HAIR_LAYER
    layers[disc] = SKIN_LAYER
    for dy, dx in BROW_OFFSETS:
        layers[cy + dy, cx + dx] = HAIR_LAYER
    return layers, disc.astype(np.uint8), hair.astype(np.uint8)


def _paint_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The read-only layer, disc and hair tables, one entry per (hair_style, head_tilt)."""
    painted = [
        _paint_layers(style, tilt)
        for style in ATTRIBUTE_VALUES["hair_style"]
        for tilt in TILT_VALUES
    ]
    tables = tuple(np.stack(maps) for maps in zip(*painted))
    for table in tables:
        table.setflags(write=False)
    return tables


# entry hair_style * 3 + head_tilt + 1 serves that style and tilt
_LAYERS, _DISCS, _HAIRS = _paint_tables()


def render_avatars(specs: Iterable[AttributeSpec]) -> list[AvatarRender]:
    """Render a batch of avatars deterministically, each one palette and one layer map.

    Layout: flat light background; clothing as a checkerboard over the
    torso rectangle; a radius-6 head disc in the skin color, shifted
    horizontally by 4 px per tilt step; two brow pixels inside the disc in
    the hair color (so hair color is visible even on bald avatars); a thick
    cap arc above the disc for short hair; cap plus two side columns
    reaching 8 rows below the disc bottom for long hair.  That geometry
    depends on hair style and tilt only, so it is painted once per pair of
    them, into read-only layer maps; each render keeps its kind's map and
    its palette, and its image, on first read, takes its palette's row for
    every pixel's layer.  No image is gathered here.  Each render's
    palette and masks are its own rows of the batch's palette and mask
    arrays, and each image is its own array, so writing into one render
    changes no table and no other render.
    """
    specs = list(specs)
    ints = np.array([attrs.to_ints() for attrs in specs], dtype=np.intp)
    skin, style, hair_color, clothing, tilt = ints.reshape(-1, len(ATTRIBUTE_NAMES)).T
    kinds = style * len(TILT_VALUES) + tilt - TILT_VALUES[0]
    palettes = np.empty((len(specs), 4, 3))
    palettes[:, BACKGROUND_LAYER] = BACKGROUND
    palettes[:, CLOTHING_LAYER] = CLOTHING_PALETTE[clothing]
    palettes[:, HAIR_LAYER] = HAIR_PALETTE[hair_color]
    palettes[:, SKIN_LAYER] = SKIN_PALETTE[skin]
    return [
        AvatarRender(palette=palette, layers=_LAYERS[k], head_mask=head, hair_mask=hair, attrs=attrs)
        for palette, k, head, hair, attrs in zip(
            palettes, kinds.tolist(), _DISCS[kinds], _HAIRS[kinds], specs
        )
    ]


def render_avatar(attrs: AttributeSpec) -> AvatarRender:
    """Render one avatar: a batch of one (``render_avatars``)."""
    return render_avatars([attrs])[0]


def all_attribute_specs() -> list[AttributeSpec]:
    """All 324 attribute combinations in lexicographic attribute order."""
    return [AttributeSpec(*v) for v in itertools.product(*ATTRIBUTE_VALUES.values())]


def enumerate_dataset() -> list[AvatarRender]:
    """Render the full 324-avatar corpus in lexicographic attribute order."""
    return render_avatars(all_attribute_specs())


def composite_spec(body: AttributeSpec, head: AttributeSpec) -> AttributeSpec:
    """Attributes of the ideal swap: head identity on the body's pose and clothing."""
    return replace(head, clothing_color=body.clothing_color, head_tilt=body.head_tilt)


def oracle_swap(body: AttributeSpec, head: AttributeSpec) -> AvatarRender:
    """Ground-truth swapped render: the composite attributes drawn directly."""
    return render_avatar(composite_spec(body, head))


def ground_truth_edit_mask(body: AttributeSpec, head: AttributeSpec) -> np.ndarray:
    """Union of head+hair pixels of the body render and of the oracle swap.

    This is the region an ideal edit mask must cover: it includes hair to
    be removed from the body (e.g. long hair when the new head is bald)
    and hair to be grown where the body had none.
    """
    return edit_region(render_avatar(body), oracle_swap(body, head))


def edit_region(body_render: AvatarRender, oracle: AvatarRender) -> np.ndarray:
    """``ground_truth_edit_mask`` from renders already at hand."""
    union = (
        body_render.head_mask.astype(bool)
        | body_render.hair_mask.astype(bool)
        | oracle.head_mask.astype(bool)
        | oracle.hair_mask.astype(bool)
    )
    return union.astype(np.uint8)
