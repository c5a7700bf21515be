import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headswap import synthgen
from headswap.synthgen import (
    ATTRIBUTE_NAMES,
    ATTRIBUTE_VALUES,
    BACKGROUND,
    BALD,
    BROW_OFFSETS,
    CLOTHING_PALETTE,
    HAIR_PALETTE,
    HEAD_CX,
    HEAD_CY,
    HEAD_RADIUS,
    LONG,
    SHORT,
    SKIN_PALETTE,
    TILT_STEP,
    AttributeSpec,
    Condition,
    NULL_CONDITION,
    all_attribute_specs,
    composite_spec,
    ground_truth_edit_mask,
    enumerate_dataset,
    oracle_swap,
    render_avatar,
    render_avatars,
)
from helpers import condition_match, paint_avatar

RENDER_FIELDS = ("image", "head_mask", "hair_mask")
# the arrays a render owns; its layer map is a shared read-only table entry
OWN_FIELDS = ("image", "palette", "head_mask", "hair_mask")


def spec(skin=0, style=SHORT, color=0, cloth=0, tilt=0):
    return AttributeSpec(skin, style, color, cloth, tilt)


class TestAttributeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AttributeSpec(3, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            AttributeSpec(0, 0, 0, 0, 2)

    def test_round_trip_ints(self):
        s = spec(2, LONG, 1, 3, -1)
        assert AttributeSpec.from_ints(s.to_ints()) == s

    def test_from_ints_length(self):
        with pytest.raises(ValueError):
            AttributeSpec.from_ints([0, 0, 0])

    def test_the_grid_names_the_fields_in_order(self):
        # all_attribute_specs builds AttributeSpec(*values) from ATTRIBUTE_VALUES's order
        assert ATTRIBUTE_NAMES == tuple(f.name for f in dataclasses.fields(AttributeSpec))


class TestRenderer:
    def test_deterministic(self):
        a = render_avatar(spec(1, LONG, 2, 3, 1))
        b = render_avatar(spec(1, LONG, 2, 3, 1))
        assert a.image.tobytes() == b.image.tobytes()
        assert np.array_equal(a.head_mask, b.head_mask)
        assert np.array_equal(a.hair_mask, b.hair_mask)

    def test_bald_has_empty_hair_mask(self):
        assert render_avatar(spec(style=BALD)).hair_mask.sum() == 0

    def test_long_hair_extends_below_disc(self):
        long_render = render_avatar(spec(style=LONG))
        short_render = render_avatar(spec(style=SHORT))
        rows = np.arange(32)[:, None]
        below = rows > HEAD_CY + HEAD_RADIUS
        assert (long_render.hair_mask.astype(bool) & below).sum() > 0
        assert (short_render.hair_mask.astype(bool) & below).sum() == 0

    def test_masks_disjoint(self):
        for style in (SHORT, LONG):
            r = render_avatar(spec(style=style))
            assert not (r.head_mask.astype(bool) & r.hair_mask.astype(bool)).any()

    def test_head_tilt_moves_disc(self):
        left = render_avatar(spec(tilt=-1))
        right = render_avatar(spec(tilt=1))
        assert left.head_mask[HEAD_CY, HEAD_CX - TILT_STEP] == 1
        assert left.head_mask[HEAD_CY, HEAD_CX + TILT_STEP + HEAD_RADIUS] == 0
        assert right.head_mask[HEAD_CY, HEAD_CX + TILT_STEP] == 1

    def test_brows_carry_hair_color(self):
        r = render_avatar(spec(color=2, style=BALD))
        cy, cx = HEAD_CY, HEAD_CX
        for dy, dx in BROW_OFFSETS:
            np.testing.assert_array_equal(r.image[cy + dy, cx + dx], HAIR_PALETTE[2])

    def test_values_in_unit_range_and_head_nonempty(self, dataset):
        for r in dataset:
            assert r.image.min() >= 0.0 and r.image.max() <= 1.0
            assert r.head_mask.sum() > 0


class TestBatchRenderer:
    """``render_avatars`` gathers from shared layer tables; ``paint_avatar`` paints."""

    @pytest.mark.parametrize("batch", ["corpus", "shuffled_with_repeats", "one"])
    def test_batches_bit_equal_the_painted_reference(self, batch):
        specs = all_attribute_specs()
        gen = np.random.default_rng(5)
        batch = {
            "corpus": specs,
            "shuffled_with_repeats": [specs[int(k)] for k in gen.choice(324, size=40)],
            "one": [spec(2, LONG, 1, 3, -1)],
        }[batch]
        renders = render_avatars(batch)
        assert [r.attrs for r in renders] == batch
        for attrs, render in zip(batch, renders):
            reference = paint_avatar(attrs)
            for field in RENDER_FIELDS:
                got, want = getattr(render, field), getattr(reference, field)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_empty_batch(self):
        assert render_avatars([]) == []

    def test_tables_are_read_only(self):
        for table in (synthgen._LAYERS, synthgen._DISCS, synthgen._HAIRS):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1

    def test_renders_share_no_memory(self):
        a, b = spec(1, LONG, 2, 3, 1), spec(0, BALD, 1, 0, -1)
        renders = render_avatars([a, b, a]) + [render_avatar(a)]
        arrays = [getattr(r, field) for r in renders for field in OWN_FIELDS]
        for table in (synthgen._LAYERS, synthgen._DISCS, synthgen._HAIRS):
            assert not any(np.shares_memory(array, table) for array in arrays)
        for first, second in itertools.combinations(arrays, 2):
            assert not np.shares_memory(first, second)

    def test_a_render_keeps_its_palette_and_its_kinds_read_only_map(self):
        a = spec(2, LONG, 1, 3, -1)
        render = render_avatar(a)
        np.testing.assert_array_equal(
            render.palette, [BACKGROUND, CLOTHING_PALETTE[3], HAIR_PALETTE[1], SKIN_PALETTE[2]]
        )
        kind = LONG * 3 + a.head_tilt + 1
        assert render.layers.base is synthgen._LAYERS and not render.layers.flags.writeable
        assert render.layers.tobytes() == synthgen._LAYERS[kind].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            render.layers[0, 0] = 1

    def test_the_image_is_gathered_on_first_read_and_kept(self):
        renders = enumerate_dataset()
        assert not any("image" in r.__dict__ for r in renders)
        image = renders[7].image
        assert image is renders[7].image and image.flags.writeable
        assert image.tobytes() == paint_avatar(renders[7].attrs).image.tobytes()
        assert ["image" in r.__dict__ for r in renders].count(True) == 1

    def test_writing_into_a_render_leaves_later_renders_unchanged(self):
        a = spec(1, LONG, 2, 3, 1)
        first, twin = render_avatars([a, a])
        for field in OWN_FIELDS:
            getattr(first, field)[...] = 7
        in_corpus = enumerate_dataset()[all_attribute_specs().index(a)]
        later = [twin, render_avatar(a), *render_avatars([a]), in_corpus]
        reference = paint_avatar(a)
        for render in later:
            for field in RENDER_FIELDS:
                assert getattr(render, field).tobytes() == getattr(reference, field).tobytes()


class TestDataset:
    def test_length(self, dataset):
        assert len(dataset) == 324

    def test_corpus_digest(self):
        # Pins the corpus bytes that every predictor is built from: images
        # and both masks, stacked in lexicographic attribute order.
        renders = enumerate_dataset()
        stacks = {field: np.stack([getattr(r, field) for r in renders]) for field in RENDER_FIELDS}
        digests = {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in stacks.items()}
        assert digests == {
            "image": "9206c5f16b635127d938616f8450b93a786c123ada778e60af26889631c3be21",
            "head_mask": "f84ebefee67b9869b83cb74745ffd0d91e57ca3df04235271927cd8fca652cce",
            "hair_mask": "357bd211aad54295eb4c13ccc4ff6884ccdca1cb7135b9257a6c05e484331cec",
        }

    def test_first_element_has_first_enum_values(self, dataset):
        assert dataset[0].attrs == AttributeSpec(0, BALD, 0, 0, -1)

    def test_lexicographic_order(self, dataset):
        keys = [r.attrs.to_ints() for r in dataset]
        assert keys == sorted(keys)

    def test_all_renders_distinct(self, dataset):
        # pairwise comparison via exact byte signatures
        signatures = {r.image.tobytes() for r in dataset}
        assert len(signatures) == 324


class TestCondition:
    def test_null_matches_everything(self, dataset):
        assert all(condition_match(NULL_CONDITION, r.attrs) for r in dataset)

    def test_single_constraint(self):
        cond = Condition.of(hair_color=2)
        assert condition_match(cond, spec(color=2))
        assert not condition_match(cond, spec(color=1))

    def test_fully_constrained_matches_exactly_one(self):
        target = spec(1, LONG, 2, 3, 0)
        cond = Condition.of(**dict(zip(
            ("skin_tone", "hair_style", "hair_color", "clothing_color", "head_tilt"),
            target.to_ints(),
        )))
        matches = [s for s in all_attribute_specs() if condition_match(cond, s)]
        assert matches == [target]

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_match_count_is_product_of_free_cardinalities(self, data):
        names = sorted(ATTRIBUTE_VALUES)
        chosen = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=5))
        constraints = {
            name: data.draw(st.sampled_from(ATTRIBUTE_VALUES[name])) for name in chosen
        }
        cond = Condition.of(**constraints)
        count = sum(condition_match(cond, s) for s in all_attribute_specs())
        expected = 324
        for name in chosen:
            expected //= len(ATTRIBUTE_VALUES[name])
        assert count == expected

    def test_invalid_constraint_rejected(self):
        with pytest.raises(ValueError):
            Condition.of(hat_color=1)
        with pytest.raises(ValueError):
            Condition.of(hair_color=5)
        with pytest.raises(ValueError):
            Condition((("hair_color", 1), ("hair_color", 2)))


class TestOracleSwap:
    def test_identity_composition(self):
        a = spec(2, LONG, 1, 3, -1)
        direct = render_avatar(a)
        swapped = oracle_swap(a, a)
        assert np.array_equal(swapped.image, direct.image)
        assert swapped.attrs == direct.attrs

    def test_clothing_pixels_use_body_palette(self):
        body = spec(cloth=2)
        head = spec(skin=1, style=LONG, color=1, cloth=0, tilt=0)
        out = oracle_swap(body, head)
        from headswap.synthgen import _TORSO_DOTS

        dots = _TORSO_DOTS & ~out.hair_mask.astype(bool)
        assert dots.any()
        np.testing.assert_array_equal(
            out.image[dots], np.tile(CLOTHING_PALETTE[2], (dots.sum(), 1))
        )

    def test_head_disc_uses_head_skin_at_body_tilt(self):
        body = spec(skin=0, tilt=1)
        head = spec(skin=2, tilt=-1)
        out = oracle_swap(body, head)
        cy, cx = HEAD_CY, HEAD_CX + TILT_STEP  # body tilt +1
        disc = out.head_mask.astype(bool)
        assert disc[cy, cx]
        brow_sites = np.zeros_like(disc)
        for dy, dx in BROW_OFFSETS:
            brow_sites[cy + dy, cx + dx] = True
        plain = disc & ~brow_sites
        np.testing.assert_array_equal(
            out.image[plain], np.tile(SKIN_PALETTE[2], (plain.sum(), 1))
        )


class TestGroundTruthEditMask:
    def test_identity_equals_head_union_hair(self):
        a = spec(style=LONG)
        r = render_avatar(a)
        expected = r.head_mask.astype(bool) | r.hair_mask.astype(bool)
        np.testing.assert_array_equal(ground_truth_edit_mask(a, a), expected.astype(np.uint8))

    def test_long_body_bald_head_includes_removal_region(self):
        body = spec(style=LONG)
        head = spec(style=BALD, skin=1)
        gt = ground_truth_edit_mask(body, head).astype(bool)
        body_hair = render_avatar(body).hair_mask.astype(bool)
        assert (gt & body_hair).sum() == body_hair.sum()

    def test_bald_body_long_head_includes_growth_region(self):
        body = spec(style=BALD)
        head = spec(style=LONG, color=1)
        gt = ground_truth_edit_mask(body, head).astype(bool)
        oracle_hair = oracle_swap(body, head).hair_mask.astype(bool)
        rows = np.arange(32)[:, None]
        below = oracle_hair & (rows > HEAD_CY + HEAD_RADIUS)
        assert below.any()
        assert (gt & below).sum() == below.sum()

    def test_superset_of_body_head_mask(self, rng):
        specs = all_attribute_specs()
        for _ in range(25):
            body, head = (specs[int(i)] for i in rng.integers(0, 324, 2))
            gt = ground_truth_edit_mask(body, head).astype(bool)
            head_mask = render_avatar(body).head_mask.astype(bool)
            assert (gt | head_mask).sum() == gt.sum()


class TestPalettes:
    def test_pairwise_separation(self):
        palette = np.vstack([SKIN_PALETTE, HAIR_PALETTE, CLOTHING_PALETTE, BACKGROUND[None]])
        for i, j in itertools.combinations(range(len(palette)), 2):
            assert np.linalg.norm(palette[i] - palette[j]) >= 0.3

    def test_hair_contrast_band(self):
        # hair appearing/vanishing against the background must dominate any
        # skin change and any hair recolor once contrasts are normalized
        hair_bg = [np.abs(h - BACKGROUND).mean() for h in HAIR_PALETTE]
        skin_pairs = [
            np.abs(a - b).mean() for a, b in itertools.combinations(SKIN_PALETTE, 2)
        ]
        hair_pairs = [
            np.abs(a - b).mean() for a, b in itertools.combinations(HAIR_PALETTE, 2)
        ]
        assert min(hair_bg) > max(skin_pairs)
        assert min(hair_bg) > max(hair_pairs)

    def test_composite_spec_fields(self):
        body = spec(0, BALD, 0, 3, 1)
        head = spec(2, LONG, 1, 0, -1)
        combo = composite_spec(body, head)
        assert combo == AttributeSpec(2, LONG, 1, 3, 1)
