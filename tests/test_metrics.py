from dataclasses import replace

import numpy as np
import pytest

from headswap.metrics import attribute_probe, mask_iou, region_mse, swap_reference
from headswap.synthgen import (
    HAIR_PALETTE,
    AttributeSpec,
    BALD,
    LONG,
    SHORT,
    oracle_swap,
    render_avatar,
)


class TestMaskIou:
    def test_identical_masks(self):
        mask = np.zeros((8, 8), dtype=np.uint8)
        mask[2:5, 2:5] = 1
        assert mask_iou(mask, mask) == 1.0

    def test_disjoint_masks(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.zeros((8, 8), dtype=np.uint8)
        a[0, 0] = 1
        b[7, 7] = 1
        assert mask_iou(a, b) == 0.0

    def test_partial_overlap_counts(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        a[0, 0] = a[0, 1] = 1
        b[0, 0] = b[3, 3] = 1
        assert mask_iou(a, b) == pytest.approx(1 / 3)

    def test_both_empty_defined_as_one(self):
        empty = np.zeros((4, 4), dtype=np.uint8)
        assert mask_iou(empty, empty) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mask_iou(np.zeros((4, 4)), np.zeros((4, 5)))


class TestRegionMse:
    def test_equal_inputs(self, rng):
        x = rng.uniform(0, 1, (6, 6, 3))
        region = np.ones((6, 6), dtype=np.uint8)
        assert region_mse(x, x, region) == 0.0

    def test_constant_offset(self):
        x = np.zeros((4, 4, 3))
        y = np.full((4, 4, 3), 0.5)
        region = np.zeros((4, 4), dtype=np.uint8)
        region[1:3, 1:3] = 1
        assert region_mse(x, y, region) == pytest.approx(0.25)

    def test_empty_region_is_zero(self, rng):
        x = rng.uniform(0, 1, (4, 4, 3))
        y = rng.uniform(0, 1, (4, 4, 3))
        assert region_mse(x, y, np.zeros((4, 4), dtype=np.uint8)) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            region_mse(np.zeros((4, 4, 3)), np.zeros((4, 4, 3)), np.zeros((5, 4)))


class TestAttributeProbe:
    @pytest.mark.parametrize(
        "body,head",
        [
            (AttributeSpec(0, LONG, 0, 1, 0), AttributeSpec(2, BALD, 1, 3, -1)),
            (AttributeSpec(1, SHORT, 2, 0, 1), AttributeSpec(0, LONG, 0, 2, 0)),
            (AttributeSpec(2, BALD, 1, 2, -1), AttributeSpec(1, SHORT, 2, 0, 1)),
            (AttributeSpec(0, SHORT, 0, 0, 0), AttributeSpec(0, SHORT, 0, 0, 0)),
        ],
    )
    def test_oracle_scores_perfectly(self, body, head):
        matched, total = attribute_probe(oracle_swap(body, head).image, swap_reference(body, head))
        assert (matched, total) == (3, 3)

    def test_unedited_body_scores_zero_when_all_attributes_differ(self):
        body = AttributeSpec(0, LONG, 0, 1, 0)
        head = AttributeSpec(1, SHORT, 1, 1, 0)  # differs in skin, style, color
        matched, total = attribute_probe(render_avatar(body).image, swap_reference(body, head))
        assert (matched, total) == (0, 3)

    def test_probe_detects_missing_long_hair(self):
        body = AttributeSpec(0, BALD, 0, 1, 0)
        head = AttributeSpec(0, LONG, 0, 1, 0)
        # the body image lacks the long hair the head demands, so the style
        # judgment must fail; the skin (unchanged) always matches, and the
        # color read off the revealed background may land anywhere
        matched, total = attribute_probe(render_avatar(body).image, swap_reference(body, head))
        assert total == 3
        assert 1 <= matched <= 2

    def test_quarter_hairlike_long_region_counts_as_long(self):
        body = AttributeSpec(1, SHORT, 2, 0, 1)
        head = AttributeSpec(0, LONG, 0, 2, 0)
        ref = swap_reference(body, head)
        region = np.zeros_like(ref.long_hair)
        region[31, :4] = True  # four pixels away from the disc and hair regions
        assert not (region & (ref.oracle.head_mask | ref.oracle.hair_mask).astype(bool)).any()
        image = ref.oracle.image.copy()
        image[31, :4] = 0.0  # black is far from every hair color
        probe_ref = replace(ref, long_hair=region)
        assert attribute_probe(image, probe_ref) == (2, 3)
        image[31, 0] = HAIR_PALETTE[0]  # exactly 25% of the region looks like hair
        assert attribute_probe(image, probe_ref) == (3, 3)
