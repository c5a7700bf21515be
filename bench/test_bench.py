"""Tests of the benchmark's own arithmetic on small hand-made inputs.

    python3 -m pytest bench/test_bench.py
"""

import math
import statistics

import numpy as np
import pytest

import checks
import spans


def test_spread_is_interquartile_range_over_median():
    # statistics.quantiles(n=4) on 1..9 (exclusive method) gives 2.5, 5, 7.5
    assert checks.spread(range(1, 10)) == pytest.approx((7.5 - 2.5) / 5)
    assert checks.spread([4.0] * 6) == 0.0


def test_median_of_even_count_averages_the_middle_pair():
    assert statistics.median([3.0, 1.0, 4.0, 2.0]) == 2.5


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]
    trace = [
        (1, "b", 1.0, 4.0, 0),
        (3, "d", 6.0, 8.0, 2),
        (2, "c", 5.0, 9.0, 0),
        (0, "a", 0.0, 10.0, None),
    ]
    assert spans.self_times(trace) == {"a": 3.0, "b": 3.0, "c": 2.0, "d": 2.0}


def test_self_time_sums_spans_of_one_name():
    trace = [(1, "x", 0.0, 1.0, 0), (2, "x", 2.0, 3.5, 0), (0, "p", 0.0, 4.0, None)]
    assert spans.self_times(trace) == {"x": 2.5, "p": 1.5}


def test_layer_metrics_skip_corpus_renders_and_nested_writes():
    trace = [
        (1, "synthgen.render_avatar", 0.0, 1.0, 0),
        (0, "synthgen.enumerate_dataset", 0.0, 2.0, None),
        (2, "synthgen.render_avatar", 3.0, 4.0, None),
        (4, "imaging.write", 5.0, 5.5, 3),
        (3, "imaging.write", 5.0, 6.0, None),
    ]
    out = spans.layer_metrics(trace, {"imaging.write.bytes": 100}, ops=2, pairs=1)
    assert out["synthgen.render_avatar.calls_per_op"] == 0.5
    assert out["synthgen.enumerate_dataset_ms"] == 2000.0
    assert out["imaging.write.calls_per_op"] == 0.5
    assert out["imaging.write.self_ms"] == 500.0  # the whole outer write, split over 2 ops
    assert out["imaging.write.bytes_per_op"] == 50.0


def test_condition_kind():
    class Cond:
        def __init__(self, n):
            self.constraints = tuple((f"a{i}", 0) for i in range(n))

    assert [spans.condition_kind(Cond(n)) for n in (0, 4, 5)] == ["null", "head", "body"]


def test_iou_counts_pixels():
    a = np.array([[1, 1, 0], [0, 0, 0]], dtype=bool)
    b = np.array([[0, 1, 1], [0, 0, 0]], dtype=bool)
    assert checks.iou(a, b) == 1 / 3
    assert checks.iou(np.zeros((2, 2), bool), np.zeros((2, 2), bool)) == 1.0


def test_mask_and_outside_pixels_from_written_bytes(tmp_path):
    (tmp_path / "m.pgm").write_bytes(b"P5\n2 1\n255\n" + bytes([255, 0]))
    # the raster starts with bytes that are whitespace in the header
    (tmp_path / "o.ppm").write_bytes(b"P6\n2 1\n255\n" + bytes([10, 32, 9, 7, 8, 9]))
    (tmp_path / "b.ppm").write_bytes(b"P6\n2 1\n255\n" + bytes([0, 0, 0, 7, 8, 9]))
    mask = checks.mask_from_pgm(checks.read_pnm(tmp_path / "m.pgm"))
    assert mask.tolist() == [[True, False]]
    out, body = checks.read_pnm(tmp_path / "o.ppm"), checks.read_pnm(tmp_path / "b.ppm")
    assert out.shape == (1, 2, 3)
    assert checks.outside_mask_mismatches(out, body, mask) == 0
    assert checks.outside_mask_mismatches(out, body, ~mask) == 1


def test_read_pnm_rejects_truncated_raster_and_gray_masks(tmp_path):
    (tmp_path / "t.pgm").write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 0]))
    with pytest.raises(ValueError, match="raster"):
        checks.read_pnm(tmp_path / "t.pgm")
    with pytest.raises(ValueError, match="other than 0 and 255"):
        checks.mask_from_pgm(np.array([[0, 128]], dtype=np.uint8))


def test_cosine_alpha_bar_endpoints():
    ab = checks.cosine_alpha_bar(4)
    assert ab[0] == 1.0
    assert ab[-1] == checks.ALPHA_BAR_FLOOR  # cos(pi/2)^2 underflows the floor
    assert all(x >= y for x, y in zip(ab, ab[1:]))


def test_inversion_coefficients_by_hand():
    ab = [1.0, 0.64, 0.36, 0.16]
    k = (1 - 0.8) / 0.6
    c = checks.inversion_coefficients(ab)
    assert c[0] == 1.0
    assert c[1] == pytest.approx(1.0)
    assert c[2] == pytest.approx(0.6 + k * 0.8)
    assert c[3] == pytest.approx(0.4 + k * math.sqrt(0.84))


def test_inversion_coefficients_follow_a_single_image_ddim_inversion():
    # DDIM inversion with the exact one-image noise prediction, written out here
    ab = checks.cosine_alpha_bar(6)
    x = np.array([[[0.2, 0.5, 0.9]]])
    z, latents = x, [x]
    for t in range(6):
        s = max(t, 1)
        eps = (z - math.sqrt(ab[s]) * x) / math.sqrt(1 - ab[s])
        ratio = math.sqrt(ab[t + 1] / ab[t])
        drift = (math.sqrt(1 / ab[t + 1] - 1) - math.sqrt(1 / ab[t] - 1)) * math.sqrt(ab[t + 1])
        z = ratio * z + drift * eps
        latents.append(z)
    traj = np.stack(latents)
    assert checks.inversion_deviation(traj, x, checks.inversion_coefficients(ab)) < 1e-14
    traj[3] += 1e-9
    assert checks.inversion_deviation(traj, x, checks.inversion_coefficients(ab)) > 1e-10
