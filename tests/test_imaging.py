import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headswap.imaging import (
    _blur_plan,
    _reflect_index,
    encode_gray,
    gaussian_filter,
    gaussian_kernel_1d,
    minmax_normalize,
    overlay_heatmap,
    quantize_bytes,
    threshold,
    write_gray,
    write_image,
    write_mask,
)
from helpers import dense_gaussian_reference, read_pnm, sliding_window_blur

# center weight of the normalized radius-3 kernel for sigma=1, squared for 2-D
CENTER_WEIGHT_SIGMA1 = 0.3990502796524549**2


class TestGaussianFilter:
    def test_constant_field_preserved(self, rng):
        for sigma in (0.5, 1.0, 2.7):
            const = np.full((9, 7), 3.25)
            out = gaussian_filter(const, sigma)
            np.testing.assert_allclose(out, const, atol=1e-12)

    def test_spike_matches_dense_reference(self):
        field = np.zeros((5, 5))
        field[2, 2] = 1.0
        out = gaussian_filter(field, 1.0)
        assert out[2, 2] == pytest.approx(CENTER_WEIGHT_SIGMA1, abs=1e-14)
        np.testing.assert_allclose(out, dense_gaussian_reference(field, 1.0), atol=1e-13)

    def test_random_fields_match_dense_reference(self, rng):
        for sigma in (0.8, 2.0):
            field = rng.normal(size=(12, 10))
            np.testing.assert_allclose(
                gaussian_filter(field, sigma),
                dense_gaussian_reference(field, sigma),
                atol=1e-12,
            )

    def test_output_within_input_range(self, rng):
        field = rng.uniform(-5, 5, size=(16, 16))
        out = gaussian_filter(field, 1.5)
        assert out.min() >= field.min() - 1e-12
        assert out.max() <= field.max() + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), sigma=st.floats(0.3, 3.0))
    def test_linearity(self, seed, sigma):
        gen = np.random.default_rng(seed)
        x = gen.normal(size=(8, 8))
        y = gen.normal(size=(8, 8))
        a, b = 1.7, -0.4
        lhs = gaussian_filter(a * x + b * y, sigma)
        rhs = a * gaussian_filter(x, sigma) + b * gaussian_filter(y, sigma)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_interior_mass_preserved(self, rng):
        field = np.zeros((21, 21))
        field[8:13, 8:13] = rng.uniform(0, 1, size=(5, 5))
        out = gaussian_filter(field, 1.0)
        assert out.sum() == pytest.approx(field.sum(), abs=1e-9)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            gaussian_filter(np.zeros((4, 4)), 0.0)
        with pytest.raises(ValueError):
            gaussian_filter(np.zeros((4, 4)), -1.0)

    def test_kernel_unit_sum(self):
        for sigma in (0.4, 1.0, 3.3):
            assert gaussian_kernel_1d(sigma).sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_tiny_sigma_is_identity_without_warning(self):
        for sigma in (1e-300, 5e-324):
            assert gaussian_kernel_1d(sigma).tolist() == [0.0, 1.0, 0.0]

    def test_rejects_non_finite(self):
        field = np.zeros((4, 4))
        field[1, 1] = np.nan
        with pytest.raises(ValueError):
            gaussian_filter(field, 1.0)

    @pytest.mark.parametrize("sigma", [0.3, 2.0, 20.0, 100.0])
    @pytest.mark.parametrize("grid", [(1, 1), (1, 32), (32, 7)])
    def test_bit_equals_sliding_window_reference(self, rng, sigma, grid):
        # radius 300 at sigma 100 reflects many times across every grid here
        for shape in (grid, (2, 3) + grid):
            field = rng.normal(size=shape)
            want = sliding_window_blur(field, sigma)
            for _ in range(2):  # the cached plan gives the same bits again
                assert gaussian_filter(field, sigma).tobytes() == want.tobytes()

    def test_plan_is_made_once_and_read_only(self):
        plan = _blur_plan(2.0, 32, 7)
        assert _blur_plan(2.0, 32, 7) is plan
        for array in plan:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0


class TestMinmaxNormalize:
    def test_affine_example(self):
        out = minmax_normalize(np.array([[0.0, 5.0, 10.0]]))
        np.testing.assert_allclose(out, [[0.0, 0.5, 1.0]])

    def test_constant_maps_to_zeros(self):
        out = minmax_normalize(np.full((3, 4), 7.7))
        assert (out == 0.0).all()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_attains_both_endpoints(self, seed):
        gen = np.random.default_rng(seed)
        field = gen.normal(size=(6, 6))
        out = minmax_normalize(field)
        assert out.min() == 0.0
        assert out.max() == 1.0


class TestThreshold:
    def test_zero_tau_all_ones(self, rng):
        field = rng.uniform(0, 1, size=(5, 5))
        assert (threshold(field, 0.0) == 1).all()

    def test_inclusive_comparison(self):
        mask = threshold(np.array([[0.59, 0.60, 0.61]]), 0.6)
        np.testing.assert_array_equal(mask, [[0, 1, 1]])

    def test_tau_one_below_max(self):
        assert (threshold(np.full((3, 3), 0.99), 1.0) == 0).all()

    def test_tau_out_of_range(self):
        for tau in (-0.1, 1.1):
            with pytest.raises(ValueError):
                threshold(np.zeros((2, 2)), tau)

    def test_values_are_binary(self, rng):
        mask = threshold(rng.uniform(0, 1, size=(8, 8)), 0.35)
        assert set(np.unique(mask)) <= {0, 1}

    def test_normalized_then_zero_tau_is_all_ones(self, rng):
        field = rng.normal(size=(7, 9))
        assert (threshold(minmax_normalize(field), 0.0) == 1).all()


class TestStackedMaps:
    """The blur, normalization and threshold take a stack of maps, each
    bit for bit as it would be alone."""

    MAP_FUNCTIONS = {
        "gaussian_filter": lambda field: gaussian_filter(field, 1.3),
        "minmax_normalize": minmax_normalize,
        "threshold": lambda field: threshold(field, 0.4),
    }

    @pytest.mark.parametrize("name", sorted(MAP_FUNCTIONS))
    def test_stack_bit_equals_each_map(self, rng, name):
        fn = self.MAP_FUNCTIONS[name]
        stack = rng.uniform(0, 1, size=(4, 9, 11))
        stack[1] = 0.37  # a constant map
        stack[3] *= 1e-3
        whole = fn(stack)
        assert whole.shape == stack.shape
        for got, field in zip(whole, stack):
            alone = fn(field)
            assert got.dtype == alone.dtype and got.tobytes() == alone.tobytes()
        # a (P, V, H, W) stack is a (P * V, H, W) stack
        assert fn(stack.reshape(2, 2, 9, 11)).tobytes() == whole.tobytes()

    def test_constant_map_in_a_stack_normalizes_to_zeros(self, rng):
        stack = np.stack([np.full((5, 5), 2.5), rng.normal(size=(5, 5))])
        out = minmax_normalize(stack)
        assert (out[0] == 0.0).all()
        assert out[1].min() == 0.0 and out[1].max() == 1.0

    def test_reflect_index_pads_as_numpy_reflect(self, rng):
        # the blur's padding gathers, against np.pad, including radii
        # longer than the map, which reflect more than once
        for height, width in ((1, 1), (1, 5), (2, 3), (7, 4), (32, 32)):
            field = rng.normal(size=(height, width))
            for radius in (0, 1, 3, 6, 13, 40):
                padded = field[_reflect_index(height, radius)][:, _reflect_index(width, radius)]
                assert np.array_equal(padded, np.pad(field, radius, mode="reflect"))

    def test_files_still_take_one_map(self):
        with pytest.raises(ValueError, match="2-D array"):
            encode_gray(np.zeros((2, 3, 3)))
        for fn in self.MAP_FUNCTIONS.values():
            with pytest.raises(ValueError, match="stack"):
                fn(np.zeros(4))


class TestPnmIO:
    def test_quantization_endpoints(self):
        assert quantize_bytes(np.array([1.0]))[0] == 255
        assert quantize_bytes(np.array([0.0]))[0] == 0
        assert quantize_bytes(np.array([0.5]))[0] == 128

    def test_ppm_round_trip(self, rng, tmp_path):
        grid = rng.uniform(-0.2, 1.2, size=(8, 8, 3))
        path = tmp_path / "grid.ppm"
        write_image(grid, path)
        np.testing.assert_array_equal(read_pnm(path), quantize_bytes(grid))

    def test_pgm_round_trip(self, rng, tmp_path):
        field = rng.uniform(0, 1, size=(5, 9))
        path = tmp_path / "field.pgm"
        write_gray(field, path)
        np.testing.assert_array_equal(read_pnm(path), quantize_bytes(field))

    def test_mask_bytes(self, tmp_path):
        mask = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        path = tmp_path / "mask.pgm"
        write_mask(mask, path)
        raw = path.read_bytes()
        assert raw.endswith(bytes([0, 255, 255, 0]))

    def test_write_mask_rejects_non_binary(self, tmp_path):
        with pytest.raises(ValueError):
            write_mask(np.array([[0, 2]]), tmp_path / "bad.pgm")

    def test_write_image_requires_three_channels(self, tmp_path):
        with pytest.raises(ValueError):
            write_image(np.zeros((4, 4, 1)), tmp_path / "bad.ppm")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_write_image_rejects_non_finite(self, tmp_path, value):
        grid = np.zeros((4, 4, 3))
        grid[1, 2, 0] = value
        with pytest.raises(ValueError, match="non-finite"):
            write_image(grid, tmp_path / "bad.ppm")
        assert not (tmp_path / "bad.ppm").exists()


class TestOverlayHeatmap:
    def test_zero_field_is_identity(self, rng):
        base = rng.uniform(0, 1, size=(6, 6, 3))
        np.testing.assert_array_equal(overlay_heatmap(base, np.zeros((6, 6))), base)

    def test_full_field_on_black(self):
        base = np.zeros((4, 4, 3))
        out = overlay_heatmap(base, np.ones((4, 4)))
        np.testing.assert_allclose(out, np.broadcast_to([0.6, 0.0, 0.0], (4, 4, 3)))

    def test_output_in_unit_range(self, rng):
        base = rng.uniform(0, 1, size=(5, 5, 3))
        field = rng.uniform(0, 1, size=(5, 5))
        out = overlay_heatmap(base, field)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="field shape"):
            overlay_heatmap(np.zeros((4, 4, 3)), np.zeros((5, 4)))
        for base in (np.zeros((4, 4)), np.zeros((4, 4, 4)), np.zeros((1, 4, 4, 3))):
            with pytest.raises(ValueError, match=r"base must be \(H, W, 3\)"):
                overlay_heatmap(base, np.zeros((4, 4)))
