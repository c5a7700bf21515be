import numpy as np
import pytest

from headswap.diffusion import NoiseSchedule, cfg_combine, invert_trajectory, make_schedule
from headswap.experiment import sample_pairs
from headswap.hid import RunConfig, body_condition, compose_head_condition, mask_pairs
from headswap.imaging import gaussian_filter, minmax_normalize
from headswap.iomask import (
    VARIANTS,
    DegenerateReferenceError,
    build_iomask,
    edit_maps,
    io_map,
    orthogonal_component,
    variant_map,
)
from headswap.metrics import mask_iou
from headswap.synthgen import AttributeSpec, BALD, LONG, ground_truth_edit_mask, render_avatar
from helpers import dense_gaussian_reference, stepped_inversion


class TestOrthogonalComponent:
    def test_self_projection_is_exactly_zero(self, rng):
        v = rng.normal(size=(6, 6, 3))
        out = orthogonal_component(v, v)
        assert (out == 0.0).all()

    def test_three_element_example(self):
        eps_b = np.array([2.0, 0.0, 0.0]).reshape(1, 1, 3)
        eps_h = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
        out = orthogonal_component(eps_h, eps_b)
        np.testing.assert_allclose(out.ravel(), [0.0, 2.0, 3.0], atol=1e-15)

    def test_random_pairs_are_orthogonal(self, rng):
        for _ in range(50):
            eps_h = rng.normal(size=(8, 8, 3))
            eps_b = rng.normal(size=(8, 8, 3))
            out = orthogonal_component(eps_h, eps_b)
            cosine = abs(out.ravel() @ eps_b.ravel())
            cosine /= np.linalg.norm(out) * np.linalg.norm(eps_b)
            assert cosine < 1e-10

    def test_zero_reference_rejected(self, rng):
        with pytest.raises(DegenerateReferenceError):
            orthogonal_component(rng.normal(size=(4, 4, 3)), np.zeros((4, 4, 3)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            orthogonal_component(np.zeros((2, 2, 3)), np.zeros((2, 3, 3)))


@pytest.fixture(scope="module")
def body_traj(sched50, predictor):
    body = AttributeSpec(0, LONG, 0, 1, 0)
    image = render_avatar(body).image
    traj = invert_trajectory(image, body_condition(body), sched50, predictor)
    return body, traj


class TestVariantMap:
    def test_naive_differences_two_guided_predictions(self, rng):
        predictions = eps_body, eps_null, eps_head = rng.normal(size=(3, 6, 5, 3))
        naive = variant_map(predictions, "naive", 3.0)
        expected = np.abs(eps_head - cfg_combine(eps_null, eps_body, 3.0)).mean(axis=2)
        np.testing.assert_array_equal(naive, expected)
        assert not np.array_equal(naive, variant_map(predictions, "no_orth", 3.0))

    def test_map_is_the_channel_mean(self):
        eps_head = np.zeros((2, 2, 3))
        eps_head[..., 0] = 1.0
        zeros = np.zeros_like(eps_head)
        np.testing.assert_array_equal(variant_map((zeros, zeros, eps_head), "no_orth", 3.0), 1 / 3)


class TestIoMap:
    def test_equal_conditions_give_zero_field(self, body_traj, sched50, predictor):
        body, traj = body_traj
        cond = body_condition(body)
        for variant in ("full", "naive", "no_orth"):
            cfg = RunConfig(variant=variant, w=1.0).mask
            field = io_map(traj, 40, cond, cond, cfg, sched50, predictor)
            assert (field == 0.0).all()

    def test_variants_coincide_on_identical_predictions(self, body_traj, sched50, predictor):
        # when the guided and reference predictions are the same vector all
        # three variants must produce the same (empty) mask
        body, traj = body_traj
        cond = body_condition(body)
        masks = []
        for variant in ("full", "naive", "no_orth"):
            cfg = RunConfig(variant=variant, w=1.0).mask
            field = io_map(traj, 40, cond, cond, cfg, sched50, predictor)
            masks.append(build_iomask(field, cfg))
        assert all(np.array_equal(masks[0], m) for m in masks[1:])
        assert masks[0].sum() == 0

    def test_full_mask_matches_edit_region_better_than_naive(self, sched50, predictor):
        # Hair-removal pair: with this exact denoiser the naive difference
        # is already sharply peaked, so its raw map holds MORE of its mass
        # inside the true edit region than the orthogonal variant's; the
        # orthogonal variant wins where it counts, at the thresholded mask,
        # whose coverage of the true edit region is what the ablation
        # criterion measures.
        body = AttributeSpec(0, LONG, 0, 1, 0)
        head = AttributeSpec(0, BALD, 0, 1, 0)
        image = render_avatar(body).image
        traj = invert_trajectory(image, body_condition(body), sched50, predictor)
        cond_h = compose_head_condition(head, body)
        cond_b = body_condition(body)
        gt = ground_truth_edit_mask(body, head)
        fractions, ious = {}, {}
        for variant in ("full", "naive"):
            cfg = RunConfig(variant=variant, w=3.0).mask
            field = io_map(traj, 40, cond_h, cond_b, cfg, sched50, predictor)
            fractions[variant] = field[gt.astype(bool)].sum() / field.sum()
            ious[variant] = mask_iou(build_iomask(field, cfg), gt)
        assert fractions["naive"] > fractions["full"]  # measured, frozen
        assert ious["full"] > ious["naive"]

    def test_full_map_orthogonal_to_reference(self, body_traj, sched50, predictor):
        body, traj = body_traj
        head = AttributeSpec(2, BALD, 1, 1, 0)
        cond_h = compose_head_condition(head, body)
        cond_b = body_condition(body)
        z_t = traj[40]
        eps_b = predictor.evaluate(z_t, 40, cond_b)
        from headswap.diffusion import cfg_combine
        from headswap.synthgen import NULL_CONDITION

        cfg = RunConfig(variant="full", w=3.0).mask
        eps_h = cfg_combine(
            predictor.evaluate(z_t, 40, NULL_CONDITION),
            predictor.evaluate(z_t, 40, cond_h),
            cfg.w,
        )
        diff = orthogonal_component(eps_h, eps_b)
        inner = abs(diff.ravel() @ eps_b.ravel())
        assert inner <= 1e-10 * np.linalg.norm(diff) * np.linalg.norm(eps_b)

    def test_public_inversion_gives_the_mask_stage_maps(self, sched50, predictor):
        # io_map at the public inversion's t_edit latent is the product's mask
        # stage bit for bit, every variant; the stepped inversion's latents
        # move the maps' bits but not the masks
        cfg = RunConfig()
        pairs = sample_pairs(3, 6)
        _, conds_head, maps, masks = mask_pairs(pairs, cfg, VARIANTS, predictor)
        for p, (body, _) in enumerate(pairs):
            image, cond_b = render_avatar(body).image, body_condition(body)
            traj = invert_trajectory(image, cond_b, sched50, predictor)
            stepped = stepped_inversion(image, cond_b, sched50, predictor)
            for v, variant in enumerate(VARIANTS):
                args = (cfg.edit_start, conds_head[p], cond_b, cfg.swap_config(variant))
                assert io_map(traj, *args, sched50, predictor).tobytes() == maps[p, v].tobytes()
                stepped_map = io_map(stepped, *args, sched50, predictor)
                assert np.array_equal(build_iomask(stepped_map, args[-1]), masks[p, v])

    def test_step_out_of_range(self, body_traj, sched50, predictor):
        body, traj = body_traj
        cond = body_condition(body)
        with pytest.raises(ValueError):
            io_map(traj, 0, cond, cond, RunConfig().mask, sched50, predictor)

    @pytest.mark.parametrize(
        "sched",
        [NoiseSchedule(np.linspace(1.0, 0.01, 51)), make_schedule(100)],
        ids=["same_T", "T100"],
    )
    def test_foreign_schedule_rejected(self, body_traj, sched, predictor):
        body, traj = body_traj
        cond = body_condition(body)
        with pytest.raises(ValueError, match="different noise schedule"):
            io_map(traj, 40, cond, cond, RunConfig().mask, sched, predictor)

    def test_latent_not_constant_on_classes_rejected(self, body_traj, sched50, predictor, rng):
        # c[40] x plus a small random field is not constant on the column classes
        body, _ = body_traj
        cond = body_condition(body)
        traj = sched50.inversion[:, None, None, None] * render_avatar(body).image
        traj[40] += 1e-6 * rng.normal(size=traj[40].shape)
        with pytest.raises(ValueError, match="constant on the corpus's column classes"):
            io_map(traj, 40, cond, cond, RunConfig().mask, sched50, predictor)
        for latents in (traj[40:41], traj[39:41]):
            with pytest.raises(ValueError, match="constant on the corpus's column classes"):
                conds = [cond] * len(latents)
                edit_maps(latents, 40, conds, conds, VARIANTS, 3.0, predictor)
        assert io_map(traj, 39, cond, cond, RunConfig().mask, sched50, predictor).shape == (32, 32)

    def test_conditions_for_each_latent(self, body_traj, predictor):
        body, traj = body_traj
        cond = body_condition(body)
        latents = traj[40:42]
        for conds_head, conds_body in (([cond], [cond] * 2), ([cond] * 2, [cond]), ([cond],) * 2):
            with pytest.raises(ValueError, match="conditions for latents"):
                edit_maps(latents, 40, conds_head, conds_body, VARIANTS, 3.0, predictor)
        with pytest.raises(ValueError, match="conditions for latents"):
            edit_maps(latents[:, :-1], 40, [cond] * 2, [cond] * 2, VARIANTS, 3.0, predictor)

    def test_unknown_variant_rejected(self, body_traj, sched50, predictor):
        body, traj = body_traj
        cond = body_condition(body)
        with pytest.raises(ValueError, match="variant"):
            edit_maps(traj[40][None], 40, [cond], [cond], ("fancy",), 3.0, predictor)


class TestBuildIoMask:
    def test_zero_map_gives_empty_mask(self):
        mask = build_iomask(np.zeros((32, 32)), RunConfig(tau=0.6).mask)
        assert mask.sum() == 0

    def test_zero_tau_gives_full_mask(self, rng):
        # the spike's blurred map is exactly 0 beyond the kernel's reach,
        # which a value >= 0 still keeps
        spike = np.zeros((32, 32))
        spike[16, 16] = 1.0
        for field in (rng.uniform(0, 1, (32, 32)), spike):
            mask = build_iomask(field, RunConfig(tau=0.0).mask)
            assert (mask == 1).all()

    def test_single_spike_filtered_below_threshold(self):
        spike = np.zeros((32, 32))
        spike[16, 16] = 1.0
        cfg = RunConfig(tau=0.6, sigma=2.0).mask
        mask = build_iomask(spike, cfg)
        assert mask.sum() == 0
        # pin the mechanism with the dense-convolution reference: the
        # filtered peak is exactly the kernel's center weight, far below tau
        peak = dense_gaussian_reference(spike, 2.0)[16, 16]
        assert peak == pytest.approx(gaussian_filter(spike, 2.0)[16, 16], abs=1e-13)
        assert peak < 0.6

    def test_scale_invariance(self, rng):
        field = rng.uniform(0, 1, (32, 32))
        cfg = RunConfig().mask
        base = build_iomask(field, cfg)
        for scale in (1e-9, 3.0, 1e7):
            np.testing.assert_array_equal(build_iomask(scale * field, cfg), base)

    def test_pipeline_order_normalize_filter_threshold(self, rng):
        field = rng.uniform(0, 5, (32, 32))
        cfg = RunConfig(tau=0.55, sigma=1.3).mask
        expected = (gaussian_filter(minmax_normalize(field), 1.3) >= 0.55).astype(np.uint8)
        np.testing.assert_array_equal(build_iomask(field, cfg), expected)
