import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headswap.diffusion import (
    ALPHA_BAR_FLOOR,
    COSINE_OFFSET,
    EmpiricalNoisePredictor,
    NoMatchingConditionError,
    NoiseSchedule,
    cfg_combine,
    ddim_invert_step,
    ddim_sample_loop,
    ddim_sample_step,
    inversion_coefficients,
    invert_trajectory,
    make_schedule,
)
from headswap.hid import body_condition, compose_head_condition
from headswap.synthgen import (
    AttributeSpec,
    Condition,
    NULL_CONDITION,
    all_attribute_specs,
    condition_match,
)
from helpers import mp_posterior_eps, pixel_posterior_eps, pixel_posterior_weights

SHAPE = (4, 4, 3)


def toy_attrs(count):
    """Image i has clothing_color i % 4, which a condition can select on."""
    return [AttributeSpec.from_ints((0, 0, 0, i % 4, -1)) for i in range(count)]


def toy_predictor(images, sched):
    images = np.asarray(images, dtype=np.float64)
    return EmpiricalNoisePredictor(images, toy_attrs(len(images)), sched)


def matching(specs, cond) -> np.ndarray:
    """The indices of the attribute specs that ``cond`` keeps."""
    return np.flatnonzero([condition_match(cond, spec) for spec in specs])


class TestSchedule:
    def test_alpha_bar_zero_is_exactly_one(self):
        assert make_schedule(50).alpha_bar[0] == 1.0

    def test_strictly_decreasing_at_t50(self):
        ab = make_schedule(50).alpha_bar
        assert (np.diff(ab) < 0).all()

    def test_terminal_value_matches_closed_form(self):
        # direct evaluation of the cosine expression at t = T, pre-clamp
        T, s = 50, COSINE_OFFSET
        raw = np.cos((1.0 + s) / (1.0 + s) * np.pi / 2) ** 2
        norm = np.cos(s / (1.0 + s) * np.pi / 2) ** 2
        assert raw / norm < ALPHA_BAR_FLOOR  # clamp engages
        ab = make_schedule(T).alpha_bar
        assert ab[T] == ALPHA_BAR_FLOOR
        assert ab[T] < 0.01

    def test_range_invariants(self):
        for T in (2, 50, 200):
            ab = make_schedule(T).alpha_bar
            assert ab[0] >= 0.999
            assert ab[-1] <= 0.05
            assert (ab > 0).all() and (ab <= 1).all()
            assert (np.diff(ab) <= 0).all()

    def test_small_T_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(1)

    def test_validation_rejects_increasing(self):
        with pytest.raises(ValueError):
            NoiseSchedule(T=2, alpha_bar=np.array([1.0, 0.5, 0.6]))

    def test_validation_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            NoiseSchedule(T=2, alpha_bar=np.array([0.9, 0.5, 0.01]))
        with pytest.raises(ValueError):
            NoiseSchedule(T=2, alpha_bar=np.array([1.0, 0.5, 0.2]))


class TestEmpiricalEps:
    def test_singleton_recovers_injected_noise(self, rng):
        sched = make_schedule(50)
        x = rng.uniform(0, 1, SHAPE)
        pred = toy_predictor([x], sched)
        t = 30
        ab = sched.alpha_bar[t]
        noise = rng.normal(size=SHAPE)
        z = np.sqrt(ab) * x + np.sqrt(1 - ab) * noise
        out = pred.evaluate(z, t, NULL_CONDITION)
        np.testing.assert_allclose(out, noise, atol=1e-12)

    def test_antipodal_pair_at_origin_gives_zero(self, rng):
        sched = make_schedule(50)
        x = rng.normal(size=SHAPE)
        pred = toy_predictor([x, -x], sched)
        out = pred.evaluate(np.zeros(SHAPE), 25, NULL_CONDITION)
        assert (out == 0.0).all()

    def test_matches_high_precision_reference(self, rng):
        sched = make_schedule(50)
        images = rng.uniform(0, 1, (3,) + SHAPE)
        pred = toy_predictor(images, sched)
        for t in (1, 20, 49):
            z = rng.normal(size=SHAPE)
            got = pred.evaluate(z, t, NULL_CONDITION)
            want = mp_posterior_eps(images, z, float(sched.alpha_bar[t]))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_empty_condition_subset_rejected(self, rng):
        sched = make_schedule(50)
        pred = toy_predictor(rng.uniform(0, 1, (2,) + SHAPE), sched)
        with pytest.raises(NoMatchingConditionError):
            pred.evaluate(np.zeros(SHAPE), 10, Condition.of(clothing_color=3))

    def test_step_zero_rejected(self, rng):
        sched = make_schedule(50)
        pred = toy_predictor(rng.uniform(0, 1, (2,) + SHAPE), sched)
        for t in (0, 51):
            with pytest.raises(ValueError):
                pred.evaluate(np.zeros(SHAPE), t, NULL_CONDITION)

    def test_weights_form_convex_combination(self, rng):
        # the posterior mean is a convex combination: it lies in the images' hull
        sched = make_schedule(50)
        images = rng.uniform(0, 1, (5,) + SHAPE)
        pred = toy_predictor(images, sched)
        classes = pred.column_classes
        flat = images.reshape(len(images), -1)
        for z in rng.normal(size=(4,) + SHAPE):
            sums = classes.sums(z.reshape(1, 1, -1))
            x0 = pred.class_posterior_mean(sums, 35, [NULL_CONDITION])[0, 0]
            assert (x0[classes.inv] >= flat.min(axis=0) - 1e-12).all()
            assert (x0[classes.inv] <= flat.max(axis=0) + 1e-12).all()

    def test_softmax_stable_for_large_latents(self, rng):
        sched = make_schedule(50)
        pred = toy_predictor(rng.uniform(0, 1, (4,) + SHAPE), sched)
        z = rng.normal(size=SHAPE)
        z *= 1e3 / np.linalg.norm(z)
        for t in (1, 25, 50):
            out = pred.evaluate(z, t, NULL_CONDITION)
            assert np.isfinite(out).all()


    def test_one_image_shortcut_bit_equals_softmax_path(self, rng):
        sched = make_schedule(50)
        images = rng.uniform(0, 1, (4,) + SHAPE)
        pred = toy_predictor(images, sched)  # clothing_color i selects image i alone
        cond = Condition.of(clothing_color=2)
        x = images[2].ravel()
        classes = pred.column_classes
        for t in (1, 20, 50):
            z = rng.normal(size=SHAPE)
            x0 = pred.class_posterior_mean(classes.sums(z.reshape(1, 1, -1)), t, [cond])[0, 0]
            assert x0[classes.inv].tobytes() == x.tobytes()
            # the general path: a softmax over the one logit, then the weighted mean
            ab = float(sched.alpha_bar[t])
            logit = (2.0 * math.sqrt(ab) * (x @ z.ravel()) - ab * (x @ x)) / (2.0 * (1.0 - ab))
            logits = np.array([logit])
            logits -= logits.max()
            general = np.exp(logits)
            general /= general.sum()
            x0 = (general @ x[None, :]).reshape(SHAPE)
            expected = (z - math.sqrt(ab) * x0) / math.sqrt(1.0 - ab)
            assert np.array_equal(pred.evaluate(z, t, cond), expected)


class TestStackedPredictor:
    """Class-space posterior means of a stack of latents against the single-latent path."""

    @pytest.fixture(scope="class")
    def stack(self, dataset):
        specs = all_attribute_specs()
        gen = np.random.default_rng(11)
        bodies = [specs[int(k)] for k in gen.choice(324, size=3, replace=False)]
        heads = [specs[int(k)] for k in gen.choice(324, size=3, replace=False)]
        # head conditions (four images), null and a one-image body condition
        conds = [compose_head_condition(h, b) for b, h in zip(bodies, heads)]
        conds += [NULL_CONDITION, body_condition(bodies[2])]
        images = [dataset[int(k)].image for k in gen.choice(324, size=8)]
        z = np.stack([0.3 * image + 0.2 * gen.normal(size=image.shape) for image in images])
        return z, conds

    @pytest.mark.parametrize("t", [1, 10, 25, 40, 50])
    def test_masked_softmax_matches_subset_weights(self, stack, predictor, t):
        # a condition restricts the corpus: its posterior mean weighs the
        # images by the softmax of the full-corpus logits masked to its columns
        z, conds = stack
        ab = float(predictor.schedule.alpha_bar[t])
        flat = predictor.images.reshape(len(predictor), -1)
        corpus_logits = (
            2.0 * math.sqrt(ab) * (z.reshape(len(z), -1) @ flat.T) - ab * (flat * flat).sum(axis=1)
        ) / (2.0 * (1.0 - ab))
        classes = predictor.column_classes
        sums = classes.sums(z.reshape(len(z), -1))
        for cond in conds:
            indices = matching(all_attribute_specs(), cond)
            masked = corpus_logits[:, indices]
            masked = np.exp(masked - masked.max(axis=1, keepdims=True))
            expected = (masked / masked.sum(axis=1, keepdims=True)) @ flat[indices]
            x0 = predictor.class_posterior_mean(sums[None], t, [cond])[0]
            np.testing.assert_allclose(x0[:, classes.inv], expected, rtol=0, atol=1e-12)
            for row in range(len(z)):
                row_x0 = predictor.class_posterior_mean(sums[None, None, row], t, [cond])[0, 0]
                np.testing.assert_allclose(x0[row], row_x0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_stack_of_one_bit_equals_single_latent(self, stack, predictor, t):
        # latents stacked as stacks of one row each give each latent's own bits
        z, conds = stack
        sums = predictor.column_classes.sums(z.reshape(len(z), 1, -1))
        for cond in conds:
            stacked = predictor.class_posterior_mean(sums, t, [cond] * len(z))
            for row in range(len(z)):
                x0 = predictor.class_posterior_mean(sums[row : row + 1], t, [cond])
                assert np.array_equal(stacked[row], x0[0])

    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_stacks_under_mixed_conditions_bit_equal_each_stack_alone(self, stack, predictor, t):
        # subsets of 4, 4, 4, 324 and 1 images: the equal sizes share one
        # stacked matmul, and every stack keeps the bits of its own call
        z, conds = stack
        sums = predictor.column_classes.sums(z.reshape(len(z), -1))
        for rows in (slice(0, 3), slice(0, 1), slice(None)):
            stacks = np.stack([sums[rows]] * len(conds))
            x0 = predictor.class_posterior_mean(stacks, t, conds)
            assert x0.shape == stacks.shape
            for stack_sums, cond, stack_x0 in zip(stacks, conds, x0):
                alone = predictor.class_posterior_mean(stack_sums[None], t, [cond])
                assert np.array_equal(stack_x0, alone[0])

    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_evaluate_is_class_posterior_mean_scattered(self, stack, predictor, t):
        # the one predictor path: pixels -> class sums -> class-space mean -> pixels
        z, conds = stack
        classes = predictor.column_classes
        ab = float(predictor.schedule.alpha_bar[t])
        sums = classes.sums(z.reshape(len(z), -1))
        for cond, size in ((NULL_CONDITION, 324), (conds[0], 4)):
            assert matching(all_attribute_specs(), cond).size == size
            for latent, latent_sums in zip(z, sums):
                x0 = predictor.class_posterior_mean(latent_sums[None, None], t, [cond])[0, 0]
                scattered = (x0 * -math.sqrt(ab))[classes.inv].reshape(latent.shape)
                want = (scattered + latent) / math.sqrt(1.0 - ab)
                assert np.array_equal(predictor.evaluate(latent, t, cond), want)
        for bad in (sums[None, :, :-1], sums, sums[0], z):
            with pytest.raises(ValueError, match="class sums"):
                predictor.class_posterior_mean(bad, t, [NULL_CONDITION])
        for bad_conds in ([], [NULL_CONDITION] * 2):
            with pytest.raises(ValueError, match="conditions for 1 stacks"):
                predictor.class_posterior_mean(sums[None], t, bad_conds)

    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_one_image_posterior_mean_is_its_column(self, stack, predictor, t):
        # a single logit's softmax is exactly 1, so the general path returns
        # the one image's class values bit for bit, even far from the corpus
        z, conds = stack
        far = z[0] * (1e3 / np.linalg.norm(z[0]))
        latents = np.concatenate([z, far[None]])
        classes = predictor.column_classes
        (index,) = matching(all_attribute_specs(), conds[4])
        sums = classes.sums(latents.reshape(len(latents), -1))
        x0 = predictor.class_posterior_mean(sums[None], t, [conds[4]])[0]
        assert x0.shape == sums.shape
        assert x0.tobytes() == np.tile(classes.table[:, index], (len(latents), 1)).tobytes()

    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_evaluate_stack_bit_equals_each_evaluate(self, stack, predictor, t):
        # the mask path's stacked predictions: one-image conditions take their
        # image, the others stacks of one latent in one posterior call
        z, conds = stack
        for stack_conds in (conds + conds[:3], [NULL_CONDITION] * len(z), [conds[4]] * len(z)):
            eps = predictor.evaluate_stack(z, t, stack_conds)
            assert eps.shape == z.shape
            for latent, cond, latent_eps in zip(z, stack_conds, eps):
                assert latent_eps.tobytes() == predictor.evaluate(latent, t, cond).tobytes()
        for bad_z, bad_conds in ((z, conds), (z[:, :-1], conds + conds[:3]), (z[0], conds[:1])):
            with pytest.raises(ValueError, match="conditions for latents"):
                predictor.evaluate_stack(bad_z, t, bad_conds)

    def test_one_image_evaluate_takes_no_class_sums(self, stack, predictor, monkeypatch):
        # one-image body evaluates run 50 times per inversion: they stay in pixels
        z, conds = stack

        def refuse(*args):
            raise AssertionError("a one-image evaluate went through class_posterior_mean")

        monkeypatch.setattr(predictor, "class_posterior_mean", refuse)
        for latent in z:
            assert predictor.evaluate(latent, 30, conds[4]).shape == latent.shape
        assert predictor.evaluate_stack(z, 30, [conds[4]] * len(z)).shape == z.shape

    def test_stack_shape_checked(self, stack, predictor):
        # ``evaluate`` takes one latent; stacks go to ``evaluate_stack``
        z, conds = stack
        for bad in (z, z[:1], z[:, :-1], z[None], z.reshape(len(z), -1)):
            for cond in (NULL_CONDITION, conds[0], conds[4]):
                with pytest.raises(ValueError, match="latent shape"):
                    predictor.evaluate(bad, 30, cond)
        with pytest.raises(ValueError):
            predictor.evaluate(z[0], 0, conds[0])


class TestColumnClasses:
    """The exact column-class corpus behind every multi-image subset."""

    def test_rendered_corpus_has_121_classes_that_rebuild_every_image(self, predictor):
        # a structural fact of the renderer: the 3,072 pixel-channel
        # positions carry 121 distinct columns of 324 values
        classes = predictor.column_classes
        flat = predictor.images.reshape(len(predictor), -1)
        assert classes.table.shape == (121, len(predictor))
        for i in range(len(predictor)):
            assert classes.table[:, i][classes.inv].tobytes() == flat[i].tobytes()

    def test_class_layout(self, predictor):
        classes = predictor.column_classes
        groups = len(classes.table)
        # numbered by first position; ``order`` lists each class's positions in turn
        first = [int(np.flatnonzero(classes.inv == g)[0]) for g in range(groups)]
        assert first == sorted(first) == classes.first.tolist()
        assert np.array_equal(classes.counts, np.bincount(classes.inv))
        assert np.array_equal(classes.inv[classes.order], np.repeat(np.arange(groups), classes.counts))
        assert np.array_equal(classes.starts, np.cumsum(classes.counts) - classes.counts)
        for g in (0, groups // 2, groups - 1):
            run = classes.order[classes.starts[g] : classes.starts[g] + classes.counts[g]]
            assert np.array_equal(run, np.flatnonzero(classes.inv == g))

    def test_one_hot_null_posterior_returns_each_image_exactly(self, predictor):
        # at t = 1 every corpus image's own posterior is one-hot, so the
        # posterior mean must be the image bit for bit, which a lossy
        # corpus basis would break
        ab = float(predictor.schedule.alpha_bar[1])
        for image in predictor.images:
            assert not predictor.evaluate(math.sqrt(ab) * image, 1, NULL_CONDITION).any()

    @pytest.mark.parametrize("t", [1, 10, 25, 50])
    def test_random_corpus_matches_pixel_reference(self, rng, t):
        # random images: every column is its own class
        sched = make_schedule(50)
        images = rng.uniform(0, 1, (12,) + SHAPE)
        pred = toy_predictor(images, sched)
        assert pred.column_classes.table.shape == (np.prod(SHAPE), len(images))
        ab = float(sched.alpha_bar[t])
        mixtures = rng.dirichlet(np.ones(len(images)), size=6)
        z = math.sqrt(ab) * np.tensordot(mixtures, images, axes=1)
        z += math.sqrt(1.0 - ab) * rng.normal(size=z.shape)
        for cond in (NULL_CONDITION, Condition.of(clothing_color=1)):
            indices = matching(toy_attrs(len(images)), cond)
            assert indices.size > 1
            want = pixel_posterior_eps(images[indices], z, ab)
            for latent, latent_want in zip(z, want):
                got = pred.evaluate(latent, t, cond)
                np.testing.assert_allclose(got, latent_want, rtol=0, atol=1e-12)


class TestCfgCombine:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_unit_scale_is_bit_exact(self, seed):
        gen = np.random.default_rng(seed)
        uncond = gen.normal(size=SHAPE) * 1e8
        cond = gen.normal(size=SHAPE)
        assert np.array_equal(cfg_combine(uncond, cond, 1.0), cond)

    def test_zero_scale_returns_uncond(self, rng):
        uncond = rng.normal(size=SHAPE)
        cond = rng.normal(size=SHAPE)
        np.testing.assert_array_equal(cfg_combine(uncond, cond, 0.0), uncond)

    def test_linear_extrapolation(self, rng):
        cond = rng.normal(size=SHAPE)
        out = cfg_combine(np.zeros(SHAPE), cond, 7.5)
        np.testing.assert_array_equal(out, 7.5 * cond)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cfg_combine(np.zeros((2, 2, 3)), np.zeros((3, 2, 3)), 1.0)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            cfg_combine(np.zeros(SHAPE), np.zeros(SHAPE), -0.5)


class TestDdimSteps:
    def test_sample_with_zero_eps_scales(self, rng):
        sched = make_schedule(50)
        z = rng.normal(size=SHAPE)
        t = 20
        out = ddim_sample_step(z, np.zeros(SHAPE), t, sched)
        ratio = np.sqrt(sched.alpha_bar[t - 1] / sched.alpha_bar[t])
        np.testing.assert_allclose(out, ratio * z, atol=1e-12)

    def test_invert_with_zero_eps_scales(self, rng):
        sched = make_schedule(50)
        z = rng.normal(size=SHAPE)
        t = 20
        out = ddim_invert_step(z, np.zeros(SHAPE), t, sched)
        ratio = np.sqrt(sched.alpha_bar[t + 1] / sched.alpha_bar[t])
        np.testing.assert_allclose(out, ratio * z, atol=1e-12)

    def test_equal_alpha_bar_is_identity(self, rng):
        sched = NoiseSchedule(T=3, alpha_bar=np.array([1.0, 0.5, 0.5, 0.04]))
        z = rng.normal(size=SHAPE)
        eps = rng.normal(size=SHAPE)
        np.testing.assert_allclose(ddim_sample_step(z, eps, 2, sched), z, atol=1e-12)
        np.testing.assert_allclose(ddim_invert_step(z, eps, 1, sched), z, atol=1e-12)

    def test_invert_then_sample_is_identity(self, rng):
        sched = make_schedule(50)
        for _ in range(300):
            t = int(rng.integers(0, 50))
            z = rng.normal(size=SHAPE)
            eps = rng.normal(size=SHAPE)
            back = ddim_sample_step(ddim_invert_step(z, eps, t, sched), eps, t + 1, sched)
            assert np.abs(back - z).max() < 1e-10

    def test_step_range_validation(self, rng):
        sched = make_schedule(50)
        z = np.zeros(SHAPE)
        with pytest.raises(ValueError):
            ddim_sample_step(z, z, 0, sched)
        with pytest.raises(ValueError):
            ddim_sample_step(z, z, 51, sched)
        with pytest.raises(ValueError):
            ddim_invert_step(z, z, 50, sched)
        with pytest.raises(ValueError):
            ddim_invert_step(z, z, -1, sched)


class TestTrajectories:
    def test_trajectory_shape_and_anchor(self, rng):
        sched = make_schedule(50)
        image = rng.uniform(0, 1, SHAPE)
        pred = toy_predictor([image, rng.uniform(0, 1, SHAPE)], sched)
        traj = invert_trajectory(image, NULL_CONDITION, sched, pred)
        assert traj.shape == (51,) + SHAPE
        assert np.array_equal(traj[0], image)

    def test_trajectory_deterministic(self, rng):
        sched = make_schedule(50)
        images = rng.uniform(0, 1, (3,) + SHAPE)
        pred = toy_predictor(images, sched)
        a = invert_trajectory(images[0], NULL_CONDITION, sched, pred)
        b = invert_trajectory(images[0], NULL_CONDITION, sched, pred)
        assert np.array_equal(a, b)

    def test_one_image_condition_inversion_is_scaled_image(self, dataset, sched50, predictor):
        # Only the body itself matches its body condition, so the posterior
        # mean is the body image x at every step and every latent stays a
        # multiple of x: traj[t] = c_t x, c_t = sqrt(ab_t) + k sqrt(1 - ab_t),
        # k = (1 - sqrt(ab_1)) / sqrt(1 - ab_1), while ab_0 = 1.
        ab = sched50.alpha_bar
        k = (1.0 - np.sqrt(ab[1])) / np.sqrt(1.0 - ab[1])
        formula = np.sqrt(ab) + k * np.sqrt(1.0 - ab)
        for T in (2, 50, 1000):
            sched = sched50 if T == 50 else make_schedule(T)
            pred = predictor if T == 50 else EmpiricalNoisePredictor.from_renders(dataset, sched)
            coefficients = inversion_coefficients(sched)
            assert coefficients.shape == (T + 1,) and coefficients[0] == 1.0
            for render in dataset[::81]:
                traj = invert_trajectory(render.image, body_condition(render.attrs), sched, pred)
                for c in [coefficients] + [formula] * (T == 50):
                    assert np.abs(traj - c[:, None, None, None] * render.image).max() <= 1e-12

    def test_single_point_round_trip(self, dataset):
        sched = make_schedule(50)
        pred = EmpiricalNoisePredictor.from_renders(dataset[:1], sched)
        image = dataset[0].image
        cond = NULL_CONDITION
        traj = invert_trajectory(image, cond, sched, pred)
        recon = ddim_sample_loop(traj[-1], cond, sched, pred)
        rel = np.linalg.norm(recon - image) / np.linalg.norm(image)
        assert rel < 1e-6

    def test_ten_image_round_trip_converges(self, dataset):
        # Reconstruction error stays under 2% at T=100 and never grows as T
        # doubles.  With this exact posterior denoiser the terminal step
        # snaps onto the original dataset image, so measured errors are
        # zero at every T; the contract bounds are asserted regardless.
        subset = dataset[::33][:10]
        errors = {}
        for T in (50, 100, 200):
            sched = make_schedule(T)
            pred = EmpiricalNoisePredictor.from_renders(subset, sched)
            errs = []
            for render in subset:
                traj = invert_trajectory(render.image, NULL_CONDITION, sched, pred)
                recon = ddim_sample_loop(traj[-1], NULL_CONDITION, sched, pred)
                errs.append(
                    np.linalg.norm(recon - render.image) / np.linalg.norm(render.image)
                )
            errors[T] = np.array(errs)
        assert errors[100].max() < 0.02
        assert (errors[100] <= errors[50]).all()
        assert (errors[200] <= errors[100]).all()

    def test_mid_trajectory_mixing_exists(self, dataset):
        # the posterior genuinely mixes at high noise; reconstruction
        # exactness is a terminal-collapse effect, not a no-op trajectory
        subset = dataset[::33][:10]
        sched = make_schedule(50)
        pred = EmpiricalNoisePredictor.from_renders(subset, sched)
        traj = invert_trajectory(subset[3].image, NULL_CONDITION, sched, pred)
        images = np.stack([render.image for render in subset])
        weights = pixel_posterior_weights(images, traj[50], float(sched.alpha_bar[50]))
        assert weights.max() < 0.99

    def test_predictor_schedule_mismatch_rejected(self, rng):
        sched_a = make_schedule(50)
        sched_b = make_schedule(60)
        pred = toy_predictor(rng.uniform(0, 1, (2,) + SHAPE), sched_a)
        with pytest.raises(ValueError):
            invert_trajectory(np.zeros(SHAPE), NULL_CONDITION, sched_b, pred)
