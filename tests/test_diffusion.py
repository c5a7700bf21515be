import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headswap.diffusion import (
    ALPHA_BAR_FLOOR,
    COSINE_OFFSET,
    ColumnClasses,
    EmpiricalNoisePredictor,
    NoMatchingConditionError,
    NoiseSchedule,
    _posterior_weights,
    cfg_combine,
    ddim_invert_step,
    ddim_sample_loop,
    ddim_sample_step,
    implied_noise,
    invert_trajectory,
    make_schedule,
)
from headswap.hid import body_condition, compose_head_condition
from headswap.synthgen import (
    AttributeSpec,
    Condition,
    NULL_CONDITION,
    all_attribute_specs,
    enumerate_dataset,
    render_avatars,
)
from helpers import (
    byte_key_classes,
    class_images,
    condition_match,
    mp_posterior_eps,
    pixel_posterior_eps,
    pixel_posterior_weights,
    pixel_predictor,
    stepped_inversion,
)

SHAPE = (4, 4, 3)


def toy_attrs(count):
    """Image i has clothing_color i % 4, which a condition can select on."""
    return [AttributeSpec.from_ints((0, 0, 0, i % 4, -1)) for i in range(count)]


def toy_predictor(images, sched):
    return pixel_predictor(images, toy_attrs(len(images)), sched)


def assert_classes_equal(classes, want: dict) -> None:
    """The six ``ColumnClasses`` fields equal ``want``'s in dtype, shape and bytes."""
    for name, value in want.items():
        got = getattr(classes, name)
        assert (got.dtype, got.shape) == (value.dtype, value.shape), name
        assert got.tobytes() == value.tobytes(), name


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
        for T in (2, 50, 200, 1000):
            ab = make_schedule(T).alpha_bar
            assert ab[0] >= 0.999
            assert ab[-1] <= 0.05
            assert (ab > 0).all() and (ab <= 1).all()
            assert (np.diff(ab) <= 0).all()

    def test_small_T_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(1)

    def test_validation_rejects_increasing(self):
        # the endpoints pass, so only the increase can be rejected
        with pytest.raises(ValueError, match="alpha_bar must be non-increasing"):
            NoiseSchedule(np.array([1.0, 0.3, 0.5, 0.01]))

    @pytest.mark.parametrize(
        "alpha_bar, message",
        [
            ([1.0, 0.01], r"schedule needs a 1-D alpha_bar of T\+1 >= 3 entries, got \(2,\)"),
            ([1.2, 0.5, 0.01], r"alpha_bar entries must lie in \(0, 1\]"),
            ([1.0, 0.0, 0.0], r"alpha_bar entries must lie in \(0, 1\]"),
            ([1.0, 1.0, 0.5, 0.01], r"alpha_bar\[1:\] must lie below 1"),
        ],
        ids=["T_one", "above_one", "zero", "one_after_zero"],
    )
    def test_each_check_raises_its_own_message(self, alpha_bar, message):
        # the endpoints pass, so only the named check can reject these
        with pytest.raises(ValueError, match=message):
            NoiseSchedule(np.array(alpha_bar))

    @pytest.mark.parametrize("T", [2, 50, 1000])
    def test_length_states_T(self, T):
        assert make_schedule(T).T == T

    def test_alpha_bar_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(NoiseSchedule)] == ["alpha_bar"]

    def test_validation_rejects_bad_endpoints(self):
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([0.9, 0.5, 0.01]))
        with pytest.raises(ValueError):
            NoiseSchedule(np.array([1.0, 0.5, 0.2]))


class TestEmpiricalEps:
    def test_constructor_checks(self, rng):
        sched = make_schedule(50)
        palettes = rng.uniform(0, 1, (3, 5, 3))
        maps = rng.integers(0, 5, (3,) + SHAPE[:2])
        pred = EmpiricalNoisePredictor(palettes, maps, toy_attrs(3), sched)
        assert len(pred) == 3 and pred.grid_shape == SHAPE
        # pixel images are not palettes, and a flat map is not (N, H, W)
        images = rng.uniform(0, 1, (3,) + SHAPE)
        for bad_palettes, bad_maps in ((images, maps), (palettes, maps.reshape(3, -1)),
                                       (palettes[0], maps)):
            with pytest.raises(ValueError, match=r"need palettes \(N, K, C\) and maps \(N, H, W\)"):
                EmpiricalNoisePredictor(bad_palettes, bad_maps, toy_attrs(3), sched)
        for args in ((palettes[:2], maps, toy_attrs(3)), (palettes, maps[:2], toy_attrs(3)),
                     (palettes, maps, toy_attrs(2))):
            with pytest.raises(ValueError, match="N differs"):
                EmpiricalNoisePredictor(*args, sched)

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
        mean = pred.posterior_plan([NULL_CONDITION])
        for z in rng.normal(size=(4,) + SHAPE):
            x0 = mean(classes.sums(z.reshape(1, -1)), float(sched.alpha_bar[35]))[0]
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
        mean = pred.posterior_plan([cond])
        for t in (1, 20, 50):
            z = rng.normal(size=SHAPE)
            ab = float(sched.alpha_bar[t])
            x0 = mean(classes.sums(z.reshape(1, -1)), ab)[0]
            assert x0[classes.inv].tobytes() == x.tobytes()
            # the general path: a softmax over the one logit, then the weighted mean
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
    def test_masked_softmax_matches_subset_weights(self, stack, dataset, predictor, t):
        # a condition restricts the corpus: its posterior mean weighs the
        # images by the softmax of the full-corpus logits masked to its columns
        z, conds = stack
        ab = float(predictor.schedule.alpha_bar[t])
        flat = np.stack([render.image for render in dataset]).reshape(len(dataset), -1)
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
            x0 = predictor.posterior_plan([cond])(sums, ab)
            np.testing.assert_allclose(x0[:, classes.inv], expected, rtol=0, atol=1e-12)
            for row in range(len(z)):
                row_x0 = predictor.posterior_plan([cond])(sums[row : row + 1], ab)[0]
                np.testing.assert_allclose(x0[row], row_x0, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_stack_of_one_bit_equals_single_latent(self, stack, predictor, t):
        # latents stacked as stacks of one row each give each latent's own bits
        z, conds = stack
        ab = float(predictor.schedule.alpha_bar[t])
        sums = predictor.column_classes.sums(z.reshape(len(z), -1))
        for cond in conds:
            stacked = predictor.posterior_plan([cond] * len(z))(sums, ab)
            for row in range(len(z)):
                x0 = predictor.posterior_plan([cond])(sums[row : row + 1], ab)
                assert np.array_equal(stacked[row], x0[0])

    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_stacks_under_mixed_conditions_bit_equal_each_stack_alone(self, stack, predictor, t):
        # stacks under conditions of one subset size (4, 324 or 1 images)
        # share one stacked matmul, and every stack keeps the bits of its own call
        z, conds = stack
        ab = float(predictor.schedule.alpha_bar[t])
        sums = predictor.column_classes.sums(z.reshape(len(z), -1))
        for same_size in (conds[:3], [conds[3]] * 2, [conds[4]] * 2):
            for rows in (slice(0, 3), slice(0, 1), slice(None)):
                stacks = np.concatenate([sums[rows]] * len(same_size))
                m = len(stacks) // len(same_size)
                x0 = predictor.posterior_plan(same_size)(stacks, ab)
                assert x0.shape == stacks.shape
                for k, cond in enumerate(same_size):
                    stack_rows = slice(k * m, (k + 1) * m)
                    alone = predictor.posterior_plan([cond])(stacks[stack_rows], ab)
                    assert np.array_equal(x0[stack_rows], alone)

    def test_conditions_keeping_different_numbers_of_images_rejected(self, stack, predictor):
        # a plan is one kernel call, so its conditions keep equally many images
        z, conds = stack
        for mixed in (conds[2:4], conds[3:], [conds[0], conds[4]]):
            with pytest.raises(ValueError, match="different numbers of images"):
                predictor.posterior_plan(mixed)

    def test_empty_plan_rejected(self, predictor):
        with pytest.raises(ValueError, match="at least one condition"):
            predictor.posterior_plan([])

    def test_one_condition_plan_shares_its_table(self, stack, predictor):
        # 32 null stacks view the one (G, 324) table; a copy per stack
        # would allocate 32 tables
        z, conds = stack
        predictor.posterior_plan([NULL_CONDITION])  # caches the null subset before tracing
        table = predictor.column_classes.table  # the null condition keeps every image
        tracemalloc.start()
        try:
            mean = predictor.posterior_plan([NULL_CONDITION] * 32)
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated < table.nbytes
        ab = float(predictor.schedule.alpha_bar[25])
        sums = predictor.column_classes.sums(z.reshape(len(z), -1))
        sums = np.concatenate([sums * (1.0 + k / 8.0) for k in range(8)])  # 32 stacks of 2 rows
        x0 = mean(sums, ab)
        for k in range(32):
            rows = slice(2 * k, 2 * k + 2)
            alone = predictor.posterior_plan([NULL_CONDITION])(sums[rows], ab)
            assert x0[rows].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_evaluate_is_planned_mean_scattered(self, stack, predictor, t):
        # the one predictor path: pixels -> class sums -> class-space mean -> pixels
        z, conds = stack
        classes = predictor.column_classes
        ab = float(predictor.schedule.alpha_bar[t])
        sums = classes.sums(z.reshape(len(z), -1))
        for cond, size in ((NULL_CONDITION, 324), (conds[0], 4)):
            assert matching(all_attribute_specs(), cond).size == size
            mean = predictor.posterior_plan([cond])
            for row, latent in enumerate(z):
                x0 = mean(sums[row : row + 1], ab)[0]
                scattered = (x0 * -math.sqrt(ab))[classes.inv].reshape(latent.shape)
                want = (scattered + latent) / math.sqrt(1.0 - ab)
                assert np.array_equal(predictor.evaluate(latent, t, cond), want)

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
        ab = float(predictor.schedule.alpha_bar[t])
        x0 = predictor.posterior_plan([conds[4]])(sums, ab)
        assert x0.shape == sums.shape
        assert x0.tobytes() == np.tile(classes.table[:, index], (len(latents), 1)).tobytes()

    @pytest.mark.parametrize("t", [1, 25, 50])
    def test_planned_stack_bit_equals_each_evaluate(self, stack, predictor, t):
        # a stacked plan's rows keep the bits of one ``evaluate`` call each,
        # for conditions keeping 4, 324 or 1 images
        z, conds = stack
        classes = predictor.column_classes
        ab = float(predictor.schedule.alpha_bar[t])
        sums = classes.sums(z.reshape(len(z), -1))
        # one stack's conditions keep equally many images: 4, 324 or 1
        heads = conds[:3] * 2 + conds[:2]
        for stack_conds in (heads, [NULL_CONDITION] * len(z), [conds[4]] * len(z)):
            x0 = predictor.posterior_plan(stack_conds)(sums, ab)
            eps = implied_noise(np.take(x0, classes.inv, axis=-1).reshape(z.shape), z, ab)
            for latent, cond, latent_eps in zip(z, stack_conds, eps):
                assert latent_eps.tobytes() == predictor.evaluate(latent, t, cond).tobytes()

    def test_stack_shape_checked(self, stack, predictor):
        # ``evaluate`` takes one latent; stacks go to ``posterior_plan``
        z, conds = stack
        for bad in (z, z[:1], z[:, :-1], z[None], z.reshape(len(z), -1)):
            for cond in (NULL_CONDITION, conds[0], conds[4]):
                with pytest.raises(ValueError, match="latent shape"):
                    predictor.evaluate(bad, 30, cond)
        with pytest.raises(ValueError):
            predictor.evaluate(z[0], 0, conds[0])


class TestWeightCut:
    """The posterior kernel's cut of weights under the smallest normal double."""

    def test_cut_zeroes_weights_normal_before_the_division(self):
        # constructed logits: at ab = 1/2 and zero class sums, a stack's
        # logits are exactly -norms / 2.  Three logits at 0 make the
        # normaliser 3, so the logit between log(tiny) and log(S tiny) has a
        # normal exp but a subnormal weight, and only the log(S) margin of
        # the cut catches it; the logit under log(tiny) is cut either way
        tiny = np.finfo(np.float64).tiny
        log_tiny = math.log(tiny)
        logits = np.array([0.0, 0.0, 0.0, -1.0, -30.0, log_tiny + 0.9, log_tiny - 12.0, -800.0])
        cut = log_tiny + math.log(logits.size)
        assert log_tiny < logits[5] < cut and math.exp(logits[5]) / 3.0 < tiny
        columns, norms = np.ones((1, logits.size)), -2.0 * logits[None]
        weights = _posterior_weights(np.zeros((1, 1, 1)), columns, norms, 0.5)
        # the cut weights are exact zeros and the others the softmax's
        kept = np.where(logits >= cut, np.exp(logits), 0.0)
        assert np.array_equal(weights, (kept / kept.sum())[None, None])
        assert not ((weights > 0) & (weights < tiny)).any()


class TestColumnClasses:
    """The exact column-class corpus behind every multi-image subset."""

    def test_rendered_corpus_has_121_classes_that_rebuild_every_image(self, dataset, predictor):
        # a structural fact of the renderer: the 3,072 pixel-channel
        # positions carry 121 distinct columns of 324 values
        assert predictor.column_classes.table.shape == (121, len(predictor))
        assert class_images(predictor).tobytes() == np.stack([r.image for r in dataset]).tobytes()

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

    def test_one_hot_null_posterior_returns_each_image_exactly(self, dataset, predictor):
        # at t = 1 every corpus image's own posterior is one-hot, so the
        # posterior mean must be the image bit for bit, which a lossy
        # corpus basis would break
        ab = float(predictor.schedule.alpha_bar[1])
        for render in dataset:
            assert not predictor.evaluate(math.sqrt(ab) * render.image, 1, NULL_CONDITION).any()

    def test_grouping_equals_byte_keys_on_the_corpus(self, dataset, predictor):
        flat = np.stack([render.image for render in dataset]).reshape(len(dataset), -1)
        assert_classes_equal(predictor.column_classes, byte_key_classes(flat))

    @pytest.mark.parametrize("count", [1, 7, 29])
    def test_grouping_equals_byte_keys_with_duplicated_columns(self, rng, count):
        # about 8 distinct columns over 432 positions, and the last position a
        # copy of the first that differs in the last image only
        shape = (12, 12, 3)
        picks = rng.integers(0, 8, np.prod(shape))
        picks[-1] = picks[0]
        flat = rng.uniform(0, 1, (count, 8))[:, picks]
        flat[-1, -1] += 1.0
        pred = toy_predictor(flat.reshape((count,) + shape), make_schedule(50))
        assert_classes_equal(pred.column_classes, byte_key_classes(flat))
        assert len(pred) == count and class_images(pred).tobytes() == flat.tobytes()

    def test_signed_zeros_are_two_classes(self, rng):
        # 0.0 == -0.0, but their bytes differ, and so do the images they make
        flat = rng.uniform(0, 1, (3, np.prod(SHAPE)))
        flat[:, 0], flat[:, 1] = 0.0, -0.0
        pixels = np.broadcast_to(np.arange(16).reshape(4, 4), (3, 4, 4))
        classes = ColumnClasses.of(flat.reshape(3, 16, 3), pixels)
        assert_classes_equal(classes, byte_key_classes(flat))
        assert len(classes.table) == flat.shape[1]

    def test_distinct_index_columns_with_equal_values_merge(self, rng):
        # palette entries 1 and 2 are one colour in every image, and entry 0
        # is grey, so index columns that differ only by 1 <-> 2 swaps, and the
        # channels of an all-grey group, each take one class; -0.0 in entry 3
        # against 0.0 in entry 4 keeps two classes apart
        palettes = rng.uniform(0, 1, (6, 5, 3))
        palettes[:, 2] = palettes[:, 1]
        palettes[:, 0] = 0.5
        palettes[:, 3], palettes[:, 4] = 0.0, -0.0
        maps = rng.integers(0, 5, (6, 5, 7))
        maps[:, 0, :3] = 0
        maps[:3, 1, :3], maps[3:, 1, :3] = 1, 2
        maps[:3, 2, :3], maps[3:, 2, :3] = 2, 1
        maps[:, 3, :2] = 3
        maps[:, 4, :2] = 4
        images = np.stack([palette.take(index, axis=0) for palette, index in zip(palettes, maps)])
        flat = images.reshape(len(images), -1)
        classes = ColumnClasses.of(palettes, maps)
        assert_classes_equal(classes, byte_key_classes(flat))
        index_columns = {column.tobytes() for column in maps.reshape(6, -1).T}
        assert len(classes.table) < 3 * len(index_columns)
        inv = classes.inv.reshape(5, 7, 3)
        assert (inv[1, :3] == inv[2, :3]).all() and (inv[0, :3] == inv[0, 0, 0]).all()
        assert inv[3, 0, 0] != inv[4, 0, 0]

    def test_writes_after_construction_leave_the_classes_unchanged(self, rng, sched50):
        # the predictor copies its indexed corpus: a caller's array, and the
        # renders' palettes, stay writable, and writing into them before the
        # first grouping changes no class
        images = rng.uniform(0, 1, (5,) + SHAPE)
        want = images.tobytes()
        pred = toy_predictor(images, sched50)
        images[0] = 5.0
        assert class_images(pred).tobytes() == want
        renders = render_avatars(all_attribute_specs()[:5])
        want = np.stack([render.image for render in renders]).tobytes()
        pred = EmpiricalNoisePredictor.from_renders(renders, sched50)
        for render in renders:
            render.palette[...] = 5.0
            render.image[...] = 5.0
        assert class_images(pred).tobytes() == want

    def test_grouping_makes_no_copy_of_the_corpus(self):
        # rendering and grouping the corpus never makes its 8 MB of pixels,
        # and no render's image is gathered
        tracemalloc.start()
        try:
            renders = enumerate_dataset()
            EmpiricalNoisePredictor.from_renders(renders, make_schedule(50)).column_classes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        assert not any("image" in render.__dict__ for render in renders)

    def test_one_image_conditions_keep_one_image(self, dataset, sched50):
        # every body condition keeps one image; a pixel image kept for each
        # would hold 324 x 24 KB = 7.8 MB
        pred = EmpiricalNoisePredictor.from_renders(dataset, sched50)
        pred.column_classes
        z = np.zeros(pred.grid_shape)
        tracemalloc.start()
        try:
            for render in dataset:
                eps = pred.evaluate(z, 10, body_condition(render.attrs))
            del eps
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20

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
        sched = NoiseSchedule(np.array([1.0, 0.5, 0.5, 0.04]))
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
        # k = (1 - sqrt(ab_1)) / sqrt(1 - ab_1), while ab_0 = 1.  The stepped
        # inversion checks the closed form that ``invert_trajectory`` returns.
        ab = sched50.alpha_bar
        k = (1.0 - np.sqrt(ab[1])) / np.sqrt(1.0 - ab[1])
        formula = np.sqrt(ab) + k * np.sqrt(1.0 - ab)
        for T in (2, 50, 1000):
            sched = sched50 if T == 50 else make_schedule(T)
            pred = predictor if T == 50 else EmpiricalNoisePredictor.from_renders(dataset, sched)
            coefficients = sched.inversion
            assert coefficients.shape == (T + 1,) and coefficients[0] == 1.0
            for render in dataset[::81]:
                cond = body_condition(render.attrs)
                closed = coefficients[:, None, None, None] * render.image
                assert np.array_equal(invert_trajectory(render.image, cond, sched, pred), closed)
                stepped = stepped_inversion(render.image, cond, sched, pred)
                for c in [coefficients] + [formula] * (T == 50):
                    assert np.abs(stepped - c[:, None, None, None] * render.image).max() <= 1e-12

    def test_body_inversion_calls_no_predictor(self, dataset, sched50, predictor, monkeypatch):
        def refuse(*args):
            raise AssertionError("a body inversion called the predictor")

        monkeypatch.setattr(predictor, "evaluate", refuse)
        monkeypatch.setattr(predictor, "posterior_plan", refuse)
        for render in dataset[::53]:
            closed = sched50.inversion[:, None, None, None] * render.image
            traj = invert_trajectory(render.image, body_condition(render.attrs), sched50, predictor)
            assert traj.tobytes() == closed.tobytes()

    def test_one_image_condition_on_another_image_steps(self, rng):
        # clothing_color 2 keeps image 2 alone: image 1 is pulled toward it
        sched = make_schedule(50)
        images = rng.uniform(0, 1, (4,) + SHAPE)
        pred = toy_predictor(images, sched)
        cond = Condition.of(clothing_color=2)
        traj = invert_trajectory(images[1], cond, sched, pred)
        assert np.array_equal(traj, stepped_inversion(images[1], cond, sched, pred))
        assert not np.allclose(traj, sched.inversion[:, None, None, None] * images[1])

    def test_one_image_condition_checks_shape_and_subset(self, rng):
        # the image's values under another shape take the stepped path, whose
        # evaluate rejects them; a condition keeping no image raises
        sched = make_schedule(50)
        images = rng.uniform(0, 1, (4,) + SHAPE)
        pred = toy_predictor(images, sched)
        cond = Condition.of(clothing_color=2)
        for bad in (images[2].reshape(4, -1), images[2][:2], images[2][None]):
            with pytest.raises(ValueError, match="latent shape"):
                invert_trajectory(bad, cond, sched, pred)
        with pytest.raises(NoMatchingConditionError):
            invert_trajectory(images[2], Condition.of(skin_tone=1), sched, pred)

    @pytest.mark.parametrize("T", [2, 50, 1000])
    def test_inversion_is_computed_once_and_read_only(self, T):
        sched = make_schedule(T)
        coefficients = sched.inversion
        assert sched.inversion is coefficients
        assert coefficients[0] == 1.0 and not coefficients.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            coefficients[1] = 0.0

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
