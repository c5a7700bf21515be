import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from headswap import cli, hid
from headswap.diffusion import (
    EmpiricalNoisePredictor,
    NoiseSchedule,
    _posterior_weights,
    inversion_coefficients,
    make_schedule,
)
from headswap.experiment import sample_pairs
from headswap.hid import (
    RunConfig,
    blend_denoise,
    body_condition,
    compose_head_condition,
    extract_masks,
    run_headswap,
    swap_pairs,
)
from headswap.iomask import VARIANTS, build_iomask, io_predictions, variant_map
from headswap.metrics import region_mse
from headswap.synthgen import (
    AttributeSpec,
    BALD,
    LONG,
    NULL_CONDITION,
    SHORT,
    Condition,
    all_attribute_specs,
    condition_match,
    ground_truth_edit_mask,
    oracle_swap,
    render_avatar,
)
from helpers import per_latent_blend_denoise

ROOT = Path(__file__).resolve().parents[1]
BODY = AttributeSpec(0, LONG, 0, 1, 0)
HEAD = AttributeSpec(2, BALD, 1, 3, -1)


def identity_config():
    return RunConfig(T=50, w=1.0, variant="full")


class TestConditions:
    def test_head_condition_matches_four_specs(self):
        cond = compose_head_condition(BODY, BODY)
        assert sum(condition_match(cond, s) for s in all_attribute_specs()) == 4

    def test_head_condition_never_constrains_clothing(self):
        cond = compose_head_condition(HEAD, BODY)
        assert "clothing_color" not in cond.as_dict()

    def test_head_condition_accepts_oracle_attrs(self):
        cond = compose_head_condition(HEAD, BODY)
        assert condition_match(cond, oracle_swap(BODY, HEAD).attrs)

    def test_head_condition_takes_body_pose(self):
        cond = compose_head_condition(HEAD, BODY).as_dict()
        assert cond["head_tilt"] == BODY.head_tilt
        assert cond["skin_tone"] == HEAD.skin_tone

    def test_body_condition_matches_exactly_one(self):
        cond = body_condition(BODY)
        matches = [s for s in all_attribute_specs() if condition_match(cond, s)]
        assert matches == [BODY]

    def test_body_condition_rejects_other_specs(self):
        cond = body_condition(BODY)
        assert condition_match(cond, BODY)
        assert not condition_match(cond, HEAD)


class TestSwapConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(T=1)
        with pytest.raises(ValueError):
            RunConfig(edit_fraction=0.0)
        with pytest.raises(ValueError):
            RunConfig(edit_fraction=1.2)
        with pytest.raises(ValueError):
            RunConfig(edit_fraction=0.001)  # rounds to step 0 at T=50
        with pytest.raises(ValueError):
            RunConfig(w=-2.0)
        with pytest.raises(ValueError):
            RunConfig().swap_config("fancy")

    def test_edit_start_rounding(self):
        assert RunConfig(T=50, edit_fraction=0.8).edit_start == 40
        assert RunConfig(T=50, edit_fraction=1.0).edit_start == 50
        assert RunConfig(T=50, edit_fraction=0.798).edit_start == 40  # 39.9 rounds up

    def test_schedule_mismatch_rejected(self, predictor):
        cfg = RunConfig(T=40)
        with pytest.raises(ValueError):
            run_headswap(BODY, HEAD, cfg, predictor)


class TestScheduleChecks:
    """The mask command refuses a config T that its predictor's schedule
    does not share, though the body inversion no longer steps through the
    predictor."""

    def test_mask_command_rejects_mismatches(self, tmp_path, capsys, monkeypatch):
        argv = ["mask", "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1", "--out", str(tmp_path)]
        # a 40-step schedule and its predictor, under the default T = 50
        monkeypatch.setattr(cli, "make_schedule", lambda T: make_schedule(40))
        assert cli.cli_main(argv) == 2
        assert "does not match schedule T=40" in capsys.readouterr().err


class TestIdentitySwap:
    def test_identity_is_bit_exact_with_empty_mask(self, predictor, rng):
        specs = all_attribute_specs()
        for k in rng.choice(324, size=3, replace=False):
            spec = specs[int(k)]
            result = run_headswap(spec, spec, identity_config(), predictor)
            assert result.mask.sum() == 0
            assert result.degenerate_mask
            assert np.array_equal(result.output, render_avatar(spec).image)


class TestExtractMask:
    def test_maps_are_taken_at_the_edit_step(self, predictor):
        cfg = RunConfig()
        coefficients = inversion_coefficients(predictor.schedule)
        z_edit = coefficients[cfg.edit_start] * render_avatar(BODY).image[None]
        conds_head, conds_body = [compose_head_condition(HEAD, BODY)], [body_condition(BODY)]

        def maps_at(step):
            predictions = io_predictions(z_edit, step, conds_head, conds_body, cfg.w, predictor)
            return [variant_map(predictions, variant, cfg.w)[0] for variant in VARIANTS]

        expected = maps_at(cfg.edit_start)
        # the step matters: one step earlier gives different maps
        assert not any(np.array_equal(a, b) for a, b in zip(expected, maps_at(cfg.edit_start - 1)))
        maps, masks = extract_masks(z_edit, conds_head, conds_body, cfg, VARIANTS, predictor)
        assert maps.shape == masks.shape == (1, len(VARIANTS), 32, 32)
        for want, edit_map, mask in zip(expected, maps[0], masks[0]):
            assert np.array_equal(edit_map, want)
            assert np.array_equal(mask, build_iomask(want, cfg.mask))

    @pytest.mark.parametrize("variants", [("full",), ("naive", "full"), VARIANTS], ids=len)
    def test_stacked_extraction_bit_equals_stacks_of_one(self, predictor, variants):
        # a chunk with repeated pairs, as the one stacked pass over its
        # pairs, against each pair extracted alone
        specs = all_attribute_specs()
        pairs = [(specs[k], specs[j]) for k, j in ((5, 200), (17, 90), (5, 200), (300, 41))]
        pairs.append((BODY, HEAD))
        cfg = RunConfig()
        c_edit = inversion_coefficients(predictor.schedule)[cfg.edit_start]
        z_edit = c_edit * np.stack([render_avatar(body).image for body, _ in pairs])
        conds_head = [compose_head_condition(head, body) for body, head in pairs]
        conds_body = [body_condition(body) for body, _ in pairs]
        maps, masks = extract_masks(z_edit, conds_head, conds_body, cfg, variants, predictor)
        assert maps.shape == masks.shape == (len(pairs), len(variants), 32, 32)
        assert masks.dtype == np.uint8 and masks.any()
        for p, (z, cond_head, cond_body) in enumerate(zip(z_edit, conds_head, conds_body)):
            alone = extract_masks(z[None], [cond_head], [cond_body], cfg, variants, predictor)
            assert maps[p].tobytes() == alone[0][0].tobytes()
            assert masks[p].tobytes() == alone[1][0].tobytes()


@pytest.fixture(scope="module")
def swap_result(predictor):
    return run_headswap(BODY, HEAD, RunConfig(), predictor)


class TestSwapPipeline:
    def test_outside_mask_pixels_exact(self, swap_result):
        body_image = render_avatar(BODY).image
        outside = ~swap_result.mask.astype(bool)
        assert np.abs(swap_result.output - body_image)[outside].max() == 0.0

    def test_outside_mask_exact_when_alpha_bar_zero_is_below_one(self, dataset, sched50):
        # every valid schedule, not only those with alpha_bar[0] == 1
        alpha_bar = sched50.alpha_bar.copy()
        alpha_bar[0] = 0.9995
        sched = NoiseSchedule(T=50, alpha_bar=alpha_bar)
        pred = EmpiricalNoisePredictor.from_renders(dataset, sched)
        result = run_headswap(BODY, HEAD, RunConfig(), pred)
        outside = ~result.mask.astype(bool)
        assert outside.any() and result.mask.any()
        assert np.array_equal(result.output[outside], render_avatar(BODY).image[outside])

    def test_changed_pixels_inside_mask(self, swap_result):
        body_image = render_avatar(BODY).image
        changed = np.abs(swap_result.output - body_image).max(axis=2) > 0
        assert (changed <= swap_result.mask.astype(bool)).all()

    def test_result_shapes(self, swap_result):
        assert swap_result.output.shape == (32, 32, 3)
        assert swap_result.mask.shape == (32, 32)
        assert swap_result.io_map.shape == (32, 32)

    def test_deterministic(self, predictor, swap_result):
        again = run_headswap(BODY, HEAD, RunConfig(), predictor)
        assert np.array_equal(again.output, swap_result.output)
        assert np.array_equal(again.mask, swap_result.mask)
        assert np.array_equal(again.io_map, swap_result.io_map)

    def test_long_hair_removal_improves_mse(self, swap_result):
        oracle = oracle_swap(BODY, HEAD).image
        body_image = render_avatar(BODY).image
        everywhere = np.ones((32, 32), dtype=np.uint8)
        assert region_mse(swap_result.output, oracle, everywhere) < region_mse(
            body_image, oracle, everywhere
        )

    def test_mask_not_degenerate_for_real_edit(self, swap_result):
        assert not swap_result.degenerate_mask
        assert swap_result.mask.sum() > 0

    def test_full_window_edit_runs(self, predictor):
        cfg = RunConfig(edit_fraction=1.0)
        result = run_headswap(BODY, AttributeSpec(1, SHORT, 2, 1, 0), cfg, predictor)
        outside = ~result.mask.astype(bool)
        body_image = render_avatar(BODY).image
        assert np.abs(result.output - body_image)[outside].max() == 0.0


class TestClassSpaceBlend:
    """``blend_denoise`` carries the stack on the corpus's column classes."""

    def test_body_not_constant_on_classes_rejected(self, sched50, predictor, monkeypatch, rng):
        def refuse(*args):
            raise AssertionError("blend_denoise took a step")

        monkeypatch.setattr(hid, "_stacked_posterior_mean", refuse)
        body = render_avatar(BODY).image
        mask = np.ones((32, 32), dtype=np.uint8)
        coefficients = inversion_coefficients(sched50)
        for bodies in ([body + 1e-3 * rng.normal(size=body.shape)], [body, body[::-1]]):
            with pytest.raises(ValueError, match="constant on the corpus's column classes"):
                rows = len(bodies)
                conds = [compose_head_condition(HEAD, BODY)] * rows
                blend_denoise(
                    bodies, [mask] * rows, conds, coefficients, RunConfig(), predictor
                )

    @pytest.mark.parametrize(
        "sched",
        # at T = 50 the last steps snap onto corpus images; the short schedule
        # keeps the posterior mixed to the end, so every step's sums matter
        [make_schedule(50), NoiseSchedule(T=4, alpha_bar=np.array([1.0, 0.3, 0.2, 0.1, 0.04]))],
        ids=["T50", "mixed"],
    )
    def test_random_corpus_matches_per_latent_reference(self, sched):
        # random images: every position is its own class (G = D)
        gen = np.random.default_rng(1234)
        images = gen.uniform(0, 1, (12, 4, 4, 3))
        attrs = [AttributeSpec.from_ints((0, 0, 0, i % 4, -1)) for i in range(12)]
        pred = EmpiricalNoisePredictor(images, attrs, sched)
        assert len(pred.column_classes.table) == images[0].size
        cfg = RunConfig(T=sched.T)
        coefficients = inversion_coefficients(sched)
        bodies = [images[k] for k in (0, 5, 5, 7, 9)]
        masks = [gen.random((4, 4)) < 0.5 for _ in bodies]
        masks[1][:] = False
        masks[2][:] = True
        conds = [Condition.of(clothing_color=1)] * 3 + [NULL_CONDITION] * 2
        outputs = blend_denoise(bodies, masks, conds, coefficients, cfg, pred)
        assert np.array_equal(outputs[1], bodies[1])  # an all-empty mask keeps the body
        for body, mask, cond, output in zip(bodies, masks, conds, outputs):
            trajectory = coefficients[:, None, None, None] * body
            reference = per_latent_blend_denoise(trajectory, mask, cond, cfg, sched, pred)
            assert np.abs(output - reference).max() <= 1e-12
            assert np.array_equal(output[~mask], body[~mask])

    def test_runs_of_shared_head_conditions_keep_their_own_bits(self, predictor, monkeypatch):
        # adjacent rows sharing a head condition form one run, and the runs
        # of one length share a kernel call per step, planned once per
        # denoise; each run's head posterior keeps the bits of a call for
        # that run alone
        specs = all_attribute_specs()
        pairs = [(specs[k], specs[j]) for k, j in ((5, 200), (17, 90), (300, 41), (120, 250))]
        lengths = (3, 6, 3, 1)  # runs of 3, 6, 3 and 1 rows: three lengths
        rows = [pair for pair, length in zip(pairs, lengths) for _ in range(length)]
        bodies = [render_avatar(body).image for body, _ in rows]
        masks = [ground_truth_edit_mask(body, head) for body, head in rows]
        conds = [compose_head_condition(head, body) for body, head in rows]
        cfg = RunConfig()
        coefficients = inversion_coefficients(predictor.schedule)
        plan, plans, kernel, calls = predictor.posterior_plan, [], hid._stacked_posterior_mean, []

        def plan_spy(stack_conds, stack_lengths):
            plans.append(plan(stack_conds, stack_lengths))
            return plans[-1]

        def kernel_spy(sums, columns, norms, ab):
            x0 = kernel(sums, columns, norms, ab)
            calls.append((sums, ab, x0))
            return x0

        monkeypatch.setattr(predictor, "posterior_plan", plan_spy)
        monkeypatch.setattr(hid, "_stacked_posterior_mean", kernel_spy)
        outputs = blend_denoise(bodies, masks, conds, coefficients, cfg, predictor)
        heads = plans[0]
        assert len(plans) == 2 and len(plans[1]) == 1  # the heads' plan and the null's
        assert sorted(len(members) for members, _, _ in heads) == [1, 1, 2]
        starts = np.cumsum((0,) + lengths)
        assert len(calls) == cfg.edit_start * (len(set(lengths)) + 1)  # + the null call
        per_step = len(heads) + 1  # the head groups in plan order, then the null
        for k, (sums, ab, x0) in enumerate(calls):
            t = cfg.edit_start - k // per_step
            assert ab == predictor.schedule.alpha_bar[t]
            if k % per_step == len(heads):
                continue
            members = heads[k % per_step][0]
            assert sums.shape[:2] == (len(members), lengths[members[0]])
            for run, run_sums, run_x0 in zip(members, sums, x0):
                alone = predictor.class_posterior_mean(run_sums[None], t, [conds[starts[run]]])
                assert np.array_equal(run_x0, alone[0])
        for body, mask, cond, output in zip(bodies, masks, conds, outputs):
            trajectory = coefficients[:, None, None, None] * body
            reference = per_latent_blend_denoise(
                trajectory, mask, cond, cfg, predictor.schedule, predictor
            )
            assert np.abs(output - reference).max() <= 1e-12

    def test_weight_cut_keeps_bits_and_leaves_no_subnormal_weight(self, predictor, monkeypatch):
        # every step of a 4-pair chunk's denoise: without the cut, the late
        # steps form subnormal weights; with it, each is an exact 0, and the
        # means keep the bits of the uncut softmax
        kernel, calls = hid._stacked_posterior_mean, []

        def spy(sums, columns, norms, ab):
            calls.append((sums, columns, norms, ab))
            return kernel(sums, columns, norms, ab)

        monkeypatch.setattr(hid, "_stacked_posterior_mean", spy)
        swap_pairs(sample_pairs(1, 4), RunConfig(), VARIANTS, predictor)
        tiny = np.finfo(np.float64).tiny
        uncut_subnormal = set()
        for sums, columns, norms, ab in calls:
            weights = _posterior_weights(sums, columns, norms, ab)
            assert not ((weights > 0) & (weights < tiny)).any()
            logits = (2.0 * math.sqrt(ab) * (sums @ columns) - ab * norms) / (2.0 * (1.0 - ab))
            uncut = np.exp(logits - logits.max(axis=-1, keepdims=True))
            uncut /= uncut.sum(axis=-1, keepdims=True)
            if ((uncut > 0) & (uncut < tiny)).any():
                uncut_subnormal.add(ab)
            means = kernel(sums, columns, norms, ab)
            assert np.array_equal(means, uncut @ columns.swapaxes(-1, -2))
        steps = [t for t, ab in enumerate(predictor.schedule.alpha_bar) if ab in uncut_subnormal]
        assert steps and max(steps) <= 15


class TestThreadDeterminism:
    def test_swap_pairs_bytes_do_not_depend_on_blas_threads(self):
        # one 30-pair call: swap_pairs denoises CHUNK_PAIRS pairs at a time,
        # so no posterior GEMM is large enough for OpenBLAS to split it
        script = (
            "import hashlib\n"
            "from headswap import EmpiricalNoisePredictor, RunConfig, enumerate_dataset\n"
            "from headswap import make_schedule, sample_pairs, swap_pairs\n"
            "pred = EmpiricalNoisePredictor.from_renders(enumerate_dataset(), make_schedule(50))\n"
            "digest = hashlib.sha256()\n"
            "for results in swap_pairs(sample_pairs(1, 30), RunConfig(), "
            "('naive', 'no_orth', 'full'), pred):\n"
            "    for r in results:\n"
            "        for array in (r.output, r.mask, r.io_map):\n"
            "            digest.update(array.tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
            )
            done = subprocess.run(
                [sys.executable, "-c", script],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            digests.append(done.stdout)
        assert digests[0] == digests[1]
