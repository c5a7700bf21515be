import ast
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from headswap import cli, diffusion, hid, synthgen
from headswap.diffusion import (
    EmpiricalNoisePredictor,
    NoiseSchedule,
    _posterior_weights,
    cfg_combine,
    make_schedule,
)
from headswap.experiment import RECORD_FIELDS, evaluate_swap, sample_pairs
from headswap.imaging import threshold
from headswap.hid import (
    CHUNK_PAIRS,
    RunConfig,
    blend_denoise,
    body_condition,
    compose_head_condition,
    mask_pairs,
    run_headswap,
    swap_pairs,
)
from headswap.iomask import VARIANTS, build_iomask, build_iomasks, edit_maps
from headswap.metrics import region_mse, swap_reference
from headswap.synthgen import (
    ATTRIBUTE_VALUES,
    AttributeSpec,
    BALD,
    LONG,
    NULL_CONDITION,
    SHORT,
    Condition,
    all_attribute_specs,
    enumerate_dataset,
    ground_truth_edit_mask,
    oracle_swap,
    render_avatar,
)
from helpers import (
    condition_match,
    per_latent_blend_denoise,
    pixel_posterior_eps,
    pixel_predictor,
    variant_map,
)

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
    """Every RunConfig setting check, made once, when the config is built."""

    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.tau == 0.6
        assert cfg.sigma == 2.0
        assert cfg.variant == "full"
        assert cfg.w == 3.0
        assert cfg.mask is cfg  # the benchmark's spelling of the run config

    def test_mask_validation(self):
        # mask settings are checked once, by the RunConfig the mask stage reads
        with pytest.raises(ValueError):
            RunConfig(tau=1.5)
        with pytest.raises(ValueError):
            RunConfig(sigma=0.0)
        with pytest.raises(ValueError):
            RunConfig(variant="fancy")
        with pytest.raises(ValueError):
            RunConfig(w=-1.0)

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

    @pytest.mark.parametrize(
        "field,value",
        [("T", 50.5), ("T", 50.0), ("seed", 1.5), ("seed", False), ("pairs", 2.5), ("pairs", True)],
    )
    def test_integer_settings_reject_floats_and_bools(self, field, value):
        # a float pair count would otherwise run its ceiling: sample_pairs(0, 2.5) draws 3
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("field", ["w", "tau", "sigma", "edit_fraction"])
    def test_float_settings_reject_bools(self, field):
        # True lies in every one of their ranges, and would run as 1
        with pytest.raises(ValueError, match=f"^{field} must be a number, got True$"):
            RunConfig(**{field: True})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
            RunConfig(seed=-1)

    def test_nonpositive_pairs_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(pairs=0)

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


class TestSwapTiming:
    """``swap_pairs`` times each chunk's two stages, and each result carries
    the chunk's time split evenly among its swaps."""

    @staticmethod
    def fake_clock(monkeypatch, *readings):
        clock = iter(readings)
        monkeypatch.setattr(hid, "time", SimpleNamespace(perf_counter=lambda: next(clock)))

    def test_each_result_carries_its_chunks_time_per_swap(self, predictor, monkeypatch):
        # a full chunk that takes 3 s and a one-pair chunk that takes 0.375 s
        self.fake_clock(monkeypatch, 0.0, 3.0, 10.0, 10.375)
        pairs = sample_pairs(5, CHUNK_PAIRS + 1)
        results = list(swap_pairs(pairs, RunConfig(), VARIANTS, predictor))
        per_swap = [3e3 / (CHUNK_PAIRS * len(VARIANTS))] * CHUNK_PAIRS + [375 / len(VARIANTS)]
        assert [[r.runtime_ms for r in rs] for rs in results] == [
            [ms] * len(VARIANTS) for ms in per_swap
        ]

    def test_swap_command_reports_the_results_time(self, tmp_path, capsys, monkeypatch):
        self.fake_clock(monkeypatch, 1.0, 1.5)
        argv = ["swap", "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1", "--out", str(tmp_path)]
        assert cli.cli_main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1].endswith("  runtime_ms=500")


class TestIdentitySwap:
    def test_identity_is_bit_exact_with_empty_mask(self, predictor, rng):
        specs = all_attribute_specs()
        for k in rng.choice(324, size=3, replace=False):
            spec = specs[int(k)]
            result = run_headswap(spec, spec, identity_config(), predictor)
            assert result.mask.sum() == 0
            assert result.degenerate_mask
            assert np.array_equal(result.output, render_avatar(spec).image)


def reference_maps(dataset, ab, z_t, conds_head, conds_body, variants, w):
    """Edit maps (P, V, H, W) at signal level ab made without the predictor:
    each prediction from the full pixel distances to its condition's images
    (``pixel_posterior_eps``), then CFG and each variant's reference ``variant_map``."""

    def predictions(conds):
        return np.stack([
            pixel_posterior_eps(
                np.stack([r.image for r in dataset if condition_match(cond, r.attrs)]), z[None], ab
            )[0]
            for z, cond in zip(z_t, conds)
        ])

    eps_body, eps_null = predictions(conds_body), predictions([NULL_CONDITION] * len(z_t))
    eps_head = cfg_combine(eps_null, predictions(conds_head), w)
    return np.stack([variant_map((eps_body, eps_null, eps_head), v, w) for v in variants], axis=1)


class TestExtractMask:
    def test_maps_are_taken_at_the_edit_step(self, dataset, predictor):
        # twelve sampled pairs, every variant, against pixel-space posteriors
        cfg = RunConfig()
        pairs = sample_pairs(11, 12)
        images, conds_head, maps, masks = mask_pairs(pairs, cfg, VARIANTS, predictor)
        z_edit = predictor.schedule.inversion[cfg.edit_start] * images
        conds = conds_head, [body_condition(body) for body, _ in pairs]

        def reference_at(step):
            ab = float(predictor.schedule.alpha_bar[step])
            return reference_maps(dataset, ab, z_edit, *conds, VARIANTS, cfg.w)

        assert maps.shape == masks.shape == (len(pairs), len(VARIANTS), 32, 32)
        assert maps.flags.c_contiguous
        assert np.abs(maps - reference_at(cfg.edit_start)).max() <= 1e-12
        # the step matters: one step earlier gives other maps
        assert (np.abs(maps - reference_at(cfg.edit_start - 1)).max(axis=(2, 3)) > 1e-6).all()
        for edit_map, mask in zip(maps.reshape(-1, 32, 32), masks.reshape(-1, 32, 32)):
            assert np.array_equal(mask, build_iomask(edit_map, cfg.mask))

    @pytest.mark.parametrize("variants", [("full",), ("naive", "full"), VARIANTS], ids=len)
    def test_stacked_extraction_bit_equals_stacks_of_one(self, predictor, variants):
        # a chunk with repeated pairs, as the mask stage's one stacked pass
        # over its pairs, against each pair extracted alone
        specs = all_attribute_specs()
        pairs = [(specs[k], specs[j]) for k, j in ((5, 200), (17, 90), (5, 200), (300, 41))]
        pairs.append((BODY, HEAD))
        cfg = RunConfig()
        t = cfg.edit_start
        images, conds_head, maps, masks = mask_pairs(pairs, cfg, variants, predictor)
        assert maps.shape == masks.shape == (len(pairs), len(variants), 32, 32)
        assert masks.dtype == np.bool_ and masks.any()
        c_edit = predictor.schedule.inversion[t]
        for p, (body, head) in enumerate(pairs):
            assert np.array_equal(images[p], render_avatar(body).image)
            assert conds_head[p] == compose_head_condition(head, body)
            z = c_edit * render_avatar(body).image
            conds = [conds_head[p]], [body_condition(body)]
            alone = edit_maps(z[None], t, *conds, variants, cfg.w, predictor)
            assert maps[p].tobytes() == alone[0].tobytes()
            assert masks[p].tobytes() == build_iomasks(alone, cfg.sigma, cfg.tau)[0].tobytes()


@pytest.fixture(scope="module")
def swap_result(predictor):
    return run_headswap(BODY, HEAD, RunConfig(), predictor)


class TestSwapPipeline:
    def test_outside_mask_pixels_exact(self, swap_result):
        body_image = render_avatar(BODY).image
        outside = ~swap_result.mask
        assert np.abs(swap_result.output - body_image)[outside].max() == 0.0

    def test_outside_mask_exact_when_alpha_bar_zero_is_below_one(self, dataset, sched50):
        # every valid schedule, not only those with alpha_bar[0] == 1
        alpha_bar = sched50.alpha_bar.copy()
        alpha_bar[0] = 0.9995
        sched = NoiseSchedule(alpha_bar)
        pred = EmpiricalNoisePredictor.from_renders(dataset, sched)
        result = run_headswap(BODY, HEAD, RunConfig(), pred)
        outside = ~result.mask
        assert outside.any() and result.mask.any()
        assert np.array_equal(result.output[outside], render_avatar(BODY).image[outside])

    def test_changed_pixels_inside_mask(self, swap_result):
        body_image = render_avatar(BODY).image
        changed = np.abs(swap_result.output - body_image).max(axis=2) > 0
        assert (changed <= swap_result.mask).all()

    def test_result_shapes(self, swap_result):
        assert swap_result.output.shape == (32, 32, 3)
        assert swap_result.mask.shape == (32, 32)
        assert swap_result.io_map.shape == (32, 32)

    def test_every_mask_producer_returns_bool(self, predictor, swap_result):
        # one mask type from the renderer to the scorer: ~mask is the complement
        render = render_avatar(BODY)
        ref = swap_reference(BODY, HEAD)
        _, _, maps, stage_masks = mask_pairs([(BODY, HEAD)], RunConfig(), VARIANTS, predictor)
        masks = {
            "_DISCS": synthgen._DISCS,
            "_HAIRS": synthgen._HAIRS,
            "head_mask": render.head_mask,
            "hair_mask": render.hair_mask,
            "ground_truth_edit_mask": ground_truth_edit_mask(BODY, HEAD),
            "truth": ref.truth,
            "long_hair": ref.long_hair,
            "threshold": threshold(np.eye(4), 0.5),
            "build_iomasks": build_iomasks(maps, 2.0, 0.6),
            "mask_pairs": stage_masks,
            "run_headswap": swap_result.mask,
        }
        assert {name: mask.dtype for name, mask in masks.items()} == dict.fromkeys(masks, np.bool_)

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

    def test_swap_never_reads_the_heads_clothing_or_tilt(self, predictor):
        # the head condition takes the body's clothing and tilt, so a head
        # that differs only in those two swaps to the same bits
        clothing, tilts = ATTRIBUTE_VALUES["clothing_color"], ATTRIBUTE_VALUES["head_tilt"]
        pairs = sample_pairs(3, 4)
        others = [
            (body, replace(
                head,
                clothing_color=clothing[(clothing.index(head.clothing_color) + 1) % len(clothing)],
                head_tilt=tilts[(tilts.index(head.head_tilt) + 1) % len(tilts)],
            ))
            for body, head in pairs
        ]
        cfg = RunConfig()
        runs = [swap_pairs(chunk, cfg, VARIANTS, predictor) for chunk in (pairs, others)]
        for (body, head), (_, other), *per_pair in zip(pairs, others, *runs):
            refs = swap_reference(body, head), swap_reference(body, other)
            for variant, *results in zip(VARIANTS, *per_pair):
                for a, b in zip(*((r.output, r.mask, r.io_map) for r in results)):
                    assert a.tobytes() == b.tobytes()
                records = [
                    evaluate_swap("pair", ref, variant, result)
                    for ref, result in zip(refs, results)
                ]
                # the records differ in the head's attributes, and only there
                assert records[0]["head_attrs"] != records[1]["head_attrs"]
                assert records[0] == {**records[1], "head_attrs": records[0]["head_attrs"]}

    def test_full_window_edit_runs(self, predictor):
        cfg = RunConfig(edit_fraction=1.0)
        result = run_headswap(BODY, AttributeSpec(1, SHORT, 2, 1, 0), cfg, predictor)
        outside = ~result.mask
        body_image = render_avatar(BODY).image
        assert np.abs(result.output - body_image)[outside].max() == 0.0


class TestClassSpaceBlend:
    """``blend_denoise`` carries the stack on the corpus's column classes."""

    def test_body_not_constant_on_classes_rejected(self, predictor, monkeypatch, rng):
        def refuse(*args):
            raise AssertionError("blend_denoise took a step")

        monkeypatch.setattr(diffusion, "_stacked_posterior_mean", refuse)
        body = render_avatar(BODY).image
        for bodies in ([body + 1e-3 * rng.normal(size=body.shape)], [body, body[::-1]]):
            with pytest.raises(ValueError, match="constant on the corpus's column classes"):
                rows = len(bodies)
                masks = np.ones((rows, 1, 32, 32), dtype=np.uint8)
                conds = [compose_head_condition(HEAD, BODY)] * rows
                blend_denoise(np.stack(bodies), masks, conds, RunConfig(), predictor)

    @pytest.mark.parametrize(
        "sched",
        # at T = 50 the last steps snap onto corpus images; the short schedule
        # keeps the posterior mixed to the end, so every step's sums matter
        [make_schedule(50), NoiseSchedule(np.array([1.0, 0.3, 0.2, 0.1, 0.04]))],
        ids=["T50", "mixed"],
    )
    def test_random_corpus_matches_per_latent_reference(self, sched):
        # random images: every position is its own class (G = D)
        gen = np.random.default_rng(1234)
        images = gen.uniform(0, 1, (12, 4, 4, 3))
        attrs = [AttributeSpec.from_ints((0, 0, 0, i % 4, -1)) for i in range(12)]
        pred = pixel_predictor(images, attrs, sched)
        assert len(pred.column_classes.table) == images[0].size
        cfg = RunConfig(T=sched.T)
        bodies = images[[0, 5, 5, 7, 9]]
        masks = gen.random((5, 1, 4, 4)) < 0.5
        masks[1] = False
        masks[2] = True
        # five head stacks of one row, under three-image conditions and then
        # under the null condition; the null plan runs all five rows as one stack
        for conds in ([Condition.of(clothing_color=k) for k in (1, 1, 2, 3, 0)],
                      [NULL_CONDITION] * 5):
            outputs = blend_denoise(bodies, masks, conds, cfg, pred)
            assert outputs.shape == (5, 1, 4, 4, 3)
            outputs, mask_rows = outputs[:, 0], masks[:, 0]
            assert np.array_equal(outputs[1], bodies[1])  # an all-empty mask keeps the body
            for body, mask, cond, output in zip(bodies, mask_rows, conds, outputs):
                trajectory = sched.inversion[:, None, None, None] * body
                reference = per_latent_blend_denoise(trajectory, mask, cond, cfg, sched, pred)
                assert np.abs(output - reference).max() <= 1e-12
                assert np.array_equal(output[~mask], body[~mask])

    def test_each_pair_is_its_own_head_stack(self, predictor, monkeypatch):
        # the middle pairs of this chunk share a head condition, yet each
        # denoise step makes one head kernel call, whose stack for each pair
        # keeps the bits of a plan of that pair's stack alone
        chunk = sample_pairs(7, 50)[28:32]
        conds = [compose_head_condition(head, body) for body, head in chunk]
        assert conds[1] == conds[2]
        cfg = RunConfig()
        kernel, calls = diffusion._stacked_posterior_mean, []

        def spy(sums, columns, norms, ab):
            x0 = kernel(sums, columns, norms, ab)
            calls.append((sums, columns, ab, x0))
            return x0

        monkeypatch.setattr(diffusion, "_stacked_posterior_mean", spy)
        results = list(swap_pairs(chunk, cfg, VARIANTS, predictor))
        monkeypatch.undo()
        steps = calls[3:]  # after the masks' body, null and head calls
        assert len(steps) == 2 * cfg.edit_start  # a null and a head call per step
        for k, (sums, columns, ab, x0) in enumerate(steps):
            assert ab == predictor.schedule.alpha_bar[cfg.edit_start - k // 2]
            if k % 2 == 0:
                assert sums.shape[:2] == (1, len(chunk) * len(VARIANTS))
                assert columns.shape[-1] == len(predictor)
                continue
            assert sums.shape[:2] == (len(chunk), len(VARIANTS))
            for cond, pair_sums, pair_x0 in zip(conds, sums, x0):
                assert np.array_equal(pair_x0, predictor.posterior_plan([cond])(pair_sums, ab))
        coefficients = predictor.schedule.inversion
        for (body, _), cond, per_pair in zip(chunk, conds, results):
            trajectory = coefficients[:, None, None, None] * render_avatar(body).image
            for result in per_pair:
                reference = per_latent_blend_denoise(
                    trajectory, result.mask, cond, cfg, predictor.schedule, predictor
                )
                assert np.abs(result.output - reference).max() <= 1e-12

    def test_weight_cut_keeps_bits_and_leaves_no_subnormal_weight(self, predictor, monkeypatch):
        # every kernel call of a 4-pair chunk's swaps, its masks' and each step
        # of its denoise: without the cut, the late steps form subnormal
        # weights; with it, each is an exact 0, and the means keep the bits of
        # the uncut softmax
        kernel, calls = diffusion._stacked_posterior_mean, []

        def spy(sums, columns, norms, ab):
            calls.append((sums, columns, norms, ab))
            return kernel(sums, columns, norms, ab)

        monkeypatch.setattr(diffusion, "_stacked_posterior_mean", spy)
        list(swap_pairs(sample_pairs(1, 4), RunConfig(), VARIANTS, predictor))
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


def test_hid_imports_no_private_name_from_diffusion():
    # every posterior mean goes through the predictor's public API
    tree = ast.parse(Path(hid.__file__).read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "diffusion"
    ]
    assert imports
    assert not [alias.name for node in imports for alias in node.names if alias.name[0] == "_"]


class TestThreadDeterminism:
    # The float64 bits of every output, mask and map of this run.  The file
    # digests see only quantized bytes, so a change that moves a float bit
    # without moving a file byte shows here alone.  These bits may depend on
    # the OpenBLAS version (pinned under OpenBLAS 0.3.31); a numerics change
    # that moves them re-pins the digest and states its largest deviation.
    PINNED = "51f8d8dc2878b6f720aca1b57b972cca07f80dc5722d22b55afd4b0c6eb8b9fc"

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
            digests.append(done.stdout.strip())
        assert digests[0] == self.PINNED
        assert digests[1] == digests[0]

    # the float64 bits of a chunk whose middle pairs share a head condition
    MERGED_CHUNK = "42d36ab5e783c2a85183be1e80237f0f14b9b962f70f699e9ed1eb7e8bf48811"

    def test_chunk_with_a_shared_head_condition_keeps_its_bits(self, predictor):
        chunk = sample_pairs(7, 50)[28:32]
        conds = [compose_head_condition(head, body) for body, head in chunk]
        assert conds[1] == conds[2] and len(set(conds)) == 3
        digest = hashlib.sha256()
        for results in swap_pairs(chunk, RunConfig(), ("naive", "no_orth", "full"), predictor):
            for result in results:
                for array in (result.output, result.mask, result.io_map):
                    digest.update(array.tobytes())
        assert digest.hexdigest() == self.MERGED_CHUNK


class TestCensusSlice:
    # A swap reads a head only through its skin tone, hair style and hair
    # colour, so 4 bodies against all 27 head triples (each head taking the
    # body's clothing and tilt) are every distinct swap of those bodies.
    # The slice includes the 4 identity swaps.  This digest pins the float64
    # bits of every output, mask and map, then the swap's RECORD_FIELDS
    # values, swap by swap, under the default config.
    BODIES = [(0, 0, 0, 0, 0), (1, 1, 1, 1, -1), (2, 2, 2, 2, 1), (0, 2, 1, 3, 0)]
    PINNED = "94f60167dd17cc4f50287d390f1a6827a0d96225e803a6167b475dcce9984ea8"

    @classmethod
    def pairs(cls) -> list[tuple[AttributeSpec, AttributeSpec]]:
        """Each body against every head triple, heads in sorted triple order."""
        return [
            (body, AttributeSpec(skin, style, colour, body.clothing_color, body.head_tilt))
            for body in (AttributeSpec(*attrs) for attrs in cls.BODIES)
            for skin in ATTRIBUTE_VALUES["skin_tone"]
            for style in ATTRIBUTE_VALUES["hair_style"]
            for colour in ATTRIBUTE_VALUES["hair_color"]
        ]

    def test_four_bodies_against_every_head_triple(self, predictor):
        pairs = self.pairs()
        assert len(pairs) == 108 and sum(body == head for body, head in pairs) == 4
        digest = hashlib.sha256()
        swaps = swap_pairs(pairs, RunConfig(), VARIANTS, predictor)
        for index, ((body, head), results) in enumerate(zip(pairs, swaps)):
            ref = swap_reference(body, head)
            for variant, result in zip(VARIANTS, results):
                outside = ~result.mask
                assert result.output[outside].tobytes() == ref.body_image[outside].tobytes()
                record = evaluate_swap(f"census-{index:03d}", ref, variant, result)
                assert record["mse_outside"] == 0
                for array in (result.output, result.mask, result.io_map):
                    digest.update(array.tobytes())
                digest.update(json.dumps([record[key] for key in RECORD_FIELDS]).encode())
        assert digest.hexdigest() == self.PINNED

    @pytest.mark.parametrize("T", [50, 200])
    def test_the_true_edit_mask_gives_the_oracle_bit_for_bit(self, T):
        # Given the true edit region as its mask, the denoise renders the
        # ideal swap exactly: one equality against the renderer checks the
        # guided denoise, the class-space carry and the closed-form
        # inversion, with no pinned digest.  It cannot tell which c[t] is
        # re-imposed outside the mask: with c[t - 1] in its place every
        # output still equals the oracle, and only the digests tell.
        pairs = [(body, head) for body, head in self.pairs() if body != head]
        assert len(pairs) == 104
        images = np.stack([render_avatar(body).image for body, _ in pairs])
        masks = np.stack([ground_truth_edit_mask(body, head) for body, head in pairs])[:, None]
        conds = [compose_head_condition(head, body) for body, head in pairs]
        oracles = np.stack([oracle_swap(body, head).image for body, head in pairs])
        for w in (1.0, 3.0, 10.0):
            outputs = blend_denoise(images, masks, conds, RunConfig(T=T, w=w), sweep_predictor(T))
            exact = [a.tobytes() == b.tobytes() for a, b in zip(outputs[:, 0], oracles)]
            assert sum(exact) == len(pairs), (w, sum(exact))


def rolled_spec(spec: AttributeSpec) -> AttributeSpec:
    """The attributes of ``np.roll(image, 1, axis=-1)``: the roll permutes
    each palette, skin tone and hair colour k -> k + 1 (mod 3) and clothing
    1 -> 3 -> 2 -> 1; the grey background and clothing 0 stay."""
    return replace(
        spec,
        skin_tone=(spec.skin_tone + 1) % 3,
        hair_color=(spec.hair_color + 1) % 3,
        clothing_color=(0, 3, 1, 2)[spec.clothing_color],
    )


class TestColourSymmetry:
    """Rolling the RGB channels maps the corpus onto itself, so it commutes
    with every stage: channel handling (the map's channel mean, the
    reshapes, the palette tables) is pinned without a digest.  Only the
    order of the column classes, and so of float sums, changes."""

    def test_roll_maps_every_avatar_to_the_rolled_attributes(self):
        for spec in all_attribute_specs():
            rolled = np.roll(render_avatar(spec).image, 1, axis=-1)
            assert rolled.tobytes() == render_avatar(rolled_spec(spec)).image.tobytes()

    def test_rolled_pairs_give_equal_masks_and_rolled_outputs(self, predictor):
        pairs = sample_pairs(11, CHUNK_PAIRS + 2)
        rolled = [(rolled_spec(body), rolled_spec(head)) for body, head in pairs]
        runs = [swap_pairs(chunk, RunConfig(), VARIANTS, predictor) for chunk in (pairs, rolled)]
        for originals, mirrored in zip(*runs):
            for a, b in zip(originals, mirrored):
                assert np.array_equal(a.mask, b.mask)
                assert np.abs(np.roll(a.output, 1, axis=-1) - b.output).max() <= 1e-9
                assert np.abs(a.io_map - b.io_map).max() <= 1e-9


@functools.lru_cache(maxsize=8)  # each keeps about 1 MB after a few swaps
def sweep_predictor(T: int) -> EmpiricalNoisePredictor:
    """One predictor per schedule length, shared by the examples that draw it."""
    return EmpiricalNoisePredictor.from_renders(enumerate_dataset(), make_schedule(T))


class TestSettingsSweep:
    """Swaps at settings drawn across the ranges ``RunConfig`` accepts; w
    stops at 20, far past any guidance in use."""

    @settings(max_examples=20, deadline=None)
    @given(
        T=st.integers(2, 1000),
        w=st.floats(0, 20),
        tau=st.floats(0, 1),
        sigma=st.floats(0, 100, exclude_min=True),
        edit_fraction=st.floats(0, 1, exclude_min=True),
        seed=st.integers(0, 2**16),
    )
    def test_swaps_are_exact_outside_the_mask_finite_and_repeatable(
        self, T, w, tau, sigma, edit_fraction, seed
    ):
        assume(round(edit_fraction * T) >= 1)
        cfg = RunConfig(T=T, w=w, tau=tau, sigma=sigma, edit_fraction=edit_fraction)
        pairs = sample_pairs(seed, 2)
        runs = [swap_pairs(pairs, cfg, VARIANTS, sweep_predictor(T)) for _ in range(2)]
        for (body, _), *per_pair in zip(pairs, *runs):
            image = render_avatar(body).image
            for a, b in zip(*per_pair):
                outside = ~a.mask
                assert a.output[outside].tobytes() == image[outside].tobytes()
                assert np.isfinite(a.output).all()
                for x, y in ((a.output, b.output), (a.mask, b.mask), (a.io_map, b.io_map)):
                    assert x.tobytes() == y.tobytes()

    @settings(max_examples=20, deadline=None)
    @given(T=st.integers(2, 120), index=st.integers(0, 323))
    def test_identity_swaps_at_w_one_are_exact_with_an_empty_mask(self, T, index):
        # tau, sigma and edit_fraction keep their defaults: at others an
        # identity map that is not exactly zero can still be normalised and
        # thresholded into a mask (see the identity item of the roadmap)
        spec = all_attribute_specs()[index]
        cfg = RunConfig(T=T, w=1.0)
        for result in next(swap_pairs([(spec, spec)], cfg, VARIANTS, sweep_predictor(T))):
            assert not result.mask.any()
            assert result.output.tobytes() == render_avatar(spec).image.tobytes()
