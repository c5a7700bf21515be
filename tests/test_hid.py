import types

import numpy as np
import pytest

from headswap import cli
from headswap.diffusion import EmpiricalNoisePredictor, NoiseSchedule, make_schedule
from headswap.hid import RunConfig, body_condition, compose_head_condition, run_headswap
from headswap.metrics import region_mse
from headswap.synthgen import (
    AttributeSpec,
    BALD,
    LONG,
    SHORT,
    all_attribute_specs,
    condition_match,
    oracle_swap,
    render_avatar,
)

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

    def test_schedule_mismatch_rejected(self, sched50, predictor):
        cfg = RunConfig(T=40)
        with pytest.raises(ValueError):
            run_headswap(BODY, HEAD, cfg, sched50, predictor)


class TestScheduleChecks:
    """Swaps and the mask command refuse a config T or a predictor that
    does not match the schedule, though the body inversion no longer
    steps through the predictor."""

    @pytest.fixture(scope="class")
    def other_predictor(self, dataset, sched50):
        # another valid 50-step schedule
        other = NoiseSchedule(T=50, alpha_bar=sched50.alpha_bar ** 1.1)
        return EmpiricalNoisePredictor.from_renders(dataset, other)

    def test_swap_rejects_predictor_of_other_schedule(self, sched50, other_predictor):
        with pytest.raises(ValueError, match="different noise schedule"):
            run_headswap(BODY, HEAD, RunConfig(), sched50, other_predictor)

    def test_mask_command_rejects_mismatches(self, tmp_path, capsys, monkeypatch, other_predictor):
        argv = ["mask", "--body", "0,2,0,1,0", "--head", "2,0,1,3,-1", "--out", str(tmp_path)]
        with monkeypatch.context() as patch:
            patch.setattr(
                cli, "EmpiricalNoisePredictor",
                types.SimpleNamespace(from_renders=lambda renders, sched: other_predictor),
            )
            assert cli.cli_main(argv) == 2
        assert "different noise schedule" in capsys.readouterr().err
        # a 40-step schedule and its predictor, under the default T = 50
        monkeypatch.setattr(cli, "make_schedule", lambda T: make_schedule(40))
        assert cli.cli_main(argv) == 2
        assert "does not match schedule T=40" in capsys.readouterr().err


class TestIdentitySwap:
    def test_identity_is_bit_exact_with_empty_mask(self, sched50, predictor, rng):
        specs = all_attribute_specs()
        for k in rng.choice(324, size=3, replace=False):
            spec = specs[int(k)]
            result = run_headswap(spec, spec, identity_config(), sched50, predictor)
            assert result.mask.sum() == 0
            assert result.degenerate_mask
            assert np.array_equal(result.output, render_avatar(spec).image)


@pytest.fixture(scope="module")
def swap_result(sched50, predictor):
    return run_headswap(BODY, HEAD, RunConfig(), sched50, predictor)


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
        result = run_headswap(BODY, HEAD, RunConfig(), sched, pred)
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

    def test_deterministic(self, sched50, predictor, swap_result):
        again = run_headswap(BODY, HEAD, RunConfig(), sched50, predictor)
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

    def test_full_window_edit_runs(self, sched50, predictor):
        cfg = RunConfig(edit_fraction=1.0)
        result = run_headswap(BODY, AttributeSpec(1, SHORT, 2, 1, 0), cfg, sched50, predictor)
        outside = ~result.mask.astype(bool)
        body_image = render_avatar(BODY).image
        assert np.abs(result.output - body_image)[outside].max() == 0.0
