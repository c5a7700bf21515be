import json
import sys
import threading
import time

import numpy as np
import pytest

from headswap import experiment, hid
from headswap.experiment import (
    CHUNK_PAIRS,
    METRICS_FILENAME,
    RECORD_FIELDS,
    RunConfig,
    read_metrics,
    run_experiment,
    sample_pairs,
    summarize,
    write_metrics,
)
from headswap.hid import (
    body_condition,
    compose_head_condition,
    mask_pairs,
    run_headswap,
    swap_pairs,
)
from headswap.iomask import VARIANTS
from headswap.synthgen import render_avatar
from helpers import per_latent_blend_denoise, stepped_inversion


class TestSamplePairs:
    def test_deterministic(self):
        assert sample_pairs(7, 20) == sample_pairs(7, 20)

    def test_rejects_identity_pairs(self):
        assert all(body != head for body, head in sample_pairs(3, 100))

    def test_requested_count(self):
        assert len(sample_pairs(0, 13)) == 13


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("exp")
    cfg = RunConfig(seed=5, pairs=2)
    records = run_experiment(cfg, out_dir)
    return cfg, out_dir, records


class TestRunExperiment:
    def test_one_record_per_pair_and_variant(self, small_run):
        _, _, records = small_run
        assert len(records) == 6
        assert {r["variant"] for r in records} == set(VARIANTS)

    def test_outside_mask_metric_is_zero(self, small_run):
        _, _, records = small_run
        assert all(r["mse_outside"] == 0.0 for r in records)

    def test_rows_are_the_metrics_file_records(self, small_run):
        _, out_dir, records = small_run
        assert read_metrics(out_dir / METRICS_FILENAME) == records

    def test_two_runs_return_equal_rows(self, small_run, tmp_path):
        cfg, _, records = small_run
        assert run_experiment(cfg, tmp_path) == records

    def test_metrics_file_lines_parse_independently(self, small_run):
        _, out_dir, _ = small_run
        lines = (out_dir / METRICS_FILENAME).read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            row = json.loads(line)
            assert tuple(row.keys()) == RECORD_FIELDS

    def test_images_written_per_pair_and_variant(self, small_run):
        _, out_dir, _ = small_run
        names = {p.name for p in out_dir.iterdir()}
        assert "pair000_body.ppm" in names
        assert "pair001_oracle.ppm" in names
        assert "pair000_full_output.ppm" in names
        assert "pair001_naive_mask.pgm" in names

    def test_metrics_file_deterministic(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run_experiment(RunConfig(seed=5, pairs=2), d)
        assert (dirs[0] / METRICS_FILENAME).read_bytes() == (
            dirs[1] / METRICS_FILENAME
        ).read_bytes()


class TestLockstep:
    def test_batch_independence(self, sched50, predictor, monkeypatch, tmp_path):
        # one full chunk and one partial chunk, against a batch of one per swap
        cfg = RunConfig(seed=4, pairs=CHUNK_PAIRS + 1)
        seen = {}
        score = experiment.evaluate_swap

        def capture(pair_id, ref, variant, result):
            seen[pair_id, variant] = result
            return score(pair_id, ref, variant, result)

        monkeypatch.setattr(experiment, "evaluate_swap", capture)
        rows = run_experiment(cfg, tmp_path)
        assert len(seen) == len(rows) == cfg.pairs * len(VARIANTS)
        for index, (body, head) in enumerate(sample_pairs(cfg.seed, cfg.pairs)):
            # the stepped inversion: the reference for the closed-form latents
            traj = stepped_inversion(
                render_avatar(body).image, body_condition(body), sched50, predictor
            )
            for variant in VARIANTS:
                alone = run_headswap(body, head, cfg.swap_config(variant), predictor)
                batched = seen[f"pair{index:03d}", variant]
                assert np.array_equal(batched.mask, alone.mask)
                assert np.array_equal(batched.io_map, alone.io_map)
                assert np.abs(batched.output - alone.output).max() <= 1e-12
                reference = per_latent_blend_denoise(
                    traj, batched.mask, compose_head_condition(head, body),
                    cfg, sched50, predictor,
                )
                assert np.abs(batched.output - reference).max() <= 1e-12

    def test_body_evaluated_once_per_pair_without_stepped_inversion(self, predictor, monkeypatch):
        def refuse(*args):
            raise AssertionError("swap_pairs stepped an inversion")

        for name, module in list(sys.modules.items()):
            if name.startswith("headswap") and hasattr(module, "invert_trajectory"):
                monkeypatch.setattr(module, "invert_trajectory", refuse)
        conds = []
        posterior_plan = predictor.posterior_plan

        def spy(plan_conds):
            conds.extend(plan_conds)
            return posterior_plan(plan_conds)

        monkeypatch.setattr(predictor, "posterior_plan", spy)
        pairs = sample_pairs(2, 2)
        results = list(swap_pairs(pairs, RunConfig(), VARIANTS, predictor))
        assert [len(per_pair) for per_pair in results] == [3, 3]
        for body, _ in pairs:
            assert conds.count(body_condition(body)) == 1


class TestImageWriter:
    def test_writes_run_off_the_main_thread_in_pair_order(self, tmp_path, monkeypatch):
        cfg = RunConfig(seed=6, pairs=2 * CHUNK_PAIRS + 1)
        write = experiment.write_files
        written: list[tuple[str, threading.Thread]] = []
        backlogs: list[int] = []  # pairs submitted but not yet written, as each chunk starts
        pairs_swapped = 0

        def slow_write(out_dir, files):
            time.sleep(0.02)  # slower than the denoise, so the backlog would grow unbounded
            write(out_dir, files)
            pair_id = files[0][0].partition("_")[0]
            written.append((pair_id, threading.current_thread()))

        def counting_mask_pairs(chunk, *args):
            nonlocal pairs_swapped
            backlogs.append(pairs_swapped - len(written))
            pairs_swapped += len(chunk)
            return mask_pairs(chunk, *args)

        monkeypatch.setattr(experiment, "write_files", slow_write)
        monkeypatch.setattr(hid, "mask_pairs", counting_mask_pairs)
        threads_before = threading.active_count()
        run_experiment(cfg, tmp_path)
        assert threading.active_count() == threads_before
        assert [pair_id for pair_id, _ in written] == [f"pair{i:03d}" for i in range(cfg.pairs)]
        assert all(thread is not threading.main_thread() for _, thread in written)
        assert len(backlogs) == 3 and max(backlogs) <= CHUNK_PAIRS
        names = {METRICS_FILENAME} | {
            f"pair{i:03d}_{name}"
            for i in range(cfg.pairs)
            for name in ("body.ppm", "head.ppm", "oracle.ppm")
            + tuple(f"{v}_{kind}" for v in VARIANTS
                    for kind in ("output.ppm", "mask.pgm", "overlay.ppm"))
        }
        assert {path.name for path in tmp_path.iterdir()} == names

    def test_failed_write_cancels_waiting_writes_and_joins(self, tmp_path, monkeypatch):
        cfg = RunConfig(seed=6, pairs=2 * CHUNK_PAIRS + 1)
        write = experiment.write_files
        started: list[str] = []
        finished: list[str] = []
        threads: set[threading.Thread] = set()

        def failing_write(out_dir, files):
            pair_id = files[0][0].partition("_")[0]
            started.append(pair_id)
            threads.add(threading.current_thread())
            if pair_id == f"pair{CHUNK_PAIRS:03d}":
                raise OSError("disk full")
            if pair_id > f"pair{CHUNK_PAIRS:03d}":
                time.sleep(0.5)  # still writing when the main thread meets the failure
            write(out_dir, files)
            finished.append(pair_id)

        monkeypatch.setattr(experiment, "write_files", failing_write)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(cfg, tmp_path)
        # the write in progress finished before the error surfaced, the writes
        # still waiting never started, and the thread is gone
        expected = [f"pair{i:03d}" for i in range(CHUNK_PAIRS + 2)]
        assert started == expected
        assert finished == expected[:CHUNK_PAIRS] + expected[-1:]
        assert len(threads) == 1 and not threads.pop().is_alive()
        assert not (tmp_path / METRICS_FILENAME).exists()


class TestSummaries:
    def test_means_are_arithmetic(self, small_run):
        _, _, records = small_run
        summary = summarize(records)
        for variant in ("naive", "full"):
            members = [r for r in records if r["variant"] == variant]
            assert summary[variant]["iou"] == pytest.approx(
                np.mean([r["iou"] for r in members]), abs=1e-12
            )
            assert summary[variant]["mse_head"] == pytest.approx(
                np.mean([r["mse_head"] for r in members]), abs=1e-12
            )
            probes = [r["attr_probe"]["matched"] / r["attr_probe"]["total"] for r in members]
            assert summary[variant]["probe_fraction"] == pytest.approx(
                np.mean(probes), abs=1e-12
            )

    def test_round_trip_through_file(self, small_run, tmp_path):
        _, _, records = small_run
        path = tmp_path / "metrics.jsonl"
        write_metrics(records, path)
        rows = read_metrics(path)
        by_file = summarize(rows)
        by_memory = summarize(records)
        for variant, entry in by_file.items():
            for key, value in entry.items():
                assert by_memory[variant][key] == pytest.approx(value, abs=1e-12)

    def test_non_object_line_rejected(self, small_run, tmp_path):
        _, _, records = small_run
        path = tmp_path / METRICS_FILENAME
        write_metrics(records[:1], path)
        with open(path, "a") as fh:
            fh.write("[1, 2]\n")
        with pytest.raises(ValueError, match=":2: expected a JSON object, got list"):
            read_metrics(path)

    def test_blank_lines_skipped(self, small_run, tmp_path):
        _, _, records = small_run
        path = tmp_path / METRICS_FILENAME
        write_metrics(records, path)
        spaced = tmp_path / "spaced.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        spaced.write_text("\n" + " \t\n".join(lines) + "\n")
        assert read_metrics(spaced) == read_metrics(path)

    def test_failed_write_leaves_existing_file(self, small_run, tmp_path):
        _, _, records = small_run
        path = tmp_path / METRICS_FILENAME
        write_metrics(records, path)
        before = path.read_bytes()
        broken = [records[0], {**records[1], "iou": object()}]  # second row cannot serialize
        with pytest.raises(TypeError):
            write_metrics(broken, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [METRICS_FILENAME]

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_row_raises_and_leaves_existing_file(self, small_run, tmp_path, value):
        _, _, records = small_run
        path = tmp_path / METRICS_FILENAME
        write_metrics(records, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            write_metrics([records[0], {**records[1], "mse_head": value}], path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [METRICS_FILENAME]
