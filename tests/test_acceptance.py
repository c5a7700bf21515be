"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy statistical criteria share one seeded 50-pair batch (module
fixture) so the whole suite stays well inside its runtime budgets.  The
per-criterion lines are echoed again in a terminal-summary section so
they stay visible under pytest's output capture.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import headswap as hs
import conftest
from headswap.experiment import evaluate_swap, sample_pairs
from headswap.iomask import orthogonal_component
from headswap.metrics import swap_reference
from headswap.synthgen import BALD, LONG, oracle_swap, render_avatar
from helpers import files_identical


def report(criterion: int, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = (
        f"acceptance criterion {criterion:2d}: {status} "
        f"[{elapsed:6.2f}s / budget {budget:.0f}s] {detail}"
    )
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line
    assert elapsed < budget, line


@pytest.fixture(scope="module")
def ablation_run(predictor):
    """Seeded 50-pair batch at defaults, full and naive variants."""
    started = time.perf_counter()
    pairs = sample_pairs(7, 50)
    out = {"pairs": pairs, "full": [], "naive": []}
    cfg = hs.RunConfig(seed=7, pairs=50)  # defaults: T=50 w=3 tau=0.6 sigma=2 edit=0.8
    for index, (body, head) in enumerate(pairs):
        ref = swap_reference(body, head)
        for variant in ("full", "naive"):
            result = hs.run_headswap(body, head, replace(cfg, variant=variant), predictor)
            record = evaluate_swap(f"pair{index:03d}", ref, variant, result)
            out[variant].append((body, head, result, record))
    out["elapsed"] = time.perf_counter() - started
    return out


def test_criterion_1_cfg_identity(rng):
    started = time.perf_counter()
    exact = 0
    for _ in range(100):
        uncond = rng.normal(size=(32, 32, 3))
        cond = rng.normal(size=(32, 32, 3))
        exact += np.array_equal(hs.cfg_combine(uncond, cond, 1.0), cond)
    report(1, exact == 100, time.perf_counter() - started, 1.0,
           f"guidance-1 combination bit-equals the conditional field on {exact}/100 pairs")


def test_criterion_2_orthogonality(rng):
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        eps_h = rng.normal(size=(32, 32, 3))
        eps_b = rng.normal(size=(32, 32, 3))
        out = orthogonal_component(eps_h, eps_b)
        cosine = abs(out.ravel() @ eps_b.ravel()) / (
            np.linalg.norm(out) * np.linalg.norm(eps_b)
        )
        worst = max(worst, cosine)
    report(2, worst < 1e-10, time.perf_counter() - started, 1.0,
           f"worst normalized inner product {worst:.2e} over 100 pairs")


def test_criterion_3_step_inverse(rng, sched50):
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        t = int(rng.integers(0, 50))
        z = rng.normal(size=(8, 8, 3))
        eps = rng.normal(size=(8, 8, 3))
        back = hs.ddim_sample_step(
            hs.ddim_invert_step(z, eps, t, sched50), eps, t + 1, sched50
        )
        worst = max(worst, float(np.abs(back - z).max()))
    report(3, worst < 1e-10, time.perf_counter() - started, 1.0,
           f"worst invert-then-sample residual {worst:.2e} over 1000 triples")


def test_criterion_4_round_trip(dataset):
    started = time.perf_counter()
    subset = dataset[::33][:10]
    errors = {}
    for T in (50, 100, 200):
        sched = hs.make_schedule(T)
        pred = hs.EmpiricalNoisePredictor.from_renders(subset, sched)
        errs = []
        for render in subset:
            traj = hs.invert_trajectory(render.image, hs.NULL_CONDITION, sched, pred)
            recon = hs.ddim_sample_loop(traj[-1], hs.NULL_CONDITION, sched, pred)
            errs.append(np.linalg.norm(recon - render.image) / np.linalg.norm(render.image))
        errors[T] = np.array(errs)
    ok = (
        errors[100].max() < 0.02
        and (errors[100] <= errors[50]).all()
        and (errors[200] <= errors[100]).all()
    )
    report(4, ok, time.perf_counter() - started, 30.0,
           f"round-trip rel errors max {errors[50].max():.1e}/{errors[100].max():.1e}/"
           f"{errors[200].max():.1e} at T=50/100/200, non-increasing")


def test_criterion_5_identity_swap(predictor):
    started = time.perf_counter()
    specs = hs.all_attribute_specs()
    rng = np.random.default_rng(11)
    cfg = hs.RunConfig(T=50, w=1.0, tau=0.6, variant="full")
    empty, exact = 0, 0
    for k in rng.choice(len(specs), size=10, replace=False):
        spec = specs[int(k)]
        result = hs.run_headswap(spec, spec, cfg, predictor)
        empty += result.mask.sum() == 0
        exact += np.array_equal(result.output, render_avatar(spec).image)
    report(5, empty == 10 and exact == 10, time.perf_counter() - started, 10.0,
           f"identity swaps: empty mask {empty}/10, bit-equal output {exact}/10")


def test_criterion_6_outside_mask_exactness(predictor):
    started = time.perf_counter()
    cfg = hs.RunConfig(seed=23, pairs=25)
    clean, contained = 0, 0
    for body, head in sample_pairs(23, 25):
        result = hs.run_headswap(body, head, cfg, predictor)
        body_image = render_avatar(body).image
        outside = ~result.mask
        diff = np.abs(result.output - body_image)
        clean += diff[outside].max() == 0.0
        changed = diff.max(axis=2) > 0
        contained += bool((changed <= result.mask).all())
    report(6, clean == 25 and contained == 25, time.perf_counter() - started, 60.0,
           f"max|output - body| outside mask exactly 0 on {clean}/25, "
           f"changed pixels inside mask on {contained}/25")


def test_criterion_7_ablation(ablation_run):
    started = time.perf_counter() - ablation_run["elapsed"]
    iou_full = np.array([rec["iou"] for _, _, _, rec in ablation_run["full"]])
    iou_naive = np.array([rec["iou"] for _, _, _, rec in ablation_run["naive"]])
    wins = float((iou_full > iou_naive).mean())
    ok = iou_full.mean() >= iou_naive.mean() and wins >= 0.60
    report(7, ok, time.perf_counter() - started, 300.0,
           f"mean IoU full {iou_full.mean():.4f} >= naive {iou_naive.mean():.4f}, "
           f"full wins {wins:.0%} of 50 pairs")


def test_criterion_8_end_to_end(ablation_run, predictor):
    started = time.perf_counter() - ablation_run["elapsed"]
    improved = 0
    for body, head, result, _ in ablation_run["full"]:
        oracle = oracle_swap(body, head).image
        body_image = render_avatar(body).image
        improved += float(np.mean((result.output - oracle) ** 2)) < float(
            np.mean((body_image - oracle) ** 2)
        )
    probe_rates = {}
    best = 0.0
    records_w3 = [rec for _, _, _, rec in ablation_run["full"]]
    probe_rates[3.0] = np.mean([rec["attr_probe"]["matched"] >= 2 for rec in records_w3])
    best = probe_rates[3.0]
    if best < 0.70:
        for w in (1.0, 7.5):
            cfg = hs.RunConfig(seed=7, pairs=50, w=w)
            hits = 0
            for body, head in ablation_run["pairs"]:
                result = hs.run_headswap(body, head, replace(cfg, variant="full"), predictor)
                record = evaluate_swap("sweep", swap_reference(body, head), "full", result)
                hits += record["attr_probe"]["matched"] >= 2
            probe_rates[w] = hits / 50
            best = max(best, probe_rates[w])
            if best >= 0.70:
                break
    ok = improved >= 0.80 * 50 and best >= 0.70
    report(8, ok, time.perf_counter() - started, 300.0,
           f"MSE improved on {improved}/50 pairs at defaults; "
           f"probe >= 2/3 on {best:.0%} of pairs (rates by guidance: "
           + ", ".join(f"w={w:g}: {rate:.0%}" for w, rate in probe_rates.items()) + ")")


def test_criterion_9_determinism(tmp_path):
    started = time.perf_counter()
    dirs = [tmp_path / "run_a", tmp_path / "run_b"]
    from headswap.cli import cli_main

    for out_dir in dirs:
        code = cli_main(["ablate", "--pairs", "5", "--seed", "7", "--out", str(out_dir)])
        assert code == 0
    names_a = sorted(p.name for p in dirs[0].iterdir())
    names_b = sorted(p.name for p in dirs[1].iterdir())
    same_names = names_a == names_b
    identical = all(files_identical(dirs[0] / n, dirs[1] / n) for n in names_a)
    report(9, same_names and identical, time.perf_counter() - started, 60.0,
           f"two seeded runs produced byte-identical metrics.jsonl and "
           f"{len(names_a) - 1} image files")


def test_criterion_10_long_hair_removal(ablation_run):
    # shares criterion 7's batch; charged its full cost here as well
    started = time.perf_counter() - ablation_run["elapsed"]
    coverages = []
    for body, head, result, _ in ablation_run["full"]:
        if body.hair_style == LONG and head.hair_style == BALD:
            hair = render_avatar(body).hair_mask
            coverages.append((result.mask & hair).sum() / hair.sum())
    ok = len(coverages) > 0 and all(c >= 0.5 for c in coverages)
    report(10, ok, time.perf_counter() - started, 300.0,
           f"mask covers {', '.join(f'{c:.0%}' for c in coverages)} of the body's "
           f"hair pixels on {len(coverages)} long-to-bald pairs")
