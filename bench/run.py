#!/usr/bin/env python3
"""headswap benchmark: one closed-loop client per workload, run from the repo root.

    python3 bench/run.py --workload {ablate,mask,swap_cold} --seed N --seconds S --trace {0,1}

Each workload repeats whole rounds of the same seeded operations until
``--seconds`` have passed, checks every output, prints a short report and
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs half the time untraced and half traced and reports the
per-layer metrics.  See bench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import checks
import spans
from spawn import Spawner

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

VARIANTS = ("naive", "no_orth", "full")
PAIRS = {"ablate": 30, "mask": 24, "swap_cold": 8}
SETUP_REPEATS = 10
SETUP_EVERY_S = 1.0
PROBE_REPEATS = 5


class Rounds:
    """Whole rounds of one workload: per-request wall times, op counts, failures."""

    def __init__(self):
        self.request_s: list[float] = []
        self.round_rates: list[float] = []
        self.ops = 0
        self.failed = 0
        self.wall = 0.0
        self.cpu = 0.0

    def run(self, seconds: float, one_round, between=None) -> "Rounds":
        """Repeat ``one_round`` until ``seconds`` have passed, calling ``between`` after each."""
        started = time.perf_counter()
        cpu_started = time.process_time()
        while not self.ops or time.perf_counter() - started < seconds:
            times, ops, failed = one_round()
            self.request_s += times
            self.round_rates.append(ops / sum(times))
            self.ops += ops
            self.failed += failed
            if between is not None:
                between()
        self.wall = time.perf_counter() - started
        self.cpu = time.process_time() - cpu_started
        return self

    @property
    def ops_per_s(self) -> float:
        return statistics.median(self.round_rates)


class SetupTimer:
    """Times schedule + corpus render + predictor build, spread over the whole run.

    Samples taken only at the start would all land in whatever slow or fast
    spell the machine is in then; one more sample every ``SETUP_EVERY_S``
    between rounds lets the median see the whole run.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self):
        from headswap import diffusion, synthgen

        started = time.perf_counter()
        sched = diffusion.make_schedule(50)
        pred = diffusion.EmpiricalNoisePredictor.from_renders(synthgen.enumerate_dataset(), sched)
        self.last = time.perf_counter()
        self.samples.append(self.last - started)
        return sched, pred

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY_S:
            self.sample()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def attrs_arg(spec) -> str:
    return ",".join(str(v) for v in spec.to_ints())


def ground_truths(pairs):
    from headswap.synthgen import ground_truth_edit_mask

    return [ground_truth_edit_mask(body, head).astype(bool) for body, head in pairs]


def swap_ok(record, body, head, output_ppm, body_ppm, mask_pgm, truth) -> bool:
    """The record is the seeded pair's, outside-mask bytes equal the body's,
    mse_outside is 0, and the IoU recomputed from the written mask matches."""
    try:
        mask = checks.mask_from_pgm(checks.read_pnm(mask_pgm))
        output = checks.read_pnm(output_ppm)
        return (
            record["body_attrs"] == list(body.to_ints())
            and record["head_attrs"] == list(head.to_ints())
            and checks.outside_mask_mismatches(output, checks.read_pnm(body_ppm), mask) == 0
            and record["mse_outside"] == 0.0
            and checks.iou(mask, truth) == record["iou"]
        )
    except (OSError, ValueError, KeyError, TypeError):
        return False


def quality(records) -> dict[str, float]:
    """Mean quality figures of the full (and, when present, naive) variant."""
    full = [r for r in records if r["variant"] == "full"]
    naive = [r for r in records if r["variant"] == "naive"]
    out = {
        "iou_full": statistics.fmean(r["iou"] for r in full),
        "mse_head_full": statistics.fmean(r["mse_head"] for r in full),
        "probe_fraction_full": statistics.fmean(
            r["attr_probe"]["matched"] / r["attr_probe"]["total"] for r in full
        ),
    }
    if naive:
        out["iou_naive"] = statistics.fmean(r["iou"] for r in naive)
    return out


# --- ablate: the `headswap ablate` command, in-process through the CLI entry point


def ablate_workload(seed: int):
    from headswap import cli
    from headswap.experiment import sample_pairs

    pairs = sample_pairs(seed, PAIRS["ablate"])
    truths = ground_truths(pairs)
    out = OUT / "ablate"
    argv = ["ablate", "--pairs", str(len(pairs)), "--seed", str(seed), "--out", str(out)]
    ops = len(pairs) * len(VARIANTS)
    state: dict = {}

    def one_round():
        shutil.rmtree(out, ignore_errors=True)
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.cli_main(argv)
        except Exception:  # a crash fails this round's ops; the run goes on
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - started
        try:
            data = (out / "metrics.jsonl").read_bytes()
            records = {(r["pair_id"], r["variant"]): r for r in map(json.loads, data.splitlines())}
            summary = quality(records.values())
        except (OSError, ValueError, KeyError, TypeError, statistics.StatisticsError):
            return [elapsed], ops, ops
        # every command of the run must write the warm-up command's bytes
        if code != 0 or data != state.setdefault("reference", data) or len(records) != ops:
            return [elapsed], ops, ops
        if not summary["iou_full"] > summary["iou_naive"]:
            return [elapsed], ops, ops
        failed = 0
        for index, ((body, head), truth) in enumerate(zip(pairs, truths)):
            pair_id = f"pair{index:03d}"
            for variant in VARIANTS:
                stem = out / f"{pair_id}_{variant}"
                failed += not swap_ok(
                    records.get((pair_id, variant)), body, head,
                    f"{stem}_output.ppm", out / f"{pair_id}_body.ppm", f"{stem}_mask.pgm", truth,
                )
        state["summary"] = summary
        return [elapsed], ops, failed

    return one_round, lambda: state.get("summary", {})


# --- mask: invert -> io_map -> build_iomask in-process with one shared predictor


def mask_workload(seed: int, sched, pred):
    from headswap import diffusion, hid, iomask, synthgen
    from headswap.experiment import RunConfig, sample_pairs

    pairs = sample_pairs(seed, PAIRS["mask"])
    truths = ground_truths(pairs)
    bodies = [synthgen.render_avatar(body).image for body, _ in pairs]
    configs = [RunConfig(seed=seed).swap_config(v) for v in VARIANTS]
    coefficients = checks.inversion_coefficients(checks.cosine_alpha_bar(sched.T))
    ious: list[float] = []

    def one_pair(body, head):
        cond_body = hid.body_condition(body)
        cond_head = hid.compose_head_condition(head, body)
        traj = diffusion.invert_trajectory(synthgen.render_avatar(body).image, cond_body, sched, pred)
        results = []
        for cfg in configs:
            edit_map = iomask.io_map(traj, cfg.edit_start, cond_head, cond_body, cfg.mask, sched, pred)
            results.append((edit_map, iomask.build_iomask(edit_map, cfg.mask)))
        return traj, results

    def one_round():
        times, failed = [], 0
        ious.clear()
        for (body, head), truth, body_image in zip(pairs, truths, bodies):
            started = time.perf_counter()
            try:
                traj, results = one_pair(body, head)
            except Exception:  # a crash fails this pair's ops; the run goes on
                traceback.print_exc()
                times.append(time.perf_counter() - started)
                failed += len(configs)
                continue
            times.append(time.perf_counter() - started)
            deviation = checks.inversion_deviation(traj, body_image, coefficients)
            for cfg, (edit_map, mask) in zip(configs, results):
                ok = (
                    deviation <= checks.INVERSION_TOLERANCE
                    and mask.shape == truth.shape
                    and bool(((mask == 0) | (mask == 1)).all())
                    and bool(np.isfinite(edit_map).all())
                    and bool((edit_map >= 0).all())
                )
                failed += not ok
                if cfg.mask.variant == "full":
                    ious.append(checks.iou(mask == 1, truth))
        return times, len(pairs) * len(configs), failed

    return one_round, lambda: {"iou_full": statistics.fmean(ious)} if ious else {}


# --- swap_cold: one fresh `headswap swap` interpreter per pair, back to back


def swap_cold_workload(seed: int, spawner, traced: list | None = None):
    """With ``traced``, children run under the tracer and their trace documents are appended."""
    from headswap.experiment import sample_pairs

    pairs = sample_pairs(seed, PAIRS["swap_cold"])
    truths = ground_truths(pairs)
    out = OUT / "swap_cold"
    env = child_env()
    children = {"cpu": 0.0, "wall": 0.0, "rss": []}
    records: list[dict] = []

    def one_round():
        times, failed = [], 0
        records.clear()
        for index, ((body, head), truth) in enumerate(zip(pairs, truths)):
            run_dir = out / f"pair{index:03d}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            swap_args = ["swap", "--body", attrs_arg(body), "--head", attrs_arg(head), "--out", str(run_dir)]
            if traced is None:
                cmd = [sys.executable, "-m", "headswap.cli", *swap_args]
            else:
                cmd = [sys.executable, str(BENCH / "swap_child.py"), str(run_dir / "trace.json"), *swap_args]
            child = spawner.run(cmd, env, run_dir / "stderr.txt")
            times.append(child["wall_s"])
            children["wall"] += child["wall_s"]
            children["cpu"] += child["cpu_s"]
            children["rss"].append(child["rss_mb"])
            try:
                lines = (run_dir / "metrics.jsonl").read_text(encoding="ascii").splitlines()
                record = json.loads(lines[0])
                ok = (
                    child["code"] == 0
                    and len(lines) == 1
                    and record["variant"] == "full"
                    and swap_ok(
                        record, body, head,
                        run_dir / "output.ppm", run_dir / "body.ppm", run_dir / "mask.pgm", truth,
                    )
                )
                if ok and traced is not None:
                    traced.append(json.loads((run_dir / "trace.json").read_text(encoding="ascii")))
            except (OSError, ValueError, KeyError, IndexError):
                ok = False
            if ok:
                records.append(record)
            failed += not ok
        return times, len(pairs), failed

    return one_round, lambda: quality(records) if records else {}, children


# --- probes of interpreter start-up, outside the program's control


def probe_ms(code: str, env: dict) -> float:
    """Median over fresh interpreters: the wall time the code prints, or spawn-to-exit."""
    samples = []
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        elapsed = time.perf_counter() - started
        samples.append(float(done.stdout) if done.stdout.strip() else elapsed)
    return statistics.median(samples) * 1e3


def interpreter_probes() -> dict[str, float]:
    env = child_env()
    return {
        "cli.interpreter_numpy_ms": probe_ms("import numpy", env),
        "cli.import_ms": probe_ms(
            "import time, numpy; t = time.perf_counter(); import headswap.cli; "
            "print(time.perf_counter() - t)",
            env,
        ),
    }


# --- driver

UNITS = (
    ("calls_per_op", "count"),
    ("calls_per_pair", "count"),
    ("spans_per_op", "count"),
    ("mb_moved_per_op", "MB"),
    ("gb_per_s", "GB/s"),
    ("bytes_per_op", "B"),
    ("mask_area_px", "px"),
    ("ms", "ms"),
    ("cpu_per_wall", "ratio"),
    ("overhead_pct", "%"),
)


def unit_of(name: str) -> str:
    return next(unit for suffix, unit in UNITS if name.endswith(suffix))


def merge_child_traces(docs):
    """Concatenate the children's spans with ids made unique, and sum their counts."""
    merged, counts, offset = [], Counter(), 0
    for doc in docs:
        for sid, name, start, end, parent in doc["spans"]:
            merged.append((sid + offset, name, start, end, None if parent is None else parent + offset))
        offset += len(doc["spans"])
        for key, value in doc["counts"].items():
            counts[key] += value
    return merged, counts


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(parents=True, exist_ok=True)
    spawner = Spawner() if workload == "swap_cold" else None
    try:
        return measure(workload, seed, seconds, trace, spawner)
    finally:
        if spawner is not None:
            spawner.close()


def measure(workload: str, seed: int, seconds: float, trace: bool, spawner) -> dict:
    setup = SetupTimer()
    sched, pred = setup.sample()
    children = None
    if workload == "ablate":
        one_round, report = ablate_workload(seed)
    elif workload == "mask":
        one_round, report = mask_workload(seed, sched, pred)
    else:
        one_round, report, children = swap_cold_workload(seed, spawner)
    ops_per_pair = 1 if workload == "swap_cold" else len(VARIANTS)

    warm = Rounds().run(0, one_round)  # fills caches and finishes lazy imports
    # read before further set-up samples add their garbage
    own_peak_mb = peak_rss_mb()
    for _ in range(SETUP_REPEATS - 1):
        setup.sample()
    if trace:
        measured = Rounds().run(seconds / 2, one_round)
    else:
        measured = Rounds().run(seconds, one_round, setup.sample_if_due)
    failed = warm.failed + measured.failed
    print(f"workload {workload} seed {seed}: {measured.ops} ops in {len(measured.request_s)} requests")
    for name, value in report().items():
        print(f"  {name} {value:.6g}")

    if not trace:
        rss = statistics.median(children["rss"]) if children else own_peak_mb
        metrics = {
            "ops_per_s": (measured.ops_per_s, "1/s"),
            "request_ms_p50": (statistics.median(measured.request_s) * 1e3, "ms"),
            "setup_s": (statistics.median(setup.samples), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return result(failed, measured.ops, measured.failed, metrics)

    if children:
        cpu_per_wall = children["cpu"] / children["wall"]
    else:
        cpu_per_wall = measured.cpu / measured.wall
    tracer = spans.Tracer()
    setup_spans: list = []
    if workload == "swap_cold":
        docs: list = []
        one_round, _, _ = swap_cold_workload(seed, spawner, docs)
    else:
        tracer.install()
        if workload == "mask":  # the timed rounds reuse the warm predictor; trace one set-up
            from headswap import diffusion, synthgen

            diffusion.EmpiricalNoisePredictor.from_renders(synthgen.enumerate_dataset(), sched)
            setup_spans, tracer.spans = tracer.spans, []
    traced = Rounds().run(seconds / 2, one_round)
    tracer.uninstall()
    if workload == "swap_cold":
        tracer.spans, tracer.counts = merge_child_traces(docs)
    layers = spans.layer_metrics(
        tracer.spans, tracer.counts, traced.ops, traced.ops // ops_per_pair, setup_spans
    )
    layers.update(interpreter_probes())
    layers["process.cpu_per_wall"] = cpu_per_wall
    layers["trace.overhead_pct"] = (measured.ops_per_s / traced.ops_per_s - 1.0) * 100.0
    tracer.dump(OUT / f"trace-{workload}-{seed}.json")
    metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    return result(
        failed + traced.failed, measured.ops + traced.ops, measured.failed + traced.failed, metrics
    )


def result(all_failed: int, attempted: int, failed: int, metrics) -> dict:
    """The last output line; ``all_failed`` includes the untimed warm-up round."""
    return {
        "correct": all_failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("ablate", "mask", "swap_cold"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "headswap" / "cli.py").is_file():
        print(f"error: no headswap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
