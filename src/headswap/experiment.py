"""Batch swap runner: seeded pair sampling, per-pair metrics, JSONL records.

One JSON object per line in metrics.jsonl keeps records independently
parseable.  Wall-clock runtimes are kept on the in-memory rows (key
``runtime_ms``) and in the printed summary but never written to
metrics.jsonl, so repeated runs with the same seed produce byte-identical
files.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Sequence

import numpy as np

from .diffusion import EmpiricalNoisePredictor, NoiseSchedule, make_schedule
from .hid import RunConfig, SwapResult, swap_pairs
from .imaging import minmax_normalize, overlay_heatmap, write_image, write_mask
from .metrics import SwapReference, attribute_probe, mask_iou, region_mse, swap_reference
from .synthgen import AttributeSpec, all_attribute_specs, enumerate_dataset, render_avatar

METRICS_FILENAME = "metrics.jsonl"

# Pairs denoised in lockstep by swap_chunks (times its variants: the stack
# height).  The denoise holds one value per (row, column class), so stack
# temporaries no longer bound the chunk, but larger chunks buy no measured
# speed: on a 2-core machine the benchmark's ablate workload ran at 203,
# 193 and 202 ops/s with chunks of 4, 8 and 30 pairs, and 30 raised its
# peak RSS from 62 to 67 MB.  The pair count is unbounded, so it stays small.
CHUNK_PAIRS = 4

# metrics.jsonl carries exactly these keys, in this order
RECORD_FIELDS = (
    "pair_id",
    "body_attrs",
    "head_attrs",
    "variant",
    "iou",
    "mse_head",
    "mse_outside",
    "attr_probe",
)


def sample_pairs(seed: int, count: int) -> list[tuple[AttributeSpec, AttributeSpec]]:
    """Seeded (body, head) pairs, rejecting body == head."""
    specs = all_attribute_specs()
    rng = np.random.default_rng(seed)
    pairs: list[tuple[AttributeSpec, AttributeSpec]] = []
    while len(pairs) < count:
        i, j = rng.integers(0, len(specs), size=2)
        if i != j:
            pairs.append((specs[i], specs[j]))
    return pairs


def evaluate_swap(
    pair_id: str, ref: SwapReference, variant: str, result: SwapResult, runtime_ms: float
) -> dict:
    """Reduce a finished swap to its metrics.jsonl row plus ``runtime_ms``."""
    oracle = ref.oracle
    head_region = oracle.head_mask.astype(bool) | oracle.hair_mask.astype(bool)
    matched, total = attribute_probe(result.output, ref)
    return {
        "pair_id": pair_id,
        "body_attrs": list(ref.body.to_ints()),
        "head_attrs": list(ref.head.to_ints()),
        "variant": variant,
        "iou": mask_iou(result.mask, ref.truth),
        "mse_head": region_mse(result.output, oracle.image, head_region.astype(np.uint8)),
        "mse_outside": region_mse(result.output, ref.body_image, 1 - result.mask),
        "attr_probe": {"matched": matched, "total": total},
        "runtime_ms": runtime_ms,
    }


def write_metrics(rows: Sequence[dict], path) -> None:
    """Write the RECORD_FIELDS of each row, one object per line.

    The lines go to a temporary file beside ``path`` that then replaces it
    in one step, so a failed write leaves an existing file as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            for row in rows:
                fh.write(json.dumps({key: row[key] for key in RECORD_FIELDS}) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _check_row(row) -> None:
    """Raise ValueError unless a parsed line holds every key and value summarize reads.

    An integer too large for a float raises OverflowError.
    """
    if not isinstance(row, dict):
        raise ValueError(f"expected a JSON object, got {type(row).__name__}")
    missing = [key for key in RECORD_FIELDS if key not in row]
    if missing:
        raise ValueError(f"record lacks {', '.join(missing)}")
    probe = row["attr_probe"]
    if not (
        isinstance(row["variant"], str)
        and all(
            type(row[key]) in (int, float) and math.isfinite(row[key])
            for key in ("iou", "mse_head", "mse_outside")
        )
        and 0 <= row["iou"] <= 1
        and row["mse_head"] >= 0
        and row["mse_outside"] >= 0
        and isinstance(probe, dict)
        and type(probe.get("matched")) is int
        and type(probe.get("total")) is int
        and 0 <= probe["matched"] <= probe["total"]
        and probe["total"] > 0
    ):
        raise ValueError(
            "expected a string variant, a finite iou in [0, 1], finite mse_head/mse_outside "
            ">= 0 and attr_probe counts 0 <= matched <= total with total > 0"
        )


def read_metrics(path) -> list[dict]:
    """Parse metrics.jsonl into rows of RECORD_FIELDS; a malformed line raises ValueError
    naming path:line.

    A file without any record raises ValueError naming the path.
    """
    rows = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("ascii")  # UnicodeDecodeError is a ValueError
                if not line.strip():
                    continue
                row = json.loads(line)
                _check_row(row)
            # json.JSONDecodeError is a ValueError; deep nesting raises RecursionError
            except (ValueError, OverflowError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            rows.append({key: row[key] for key in RECORD_FIELDS})
    if not rows:
        raise ValueError(f"{path}: no records")
    return rows


def summarize(rows: Sequence[dict]) -> dict[str, dict[str, float]]:
    """Per-variant means of metrics.jsonl rows, and of runtime_ms where rows carry it."""
    grouped: dict[str, list[dict]] = {}
    for row in rows:
        grouped.setdefault(row["variant"], []).append(row)

    summary: dict[str, dict[str, float]] = {}
    for variant, members in grouped.items():
        entry = {"count": float(len(members))}
        for key in ("iou", "mse_head", "mse_outside"):
            entry[key] = float(np.mean([m[key] for m in members]))
        entry["probe_fraction"] = float(
            np.mean([m["attr_probe"]["matched"] / m["attr_probe"]["total"] for m in members])
        )
        runtimes = [m["runtime_ms"] for m in members if "runtime_ms" in m]
        if runtimes:
            entry["runtime_ms"] = float(np.mean(runtimes))
        summary[variant] = entry
    return summary


def format_summary(summary: dict[str, dict[str, float]]) -> str:
    lines = []
    for variant in sorted(summary):
        entry = summary[variant]
        parts = [f"{variant:8s} n={int(entry['count'])}"]
        for key in ("iou", "mse_head", "mse_outside", "probe_fraction", "runtime_ms"):
            if key in entry:
                parts.append(f"{key}={entry[key]:.6g}")
        lines.append("  ".join(parts))
    return "\n".join(lines)


def _write_pair_images(out_dir: Path, pair_id: str, ref: SwapReference, variants, results) -> None:
    """The pair's body, head and oracle, and each variant's output, mask and map overlay."""
    write_image(ref.body_image, out_dir / f"{pair_id}_body.ppm")
    write_image(render_avatar(ref.head).image, out_dir / f"{pair_id}_head.ppm")
    write_image(ref.oracle.image, out_dir / f"{pair_id}_oracle.ppm")
    for variant, result in zip(variants, results):
        stem = f"{pair_id}_{variant}"
        write_image(result.output, out_dir / f"{stem}_output.ppm")
        write_mask(result.mask, out_dir / f"{stem}_mask.pgm")
        overlay = overlay_heatmap(ref.body_image, minmax_normalize(result.io_map))
        write_image(overlay, out_dir / f"{stem}_overlay.ppm")


def swap_chunks(
    cfg: RunConfig, variants: Sequence[str], sched: NoiseSchedule, pred: EmpiricalNoisePredictor
):
    """Swap the seeded pairs of ``cfg`` through ``swap_pairs``, CHUNK_PAIRS at a time.

    Yields (pair_id, swap_reference, results per variant, runtime_ms) in
    pair order; runtime_ms is the chunk's swap time split evenly among its swaps.
    """
    pairs = sample_pairs(cfg.seed, cfg.pairs)
    for first in range(0, len(pairs), CHUNK_PAIRS):
        chunk = pairs[first : first + CHUNK_PAIRS]
        started = time.perf_counter()
        results = swap_pairs(chunk, cfg, variants, sched, pred)
        runtime_ms = (time.perf_counter() - started) * 1e3 / (len(chunk) * len(variants))
        for index, (body, head), pair_results in zip(range(first, len(pairs)), chunk, results):
            yield f"pair{index:03d}", swap_reference(body, head), pair_results, runtime_ms


def run_experiment(
    cfg: RunConfig,
    variants: Sequence[str] | None = None,
    sched: NoiseSchedule | None = None,
    pred: EmpiricalNoisePredictor | None = None,
) -> list[dict]:
    """Run seeded swap pairs for each requested variant and collect metric rows.

    The pairs go through ``swap_chunks``, so every pair x variant of a
    chunk is denoised in lockstep.  Writes per-pair images plus
    metrics.jsonl when cfg.out_dir is set.  A shared schedule and
    predictor may be injected to amortize dataset setup across calls.
    """
    variants = tuple(variants or (cfg.variant,))
    for variant in variants:
        cfg.swap_config(variant)  # rejects an unknown variant before any work
    if sched is None:
        sched = make_schedule(cfg.T)
    if pred is None:
        pred = EmpiricalNoisePredictor.from_renders(enumerate_dataset(), sched)

    out_dir = None
    if cfg.out_dir is not None:
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    rows: list[dict] = []
    for pair_id, ref, results, runtime_ms in swap_chunks(cfg, variants, sched, pred):
        rows += [evaluate_swap(pair_id, ref, v, r, runtime_ms) for v, r in zip(variants, results)]
        if out_dir is not None:
            _write_pair_images(out_dir, pair_id, ref, variants, results)

    if out_dir is not None:
        write_metrics(rows, out_dir / METRICS_FILENAME)
    return rows
