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

# Pairs denoised in lockstep by run_experiment (times its variants: the stack
# height).  Larger chunks amortize the corpus GEMMs further but hold one more
# inversion trajectory per pair; see CHANGES.md for the measurement.
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


def _write_pair_images(out_dir: Path, pair_id: str, ref: SwapReference) -> None:
    write_image(ref.body_image, out_dir / f"{pair_id}_body.ppm")
    write_image(render_avatar(ref.head).image, out_dir / f"{pair_id}_head.ppm")
    write_image(ref.oracle.image, out_dir / f"{pair_id}_oracle.ppm")


def _write_variant_images(out_dir: Path, pair_id: str, variant: str, result: SwapResult):
    stem = f"{pair_id}_{variant}"
    write_image(result.output, out_dir / f"{stem}_output.ppm")
    write_mask(result.mask, out_dir / f"{stem}_mask.pgm")
    overlay = overlay_heatmap(result.trajectory[0], minmax_normalize(result.io_map))
    write_image(overlay, out_dir / f"{stem}_overlay.ppm")


def _run_chunk(pairs, first: int, cfg: RunConfig, variants, sched, pred, out_dir) -> list[dict]:
    """Swap, score and write pairs[first : first + CHUNK_PAIRS]."""
    chunk = pairs[first : first + CHUNK_PAIRS]
    started = time.perf_counter()
    results = swap_pairs(chunk, cfg, variants, sched, pred)
    runtime_ms = (time.perf_counter() - started) * 1e3 / (len(chunk) * len(variants))
    rows = []
    for index, (body, head), pair_results in zip(range(first, len(pairs)), chunk, results):
        pair_id = f"pair{index:03d}"
        ref = swap_reference(body, head)
        if out_dir is not None:
            _write_pair_images(out_dir, pair_id, ref)
        for variant, result in zip(variants, pair_results):
            rows.append(evaluate_swap(pair_id, ref, variant, result, runtime_ms))
            if out_dir is not None:
                _write_variant_images(out_dir, pair_id, variant, result)
    return rows


def run_experiment(
    cfg: RunConfig,
    variants: Sequence[str] | None = None,
    sched: NoiseSchedule | None = None,
    pred: EmpiricalNoisePredictor | None = None,
) -> list[dict]:
    """Run seeded swap pairs for each requested variant and collect metric rows.

    The pairs go through ``swap_pairs`` in chunks of CHUNK_PAIRS, in pair
    order, so every pair x variant of a chunk is denoised in lockstep; a
    row's ``runtime_ms`` is its chunk's swap time divided evenly among the
    chunk's swaps.  Writes per-pair images plus metrics.jsonl when
    cfg.out_dir is set.  A shared schedule and predictor may be injected
    to amortize dataset setup across calls.
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

    pairs = sample_pairs(cfg.seed, cfg.pairs)
    rows: list[dict] = []
    for first in range(0, len(pairs), CHUNK_PAIRS):
        # a function call per chunk, so one chunk's trajectories are freed before the next
        rows += _run_chunk(pairs, first, cfg, variants, sched, pred, out_dir)

    if out_dir is not None:
        write_metrics(rows, out_dir / METRICS_FILENAME)
    return rows
