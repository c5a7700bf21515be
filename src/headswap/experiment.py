"""Batch swap runner: seeded pair sampling, per-pair metrics, JSONL records.

``run_experiment(cfg, out_dir)`` builds its own predictor and always writes:
one JSON object per line in metrics.jsonl keeps records independently
parseable.  A run's rows are exactly those records, so repeated runs
with the same seed return equal rows and write byte-identical files.  A
run's image files are created on one background thread, one chunk behind
the denoise, and metrics.jsonl only after every image is written.
``pair_files`` and ``map_files`` encode a swap's files for this runner and
for the CLI's swap and mask alike.
"""

from __future__ import annotations

import json
import math
import os
from collections import deque
from pathlib import Path
from typing import Sequence

import numpy as np

from .diffusion import EmpiricalNoisePredictor, make_schedule
from .hid import CHUNK_PAIRS, RunConfig, SwapResult, swap_pairs
from .imaging import encode_image, encode_mask, minmax_normalize, overlay_heatmap, write_files
from .iomask import VARIANTS
from .metrics import SwapReference, attribute_probe, mask_iou, region_mse, swap_reference
from .synthgen import AttributeSpec, all_attribute_specs, enumerate_dataset, render_avatar

METRICS_FILENAME = "metrics.jsonl"

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


def evaluate_swap(pair_id: str, ref: SwapReference, variant: str, result: SwapResult) -> dict:
    """Reduce a finished swap to its metrics.jsonl row."""
    oracle = ref.oracle
    matched, total = attribute_probe(result.output, ref)
    return {
        "pair_id": pair_id,
        "body_attrs": list(ref.body.to_ints()),
        "head_attrs": list(ref.head.to_ints()),
        "variant": variant,
        "iou": mask_iou(result.mask, ref.truth),
        "mse_head": region_mse(result.output, oracle.image, oracle.head_mask | oracle.hair_mask),
        "mse_outside": region_mse(result.output, ref.body_image, ~result.mask),
        "attr_probe": {"matched": matched, "total": total},
    }


def write_metrics(rows: Sequence[dict], path) -> None:
    """Write the RECORD_FIELDS of each row, one object per line.

    The lines go to a temporary file beside ``path`` that then replaces it
    in one step, so a failed write leaves an existing file as it was.  A
    NaN or infinite value raises ValueError: ``read_metrics`` rejects it.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            for row in rows:
                fh.write(json.dumps({k: row[k] for k in RECORD_FIELDS}, allow_nan=False) + "\n")
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
    """Per-variant means of metrics.jsonl rows."""
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
        summary[variant] = entry
    return summary


def format_summary(summary: dict[str, dict[str, float]]) -> str:
    keys = ("iou", "mse_head", "mse_outside", "probe_fraction")
    return "\n".join(
        "  ".join([f"{variant:8s} n={int(entry['count'])}"] + [f"{k}={entry[k]:.6g}" for k in keys])
        for variant, entry in sorted(summary.items())
    )


def map_files(stem: str, body_image, edit_map, mask) -> list[tuple[str, bytes]]:
    """File names and bytes of a swap's mask and of its normalized edit map over the body image."""
    overlay = overlay_heatmap(body_image, minmax_normalize(edit_map))
    return [(f"{stem}mask.pgm", encode_mask(mask)), (f"{stem}overlay.ppm", encode_image(overlay))]


def pair_files(prefix: str, ref: SwapReference, results) -> list[tuple[str, bytes]]:
    """File names and bytes of a pair's body, head and oracle, and of each
    ``(stem, result)``'s output, mask and map overlay."""
    files = [
        (f"{prefix}body.ppm", encode_image(ref.body_image)),
        (f"{prefix}head.ppm", encode_image(render_avatar(ref.head).image)),
        (f"{prefix}oracle.ppm", encode_image(ref.oracle.image)),
    ]
    for stem, result in results:
        files.append((f"{stem}output.ppm", encode_image(result.output)))
        files += map_files(stem, ref.body_image, result.io_map, result.mask)
    return files


def run_experiment(cfg: RunConfig, out_dir) -> list[dict]:
    """Run seeded pairs under every mask variant, write them into out_dir and return the rows.

    Builds its predictor on a cfg.T-step schedule.  The pairs go through
    ``swap_pairs``, so every pair x variant of a chunk is denoised in
    lockstep.  Each pair's images are encoded here (``pair_files``) once
    its rows are scored, and one background writer thread creates their
    files through ``write_files`` (out_dir with the first pair's), in pair
    order, while this thread denoises the next chunk; at most CHUNK_PAIRS
    pairs wait to be written.  metrics.jsonl is written last,
    and only after every image write has succeeded.  A failed image write
    re-raises its error here.  However this returns or raises, pending
    writes are cancelled and the writer thread is joined first.
    """
    pred = EmpiricalNoisePredictor.from_renders(enumerate_dataset(), make_schedule(cfg.T))
    out_dir = Path(out_dir)

    # imported here, because a cold swap would pay ~5 ms for a module it never uses
    from concurrent.futures import ThreadPoolExecutor

    pairs = sample_pairs(cfg.seed, cfg.pairs)
    rows: list[dict] = []
    writer = ThreadPoolExecutor(max_workers=1)  # starts its thread on the first submit
    pending: deque = deque()  # the futures of pairs not yet known to be written, oldest first
    try:
        for index, ((body, head), results) in enumerate(
            zip(pairs, swap_pairs(pairs, cfg, VARIANTS, pred))
        ):
            pair_id, ref = f"pair{index:03d}", swap_reference(body, head)
            rows += [evaluate_swap(pair_id, ref, v, r) for v, r in zip(VARIANTS, results)]
            stems = [f"{pair_id}_{v}_" for v in VARIANTS]
            files = pair_files(f"{pair_id}_", ref, zip(stems, results))
            if len(pending) == CHUNK_PAIRS:
                pending.popleft().result()
            pending.append(writer.submit(write_files, out_dir, files))
        for future in pending:
            future.result()
    finally:
        writer.shutdown(cancel_futures=True)  # also waits for the write in progress

    write_metrics(rows, out_dir / METRICS_FILENAME)
    return rows
