#!/usr/bin/env python3
"""Mutation survey: apply each mutant to a temporary copy of the repo and run tier-1 there.

A mutant is one exact text replacement in one source file.  It is killed
when tier-1 fails on the mutated copy, and it survives when tier-1
passes.  Mutants run one at a time, each in a fresh copy, one pytest
process at a time; pytest stops at the first failure.

    python3 scripts/mutants.py             # every mutant
    python3 scripts/mutants.py cut_margin  # the named ones

Exits 0 when every mutant is killed, 1 when some survive and 2 when a
mutant's text is not found exactly once (the source moved on).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The check that each mutant's text is still in the source fails on every
# mutated copy, so it is left out there; the survey itself reports a stale mutant.
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors",
         "--deselect", "tests/test_scripts.py::test_every_mutant_matches_its_source_exactly_once"]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "out")

# name -> (file, old text, new text)
MUTANTS = {
    # moves the float bits of the maps but no quantized file byte
    "null_ulp": (
        "src/headswap/iomask.py",
        "cfg_combine(eps_null, eps_head, w)",
        "cfg_combine(eps_null * (1 + 2**-52), eps_head, w)",
    ),
    "tau_nudge": (
        "src/headswap/iomask.py",
        "minmax_normalize(maps), sigma), tau)",
        "minmax_normalize(maps), sigma), tau + 1e-12)",
    ),
    # every variant gets the last variant's map
    "maps_one_variant": (
        "src/headswap/iomask.py",
        "variant_map(predictions, variant, w)",
        "variant_map(predictions, variants[-1], w)",
    ),
    # the mask stage takes any latent, as if it were constant on the column classes
    "maps_any_latent": (
        "src/headswap/iomask.py",
        "if not np.array_equal(z_g[:, classes.inv], z):",
        "if False:",
    ),
    # the weight cut: each leaves the means' bits, and only a weight between
    # the smallest normal double and S times it tells
    "cut_margin": (
        "src/headswap/diffusion.py",
        "cut = _LOG_TINY + math.log(logits.shape[-1])",
        "cut = _LOG_TINY",
    ),
    "cut_no_zero": (
        "src/headswap/diffusion.py",
        "logits[below] = 0.0",
        "pass",
    ),
    "cut_compare_low": (
        "src/headswap/diffusion.py",
        "below = logits < cut",
        "below = logits < cut - 50",
    ),
    # the head plan with one row per stack: the same files, other float bits
    "one_row_heads": (
        "src/headswap/hid.py",
        "pred.posterior_plan(conds)",
        "pred.posterior_plan([cond for cond in conds for _ in range(len(z) // len(conds))])",
    ),
    # a body under its own condition is stepped: the same latents within
    # 1e-12, through 50 predictor calls
    "inversion_always_steps": (
        "src/headswap/diffusion.py",
        "if indices.size == 1 and np.array_equal(",
        "if False and np.array_equal(",
    ),
    # any image under a one-image condition is taken for that image
    "inversion_skips_image_check": (
        "src/headswap/diffusion.py",
        "if indices.size == 1 and np.array_equal(\n"
        "        image, classes.table[classes.inv, indices[0]].reshape(pred.grid_shape)\n"
        "    ):",
        "if indices.size == 1:",
    ),
    # the schedule's cached inversion coefficients stay writable
    "writable_inversion": (
        "src/headswap/diffusion.py",
        "c.setflags(write=False)",
        "pass",
    ),
    # the noise divided by the reciprocal's product: the same value, other bits
    "noise_by_reciprocal": (
        "src/headswap/diffusion.py",
        "eps /= math.sqrt(1.0 - ab)",
        "eps *= 1.0 / math.sqrt(1.0 - ab)",
    ),
    # a posterior plan deals the rows to its stacks round-robin
    "plan_rows_dealt": (
        "src/headswap/diffusion.py",
        "sums.reshape(len(subsets), -1, sums.shape[1])",
        "sums.reshape(-1, len(subsets), sums.shape[1]).swapaxes(0, 1)",
    ),
    # a plan under mixed conditions runs every stack on the first one's table
    "plan_shares_mixed_tables": (
        "src/headswap/diffusion.py",
        "if all(subset is subsets[0] for subset in subsets):",
        "if True:",
    ),
    # the blur's cached plan is made for sigma 2 whatever sigma is asked
    "blur_plan_ignores_sigma": (
        "src/headswap/imaging.py",
        "_blur_plan(float(sigma), *arr.shape[-2:])",
        "_blur_plan(2.0, *arr.shape[-2:])",
    ),
    # the blur's cached kernel and indices stay writable
    "writable_blur_plan": (
        "src/headswap/imaging.py",
        "array.setflags(write=False)",
        "pass",
    ),
    # a predictor builds with fewer attribute rows, or index maps, than palettes
    "predictor_n_unchecked": (
        "src/headswap/diffusion.py",
        "if not len(palettes) == len(maps) == len(attrs):",
        "if False:",
    ),
    # every (pixel group, channel) value column is its own class: equal
    # columns, such as the background's three channels, are not merged
    "classes_by_index_only": (
        "src/headswap/diffusion.py",
        "_, column, merged = np.unique(_rows(columns), return_index=True, return_inverse=True)",
        "column = merged = np.arange(len(columns))",
    ),
    # the classes are numbered by pixel group and channel, not by first position
    "classes_numbered_by_group": (
        "src/headswap/diffusion.py",
        "at = (heads[:, None] * channels",
        "at = (np.arange(heads.size)[:, None] * channels",
    ),
    # the denoise guides away from the head condition, towards the null one
    "denoise_plans_swapped": (
        "src/headswap/hid.py",
        "means = pred.posterior_plan([NULL_CONDITION]), pred.posterior_plan(conds)",
        "means = pred.posterior_plan(conds), pred.posterior_plan([NULL_CONDITION])",
    ),
    # the denoise stops at step 1: its output is the step-1 latent, still noisy
    "denoise_stops_at_one": (
        "src/headswap/hid.py",
        "for t in range(cfg.edit_start, 0, -1):",
        "for t in range(cfg.edit_start, 1, -1):",
    ),
    # outside the masks each step's class sums carry the body's next latent,
    # c[t - 1] x, where the current one, c[t] x, belongs
    "denoise_outside_step_ahead": (
        "src/headswap/hid.py",
        "n_out * (c[t] * x_g)",
        "n_out * (c[t - 1] * x_g)",
    ),
    # each swap carries its chunk's time split among the pairs, not the swaps
    "runtime_per_pair": (
        "src/headswap/hid.py",
        "(len(chunk) * len(variants))",
        "len(chunk)",
    ),
    # a run's rows carry the swap's wall time beside the metrics.jsonl record
    "rows_carry_runtime": (
        "src/headswap/experiment.py",
        '"attr_probe": {"matched": matched, "total": total},',
        '"attr_probe": {"matched": matched, "total": total}, "runtime_ms": result.runtime_ms,',
    ),
    # a schedule whose later entries reach 1 builds, and every step after divides by 0
    "schedule_accepts_one": (
        "src/headswap/diffusion.py",
        "if (arr[1:] == 1).any():",
        "if False:",
    ),
    # the grid states skin tone after hair colour: the same values, so only
    # the names' order against AttributeSpec's fields tells
    "attribute_grid_reordered": (
        "src/headswap/synthgen.py",
        '    "skin_tone": (0, 1, 2),\n'
        '    "hair_style": (BALD, SHORT, LONG),\n'
        '    "hair_color": (0, 1, 2),\n',
        '    "hair_color": (0, 1, 2),\n'
        '    "hair_style": (BALD, SHORT, LONG),\n'
        '    "skin_tone": (0, 1, 2),\n',
    ),
    # a render gathers a new image on every read: writes into it are lost
    "render_image_uncached": (
        "src/headswap/synthgen.py",
        "@cached_property\n    def image(self)",
        "@property\n    def image(self)",
    ),
    # a schedule's T counts its alpha_bar entries, one too many
    "schedule_T_is_length": (
        "src/headswap/diffusion.py",
        "return len(self.alpha_bar) - 1",
        "return len(self.alpha_bar)",
    ),
    # a config line without "=" is read as a key with an empty value
    "config_line_without_equals": (
        "src/headswap/cli.py",
        'if "=" not in line:',
        "if False:",
    ),
    # a metrics line that is not a JSON object is checked for keys as if it were
    "row_not_object": (
        "src/headswap/experiment.py",
        "if not isinstance(row, dict):",
        "if False:",
    ),
    # a blank metrics line is parsed as JSON, and reading the file fails
    "metrics_blank_line_parsed": (
        "src/headswap/experiment.py",
        "if not line.strip():",
        "if False:",
    ),
    # a NaN or infinite metric is written as a token that read_metrics rejects
    "metrics_allow_nan": (
        "src/headswap/experiment.py",
        "allow_nan=False",
        "allow_nan=True",
    ),
    # a non-finite image is quantized by an undefined NaN-to-uint8 cast
    "image_accepts_non_finite": (
        "src/headswap/imaging.py",
        'if not np.isfinite(arr).all():\n        raise ValueError("grid contains',
        'if False:\n        raise ValueError("grid contains',
    ),
    # swap creates its body, head and oracle files before it encodes the output
    "swap_writes_references_first": (
        "src/headswap/cli.py",
        'files = pair_files("", ref, [("", result)])',
        'write_files(out_dir, pair_files("", ref, []))\n'
        '    files = pair_files("", ref, [("", result)])',
    ),
    # a heatmap base of any shape is blended by broadcasting
    "overlay_any_base": (
        "src/headswap/imaging.py",
        "if base_arr.ndim != 3 or base_arr.shape[2] != 3:",
        "if False:",
    ),
    # run_experiment swaps every chunk before it scores or writes the first pair
    "swap_all_before_writing": (
        "src/headswap/experiment.py",
        "zip(pairs, swap_pairs(pairs, cfg, VARIANTS, pred))",
        "zip(pairs, list(swap_pairs(pairs, cfg, VARIANTS, pred)))",
    ),
}


def apply(copy: Path, file: str, old: str, new: str) -> bool:
    """Replace ``old`` by ``new`` in ``copy/file``; False unless ``old`` occurs exactly once."""
    path = copy / file
    text = path.read_text()
    if text.count(old) != 1:
        return False
    path.write_text(text.replace(old, new))
    return True


def run_mutant(name: str) -> tuple[str, str]:
    """('killed', the failing test), ('survived', '') or ('stale', '') for one
    mutant, on a fresh copy of the repo."""
    file, old, new = MUTANTS[name]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if not apply(copy, file, old, new):
            return "stale", ""
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived", ""
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    return "killed", failed[0].split(" - ")[0] if failed else f"exit {done.returncode}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args()
    unknown = [name for name in args.names if name not in MUTANTS]
    if unknown:
        parser.error(f"unknown mutants {unknown}; choose from {list(MUTANTS)}")
    outcomes = {}
    for name in args.names or MUTANTS:
        started = time.perf_counter()
        outcomes[name], detail = run_mutant(name)
        seconds = time.perf_counter() - started
        print(f"{name:28s} {outcomes[name]:9s} {seconds:6.1f} s  {detail}", flush=True)
    kinds = ("killed", "survived", "stale")
    counts = {kind: sum(o == kind for o in outcomes.values()) for kind in kinds}
    print(", ".join(f"{count} {kind}" for kind, count in counts.items()))
    for kind in ("survived", "stale"):
        if counts[kind]:
            print(f"{kind}: {' '.join(n for n, o in outcomes.items() if o == kind)}")
    return 2 if counts["stale"] else 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
