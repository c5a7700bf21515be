"""Command-line surface: gen / swap / mask / ablate / eval.

Exit codes: 0 on success, 1 for usage errors (bad flags, malformed
attribute tuples, bad config content, settings RunConfig rejects), 2 for
runtime errors (missing files, failed IO, a malformed metrics.jsonl).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields
from pathlib import Path

from .diffusion import EmpiricalNoisePredictor, make_schedule
from .experiment import (
    METRICS_FILENAME,
    RunConfig,
    evaluate_swap,
    format_summary,
    read_metrics,
    run_experiment,
    summarize,
    write_metrics,
)
from .hid import body_condition, body_inversion, compose_head_condition, extract_masks, run_headswap
from .imaging import minmax_normalize, overlay_heatmap, write_gray, write_image, write_mask
from .iomask import VARIANTS
from .metrics import swap_reference
from .synthgen import AttributeSpec, enumerate_dataset, render_avatar

# swap and mask run one variant and sample nothing, so they take no seed
CONFIG_KEYS = ("T", "w", "tau", "sigma", "edit_fraction", "variant")
# ablate runs every variant over seeded pairs, so it takes a seed and no variant
ABLATE_KEYS = ("T", "w", "tau", "sigma", "edit_fraction", "seed")
# each config key parses as the type of its RunConfig default
_CONFIG_PARSERS = {f.name: type(f.default) for f in fields(RunConfig)}


class UsageError(Exception):
    """Bad invocation: maps to exit code 1."""


def parse_attrs(text: str, flag: str) -> AttributeSpec:
    parts = text.split(",")
    if len(parts) != 5:
        raise UsageError(
            f"{flag}: expected 5 comma-separated integers "
            "(skin_tone,hair_style,hair_color,clothing_color,head_tilt), "
            f"got {text!r}"
        )
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"{flag}: non-integer attribute in {text!r}") from None
    try:
        return AttributeSpec.from_ints(values)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def read_config_file(path: str, keys: tuple[str, ...] = CONFIG_KEYS) -> dict:
    """Parse flat 'key = value' lines; keys outside ``keys`` or bad values are usage errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise RuntimeError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in keys:
            raise UsageError(
                f"{path}:{lineno}: unknown config key {key!r}, expected one of {', '.join(keys)}"
            )
        try:
            values[key] = _CONFIG_PARSERS[key](value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
    return values


def _merge_run_config(args, keys: tuple[str, ...] = CONFIG_KEYS) -> RunConfig:
    """defaults <- config file <- explicit CLI flags, checked by RunConfig."""
    values = {}
    if getattr(args, "config", None):
        values.update(read_config_file(args.config, keys))
    for key in keys + ("pairs",):
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        return RunConfig(out_dir=Path(args.out), **values)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc)) from None


def _add_run_options(sub: argparse.ArgumentParser, keys: tuple[str, ...] = CONFIG_KEYS) -> None:
    sub.add_argument("--config", help="flat 'key = value' settings file")
    sub.add_argument("--T", type=int, default=None, help="diffusion steps")
    sub.add_argument("--w", type=float, default=None, help="guidance scale")
    sub.add_argument("--tau", type=float, default=None, help="mask threshold in [0,1]")
    sub.add_argument("--sigma", type=float, default=None, help="mask blur width, pixels")
    sub.add_argument(
        "--edit-fraction", dest="edit_fraction", type=float, default=None,
        help="fraction of the schedule at which editing begins",
    )
    if "variant" in keys:
        sub.add_argument("--variant", choices=VARIANTS, default=None, help="edit-map variant")
    if "seed" in keys:
        sub.add_argument("--seed", type=int, default=None, help="pair sampling seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="headswap",
        description="Head swapping on a procedural avatar corpus with exact evaluation.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="render the avatar corpus to PPM files")
    gen.add_argument("--out", required=True, help="output directory")

    for name, text in (
        ("swap", "run one head swap and write its artifacts"),
        ("mask", "emit only the edit map, mask, and overlay"),
    ):
        sub = subs.add_parser(name, help=text)
        sub.add_argument("--body", required=True, help="body attributes a,b,c,d,e")
        sub.add_argument("--head", required=True, help="head attributes a,b,c,d,e")
        sub.add_argument("--out", required=True, help="output directory")
        _add_run_options(sub)

    ablate = subs.add_parser("ablate", help="run all mask variants over sampled pairs")
    ablate.add_argument("--pairs", type=int, default=None, help="number of sampled pairs")
    ablate.add_argument("--out", required=True, help="output directory")
    _add_run_options(ablate, ABLATE_KEYS)

    ev = subs.add_parser("eval", help="recompute summary means from metrics.jsonl")
    ev.add_argument("--out", required=True, help="directory containing metrics.jsonl")

    return parser


def _cmd_gen(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for index, render in enumerate(enumerate_dataset()):
        name = f"avatar_{index:03d}.ppm"
        write_image(render.image, out_dir / name)
        fields = "\t".join(str(v) for v in render.attrs.to_ints())
        lines.append(f"{name}\t{fields}\n")
    (out_dir / "dataset.tsv").write_text("".join(lines), encoding="ascii")
    print(f"wrote {len(lines)} avatars and dataset.tsv to {out_dir}")
    return 0


def _swap_setup(args):
    body = parse_attrs(args.body, "--body")
    head = parse_attrs(args.head, "--head")
    cfg = _merge_run_config(args)
    pred = EmpiricalNoisePredictor.from_renders(enumerate_dataset(), make_schedule(cfg.T))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return body, head, cfg, pred


def _write_mask_files(out_dir: Path, body_image, edit_map, mask) -> None:
    """iomap.pgm, mask.pgm and overlay.ppm (the normalized map over the body image)."""
    normalized = minmax_normalize(edit_map)
    write_gray(normalized, out_dir / "iomap.pgm")
    write_mask(mask, out_dir / "mask.pgm")
    write_image(overlay_heatmap(body_image, normalized), out_dir / "overlay.ppm")


def _cmd_swap(args) -> int:
    body, head, cfg, pred = _swap_setup(args)
    out_dir = cfg.out_dir
    started = time.perf_counter()
    result = run_headswap(body, head, cfg, pred)
    elapsed_ms = (time.perf_counter() - started) * 1e3

    ref = swap_reference(body, head)
    write_image(ref.body_image, out_dir / "body.ppm")
    write_image(render_avatar(head).image, out_dir / "head.ppm")
    write_image(ref.oracle.image, out_dir / "oracle.ppm")
    write_image(result.output, out_dir / "output.ppm")
    _write_mask_files(out_dir, ref.body_image, result.io_map, result.mask)

    record = evaluate_swap("pair000", ref, cfg.variant, result, elapsed_ms)
    write_metrics([record], out_dir / METRICS_FILENAME)
    if result.degenerate_mask:
        print("warning: edit mask is empty; output equals the body image")
    print(format_summary(summarize([record])))
    return 0


def _cmd_mask(args) -> int:
    body, head, cfg, pred = _swap_setup(args)
    image = render_avatar(body).image
    z_edit = body_inversion(cfg, pred)[cfg.edit_start] * image
    cond_head, cond_body = compose_head_condition(head, body), body_condition(body)
    maps, masks = extract_masks(z_edit[None], [cond_head], [cond_body], cfg, (cfg.variant,), pred)
    mask = masks[0, 0]
    _write_mask_files(cfg.out_dir, image, maps[0, 0], mask)
    print(f"mask covers {int(mask.sum())} pixels at t={cfg.edit_start}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _merge_run_config(args, ABLATE_KEYS)
    print(format_summary(summarize(run_experiment(cfg, variants=VARIANTS))))
    print(f"wrote records to {Path(args.out) / METRICS_FILENAME}")
    return 0


def _cmd_eval(args) -> int:
    path = Path(args.out) / METRICS_FILENAME
    if not path.exists():
        raise RuntimeError(f"no metrics file at {path}")
    print(format_summary(summarize(read_metrics(path))))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "swap": _cmd_swap,
    "mask": _cmd_mask,
    "ablate": _cmd_ablate,
    "eval": _cmd_eval,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage problems; remap per our contract
        return 0 if exc.code == 0 else 1
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
