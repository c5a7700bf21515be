"""Command-line surface: gen / swap / mask / ablate / eval.

Exit codes: 0 on success, 1 for usage errors (bad flags, malformed
attribute tuples, bad config content, settings RunConfig rejects), 2 for
runtime errors (missing files, failed IO, a malformed metrics.jsonl).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .diffusion import EmpiricalNoisePredictor, make_schedule
from .experiment import (
    METRICS_FILENAME,
    RunConfig,
    evaluate_swap,
    format_summary,
    map_files,
    pair_files,
    read_metrics,
    run_experiment,
    summarize,
    write_metrics,
)
from .hid import mask_pairs, run_headswap
from .imaging import encode_gray, encode_image, minmax_normalize, write_files
from .iomask import VARIANTS
from .metrics import swap_reference
from .synthgen import AttributeSpec, enumerate_dataset

# swap and mask run one variant and sample nothing, so they take no seed
CONFIG_KEYS = ("T", "w", "tau", "sigma", "edit_fraction", "variant")
# ablate runs every variant over seeded pairs, so it takes a seed and a pair count, no variant
ABLATE_KEYS = ("T", "w", "tau", "sigma", "edit_fraction", "seed", "pairs")
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
    """Parse flat 'key = value' lines; unknown or repeated keys and bad values are usage errors."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise RuntimeError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    values, seen = {}, {}
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
        if key in seen:
            raise UsageError(
                f"{path}:{lineno}: repeated config key {key!r}, first set on line {seen[key]}"
            )
        seen[key] = lineno
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
    for key in keys:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        return RunConfig(**values)
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
    if "pairs" in keys:
        sub.add_argument("--pairs", type=int, default=None, help="number of sampled pairs")


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
    ablate.add_argument("--out", required=True, help="output directory")
    _add_run_options(ablate, ABLATE_KEYS)

    ev = subs.add_parser("eval", help="recompute summary means from metrics.jsonl")
    ev.add_argument("--out", required=True, help="directory containing metrics.jsonl")

    return parser


def _cmd_gen(args) -> int:
    out_dir = Path(args.out)
    files, lines = [], []
    for index, render in enumerate(enumerate_dataset()):
        name = f"avatar_{index:03d}.ppm"
        files.append((name, encode_image(render.image)))
        fields = "\t".join(str(v) for v in render.attrs.to_ints())
        lines.append(f"{name}\t{fields}\n")
    write_files(out_dir, files + [("dataset.tsv", "".join(lines).encode("ascii"))])
    print(f"wrote {len(lines)} avatars and dataset.tsv to {out_dir}")
    return 0


def _swap_setup(args):
    body = parse_attrs(args.body, "--body")
    head = parse_attrs(args.head, "--head")
    cfg = _merge_run_config(args)
    pred = EmpiricalNoisePredictor.from_renders(enumerate_dataset(), make_schedule(cfg.T))
    return body, head, cfg, pred, Path(args.out)


def _cmd_swap(args) -> int:
    body, head, cfg, pred, out_dir = _swap_setup(args)
    result = run_headswap(body, head, cfg, pred)
    ref = swap_reference(body, head)
    files = pair_files("", ref, [("", result)])
    files.append(("iomap.pgm", encode_gray(minmax_normalize(result.io_map))))
    record = evaluate_swap("pair000", ref, cfg.variant, result)
    write_files(out_dir, files)
    write_metrics([record], out_dir / METRICS_FILENAME)
    if result.degenerate_mask:
        print("warning: edit mask is empty; output equals the body image")
    print(f"{format_summary(summarize([record]))}  runtime_ms={result.runtime_ms:.6g}")
    return 0


def _cmd_mask(args) -> int:
    body, head, cfg, pred, out_dir = _swap_setup(args)
    images, _, maps, masks = mask_pairs([(body, head)], cfg, (cfg.variant,), pred)
    files = map_files("", images[0], maps[0, 0], masks[0, 0])
    write_files(out_dir, files + [("iomap.pgm", encode_gray(minmax_normalize(maps[0, 0])))])
    print(f"mask covers {int(masks.sum())} pixels at t={cfg.edit_start}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _merge_run_config(args, ABLATE_KEYS)
    print(format_summary(summarize(run_experiment(cfg, args.out))))
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
