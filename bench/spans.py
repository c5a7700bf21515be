"""In-memory span tracer that wraps headswap's public functions from outside.

``Tracer.install()`` replaces each traced function in every ``headswap``
module that binds it (``from .diffusion import invert_trajectory`` makes
``hid.invert_trajectory`` a second binding), and wraps two predictor
methods on the class, so callers inside the package reach the wrapper
without any change to the package.  Spans are ``(id, name, start, end,
parent)`` tuples in ``perf_counter`` seconds, kept in a list and written
out once by ``dump``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name) of every traced module-level function
FUNCTIONS = (
    ("headswap.synthgen", "enumerate_dataset", "synthgen.enumerate_dataset"),
    ("headswap.synthgen", "render_avatar", "synthgen.render_avatar"),
    ("headswap.diffusion", "invert_trajectory", "diffusion.invert_trajectory"),
    ("headswap.iomask", "io_map", "iomask.io_map"),
    ("headswap.iomask", "build_iomask", "iomask.build_iomask"),
    ("headswap.imaging", "gaussian_filter", "imaging.gaussian_filter"),
    ("headswap.hid", "run_headswap", "hid.run_headswap"),
    ("headswap.experiment", "evaluate_swap", "experiment.evaluate_swap"),
    ("headswap.metrics", "attribute_probe", "metrics.attribute_probe"),
    ("headswap.imaging", "write_image", "imaging.write"),
    ("headswap.imaging", "write_gray", "imaging.write"),
    ("headswap.imaging", "write_mask", "imaging.write"),
)

FULL_CONDITION_SIZE = 5  # a body condition constrains all five attributes


def condition_kind(cond) -> str:
    """null (no constraint), body (all five attributes) or head (anything else)."""
    if not cond.constraints:
        return "null"
    return "body" if len(cond.constraints) == FULL_CONDITION_SIZE else "head"


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus its children's."""
    covered: dict[int, float] = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for sid, name, start, end, _ in spans:
        totals[name] += (end - start) - covered[sid]
    return dict(totals)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_of, on_exit=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args, kwargs)
            parent = self._stack[-1] if self._stack else (None, None)
            sid = self._next_id
            self._next_id += 1
            self._stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, start, end, parent[0]))
            if on_exit is not None:
                on_exit(args, kwargs, result, parent[1])
            return result

        return wrapper

    def _on_mask(self, args, kwargs, mask, parent_name):
        self.counts["iomask.masks"] += 1
        self.counts["iomask.mask_area_px"] += int(mask.sum())

    def _on_write(self, args, kwargs, result, parent_name):
        if parent_name != "imaging.write":  # write_mask delegates to write_gray
            path = args[1] if len(args) > 1 else kwargs["path"]
            self.counts["imaging.write.bytes"] += os.path.getsize(path)

    def _on_evaluate(self, args, kwargs, result, parent_name):
        predictor, cond = args[0], args[3] if len(args) > 3 else kwargs["cond"]
        if not cond.constraints:
            # the null condition's GEMV streams the whole corpus once
            self.counts["diffusion.evaluate.null.bytes"] += predictor.images.nbytes

    def install(self) -> None:
        """Wrap every traced function where the package's modules look it up."""
        import headswap.cli  # noqa: F401  (loads every module of the package)
        from headswap.diffusion import EmpiricalNoisePredictor

        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("headswap")]
        hooks = {"iomask.build_iomask": self._on_mask, "imaging.write": self._on_write}
        for module_name, attr, span_name in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(
                original, lambda a, k, s=span_name: s, hooks.get(span_name)
            )
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

        evaluate = EmpiricalNoisePredictor.evaluate
        self._patch(
            EmpiricalNoisePredictor,
            "evaluate",
            self._wrap(
                evaluate,
                lambda a, k: "diffusion.evaluate."
                + condition_kind(a[3] if len(a) > 3 else k["cond"]),
                self._on_evaluate,
            ),
        )
        from_renders = EmpiricalNoisePredictor.__dict__["from_renders"].__func__
        self._patch(
            EmpiricalNoisePredictor,
            "from_renders",
            classmethod(self._wrap(from_renders, lambda a, k: "diffusion.from_renders")),
        )

    def _patch(self, owner, name, value) -> None:
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def dump(self, path) -> None:
        """Write the counts and every span as one JSON document."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"counts": dict(self.counts), "spans": self.spans}, fh)


def layer_metrics(spans, counts, ops: int, pairs: int, setup_spans=()) -> dict[str, float]:
    """Per-layer figures from spans recorded over ``ops`` operations on ``pairs`` pairs.

    ``setup_spans`` are extra spans (a traced set-up outside the timed
    rounds) that contribute only to the per-call set-up timings.
    """
    spans = list(spans)
    names = {sid: name for sid, name, _, _, _ in spans}
    calls: Counter = Counter()
    total: dict[str, float] = defaultdict(float)
    for sid, name, start, end, parent in spans:
        parent_name = names.get(parent)
        if name == "synthgen.render_avatar" and parent_name == "synthgen.enumerate_dataset":
            continue  # corpus renders are set-up, counted by enumerate_dataset_ms
        if name == "imaging.write" and parent_name == "imaging.write":
            continue
        calls[name] += 1
        total[name] += end - start
    own = self_times(spans)

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    def per_call_ms(name: str) -> float:
        durations = [e - s for _, n, s, e, _ in list(setup_spans) + spans if n == name]
        return sum(durations) * 1e3 / len(durations) if durations else 0.0

    out: dict[str, float] = {}
    for kind in ("null", "head", "body"):
        name = f"diffusion.evaluate.{kind}"
        out[f"{name}.calls_per_op"] = calls[name] / ops
        out[f"{name}.self_ms"] = per_op_ms(own.get(name, 0.0))
    null_bytes = counts.get("diffusion.evaluate.null.bytes", 0)
    out["diffusion.evaluate.null.mb_moved_per_op"] = null_bytes / 1e6 / ops
    null_self = own.get("diffusion.evaluate.null", 0.0)
    out["diffusion.evaluate.null.gb_per_s"] = null_bytes / 1e9 / null_self if null_self else 0.0
    out["diffusion.invert_trajectory.calls_per_pair"] = calls["diffusion.invert_trajectory"] / pairs
    out["diffusion.invert_trajectory.self_ms"] = per_op_ms(own.get("diffusion.invert_trajectory", 0.0))
    out["diffusion.from_renders_ms"] = per_call_ms("diffusion.from_renders")
    out["synthgen.enumerate_dataset_ms"] = per_call_ms("synthgen.enumerate_dataset")
    out["synthgen.render_avatar.calls_per_op"] = calls["synthgen.render_avatar"] / ops
    for name in ("iomask.io_map", "iomask.build_iomask", "imaging.gaussian_filter"):
        out[f"{name}.self_ms"] = per_op_ms(own.get(name, 0.0))
    masks = counts.get("iomask.masks", 0)
    out["iomask.mask_area_px"] = counts.get("iomask.mask_area_px", 0) / masks if masks else 0.0
    out["hid.run_headswap.ms"] = per_op_ms(total["hid.run_headswap"])
    out["hid.denoise.self_ms"] = per_op_ms(own.get("hid.run_headswap", 0.0))
    out["experiment.evaluate_swap.self_ms"] = per_op_ms(own.get("experiment.evaluate_swap", 0.0))
    out["metrics.attribute_probe.self_ms"] = per_op_ms(own.get("metrics.attribute_probe", 0.0))
    out["imaging.write.calls_per_op"] = calls["imaging.write"] / ops
    out["imaging.write.bytes_per_op"] = counts.get("imaging.write.bytes", 0) / ops
    out["imaging.write.self_ms"] = per_op_ms(own.get("imaging.write", 0.0))
    out["trace.spans_per_op"] = len(spans) / ops
    return out
