"""The benchmark's call surface: one round of its mask workload, traced.

The benchmark under bench/ calls the package by name: ``invert_trajectory``,
``io_map`` and ``build_iomask`` with their positional arguments,
``RunConfig.swap_config``, ``cfg.mask`` (the config itself) and its
``.variant`` and ``evaluate(z_t, t, cond)``, and its tracer wraps
functions such as ``hid.run_headswap``.  A renamed function or a
reordered signature would otherwise only show when the benchmark runs.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_mask_workload_round_passes_under_tracer(sched50, predictor):
    sys.path.insert(0, str(BENCH))
    try:
        import run  # imports the benchmark's own modules beside it
        import spans
    finally:
        sys.path.remove(str(BENCH))
    tracer = spans.Tracer()
    tracer.install()
    try:
        one_round, report = run.mask_workload(1, sched50, predictor)
        times, ops, failed = one_round()
    finally:
        tracer.uninstall()
    assert (ops, failed) == (run.PAIRS["mask"] * len(run.VARIANTS), 0)
    assert len(times) == run.PAIRS["mask"]
    assert 0 < report()["iou_full"] <= 1
    names = {name for _, name, _, _, _ in tracer.spans}
    assert {"diffusion.invert_trajectory", "iomask.io_map"} <= names
    # the body inversion is closed-form: no predictor call opens a span
    assert not [name for name in names if name.startswith("diffusion.evaluate.")]
    assert tracer.counts["iomask.masks"] == ops
