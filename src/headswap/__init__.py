"""Head swapping on a procedural avatar corpus, with exact evaluation.

The pipeline inverts a body image by deterministic DDIM (under its own
condition, a scaling by one number per step), extracts an edit mask from
the orthogonal disagreement between head- and body-conditioned noise
predictions, then denoises under the head condition while blending
unmasked pixels back to the inversion latents.  A closed-form
dataset-posterior denoiser stands in for a trained network, so every
stage is exactly checkable against rendered ground truth.
"""

from .diffusion import (
    EmpiricalNoisePredictor,
    NoiseSchedule,
    cfg_combine,
    ddim_invert_step,
    ddim_sample_loop,
    ddim_sample_step,
    invert_trajectory,
    make_schedule,
)
from .hid import (
    RunConfig,
    SwapResult,
    blend_denoise,
    body_condition,
    compose_head_condition,
    extract_mask,
    run_headswap,
    swap_pairs,
)
from .imaging import (
    gaussian_filter,
    minmax_normalize,
    overlay_heatmap,
    threshold,
    write_gray,
    write_image,
    write_mask,
)
from .iomask import IOMaskConfig, build_iomask, io_map, orthogonal_component
from .metrics import SwapReference, attribute_probe, mask_iou, region_mse, swap_reference
from .experiment import run_experiment, sample_pairs, summarize
from .synthgen import (
    AttributeSpec,
    AvatarRender,
    Condition,
    NULL_CONDITION,
    all_attribute_specs,
    condition_match,
    enumerate_dataset,
    ground_truth_edit_mask,
    oracle_swap,
    render_avatar,
)
