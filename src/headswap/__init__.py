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
    cfg_combine,
    ddim_invert_step,
    ddim_sample_loop,
    ddim_sample_step,
    invert_trajectory,
    make_schedule,
)
from .hid import RunConfig, run_headswap, swap_pairs
from .experiment import sample_pairs
from .synthgen import NULL_CONDITION, all_attribute_specs, enumerate_dataset
