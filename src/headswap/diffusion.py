"""Noise schedule, deterministic DDIM stepping, CFG, and the exact denoiser.

Instead of a trained network, the noise predictor here is the exact
minimum-MSE estimator for a finite image set under the Gaussian forward
process: a softmax-weighted posterior mean over the images matching a
condition.  Conditioning is dataset-subset restriction, so the null
condition is the marginal over the whole corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .synthgen import ATTRIBUTE_NAMES, AttributeSpec, Condition

COSINE_OFFSET = 0.008
ALPHA_BAR_FLOOR = 1e-4


class NoMatchingConditionError(ValueError):
    """Raised when a condition selects no dataset images."""

    def __init__(self, cond: Condition):
        super().__init__(f"no dataset image matches condition {cond.as_dict()!r}")
        self.condition = cond


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative signal levels alpha_bar[0..T], shared by all step math."""

    T: int
    alpha_bar: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alpha_bar, dtype=np.float64)
        if self.T < 2 or arr.shape != (self.T + 1,):
            raise ValueError(f"schedule needs T >= 2 and T+1 entries, got T={self.T}")
        if arr[0] < 0.999:
            raise ValueError(f"alpha_bar[0] must be >= 0.999, got {arr[0]}")
        if arr[-1] > 0.05:
            raise ValueError(f"alpha_bar[T] must be <= 0.05, got {arr[-1]}")
        if not ((arr > 0).all() and (arr <= 1).all()):
            raise ValueError("alpha_bar entries must lie in (0, 1]")
        # Clamping at the floor may tie trailing entries for large T, so
        # only non-increase is enforced here; no step divides by a difference.
        if (np.diff(arr) > 0).any():
            raise ValueError("alpha_bar must be non-increasing")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "alpha_bar", arr)


def make_schedule(T: int) -> NoiseSchedule:
    """Cosine alpha_bar schedule, self-normalized to exactly 1 at t=0."""
    if T < 2:
        raise ValueError(f"T must be at least 2, got {T}")
    t = np.arange(T + 1, dtype=np.float64) / T
    signal = np.cos((t + COSINE_OFFSET) / (1.0 + COSINE_OFFSET) * np.pi / 2.0) ** 2
    alpha_bar = np.clip(signal / signal[0], ALPHA_BAR_FLOOR, 1.0)
    return NoiseSchedule(T=T, alpha_bar=alpha_bar)


def _check_step(t, lo: int, hi: int, sched: NoiseSchedule) -> int:
    step = int(t)
    if step != t or not lo <= step <= hi:
        raise ValueError(f"step index {t} outside [{lo}, {hi}] for T={sched.T}")
    return step


class EmpiricalNoisePredictor:
    """Exact conditional noise predictor over an immutable image set.

    evaluate(z_t, t, cond) restricts the corpus to images matching ``cond``,
    forms posterior weights w_i = softmax(-|z_t - sqrt(ab_t) x_i|^2 /
    (2 (1 - ab_t))) over flattened images (max-subtracted exponentials),
    takes the posterior mean x0 = sum w_i x_i, and returns the implied
    noise (z_t - sqrt(ab_t) x0) / sqrt(1 - ab_t).  A stack of latents under
    one condition is evaluated the same way, with one GEMM per product.
    """

    def __init__(
        self,
        images: np.ndarray,
        attrs: Sequence[AttributeSpec],
        schedule: NoiseSchedule,
    ):
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[0] == 0:
            raise ValueError(f"images must be (N, H, W, C) with N >= 1, got {images.shape}")
        if images.shape[0] != len(attrs):
            raise ValueError("one AttributeSpec required per image")
        self.images = images
        self.schedule = schedule
        self.grid_shape = images.shape[1:]
        self._flat = np.ascontiguousarray(images.reshape(images.shape[0], -1))
        self._attr_matrix = np.array([a.to_ints() for a in attrs], dtype=np.int64)
        self._subsets: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_renders(cls, renders, schedule: NoiseSchedule) -> "EmpiricalNoisePredictor":
        images = np.stack([r.image for r in renders])
        return cls(images, [r.attrs for r in renders], schedule)

    def __len__(self) -> int:
        return self.images.shape[0]

    def _subset(self, cond: Condition):
        cached = self._subsets.get(cond.constraints)
        if cached is not None:
            return cached
        keep = np.ones(len(self), dtype=bool)
        for name, value in cond.constraints:
            keep &= self._attr_matrix[:, ATTRIBUTE_NAMES.index(name)] == value
        indices = np.flatnonzero(keep)
        if indices.size == 0:
            raise NoMatchingConditionError(cond)
        # Evenly spaced indices (every image, one image, or a condition that
        # leaves only later attributes free) select a strided view of the
        # corpus; only other subsets are copied.
        step = int(indices[1] - indices[0]) if indices.size > 1 else 1
        if (np.diff(indices) == step).all():
            flat = self._flat[indices[0] : indices[-1] + 1 : step]
        else:
            flat = np.ascontiguousarray(self._flat[indices])
        row_sq = np.einsum("ij,ij->i", flat, flat)
        self._subsets[cond.constraints] = (indices, flat, row_sq)
        return indices, flat, row_sq

    def posterior_weights(self, z_t: np.ndarray, t, cond: Condition):
        """Dataset indices and posterior weights of the conditional subset.

        ``z_t`` is one latent (H, W, C), with weights of shape (S,), or a
        stack (B, H, W, C) whose rows all share ``cond``, with weights of
        shape (B, S): one GEMM of the rows against the subset gives every
        logit, and each row takes its own max-subtracted softmax.
        """
        z_t, indices, _, weights = self._posterior(z_t, t, cond)
        # one matching image: the softmax of a single logit is exactly 1
        return indices, np.ones(z_t.shape[:-3] + (1,)) if weights is None else weights

    def evaluate(self, z_t: np.ndarray, t, cond: Condition) -> np.ndarray:
        """Conditional noise prediction at step t (t = 0 is undefined).

        ``z_t`` is one latent or a stack of latents sharing ``cond``, as in
        ``posterior_weights``; the result has its shape.
        """
        z_t, _, flat, weights = self._posterior(z_t, t, cond)
        if weights is None:  # weight 1: the posterior mean is that image, bit for bit
            x0 = flat[0].reshape(self.grid_shape)
        else:
            x0 = (weights @ flat).reshape(z_t.shape)
        alpha_bar = float(self.schedule.alpha_bar[int(t)])
        return (z_t - math.sqrt(alpha_bar) * x0) / math.sqrt(1.0 - alpha_bar)

    def _posterior(self, z_t, t, cond: Condition):
        """The checked latent(s), the subset's indices and images, and the
        weights, which are None when one image matches."""
        step = _check_step(t, 1, self.schedule.T, self.schedule)
        z_t = np.asarray(z_t, dtype=np.float64)
        if z_t.shape != self.grid_shape and z_t.shape[1:] != self.grid_shape:
            raise ValueError(f"latent shape {z_t.shape} is not {self.grid_shape} or a stack of it")
        indices, flat, row_sq = self._subset(cond)
        if indices.size == 1:
            return z_t, indices, flat, None
        # -|z - sqrt(ab) x_i|^2 / (2 (1 - ab)) up to the shared |z|^2 term,
        # which cancels in the softmax
        ab = float(self.schedule.alpha_bar[step])
        dots = z_t.reshape(z_t.shape[:-3] + (-1,)) @ flat.T
        logits = (2.0 * math.sqrt(ab) * dots - ab * row_sq) / (2.0 * (1.0 - ab))
        logits -= logits.max(axis=-1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=-1, keepdims=True)
        return z_t, indices, flat, logits


def cfg_combine(eps_uncond: np.ndarray, eps_cond: np.ndarray, w: float) -> np.ndarray:
    """Guided prediction: uncond + w * (cond - uncond).

    w == 1 must return the conditional prediction bit-exactly, which the
    floating-point expression does not guarantee, so it is special-cased.
    """
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    if eps_uncond.shape != eps_cond.shape:
        raise ValueError(
            f"prediction shapes differ: {eps_uncond.shape} vs {eps_cond.shape}"
        )
    if w < 0:
        raise ValueError(f"guidance scale must be non-negative, got {w}")
    if w == 1.0:
        return eps_cond.copy()
    return eps_uncond + w * (eps_cond - eps_uncond)


def ddim_sample_step(z_t: np.ndarray, eps: np.ndarray, t, sched: NoiseSchedule) -> np.ndarray:
    """One deterministic denoising step t -> t-1 for a given noise estimate."""
    step = _check_step(t, 1, sched.T, sched)
    ab = sched.alpha_bar
    x0 = (z_t - np.sqrt(1.0 - ab[step]) * eps) / np.sqrt(ab[step])
    return np.sqrt(ab[step - 1]) * x0 + np.sqrt(1.0 - ab[step - 1]) * eps


def ddim_invert_step(z_t: np.ndarray, eps: np.ndarray, t, sched: NoiseSchedule) -> np.ndarray:
    """One deterministic inversion step t -> t+1; exact inverse of sampling.

    The coefficient on eps equals sqrt(ab[t+1]) * (sqrt(1/ab[t+1] - 1) -
    sqrt(1/ab[t] - 1)), which is algebraically the inverse of
    ddim_sample_step at fixed eps; the pairing is enforced by tests rather
    than trusted.
    """
    step = _check_step(t, 0, sched.T - 1, sched)
    ab = sched.alpha_bar
    ratio = np.sqrt(ab[step + 1] / ab[step])
    drift = (
        np.sqrt(1.0 / ab[step + 1] - 1.0) - np.sqrt(1.0 / ab[step] - 1.0)
    ) * np.sqrt(ab[step + 1])
    return ratio * z_t + drift * eps


def _check_predictor(sched: NoiseSchedule, pred: EmpiricalNoisePredictor) -> None:
    if pred.schedule is sched:
        return
    if pred.schedule.T != sched.T or not np.array_equal(
        pred.schedule.alpha_bar, sched.alpha_bar
    ):
        raise ValueError("predictor was built for a different noise schedule")


def invert_trajectory(
    image: np.ndarray,
    cond: Condition,
    sched: NoiseSchedule,
    pred: EmpiricalNoisePredictor,
) -> np.ndarray:
    """Run DDIM inversion from a clean image, storing every latent.

    Returns an array of shape (T+1, H, W, C) whose entry 0 is the input
    image exactly.  The first step evaluates the predictor at step 1
    because the noise estimate is undefined at t = 0.
    """
    _check_predictor(sched, pred)
    image = np.asarray(image, dtype=np.float64)
    latents = np.empty((sched.T + 1,) + image.shape, dtype=np.float64)
    latents[0] = image
    z = image
    for t in range(sched.T):
        eps = pred.evaluate(z, max(t, 1), cond)
        z = ddim_invert_step(z, eps, t, sched)
        latents[t + 1] = z
    return latents


def ddim_sample_loop(
    z_start: np.ndarray,
    cond: Condition,
    sched: NoiseSchedule,
    pred: EmpiricalNoisePredictor,
) -> np.ndarray:
    """Denoise from step T down to a clean image.

    Uses the conditional prediction directly (guidance scale 1), matching
    how inversion trajectories are retraced for reconstruction checks.
    """
    _check_predictor(sched, pred)
    z = np.asarray(z_start, dtype=np.float64)
    for t in range(sched.T, 0, -1):
        eps = pred.evaluate(z, t, cond)
        z = ddim_sample_step(z, eps, t, sched)
    return z
