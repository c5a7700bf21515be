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


@dataclass(frozen=True)
class ColumnClasses:
    """The corpus's pixel-channel positions grouped by their value columns.

    Positions whose N corpus values are byte-identical form one class, so
    image i is, bit for bit, the gather ``table[:, i][inv]``.  Classes are
    numbered in the order of their first position, which fixes every
    reduction over them.
    """

    table: np.ndarray  # (G, N): one value column per class
    inv: np.ndarray  # (D,): each position's class
    first: np.ndarray  # (G,): each class's first position
    order: np.ndarray  # (D,): positions sorted by class, in position order
    starts: np.ndarray  # (G,): where each class begins in ``order``
    counts: np.ndarray  # (G,): positions per class

    @classmethod
    def of(cls, flat: np.ndarray) -> "ColumnClasses":
        """Group the columns of a (N, D) corpus by their exact bytes."""
        groups: dict[bytes, int] = {}
        inv = np.array([groups.setdefault(col.tobytes(), len(groups)) for col in flat.T])
        first = np.unique(inv, return_index=True)[1]
        counts = np.bincount(inv)
        return cls(
            table=np.ascontiguousarray(flat[:, first].T),
            inv=inv,
            first=first,
            order=np.argsort(inv, kind="stable"),
            starts=np.cumsum(counts) - counts,
            counts=counts,
        )

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Sum (..., D) position values over each class, in position order: (..., G)."""
        return np.add.reduceat(np.take(values, self.order, axis=-1), self.starts, axis=-1)


class EmpiricalNoisePredictor:
    """Exact conditional noise predictor over an immutable image set.

    evaluate(z_t, t, cond) restricts the corpus to images matching ``cond``,
    forms posterior weights w_i = softmax(-|z_t - sqrt(ab_t) x_i|^2 /
    (2 (1 - ab_t))) over flattened images (max-subtracted exponentials),
    takes the posterior mean x0 = sum w_i x_i, and returns the implied
    noise (z_t - sqrt(ab_t) x0) / sqrt(1 - ab_t).

    The posterior is computed in one place, the kernel behind
    ``class_posterior_mean``, on the corpus's ``ColumnClasses``: z_t . x_i
    needs only z_t summed over each class, and the mean is formed per
    class.  ``evaluate_stack`` sums a stack's pixels over the classes,
    calls it and gathers the means back to pixels, which is exact because
    the classes are; when one image matches, its weight is 1 and the
    prediction uses that image directly.  ``evaluate`` is a stack of one.
    """

    def __init__(
        self,
        images: np.ndarray,
        attrs: Sequence[AttributeSpec],
        schedule: NoiseSchedule,
    ):
        images = np.ascontiguousarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[0] == 0:
            raise ValueError(f"images must be (N, H, W, C) with N >= 1, got {images.shape}")
        if images.shape[0] != len(attrs):
            raise ValueError("one AttributeSpec required per image")
        self.images = images
        self.schedule = schedule
        self.grid_shape = images.shape[1:]
        self._attr_matrix = np.array([a.to_ints() for a in attrs], dtype=np.int64)
        self._classes: ColumnClasses | None = None
        self._subsets: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_renders(cls, renders, schedule: NoiseSchedule) -> "EmpiricalNoisePredictor":
        images = np.stack([r.image for r in renders])
        return cls(images, [r.attrs for r in renders], schedule)

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def column_classes(self) -> ColumnClasses:
        """The corpus's column classes, grouped on first use."""
        if self._classes is None:
            self._classes = ColumnClasses.of(self.images.reshape(len(self), -1))
        return self._classes

    def _subset(self, cond: Condition):
        """The matching indices, their class columns (G, S) and squared norms (1, S)."""
        cached = self._subsets.get(cond.constraints)
        if cached is not None:
            return cached
        keep = np.ones(len(self), dtype=bool)
        for name, value in cond.constraints:
            keep &= self._attr_matrix[:, ATTRIBUTE_NAMES.index(name)] == value
        indices = np.flatnonzero(keep)
        if indices.size == 0:
            raise NoMatchingConditionError(cond)
        classes = self.column_classes
        columns = classes.table[:, indices]
        # the squared norms as a row (1, S), which broadcasts over a stack's rows
        subset = (indices, columns, (classes.counts @ (columns * columns))[None])
        self._subsets[cond.constraints] = subset
        return subset

    def evaluate(self, z_t: np.ndarray, t, cond: Condition) -> np.ndarray:
        """Conditional noise prediction for one latent (H, W, C) at step t (t = 0 is undefined)."""
        step = _check_step(t, 1, self.schedule.T, self.schedule)
        z_t = np.asarray(z_t, dtype=np.float64)
        if z_t.shape != self.grid_shape:
            raise ValueError(f"latent shape {z_t.shape} is not {self.grid_shape}")
        indices = self._subset(cond)[0]
        if indices.size > 1:
            return self.evaluate_stack(z_t[None], step, [cond])[0]
        # weight 1: x0 is that image, bit for bit, and no class sums, which
        # keeps a stepped inversion's one-image calls cheap
        alpha_bar = float(self.schedule.alpha_bar[step])
        # (z_t - sqrt(ab) x0) / sqrt(1 - ab): adding the negated product rounds
        # as subtracting it does
        eps = z_t + self.images[indices[0]] * -math.sqrt(alpha_bar)
        eps /= math.sqrt(1.0 - alpha_bar)
        return eps

    def evaluate_stack(self, z_t: np.ndarray, t, conds: Sequence[Condition]) -> np.ndarray:
        """``evaluate`` of each latent of a stack (P, H, W, C), latent p under
        ``conds[p]``, bit for bit: (P, H, W, C).

        When every condition keeps one image, each latent takes its image,
        as ``evaluate`` does.  Otherwise the stack takes one
        ``class_posterior_mean`` call as stacks of one latent, so each makes
        a GEMV of ``evaluate``'s shape, and a one-image subset's mean is its
        image's class values, bit for bit.
        """
        step = _check_step(t, 1, self.schedule.T, self.schedule)
        z_t = np.asarray(z_t, dtype=np.float64)
        if z_t.shape[1:] != self.grid_shape or len(conds) != len(z_t):
            raise ValueError(f"{len(conds)} conditions for latents {z_t.shape}")
        kept = [self._subset(cond)[0] for cond in conds]
        alpha_bar = float(self.schedule.alpha_bar[step])
        scale = -math.sqrt(alpha_bar)  # as in ``evaluate``
        if all(indices.size == 1 for indices in kept):
            eps = z_t + self.images[[indices[0] for indices in kept]] * scale
        else:  # each class's mean is scaled once, then gathered to its pixels
            classes = self.column_classes
            sums = classes.sums(z_t.reshape(len(z_t), -1))[:, None]
            x0 = self.class_posterior_mean(sums, step, conds)[:, 0]
            eps = np.take(x0 * scale, classes.inv, axis=-1).reshape(z_t.shape)
            eps += z_t
        eps /= math.sqrt(1.0 - alpha_bar)
        return eps

    def posterior_plan(
        self, conds: Sequence[Condition], lengths: Sequence[int]
    ) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
        """The posterior kernel's operands for stacks of latents, built once.

        Stack r holds ``lengths[r]`` latents under ``conds[r]``.  Stacks of
        one length M whose subsets have one size S form a group, returned
        in the order of first appearance as (member stacks, columns,
        squared norms); ``_stacked_posterior_mean(sums, columns, norms,
        ab)`` then takes the members' (R, M, G) class sums.  The columns
        and norms are (R, G, S) and (R, 1, S) stacks, or one subset's own
        (G, S) and (1, S) when the members share it: copying the null's
        (121, 324) table made a one-latent call take 42 us instead of 25 us
        (median of 20 alternating blocks; 2 vCPUs, one BLAS thread).  Either
        way numpy makes one BLAS call per stack, of that stack's own shape,
        so a stack's bits do not depend on the stacks beside it.
        """
        subsets = [self._subset(cond) for cond in conds]
        keys = [(length, subset[0].size) for length, subset in zip(lengths, subsets)]
        plan = []
        for key in dict.fromkeys(keys):
            members = [r for r, other in enumerate(keys) if other == key]
            group = [subsets[r] for r in members]
            if all(subset is group[0] for subset in group):
                columns, norms = group[0][1:]
            else:
                columns = np.stack([columns for _, columns, _ in group])
                norms = np.stack([norms for _, _, norms in group])
            plan.append((members, columns, norms))
        return plan

    def class_posterior_mean(
        self, sums: np.ndarray, t, conds: Sequence[Condition]
    ) -> np.ndarray:
        """The posterior mean x0 on each column class, from latents' class sums.

        ``sums`` is (R, M, G): R stacks of M latents' values summed over each
        class (``ColumnClasses.sums``), which is all the logits depend on;
        stack r is conditioned on ``conds[r]``.  The result has its shape.
        Stacks whose subsets have one size are taken together
        (``posterior_plan``), each in a BLAS call of its own shape.  Each
        row takes its own max-subtracted softmax; a single logit's softmax
        is exactly 1, so a one-image subset returns that image's class
        values bit for bit.  ``evaluate_stack`` is this mean gathered back
        to pixels, and ``hid.blend_denoise`` runs the same kernel on a plan
        it builds once per denoise.
        """
        step = _check_step(t, 1, self.schedule.T, self.schedule)
        groups = len(self.column_classes.counts)
        sums = np.asarray(sums, dtype=np.float64)
        if sums.ndim != 3 or sums.shape[-1] != groups:
            raise ValueError(f"class sums {sums.shape} are not (R, M, {groups})")
        if len(conds) != len(sums):
            raise ValueError(f"{len(conds)} conditions for {len(sums)} stacks of class sums")
        ab = float(self.schedule.alpha_bar[step])
        x0 = np.empty_like(sums)
        for members, columns, norms in self.posterior_plan(conds, [sums.shape[1]] * len(sums)):
            x0[members] = _stacked_posterior_mean(sums[members], columns, norms, ab)
        return x0


# exp(x) is a normal double only for x >= log(2^-1022)
_LOG_TINY = math.log(np.finfo(np.float64).tiny)


def _posterior_weights(sums: np.ndarray, columns: np.ndarray, norms: np.ndarray, ab: float):
    """The softmax weights (R, M, S) of ``_stacked_posterior_mean``."""
    # -|z - sqrt(ab) x_i|^2 / (2 (1 - ab)) up to the shared |z|^2 term,
    # which cancels in the softmax; z . x_i is sums . (column of x_i)
    logits = (2.0 * math.sqrt(ab) * (sums @ columns) - ab * norms) / (2.0 * (1.0 - ab))
    logits -= logits.max(axis=-1, keepdims=True)
    # A weight that would be subnormal after the division by the normaliser,
    # at most S, is cut to an exact 0: subnormals put exp on its slow path
    # and the weights matmul on subnormal operands, each several times
    # slower.  No bit moves.  The top weight is exactly 1, so the normaliser
    # is at least 1, and on the avatar corpus each class mean is a convex
    # combination of values in [0.04, 0.93]; a term under S 2^-1022 is far
    # under half an ulp of either.  The cut logits are raised to the cut for
    # the exp and zeroed after it, since exp(-inf) is slow too: 19 against
    # 4 us for 3,888 values, half of them -inf (numpy 2.4, 2 vCPUs).
    cut = _LOG_TINY + math.log(logits.shape[-1])
    below = logits < cut
    np.maximum(logits, cut, out=logits)
    np.exp(logits, out=logits)
    logits[below] = 0.0
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def _stacked_posterior_mean(sums, columns, norms, ab: float) -> np.ndarray:
    """The posterior means (R, M, G) of (R, M, G) class sums under a ``posterior_plan`` group."""
    return _posterior_weights(sums, columns, norms, ab) @ columns.swapaxes(-1, -2)


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


def inversion_coefficients(sched: NoiseSchedule) -> np.ndarray:
    """c[0..T] with ``invert_trajectory(x, cond, ...)[t] = c[t] x`` whenever ``cond``
    keeps one image x: the posterior mean is then x, so at z = c x the noise
    estimate is (c - sqrt(ab_t)) / sqrt(1 - ab_t) x.  c runs the same inversion
    steps on the scalar 1, so c[0] is exactly 1."""
    ab = sched.alpha_bar
    c = np.ones(sched.T + 1)
    for t in range(sched.T):
        step = max(t, 1)  # as in invert_trajectory
        eps = (c[t] - math.sqrt(ab[step])) / math.sqrt(1.0 - ab[step])
        c[t + 1] = ddim_invert_step(c[t], eps, t, sched)
    return c


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
