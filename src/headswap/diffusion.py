"""Noise schedule, deterministic DDIM stepping, CFG, and the exact denoiser.

Instead of a trained network, the noise predictor here is the exact
minimum-MSE estimator for a finite image set under the Gaussian forward
process: a softmax-weighted posterior mean over the images matching a
condition.  Conditioning is dataset-subset restriction, so the null
condition is the marginal over the whole corpus.  Both stages of a swap
reach it by one path, ``posterior_plan``, on the corpus's column classes.
An image inverted under a condition keeping only it calls no predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

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
    """Cumulative signal levels alpha_bar[0..T], whose length states T, for all step math."""

    alpha_bar: np.ndarray

    @property
    def T(self) -> int:
        return len(self.alpha_bar) - 1

    def __post_init__(self):
        arr = np.asarray(self.alpha_bar, dtype=np.float64)
        if arr.ndim != 1 or len(arr) < 3:
            raise ValueError(f"schedule needs a 1-D alpha_bar of T+1 >= 3 entries, got {arr.shape}")
        if arr[0] < 0.999:
            raise ValueError(f"alpha_bar[0] must be >= 0.999, got {arr[0]}")
        if arr[-1] > 0.05:
            raise ValueError(f"alpha_bar[T] must be <= 0.05, got {arr[-1]}")
        if not ((arr > 0).all() and (arr <= 1).all()):
            raise ValueError("alpha_bar entries must lie in (0, 1]")
        if (arr[1:] == 1).any():  # every step t >= 1 divides by 1 - alpha_bar[t]
            raise ValueError("alpha_bar[1:] must lie below 1")
        # Clamping at the floor may tie trailing entries for large T, so
        # only non-increase is enforced here; no step divides by a difference.
        if (np.diff(arr) > 0).any():
            raise ValueError("alpha_bar must be non-increasing")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "alpha_bar", arr)

    @cached_property
    def inversion(self) -> np.ndarray:
        """c[0..T], the inversion of an image x under a condition that keeps
        only x: the posterior mean is then x, so at z = c x the noise is
        (c - sqrt(ab_t)) / sqrt(1 - ab_t) x and every latent is c[t] x, which
        ``invert_trajectory`` returns without stepping.  c runs the inversion
        steps on the scalar 1, so c[0] is exactly 1.  Made once, read-only."""
        c = np.ones(self.T + 1)
        for t in range(self.T):
            step = max(t, 1)  # as in invert_trajectory
            eps = implied_noise(1.0, c[t], self.alpha_bar[step])
            c[t + 1] = ddim_invert_step(c[t], eps, t, self)
        c.setflags(write=False)
        return c


def make_schedule(T: int) -> NoiseSchedule:
    """Cosine alpha_bar schedule, self-normalized to exactly 1 at t=0."""
    if T < 2:
        raise ValueError(f"T must be at least 2, got {T}")
    t = np.arange(T + 1, dtype=np.float64) / T
    signal = np.cos((t + COSINE_OFFSET) / (1.0 + COSINE_OFFSET) * np.pi / 2.0) ** 2
    alpha_bar = np.clip(signal / signal[0], ALPHA_BAR_FLOOR, 1.0)
    return NoiseSchedule(alpha_bar)


def _check_step(t, lo: int, hi: int, sched: NoiseSchedule) -> int:
    step = int(t)
    if step != t or not lo <= step <= hi:
        raise ValueError(f"step index {t} outside [{lo}, {hi}] for T={sched.T}")
    return step


def _rows(array: np.ndarray) -> np.ndarray:
    """The rows of a 2-D array as one void scalar each, which compare and
    sort by their bytes (so 0.0 and -0.0 differ)."""
    array = np.ascontiguousarray(array)
    return array.view(np.dtype((np.void, array.shape[1] * array.itemsize)))[:, 0]


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
    def of(cls, palettes: np.ndarray, maps: np.ndarray) -> "ColumnClasses":
        """The classes of N indexed images, image i's pixel p being the
        float64 palette row ``palettes[i, maps[i, p]]`` (palettes (N, K, C),
        index maps (N, H, W)).  No pixel image is made.

        1. Pixels whose N indices agree form a group.  The images that share
           a map share its columns, so the pixels are grouped over the
           distinct maps; groups are numbered by their index columns' bytes.
        2. Each group has one value column (N,) per channel, each value
           held as the code of its bytes among the palettes' values.
        3. Value columns with equal bytes merge into one class: the
           background's three channels, for one.
        4. Classes are numbered by their first position.
        """
        n, _, channels = palettes.shape
        index = maps.reshape(n, -1)
        distinct = np.array(list({row.tobytes(): row for row in index}.values()))
        _, heads, group = np.unique(_rows(distinct.T), return_index=True, return_inverse=True)
        bits, codes = np.unique(np.ascontiguousarray(palettes).view(np.uint64), return_inverse=True)
        # one-byte codes on the corpus: the columns and the table's gather
        # index take an eighth of the float64 table's memory
        codes = codes.astype(np.min_scalar_type(codes.max())).reshape(palettes.shape)
        # (group, channel, image): one value column per (group, channel)
        columns = codes[np.arange(n), index[:, heads].T[:, None], np.arange(channels)[:, None]]
        columns = columns.reshape(-1, n)
        _, column, merged = np.unique(_rows(columns), return_index=True, return_inverse=True)
        # value column (g, c) first appears at position heads[g] * C + c
        at = (heads[:, None] * channels + np.arange(channels)).reshape(-1)
        first = np.full(column.size, at.max())
        np.minimum.at(first, merged, at)
        rank = np.argsort(first)
        inv = rank.argsort()[merged].reshape(-1, channels)[group].reshape(-1)
        counts = np.bincount(inv)
        return cls(
            table=bits.view(np.float64)[columns[column[rank]]],
            inv=inv,
            first=first[rank],
            order=np.argsort(inv, kind="stable"),
            starts=np.cumsum(counts) - counts,
            counts=counts,
        )

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Sum (..., D) position values over each class, in position order: (..., G)."""
        return np.add.reduceat(np.take(values, self.order, axis=-1), self.starts, axis=-1)


class EmpiricalNoisePredictor:
    """Exact conditional noise predictor over an immutable image set.

    The prediction for latent z_t at step t under ``cond`` restricts the
    corpus to the matching images, forms posterior weights w_i =
    softmax(-|z_t - sqrt(ab_t) x_i|^2 / (2 (1 - ab_t))) (max-subtracted
    exponentials), takes the posterior mean x0 = sum w_i x_i, and implies
    the noise (z_t - sqrt(ab_t) x0) / sqrt(1 - ab_t).

    The posterior is formed in one place, the plans of ``posterior_plan``,
    on the corpus's ``ColumnClasses``: z_t . x_i needs only z_t's class
    sums, and the mean is formed per class.  Both stages of a swap run the
    plans on class values, and ``evaluate`` runs one on a pixel latent's
    class sums.  No pixel image is kept.  The corpus is held indexed, image
    i's pixel p being ``palettes[i, maps[i, p]]`` (palettes (N, K, C), index
    maps (N, H, W)), as copies: the predictor borrows nothing of the
    caller's, and it drops the indexed corpus once the first condition
    groups it.
    """

    def __init__(self, palettes, maps, attrs: Sequence[AttributeSpec], schedule: NoiseSchedule):
        palettes, maps = np.array(palettes, dtype=np.float64), np.array(maps)  # copies
        if palettes.ndim != 3 or maps.ndim != 3:
            raise ValueError(
                f"need palettes (N, K, C) and maps (N, H, W), got {palettes.shape}, {maps.shape}"
            )
        if not len(palettes) == len(maps) == len(attrs):
            raise ValueError(
                f"N differs: {len(palettes)} palettes, {len(maps)} maps, {len(attrs)} attrs"
            )
        self._palettes, self._maps = palettes, maps
        self.schedule = schedule
        self.grid_shape = maps.shape[1:] + palettes.shape[2:]
        self._attr_matrix = np.array([a.to_ints() for a in attrs], dtype=np.int64)
        self._subsets: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_renders(cls, renders, schedule: NoiseSchedule) -> "EmpiricalNoisePredictor":
        """A predictor over the renders' palettes and layer maps; no render's
        image is read."""
        return cls(
            [r.palette for r in renders], [r.layers for r in renders], [r.attrs for r in renders],
            schedule,
        )

    def __len__(self) -> int:
        return len(self._attr_matrix)

    @cached_property
    def column_classes(self) -> ColumnClasses:
        """The corpus's column classes, grouped on first use."""
        classes = ColumnClasses.of(self._palettes, self._maps)
        del self._palettes, self._maps
        return classes

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
        alpha_bar = float(self.schedule.alpha_bar[step])
        classes = self.column_classes
        x0 = self.posterior_plan([cond])(classes.sums(z_t.reshape(1, -1)), alpha_bar)
        return implied_noise(x0[0, classes.inv].reshape(z_t.shape), z_t, alpha_bar)

    def posterior_plan(
        self, conds: Sequence[Condition]
    ) -> Callable[[np.ndarray, float], np.ndarray]:
        """The posterior mean ``mean(sums, ab)`` of stacked rows, planned once.

        ``mean`` maps the rows' class sums (B, G) at signal level ab to their
        means (B, G) in one kernel call, the rows forming ``len(conds)`` stacks
        of equal height, stack r under ``conds[r]``.  The conditions must keep
        equally many images.  When they all resolve to one subset, its columns
        (G, S) and norms (1, S) are shared as one broadcast view, not copied
        per stack.  numpy makes one BLAS call per stack, of its own shape, so
        a stack's bits do not depend on the stacks beside it.
        """
        if not conds:
            raise ValueError("a posterior plan needs at least one condition")
        subsets = [self._subset(cond) for cond in conds]
        sizes = [subset[0].size for subset in subsets]
        if len(set(sizes)) > 1:
            raise ValueError(f"conditions keep different numbers of images: {sizes}")
        if all(subset is subsets[0] for subset in subsets):
            columns, norms = subsets[0][1][None], subsets[0][2][None]
        else:
            columns, norms = (np.stack([subset[k] for subset in subsets]) for k in (1, 2))

        def mean(sums: np.ndarray, ab: float) -> np.ndarray:
            stacks = sums.reshape(len(subsets), -1, sums.shape[1])
            return _stacked_posterior_mean(stacks, columns, norms, ab).reshape(sums.shape)

        return mean


def implied_noise(x0: np.ndarray, z_t: np.ndarray, ab: float) -> np.ndarray:
    """The noise (z_t - sqrt(ab) x0) / sqrt(1 - ab) that the posterior mean x0
    implies at latent z_t (adding the negated product rounds as subtracting)."""
    eps = z_t + x0 * -math.sqrt(ab)
    eps /= math.sqrt(1.0 - ab)
    return eps


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
    """The posterior means (R, M, G) of (R, M, G) class sums, stack r under
    ``columns[r]``; columns (1, G, S) and norms (1, 1, S) serve every stack."""
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
    if not np.array_equal(pred.schedule.alpha_bar, sched.alpha_bar):
        raise ValueError("predictor was built for a different noise schedule")


def invert_trajectory(
    image: np.ndarray,
    cond: Condition,
    sched: NoiseSchedule,
    pred: EmpiricalNoisePredictor,
) -> np.ndarray:
    """Run DDIM inversion from a clean image, storing every latent: (T+1, H, W, C).

    Entry 0 is the input image exactly.  If ``cond`` keeps one corpus image
    and ``image`` is it bit for bit, the latents are c[t] * image
    (``NoiseSchedule.inversion``) and no predictor is called.  Otherwise
    each step calls it, the first at step 1 as the noise is undefined at t = 0.
    """
    _check_predictor(sched, pred)
    image = np.asarray(image, dtype=np.float64)
    indices, classes = pred._subset(cond)[0], pred.column_classes
    if indices.size == 1 and np.array_equal(
        image, classes.table[classes.inv, indices[0]].reshape(pred.grid_shape)
    ):
        return sched.inversion[:, None, None, None] * image
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
