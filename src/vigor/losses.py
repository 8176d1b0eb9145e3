"""Training objectives and their weighted total.

Each loss computes what it is given: `loss_ref` averages over whatever
score columns it is handed, and `compose` weighs each part of the name ->
loss mapping it is handed by the `LossWeights` field of that name.  Which
parts are supervised, and when, is `vigor.trainer`'s decision alone; a new
part is one `LossWeights` field and one entry in a stage's mapping.

Per-block values arrive as one matrix with a column (a group of three
columns for offsets) per block, so each loss is one op chain over the
whole matrix.  Every loss takes the rows of a packed batch with their
sample ids (`segments`; None for one sample) and returns the sum of the
samples' losses, so `compose`, being linear, gives the sum of the samples'
totals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from . import tensor as tt
from .errors import ContractError, check_field_types
from .tensor import Tensor

__all__ = [
    "LossWeights",
    "LossBreakdown",
    "loss_ref",
    "loss_mask",
    "loss_crd",
    "loss_text",
    "compose",
]

@dataclass(frozen=True)
class LossWeights:
    """Multipliers for the composed total; the defaults leave sums unweighted."""

    w_ref: float = 1.0
    w_mask: float = 1.0
    w_text: float = 1.0
    w_crd: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        for f in fields(self):
            w = getattr(self, f.name)
            if not (math.isfinite(w) and w >= 0.0):
                raise ContractError(f"{f.name} must be a finite nonnegative weight, got {w}")


@dataclass
class LossBreakdown:
    parts: dict[str, Tensor]  # by name, in compose order
    total: Tensor

    def __post_init__(self):
        for name, t in self.parts.items():
            if t.item() < 0.0:
                raise ContractError(f"loss part {name} must be nonnegative, got {t.item()}")

    def values(self) -> dict[str, float]:
        """Plain floats for logging: each part by name, then the total."""
        return {**{name: t.item() for name, t in self.parts.items()}, "total": self.total.item()}


def _sample_ids(segments, rows: int) -> np.ndarray:
    """The sample of each of `rows` packed rows; all 0 without segments."""
    if segments is None:
        return np.zeros(rows, dtype=np.intp)
    ids = np.asarray(segments).reshape(-1)
    if ids.size != rows:
        raise ContractError(f"{ids.size} segment ids for {rows} rows")
    return ids


def _per_sample(ids: Sequence, samples: int, width: int) -> np.ndarray:
    """Ids as one row of `width` per sample; a flat sequence serves one sample."""
    arr = np.asarray(ids, dtype=np.intp)
    if width < 1 or arr.ndim > 2 or arr.size != samples * width or (
        arr.ndim == 2 and len(arr) != samples
    ):
        raise ContractError(f"ids of shape {arr.shape} do not give {samples} samples {width} each")
    return arr.reshape(samples, width)


def _per_sample_means(e: Tensor, ids: np.ndarray) -> Tensor:
    """Sum over samples of the mean of each sample's rows of e, as a 1x1.

    A constant row weights row r by 1/K_s, K_s the rows of its sample s,
    and the mean over the columns adds 1/columns: every entry of sample s
    weighs 1/(K_s * columns).
    """
    weights = 1.0 / np.bincount(ids)[ids]
    return tt.mean_all(tt.matmul(tt.constant(weights.reshape(1, -1)), e))


def loss_ref(scores: Tensor, targets: Sequence, segments=None) -> Tensor:
    """Reference loss: mean over the W score columns of each column's
    cross-entropy within every sample.

    `targets` holds W ids per sample, each counted within its sample (a
    flat sequence serves one sample); `segments` names the sample of each
    score row of a packed batch (None: one sample).  The result is the sum
    over samples of each sample's loss.
    """
    ids = _sample_ids(segments, scores.shape[0])
    targets = _per_sample(targets, int(ids.max()) + 1, scores.shape[1])
    return tt.mul(tt.cross_entropy(scores, targets, ids), tt.constant(1.0 / scores.shape[1]))


def loss_mask(mask_logits: Tensor, masks: np.ndarray, segments=None) -> Tensor:
    """Mean over blocks of binary cross-entropy with logits against M_i.

    `mask_logits` and `masks` are K x B, a column per block.  Each
    sample's mean over its rows is the mean of its per-block means; the
    result sums it over the samples that `segments` names (None: one).
    """
    if mask_logits.shape != np.shape(masks) or not mask_logits.shape[1]:
        raise ContractError(
            f"mask logits {mask_logits.shape} and masks {np.shape(masks)} must be one K x B"
        )
    ids = _sample_ids(segments, mask_logits.shape[0])
    z, neg_m = mask_logits, tt.constant(-np.asarray(masks, dtype=np.float64))
    # bce(z, m) = softplus(z) - z*m = softplus(z) + z*(-m), elementwise
    return _per_sample_means(tt.add(tt.softplus(z), tt.mul(z, neg_m)), ids)


def loss_crd(
    coord_pred: Tensor, centers: np.ndarray, anchor_target_ids: Sequence, segments=None
) -> Tensor:
    """Mean over blocks of MSE against per-anchor center offsets.

    Block i regresses, in columns 3i .. 3i+2 of the K x 3B `coord_pred`,
    the offset centers[j] - v_i of every proposal j, where v_i is the
    center of that block's anchor.  Every block has K x 3 entries, so a
    sample's mean is the mean of its per-block means.  With `segments` the
    rows are a packed batch, `anchor_target_ids` holds one row of B ids per
    sample (each counted within its sample), and the result sums the
    samples' losses.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != 3:
        raise ContractError(f"centers must be K x 3, got {centers.shape}")
    k = centers.shape[0]
    b = coord_pred.shape[1] // 3
    if coord_pred.shape != (k, 3 * b) or not b:
        raise ContractError(f"coordinate predictions must be {k} x 3B, got {coord_pred.shape}")
    ids = _sample_ids(segments, k)
    sizes = np.bincount(ids)
    targets = _per_sample(anchor_target_ids, sizes.size, b)
    if ((targets < 0) | (targets >= sizes[:, None])).any():
        raise ContractError(f"anchor ids {targets.tolist()} outside samples of {sizes.tolist()}")
    # row of each sample's anchor in each block, then negated offsets K x B x 3
    order = np.argsort(ids, kind="stable")  # the rows of sample 0, then 1, ...
    anchors = order[(np.cumsum(sizes) - sizes)[:, None] + targets]
    neg_offsets = (centers[anchors[ids]] - centers[:, None, :]).reshape(k, 3 * b)
    err = tt.add(coord_pred, tt.constant(neg_offsets))
    return _per_sample_means(tt.mul(err, err), ids)


def loss_text(text_class_logits: Tensor, target_class_id) -> Tensor:
    """Cross-entropy of the sentence-level class head, summed over samples.

    One logit row and one class id per sample; an int serves one sample.
    """
    targets = np.asarray(target_class_id, dtype=np.intp).reshape(-1, 1)
    if text_class_logits.shape[0] != targets.shape[0]:
        raise ContractError(
            f"expected one logit row per target, got shape {text_class_logits.shape} "
            f"for {targets.shape[0]} targets"
        )
    return tt.cross_entropy(text_class_logits, targets, axis=1)


def compose(parts: Mapping[str, Tensor], weights: LossWeights = LossWeights()) -> LossBreakdown:
    """Weighted total of the named parts: part `name` weighs `weights.w_<name>`."""
    w = [getattr(weights, f"w_{name}", None) for name in parts]
    if not parts or None in w:
        raise ContractError(f"loss parts {list(parts)} must be nonempty, each with a weight")
    # One 1 x n row of components times the n x 1 weight column.
    total = tt.matmul(tt.concat(*parts.values(), axis=1), tt.constant(np.reshape(w, (-1, 1))))
    return LossBreakdown(dict(parts), total)
