"""Training objectives and their stage-dependent composition.

Warm-up supervises every referring block: anchor classification per block,
mask recovery per block, coordinate offsets per block, and the sentence
class.  The main stage keeps only the target-directed pieces: reference,
mask, and text.  Coordinate regression never runs in the main stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from . import tensor as tt
from .errors import ContractError
from .scene import RelevanceMask
from .tensor import Tensor

__all__ = [
    "STAGES",
    "LossWeights",
    "LossBreakdown",
    "loss_ref",
    "loss_mask",
    "loss_crd",
    "loss_text",
    "compose",
]

STAGES = ("warmup", "main")


def _check_stage(stage: str) -> None:
    if stage not in STAGES:
        raise ContractError(f"stage must be one of {STAGES}, got {stage!r}")


@dataclass(frozen=True)
class LossWeights:
    """Multipliers for the composed total; the defaults leave sums unweighted."""

    w_ref: float = 1.0
    w_mask: float = 1.0
    w_text: float = 1.0
    w_crd: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            w = getattr(self, f.name)
            if not (math.isfinite(w) and w >= 0.0):
                raise ContractError(f"{f.name} must be a finite nonnegative weight, got {w}")


@dataclass
class LossBreakdown:
    stage: str
    l_ref: Tensor
    l_mask: Tensor
    l_text: Tensor
    l_crd: Tensor | None
    total: Tensor

    def __post_init__(self):
        _check_stage(self.stage)
        for name in ("l_ref", "l_mask", "l_text", "l_crd"):
            t = getattr(self, name)
            if t is not None and t.item() < 0.0:
                raise ContractError(f"{name} must be nonnegative, got {t.item()}")

    def values(self) -> dict[str, float]:
        """Plain floats for logging."""
        out = {
            "l_ref": self.l_ref.item(),
            "l_mask": self.l_mask.item(),
            "l_text": self.l_text.item(),
            "total": self.total.item(),
        }
        if self.l_crd is not None:
            out["l_crd"] = self.l_crd.item()
        return out


def loss_ref(
    scores_per_block: Sequence[Tensor],
    anchor_target_ids: Sequence[int],
    stage: str,
) -> Tensor:
    """Reference loss: per-block anchors in warm-up, final target in main."""
    _check_stage(stage)
    if not scores_per_block:
        raise ContractError("need at least one block of scores")
    for scores in scores_per_block:
        if scores.shape[1] != 1:
            raise ContractError(f"expected score columns, got shape {scores.shape}")
    if stage == "main":
        if len(anchor_target_ids) != 1:
            raise ContractError("main stage takes exactly one target id")
        return tt.cross_entropy(scores_per_block[-1], anchor_target_ids[0])
    if len(anchor_target_ids) != len(scores_per_block):
        raise ContractError(
            f"warm-up needs one id per block: {len(anchor_target_ids)} ids "
            f"for {len(scores_per_block)} blocks"
        )
    terms = [tt.cross_entropy(s, t) for s, t in zip(scores_per_block, anchor_target_ids)]
    return tt.scale(_sum(terms), 1.0 / len(terms))


def loss_mask(
    mask_logits_per_block: Sequence[Tensor], masks: Sequence[RelevanceMask]
) -> Tensor:
    """Mean over blocks of binary cross-entropy with logits against M_i.

    The B logit columns stack into one K x B matrix.  Every block has the
    same K rows, so the mean over that matrix is the mean of the per-block
    means.
    """
    if len(mask_logits_per_block) != len(masks) or not masks:
        raise ContractError("need matching, nonempty logits and masks")
    k = masks[0].bits.shape[0]
    for logits, mask in zip(mask_logits_per_block, masks):
        if logits.shape != (k, 1) or mask.bits.shape[0] != k:
            raise ContractError(
                f"mask logits shape {logits.shape} and {mask.bits.shape[0]} mask bits "
                f"do not both match {k} proposals"
            )
    z = tt.concat_cols(*mask_logits_per_block)
    m = tt.constant(np.stack([mask.bits for mask in masks], axis=1))
    # bce(z, m) = softplus(z) - z*m, elementwise
    return tt.mean_all(tt.sub(tt.softplus(z), tt.mul(z, m)))


def loss_crd(
    coord_preds_per_block: Sequence[Tensor],
    centers: np.ndarray,
    anchor_target_ids: Sequence[int],
) -> Tensor:
    """Mean over blocks of MSE against per-anchor center offsets.

    Block i regresses, for every proposal j, the offset centers[j] - v_i
    where v_i is the center of that block's anchor.  The B predictions
    stack into one K x 3B matrix against one offset matrix; every block has
    K x 3 entries, so the one mean is the mean of the per-block means.
    Warm-up only.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != 3:
        raise ContractError(f"centers must be K x 3, got {centers.shape}")
    if len(coord_preds_per_block) != len(anchor_target_ids) or not anchor_target_ids:
        raise ContractError("need one anchor id per coordinate block")
    k = centers.shape[0]
    for pred, anchor in zip(coord_preds_per_block, anchor_target_ids):
        if not 0 <= anchor < k:
            raise ContractError(f"anchor id {anchor} outside 0..{k - 1}")
        if pred.shape != (k, 3):
            raise ContractError(f"coordinate prediction must be K x 3, got {pred.shape}")
    offsets = np.hstack([centers - centers[a] for a in anchor_target_ids])
    pred = tt.concat_cols(*coord_preds_per_block)
    return tt.mean_all(tt.square(tt.sub(pred, tt.constant(offsets))))


def loss_text(text_class_logits: Tensor, target_class_id: int) -> Tensor:
    """Cross-entropy of the sentence-level class head."""
    if text_class_logits.shape[0] != 1:
        raise ContractError(
            f"expected one logit row, got shape {text_class_logits.shape}"
        )
    return tt.cross_entropy(text_class_logits, target_class_id)


def _sum(terms: Sequence[Tensor]) -> Tensor:
    acc = terms[0]
    for t in terms[1:]:
        acc = tt.add(acc, t)
    return acc


def compose(
    stage: str,
    l_ref: Tensor,
    l_mask: Tensor,
    l_text: Tensor,
    l_crd: Tensor | None = None,
    weights: LossWeights = LossWeights(),
) -> LossBreakdown:
    """Weighted total for a stage.

    Warm-up requires all four components; the main stage forbids the
    coordinate term.
    """
    _check_stage(stage)
    if stage == "warmup" and l_crd is None:
        raise ContractError("warm-up composition requires the coordinate loss")
    if stage == "main" and l_crd is not None:
        raise ContractError("the main stage must not carry a coordinate loss")
    parts = [l_ref, l_mask, l_text]
    w = [weights.w_ref, weights.w_mask, weights.w_text]
    if l_crd is not None:
        parts.append(l_crd)
        w.append(weights.w_crd)
    # One 1 x n row of components times the n x 1 weight column.
    total = tt.matmul(tt.concat_cols(*parts), tt.constant(np.reshape(w, (-1, 1))))
    return LossBreakdown(
        stage=stage, l_ref=l_ref, l_mask=l_mask, l_text=l_text, l_crd=l_crd, total=total
    )
