"""Accuracy and subset breakdowns.

Evaluation items are `synthgen.Sample`s, whether synthesized or rebuilt
from records; `accuracy()` refuses anything else, naming its index, and
reads the sample's fields as they are, its target id checked when it was
built.  When an item stores no order, a parser callable must be supplied
to recover one from the description.
`accuracy()` parses each item once and both buckets and scores that order;
an item whose description the parser cannot read counts as a miss in the
`order_length:unparsed` bucket and in `EvalReport.parse_failures`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, EmptyOrderError, NumericError, OrderParseError
from .model import GroundingModel
from .orderparse import order_names
from .synthgen import Sample, check_samples

__all__ = [
    "BREAKDOWN_FAMILIES",
    "EvalReport",
    "accuracy",
    "order_length_bucket",
    "distractor_bucket",
]

# The subset families `accuracy` buckets every item into.
BREAKDOWN_FAMILIES = ("order_length", "distractors")


def _parsed_order(item: Sample, parser) -> list[str] | None:
    """The names of the item's order, unfitted: the parser's reply, else the
    stored order.  None when the parser cannot read the description."""
    if parser is None and item.order is None:
        raise ContractError("evaluation items carry no stored order; supply a parser")
    try:
        return order_names(item.order if parser is None else parser(item.description))
    except (EmptyOrderError, OrderParseError):
        return None


def order_length_bucket(n: int) -> str:
    """Bucket an order length: 1, 2&3, or 4&5 (longer orders land in 4&5)."""
    if n < 1:
        raise ContractError("order length must be positive")
    if n == 1:
        return "1"
    if n <= 3:
        return "2&3"
    return "4&5"


def distractor_bucket(item: Sample) -> str:
    """hard = more than 2 other proposals share the target's class."""
    labels = item.scene.class_ids
    same = np.count_nonzero(labels == labels[item.target_id])
    return "hard" if same - 1 > 2 else "easy"


def _labels(item: Sample, raw_order: Sequence[str] | None) -> dict[str, str]:
    """`raw_order=None` marks a description the parser could not read."""
    length = "unparsed" if raw_order is None else order_length_bucket(len(raw_order))
    return dict(zip(BREAKDOWN_FAMILIES, (length, distractor_bucket(item))))


@dataclass
class EvalReport:
    overall: float
    count: int
    subsets: dict[str, dict[str, float | int]]  # "family:bucket" -> accuracy/count
    config: dict = field(default_factory=dict)
    parse_failures: int = 0

    def __post_init__(self):
        if not 0.0 <= self.overall <= 1.0:
            raise ContractError("accuracy must lie in [0, 1]")
        for family in BREAKDOWN_FAMILIES:
            total = sum(
                v["count"] for k, v in self.subsets.items() if k.startswith(family + ":")
            )
            if self.subsets and total != self.count:
                raise ContractError(f"{family} buckets do not partition the dataset")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def accuracy(
    model: GroundingModel,
    items: Sequence[Sample],
    parser: Callable[[str], Sequence[str]] | None = None,
    score_fn: Callable[[Sample, list[str]], np.ndarray] | None = None,
    config: dict | None = None,
) -> EvalReport:
    """Fraction of items whose argmax score hits the target id.

    Every item must be a `Sample`, else `ContractError` naming its index.
    `score_fn(item, order)` may replace the model's scores with an
    injected K-vector, which keeps the harness testable against oracles.
    It and `forward` get the order's names unfitted, as bucketed by length.
    Ties go to the lowest proposal id, and a score vector with a NaN or an
    infinity raises `NumericError`.  A description the parser rejects
    (`EmptyOrderError`, `OrderParseError`) is scored as a miss, bucketed as
    `order_length:unparsed` and counted in `parse_failures`.
    """
    if not items:
        raise ContractError("cannot evaluate an empty dataset")
    check_samples(items)
    hits_total = 0
    parse_failures = 0
    bucket_hits: dict[str, int] = {}
    bucket_counts: dict[str, int] = {}
    for index, item in enumerate(items):
        order = _parsed_order(item, parser)
        label = _labels(item, order)
        if order is None:
            parse_failures += 1
            hit = False
        else:
            if score_fn is not None:
                scores = np.asarray(score_fn(item, order), dtype=np.float64).reshape(-1)
            else:
                scores = model.forward(item.scene, order, item.description).scores.data[:, 0]
            if scores.shape[0] != len(item.scene):
                raise ContractError("score vector length must match proposal count")
            # argmax takes a NaN for the maximum, and ties among infinities
            # go to the lowest id: neither is a prediction.
            if not np.isfinite(scores).all():
                raise NumericError(f"item {index} has a non-finite score: {scores.tolist()}")
            hit = int(np.argmax(scores)) == item.target_id
        hits_total += hit
        for family, bucket in label.items():
            key = f"{family}:{bucket}"
            bucket_counts[key] = bucket_counts.get(key, 0) + 1
            bucket_hits[key] = bucket_hits.get(key, 0) + hit
    subsets = {
        key: {"accuracy": bucket_hits[key] / n, "count": n}
        for key, n in sorted(bucket_counts.items())
    }
    return EvalReport(
        overall=hits_total / len(items),
        count=len(items),
        subsets=subsets,
        config=dict(config or {}),
        parse_failures=parse_failures,
    )
