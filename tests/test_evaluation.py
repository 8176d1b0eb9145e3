"""Tests for the evaluation harness: accuracy and subsets."""

import json
from dataclasses import dataclass

import numpy as np
import pytest

import vigor.tensor as tt
from vigor.errors import ContractError, NumericError
from vigor.evaluation import (
    EvalReport,
    accuracy,
    distractor_bucket,
    order_length_bucket,
)
from vigor.model import GroundingModel, ModelConfig
from vigor.orderparse import parse_appearance_order
from vigor.scene import ClassVocab, Scene
from vigor.synthgen import GenConfig, default_vocab, generate_dataset

from conftest import NON_STRING_ORDERS

GEN = GenConfig(
    proposals_min=4,
    proposals_max=4,
    points_per_proposal=6,
    class_vocab_size=6,
    order_len=2,
    seed=31,
)


@dataclass
class EvalItem:
    scene: Scene
    description: str
    order: list[str]
    target_id: int


def tiny_model(seed=0):
    cfg = ModelConfig(d=8, b=2, n_heads=2, points_per_proposal=6, seed=seed)
    return GroundingModel(cfg, default_vocab(GEN.class_vocab_size))


def items(n, seed=31):
    cfg = GenConfig(**{**GEN.__dict__, "seed": seed})
    return [
        EvalItem(s.scene, s.description, s.order, s.anchor_target_ids[-1])
        for s in generate_dataset(cfg, n)
    ]


# ---------------------------------------------------------------------------
# buckets


def test_order_length_buckets():
    assert order_length_bucket(1) == "1"
    assert order_length_bucket(2) == "2&3"
    assert order_length_bucket(3) == "2&3"
    assert order_length_bucket(4) == "4&5"
    assert order_length_bucket(5) == "4&5"
    assert order_length_bucket(7) == "4&5"
    with pytest.raises(ContractError):
        order_length_bucket(0)


def test_distractor_bucket_threshold():
    base = items(1)[0]

    def with_classes(classes, target):
        scene = Scene(classes, [base.scene.points[0]] * len(classes), base.scene.vocab)
        return EvalItem(scene, base.description, base.order, target)

    # four of the target's class in total: three distractors, hard
    assert distractor_bucket(with_classes([2, 2, 2, 2], 0)) == "hard"
    # three in total: two distractors, easy
    assert distractor_bucket(with_classes([2, 2, 2, 1], 0)) == "easy"
    assert distractor_bucket(with_classes([2], 0)) == "easy"


def test_accuracy_subsets_partition_the_items():
    data = items(20)
    report = accuracy(tiny_model(), data, score_fn=lambda item, order: np.zeros(len(item.scene)))
    families = {"order_length": {"1", "2&3", "4&5"}, "distractors": {"easy", "hard"}}
    for family, buckets in families.items():
        mine = {k: v for k, v in report.subsets.items() if k.startswith(family + ":")}
        assert {k.split(":", 1)[1] for k in mine} <= buckets
        assert sum(v["count"] for v in mine.values()) == 20


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_rejects_empty():
    with pytest.raises(ContractError):
        accuracy(tiny_model(), [])


def test_accuracy_refuses_items_of_another_class_vocabulary():
    """A model on the same names in another order would read each item's
    class ids as other classes; every forward refuses that."""
    names = default_vocab(GEN.class_vocab_size).names
    model = GroundingModel(tiny_model().cfg, ClassVocab(names[::-1]))
    with pytest.raises(ContractError, match="scene's class vocabulary"):
        accuracy(model, items(2))


def test_accuracy_oracle_injection_is_one():
    data = items(10)
    report = accuracy(
        tiny_model(),
        data,
        score_fn=lambda item, order: np.eye(len(item.scene))[item.target_id],
    )
    assert report.overall == 1.0
    assert report.count == 10
    for entry in report.subsets.values():
        assert entry["accuracy"] == 1.0


def test_accuracy_anti_oracle_is_zero():
    data = items(10)
    rng = np.random.default_rng(0)

    def worst(item, order):
        scores = rng.normal(0, 1, size=len(item.scene))
        scores[item.target_id] = scores.min() - 1.0
        return scores

    assert accuracy(tiny_model(), data, score_fn=worst).overall == 0.0


def test_accuracy_tie_breaks_to_lowest_id():
    data = [items(1)[0]]
    flat = lambda item, order: np.zeros(len(item.scene))
    hit = accuracy(tiny_model(), data, score_fn=flat).overall
    assert hit == (1.0 if data[0].target_id == 0 else 0.0)


def test_accuracy_single_proposal_is_one():
    base = items(1)[0]
    scene = Scene([2], [base.scene.points[0]], base.scene.vocab)
    name = base.scene.vocab.names[2]
    item = EvalItem(scene, f"the {name} in the room", [name], 0)
    assert accuracy(tiny_model(), [item]).overall == 1.0


def test_accuracy_with_parser_and_without_order():
    data = items(5)
    stripped = [
        EvalItem(d.scene, d.description, None, d.target_id) for d in data
    ]
    vocab = default_vocab(GEN.class_vocab_size)
    parser = lambda desc: parse_appearance_order(desc, vocab).names
    with_parser = accuracy(tiny_model(), stripped, parser=parser)
    stored = accuracy(tiny_model(), data)
    assert with_parser.overall == stored.overall
    with pytest.raises(ContractError):
        accuracy(tiny_model(), stripped)  # no order, no parser


def test_accuracy_refuses_a_parser_that_replies_with_a_string():
    with pytest.raises(ContractError, match="string"):
        accuracy(tiny_model(), items(2), parser=lambda desc: "chair")


def test_accuracy_scores_unreadable_descriptions_as_misses():
    data = items(4)
    data[2] = EvalItem(data[2].scene, "something over there", None, data[2].target_id)
    vocab = default_vocab(GEN.class_vocab_size)
    parser = lambda desc: parse_appearance_order(desc, vocab)
    oracle = lambda item, order: np.eye(len(item.scene))[item.target_id]
    report = accuracy(tiny_model(), data, parser=parser, score_fn=oracle)
    assert report.overall == 0.75 and report.parse_failures == 1
    assert report.subsets["order_length:unparsed"] == {"accuracy": 0.0, "count": 1}
    assert json.loads(report.to_json())["parse_failures"] == 1


def test_accuracy_parses_each_item_once():
    data = items(5)
    lookup = {d.description: d.order for d in data}
    calls = []

    def parser(desc):
        calls.append(desc)
        return lookup[desc]

    accuracy(tiny_model(), data, parser=parser)
    assert len(calls) == len(data)


def test_accuracy_wraps_the_parameters_once(monkeypatch):
    data = items(5)
    twin, model = tiny_model(), tiny_model()
    hits = [
        int(twin.forward(d.scene, d.order, d.description).predicted_id() == d.target_id)
        for d in data
    ]
    # The first item wraps each parameter once; no later item wraps one again.
    real, wraps = tt.constant, []

    def counting_constant(value):
        if np.shares_memory(value, model.params.vector):
            wraps.append(value)
        return real(value)

    monkeypatch.setattr(tt, "constant", counting_constant)
    report = accuracy(model, data)
    assert len(wraps) == len(model.params)
    assert report.overall == sum(hits) / len(data)


def test_accuracy_buckets_the_order_it_scores():
    """A parser whose reply changes between calls: each item must land in
    the bucket of the very reply it was scored on.  The scorer hits only
    on the four-name reply, so the `1` bucket must read 0 and `4&5` 1."""
    data = [EvalItem(d.scene, d.description, None, d.target_id) for d in items(5)]
    replies = iter([["target"], ["x1", "x2", "x3", "target"]] * len(data) * 2)
    parser = lambda desc: next(replies)

    def scorer(item, order):
        long_reply = len(set(order)) > 1  # a one-name reply pads to repeats
        scores = np.zeros(len(item.scene))
        miss = (item.target_id + 1) % len(item.scene)
        scores[item.target_id if long_reply else miss] = 1.0
        return scores

    report = accuracy(tiny_model(), data, parser=parser, score_fn=scorer)
    assert report.subsets["order_length:1"] == {"accuracy": 0.0, "count": 3}
    assert report.subsets["order_length:4&5"] == {"accuracy": 1.0, "count": 2}


def test_accuracy_chance_scorer_sits_at_expected_one_over_k():
    """Scores drawn independently of the scene make every prediction a
    uniform pick over that scene's K proposals, so accuracy concentrates
    on E[1/K] with independent-Bernoulli bounds.  (K varies: warm-up
    synthesis prunes anchor-class duplicates.)  An untrained model is NOT
    such a chance predictor: its relevance masks already single out
    target-class proposals, which lifts it above chance before training."""
    data = [
        EvalItem(s.scene, s.description, s.order, s.anchor_target_ids[-1])
        for s in generate_dataset(GEN, 2000)
    ]
    rng = np.random.default_rng(7)
    chance = lambda item, order: rng.normal(0.0, 1.0, size=len(item.scene))
    report = accuracy(tiny_model(), data, score_fn=chance)
    probs = np.array([1.0 / len(item.scene) for item in data])
    sigma = float(np.sqrt(np.sum(probs * (1.0 - probs))) / len(data))
    assert abs(report.overall - probs.mean()) <= 3 * sigma, (report.overall, probs.mean())


# ---------------------------------------------------------------------------
# report shape


def test_report_partition_counts_must_sum():
    with pytest.raises(ContractError):
        EvalReport(
            overall=0.5,
            count=10,
            subsets={"order_length:1": {"accuracy": 0.5, "count": 4}},
        )


def test_report_json_roundtrip():
    data = items(8)
    report = accuracy(
        tiny_model(),
        data,
        score_fn=lambda item, order: np.eye(len(item.scene))[item.target_id],
        config={"checkpoint": "probe.bin"},
    )
    blob = json.loads(report.to_json())
    assert blob["overall"] == 1.0
    assert blob["config"] == {"checkpoint": "probe.bin"}
    total = sum(
        v["count"] for k, v in blob["subsets"].items() if k.startswith("order_length:")
    )
    assert total == blob["count"]


def nan_at_target(k, target):
    scores = np.zeros(k)
    scores[target] = np.nan
    return scores


def inf_at_target_and_after(k, target):
    scores = np.zeros(k)
    scores[[target, (target + 1) % k]] = np.inf
    return scores


@pytest.mark.parametrize("bad", [nan_at_target, inf_at_target_and_after])
def test_accuracy_refuses_a_non_finite_score(bad):
    """argmax reads a NaN as the maximum, and the first of two infinities
    as the top score: each would count as a hit."""
    data = items(3)

    def scores(item, order):
        if item is data[0]:
            return np.eye(len(item.scene))[item.target_id]
        return bad(len(item.scene), item.target_id)

    with pytest.raises(NumericError, match="item 1 "):
        accuracy(tiny_model(), data, score_fn=scores)


def test_accuracy_refuses_a_non_finite_model_score():
    model = tiny_model()
    model.params["head.score.2.b"][0, 0] = np.nan
    with pytest.raises(NumericError, match="item 0 "):
        accuracy(model, items(2))


@pytest.mark.parametrize("reply", list(NON_STRING_ORDERS.values()), ids=list(NON_STRING_ORDERS))
def test_an_order_name_that_is_not_a_string_is_refused(reply):
    model, item = tiny_model(), items(1)[0]
    with pytest.raises(ContractError, match="order names must be strings"):
        model.forward(item.scene, reply, item.description)
    with pytest.raises(ContractError, match="order names must be strings"):
        accuracy(model, [item], parser=lambda description: reply)
