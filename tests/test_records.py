"""Tests for dataset record validation and line-delimited persistence."""

import json

import numpy as np
import pytest

from vigor.errors import ValidationError
from vigor.records import (
    DatasetRecord,
    dataset_vocab,
    example_from_record,
    read_records,
    record_from_sample,
    write_records,
)
from vigor.scene import ClassVocab
from vigor.synthgen import GenConfig, default_vocab, generate_dataset

GEN = GenConfig(
    proposals_min=4,
    proposals_max=6,
    points_per_proposal=6,
    class_vocab_size=6,
    order_len=2,
    seed=41,
)


def samples(n, **over):
    return list(generate_dataset(GenConfig(**{**GEN.__dict__, **over}), n))


def record_blob(**over):
    base = record_from_sample(samples(1)[0]).to_dict()
    base.update(over)
    return base


# ---------------------------------------------------------------------------
# validation


def test_roundtrip_preserves_everything():
    sample = samples(1)[0]
    record = DatasetRecord.from_dict(
        json.loads(json.dumps(record_from_sample(sample).to_dict()))
    )
    example = example_from_record(record, sample.scene.vocab)
    assert example.description == sample.description
    assert example.order == sample.order
    assert example.target_id == sample.anchor_target_ids[-1]
    assert example.anchor_target_ids == sample.anchor_target_ids
    assert len(example.scene) == len(sample.scene)
    for a, b in zip(example.scene.proposals, sample.scene.proposals):
        assert a.class_id == b.class_id
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.center, b.center)


def test_record_requires_nonempty_order_and_description():
    with pytest.raises(ValidationError):
        DatasetRecord.from_dict(record_blob(order=[]))
    with pytest.raises(ValidationError):
        DatasetRecord.from_dict(record_blob(description="   "))


def test_record_target_must_be_a_proposal():
    with pytest.raises(ValidationError):
        DatasetRecord.from_dict(record_blob(target_id=99))


def test_record_anchor_invariants():
    blob = record_blob()
    with pytest.raises(ValidationError):
        DatasetRecord.from_dict({**blob, "anchor_ids": blob["anchor_ids"][:-1]})
    wrong_last = [blob["anchor_ids"][0]] * len(blob["anchor_ids"])
    if wrong_last[-1] == blob["target_id"]:
        wrong_last = [i + 1 for i in wrong_last]
    with pytest.raises(ValidationError):
        DatasetRecord.from_dict({**blob, "anchor_ids": wrong_last})


def test_record_rejects_unknown_fields_and_bad_ids():
    with pytest.raises(ValidationError):
        DatasetRecord.from_dict(record_blob(flavor="spicy"))
    blob = record_blob()
    blob["proposals"][0]["id"] = 17
    with pytest.raises(ValidationError):
        DatasetRecord.from_dict(blob)


def fractional_target(blob):
    blob.update(target_id=blob["target_id"] + 0.9, anchor_ids=None)


def string_target(blob):
    blob.update(target_id=str(blob["target_id"]), anchor_ids=None)


def fractional_anchors(blob):
    blob["anchor_ids"] = [a + 0.7 for a in blob["anchor_ids"]]


def bool_proposal_id(blob):
    blob["proposals"][1]["id"] = True


def float_proposal_id(blob):
    blob["proposals"][1]["id"] = 1.0


@pytest.mark.parametrize(
    "mutate",
    [fractional_target, string_target, fractional_anchors, bool_proposal_id, float_proposal_id],
)
def test_record_ids_must_be_json_integers(mutate):
    """int() once truncated 2.9 to 2 and parsed "2"; True and 1.0 passed as id 1."""
    blob = record_blob()
    mutate(blob)
    with pytest.raises(ValidationError, match="integer|not proposal ids"):
        DatasetRecord.from_dict(blob)


@pytest.mark.parametrize(
    "field, value",
    [
        ("order", "chair"),  # once read as the five names c, h, a, i, r
        ("order", {"chair": 1}),  # once read as ["chair"]
        ("proposals", {"0": {}}),
        ("anchor_ids", 1),
        ("anchor_ids", "01"),
        ("scene_id", ["a"]),  # once stored as the string "['a']"
        ("scene_id", 7),
    ],
)
def test_record_refuses_a_mistyped_field(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be"):
        DatasetRecord.from_dict(record_blob(**{field: value}))


def test_record_rejects_bad_points():
    blob = record_blob()
    blob["proposals"][0]["points"] = [[1.0, 2.0, 3.0]]  # xyz only, no color
    with pytest.raises(ValidationError):
        DatasetRecord.from_dict(blob)


def test_example_rejects_unknown_class():
    record = DatasetRecord.from_dict(record_blob())
    tiny = ClassVocab(("nothing useful",))
    with pytest.raises(ValidationError):
        example_from_record(record, tiny)


def test_example_rejects_tampered_center():
    blob = record_blob()
    blob["proposals"][0]["center"] = [99.0, 99.0, 99.0]
    record = DatasetRecord.from_dict(blob)
    with pytest.raises(ValidationError):
        example_from_record(record, default_vocab(GEN.class_vocab_size))


@pytest.mark.parametrize("column", range(6), ids="xyzrgb")
def test_example_rejects_nonfinite_points(column):
    # json reads NaN, so a record can carry one in any of the six columns
    blob = record_blob()
    prop = blob["proposals"][1]
    prop["points"][0][column] = float("nan")
    record = DatasetRecord.from_dict(json.loads(json.dumps(blob)))
    with pytest.raises(ValidationError, match=f"proposal {prop['id']}: .*finite"):
        example_from_record(record, default_vocab(GEN.class_vocab_size))


# ---------------------------------------------------------------------------
# persistence


def test_write_read_roundtrip(tmp_path):
    records = [record_from_sample(s) for s in samples(5)]
    path = tmp_path / "data.jsonl"
    write_records(path, records)
    loaded = read_records(path)
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]


def test_read_skips_blank_lines(tmp_path):
    records = [record_from_sample(s) for s in samples(2)]
    path = tmp_path / "data.jsonl"
    lines = [json.dumps(r.to_dict()) for r in records]
    path.write_text(lines[0] + "\n\n" + lines[1] + "\n")
    assert len(read_records(path)) == 2


@pytest.mark.parametrize("field", ["center", "points"])
def test_read_refuses_a_number_past_float_range(tmp_path, field):
    # json reads 10**400 as an int, which no float64 array can hold
    blob = record_blob()
    prop = blob["proposals"][0]
    row = prop["center"] if field == "center" else prop["points"][0]
    row[0] = 10**400
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(blob) + "\n")
    with pytest.raises(ValidationError, match=":1: malformed record"):
        read_records(path)


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"description": "x"}\nnot json\n')
    with pytest.raises(ValidationError, match=":1:"):
        read_records(path)
    good = json.dumps(record_blob())
    path.write_text(good + "\nnot json\n")
    with pytest.raises(ValidationError, match=":2:"):
        read_records(path)


def test_dataset_vocab_collects_sorted_names():
    records = [record_from_sample(s) for s in samples(6)]
    vocab = dataset_vocab(records)
    seen = {p["class"] for r in records for p in r.proposals}
    assert tuple(sorted(seen)) == vocab.names
    with pytest.raises(ValidationError):
        dataset_vocab([])
