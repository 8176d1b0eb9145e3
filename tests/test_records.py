"""Tests for dataset record validation and line-delimited persistence."""

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vigor.errors import ValidationError, VigorError
from vigor.evaluation import accuracy
from vigor.model import GroundingModel, ModelConfig
from vigor.records import (
    DatasetRecord,
    dataset_vocab,
    example_from_record,
    read_records,
    record_from_sample,
    write_records,
)
from vigor import records as records_module
from vigor import scene as scene_module
from vigor.scene import ClassVocab, Scene, permute_scene, proposal_arrays
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
    assert np.array_equal(example.scene.class_ids, sample.scene.class_ids)
    for a, b in zip(example.scene.points, sample.scene.points):
        assert np.array_equal(a, b)
    assert np.array_equal(example.scene.centers, sample.scene.centers)


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
    # The record runs the scene's rule when it is built, so no example of it
    # is ever made.
    blob = record_blob()
    blob["proposals"][0]["center"] = [99.0, 99.0, 99.0]
    with pytest.raises(ValidationError):
        DatasetRecord.from_dict(blob)


@pytest.mark.parametrize("column", range(6), ids="xyzrgb")
def test_example_rejects_nonfinite_points(column):
    # json reads NaN, so a record can carry one in any of the six columns;
    # the record refuses it when built, before any example of it is made.
    blob = record_blob()
    prop = blob["proposals"][1]
    prop["points"][0][column] = float("nan")
    with pytest.raises(ValidationError, match=f"proposal {prop['id']}: .*finite"):
        DatasetRecord.from_dict(json.loads(json.dumps(blob)))


def test_example_scene_holds_the_records_arrays():
    """One conversion: the scene takes the record's arrays, uncopied."""
    record = DatasetRecord.from_dict(record_blob())
    example = example_from_record(record, default_vocab(GEN.class_vocab_size))
    assert len(example.scene.points) == len(record.proposals)
    for points, prop in zip(example.scene.points, record.proposals, strict=True):
        assert points is prop["points"]
        assert points.dtype == np.float64 and points.shape[1] == 6
        assert prop["center"].dtype == np.float64 and prop["center"].shape == (3,)


def test_checked_arrays_are_not_checked_again(monkeypatch):
    """A record's example, `Scene.take` and `permute_scene` build scenes
    from arrays that already passed `proposal_arrays`: none runs it again,
    and each takes the checked arrays as they are."""
    record = DatasetRecord.from_dict(record_blob())
    vocab = default_vocab(GEN.class_vocab_size)
    calls = []

    def spy(*args):
        calls.append(len(args[0]))
        return proposal_arrays(*args)

    monkeypatch.setattr(scene_module, "proposal_arrays", spy)
    monkeypatch.setattr(records_module, "proposal_arrays", spy)
    scene = example_from_record(record, vocab).scene
    taken = scene.take([2, 0])
    permuted = permute_scene(scene, list(range(len(scene)))[::-1])
    assert calls == []
    centers = np.array([p["center"] for p in record.proposals])
    assert np.array_equal(scene.centers, centers)
    assert scene.class_ids.tolist() == [vocab.index(p["class"]) for p in record.proposals]
    assert np.array_equal(taken.centers, centers[[2, 0]]) and taken.points[0] is scene.points[2]
    assert np.array_equal(permuted.centers, centers[::-1])
    assert permuted.points[0] is scene.points[-1]
    Scene([0], [scene.points[0]], vocab)  # a scene from outside is still checked
    assert calls == [1]


def test_record_keeps_proposals_in_id_order():
    blob = record_blob()
    blob["proposals"].reverse()
    record = DatasetRecord.from_dict(blob)
    assert [p["id"] for p in record.proposals] == list(range(len(blob["proposals"])))
    assert record == DatasetRecord.from_dict(record_blob())
    assert record.to_dict() == record_blob()
    assert list(record.to_dict()) == [
        "scene_id", "proposals", "description", "order", "target_id", "anchor_ids"
    ]
    assert [list(p) for p in record.to_dict()["proposals"]] == [
        ["id", "class", "center", "points"]
    ] * len(record.proposals)


def test_record_equality_compares_contents():
    a, b = (DatasetRecord.from_dict(record_blob()) for _ in range(2))
    assert a == b and not a != b
    changed = record_blob()
    changed["proposals"][0]["points"][0][3] += 0.5  # a colour: the center holds
    assert a != DatasetRecord.from_dict(changed)
    assert a != record_blob()


def test_record_refuses_an_unknown_proposal_field():
    blob = record_blob()
    blob["proposals"][0]["score"] = 0.9  # to_dict would drop it on write-back
    with pytest.raises(ValidationError, match="proposal 0 must have just id, class, center"):
        DatasetRecord.from_dict(blob)


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


def bad_colour(blob):
    blob["proposals"][1]["points"][0][4] = float("nan")


def tampered_center(blob):
    blob["proposals"][1]["center"] = [99.0, 99.0, 99.0]


@pytest.mark.parametrize(
    "mutate, match",
    [(bad_colour, "proposal 1: points must be finite"), (tampered_center, "proposal 1: stored")],
)
def test_read_refuses_a_bad_proposal_with_its_line(tmp_path, mutate, match):
    blobs = [record_blob() for _ in range(3)]
    mutate(blobs[2])
    path = tmp_path / "data.jsonl"
    path.write_text("".join(json.dumps(b) + "\n" for b in blobs))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}:3: {match}"):
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


# ---------------------------------------------------------------------------
# property: any mutation of a valid line runs to accuracy() or is refused

MISSING = object()
# JSON values a mutated line might hold: mistyped, nested, null, huge
# integers and floats, non-finite, or the key or element left out.
LINE_VALUES = st.sampled_from(
    ["8", "", 1.5, True, None, [], [8], [[[8]]], {"a": 1}, 0, -1, 10**400, 2**62, -(2**62),
     2**1023, 1e200, -1e200, 1e155, float("nan"), float("inf"), float("-inf"), MISSING]
)
# Where a mutation lands: a top-level field, a field of proposal 1, one
# number of proposal 1's center or first point, or the first order name or
# anchor id.
LINE_SPOTS = st.sampled_from(
    [(f,) for f in ("scene_id", "proposals", "description", "order", "target_id", "anchor_ids")]
    + [("proposals", 1, f) for f in ("id", "class", "center", "points")]
    + [("proposals", 1, "center", c) for c in range(3)]
    + [("proposals", 1, "points", 0, c) for c in range(6)]
    + [("order", 0), ("anchor_ids", 0)]
)


@pytest.fixture(scope="module")
def line_case(tmp_path_factory):
    """A valid records line, a file to write it to, and a d=8 model of its vocabulary."""
    model = GroundingModel(
        ModelConfig(d=8, b=2, n_heads=2, points_per_proposal=6), default_vocab(GEN.class_vocab_size)
    )
    return json.dumps(record_blob()), tmp_path_factory.mktemp("line") / "data.jsonl", model


def set_at(blob, spot, value):
    *parents, last = spot
    for key in parents:
        blob = blob[key]
    if value is not MISSING:
        blob[last] = value
    elif isinstance(blob, dict) or last < len(blob):
        del blob[last]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    edits=st.lists(st.tuples(LINE_SPOTS, LINE_VALUES), min_size=1, max_size=2),
    cut=st.none() | st.floats(0.0, 1.0),
)
# Each value passed every check and overflowed the model's matmuls.
@example(edits=[(("proposals", 1, "points", 0, 0), 1e155)], cut=None)
@example(edits=[(("proposals", 1, "points", 0, 5), 1e200)], cut=None)
def test_record_line_runs_or_refuses(line_case, edits, cut):
    """Whatever a records line holds, reading it, rebuilding its example and
    scoring it with accuracy() either work or raise the package's own error."""
    line, path, model = line_case
    blob = json.loads(line)
    for spot, value in edits:
        try:
            set_at(blob, spot, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or retyped this spot's parent
    text = json.dumps(blob)
    path.write_text((text if cut is None else text[: int(cut * len(text))]) + "\n")
    try:
        examples = [example_from_record(r, model.class_vocab) for r in read_records(path)]
        report = accuracy(model, examples)
    except VigorError:
        return
    assert report.count == 1
