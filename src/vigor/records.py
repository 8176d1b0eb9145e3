"""Line-delimited JSON persistence for grounding samples.

One record per line, carrying the scene (proposals with ids, class
names, centers, and points), the description, the referential order
(class names, target last), the target proposal id, and, for synthetic
warm-up data, the resolved anchor chain.  The ids cover 0..K-1.  A record
is checked in full when built, its points and centers by the rule a
`Scene` runs (`scene.proposal_arrays`), and holds its proposals sorted by
id as float64 arrays, which a rebuilt `Scene` takes as they are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, ValidationError
from .scene import ClassVocab, Scene, proposal_arrays
from .synthgen import WarmupSample

__all__ = [
    "DatasetRecord",
    "RecordExample",
    "record_from_sample",
    "example_from_record",
    "dataset_vocab",
    "read_records",
    "write_records",
]


def _is_int(value) -> bool:
    # type(), not isinstance: a bool is an int subclass but no valid id.
    return type(value) is int


# The JSON type each of these fields must have; the checks below would pass
# a string `order`, say, as a list of one-letter names.
_JSON_TYPES = (
    ("scene_id", str, "a string"),
    ("proposals", list, "an array"),
    ("order", list, "an array"),
    ("anchor_ids", (list, type(None)), "an array or null"),
)
_PROPOSAL_FIELDS = {"id", "class", "center", "points"}


@dataclass(eq=False)
class DatasetRecord:
    scene_id: str
    # {id, class, center, points}, sorted by id once built; center is a
    # float64 row of 3 and points an (I, 6) float64 array.
    proposals: list[dict]
    description: str
    order: list[str]
    target_id: int
    anchor_ids: list[int] | None = None

    def __post_init__(self):
        for name, kinds, what in _JSON_TYPES:
            value = getattr(self, name)
            if not isinstance(value, kinds):
                raise ValidationError(f"{name} must be {what}, got {type(value).__name__}")
        if not isinstance(self.description, str) or not self.description.strip():
            raise ValidationError("description must be a nonempty string")
        if not self.order or not all(isinstance(n, str) and n for n in self.order):
            raise ValidationError("order must be a nonempty list of class names")
        if not self.proposals:
            raise ValidationError("record carries no proposals")
        ids = []
        for i, prop in enumerate(self.proposals):
            if not isinstance(prop, dict) or prop.keys() != _PROPOSAL_FIELDS:
                raise ValidationError(f"proposal {i} must have just id, class, center and points")
            if not isinstance(prop["class"], str) or not prop["class"]:
                raise ValidationError(f"proposal {i} needs a class name string")
            if not _is_int(prop["id"]):
                raise ValidationError(f"proposal {i} id must be an integer, got {prop['id']!r}")
            ids.append(prop["id"])
        if sorted(ids) != list(range(len(ids))):
            raise ValidationError(f"proposal ids must cover 0..K-1, got {sorted(ids)}")
        # From here on row i is proposal id i, as in the scene it rebuilds.
        props = sorted(self.proposals, key=lambda p: p["id"])
        try:
            points, centers = proposal_arrays(
                [p["points"] for p in props], [p["center"] for p in props]
            )
        except ContractError as exc:
            raise ValidationError(str(exc)) from exc
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: a JSON integer too large for a float64 array
            raise ValidationError(f"malformed record: {exc}") from exc
        self.proposals = [
            {"id": i, "class": p["class"], "center": center, "points": pts}
            for i, (p, center, pts) in enumerate(zip(props, centers, points))
        ]
        if not _is_int(self.target_id):
            raise ValidationError(f"target id must be an integer, got {self.target_id!r}")
        if self.target_id not in ids:
            raise ValidationError(f"target id {self.target_id} is not a proposal id")
        if self.anchor_ids is not None:
            if len(self.anchor_ids) != len(self.order):
                raise ValidationError("anchor_ids must name one proposal per order position")
            bad = [a for a in self.anchor_ids if not _is_int(a) or a not in ids]
            if bad:
                raise ValidationError(f"anchor ids {bad} are not proposal ids")
            if self.anchor_ids[-1] != self.target_id:
                raise ValidationError("the last anchor must be the target")

    def __eq__(self, other):  # through to_dict: == on arrays is elementwise
        return isinstance(other, DatasetRecord) and self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        """The record as its JSON object: the file's keys, in the file's order."""
        return {
            "scene_id": self.scene_id,
            "proposals": [
                {**p, "center": p["center"].tolist(), "points": p["points"].tolist()}
                for p in self.proposals
            ],
            "description": self.description,
            "order": list(self.order),
            "target_id": self.target_id,
            "anchor_ids": None if self.anchor_ids is None else list(self.anchor_ids),
        }

    @classmethod
    def from_dict(cls, blob: dict) -> "DatasetRecord":
        if not isinstance(blob, dict):
            raise ValidationError("each record must be a JSON object")
        allowed = {"scene_id", "proposals", "description", "order", "target_id", "anchor_ids"}
        unknown = blob.keys() - allowed
        if unknown:
            raise ValidationError(f"unknown record fields: {sorted(unknown)}")
        missing = allowed - {"scene_id", "anchor_ids"} - blob.keys()
        if missing:
            raise ValidationError(f"record lacks required fields {sorted(missing)}")
        return cls(**{"scene_id": "", **blob})


@dataclass
class RecordExample:
    """A record rebuilt against a vocabulary, ready for training or eval."""

    scene: Scene
    description: str
    order: list[str]
    target_id: int
    anchor_target_ids: list[int] | None = None


def record_from_sample(sample: WarmupSample) -> DatasetRecord:
    scene = sample.scene
    proposals = [
        {"id": pid, "class": scene.vocab.name(c), "center": scene.centers[pid], "points": points}
        for pid, (c, points) in enumerate(zip(scene.class_ids.tolist(), scene.points))
    ]
    return DatasetRecord(
        scene_id=scene.scene_id,
        proposals=proposals,
        description=sample.description,
        order=list(sample.order),
        target_id=sample.anchor_target_ids[-1],
        anchor_ids=list(sample.anchor_target_ids),
    )


def example_from_record(record: DatasetRecord, vocab: ClassVocab) -> RecordExample:
    """Rebuild the scene with class ids resolved against `vocab`.

    Classes outside the vocabulary are a validation failure: the caller
    chose a vocabulary that cannot represent this record.  The scene takes
    the record's arrays as they are, unchecked: they passed its rule when
    the record was built.
    """
    props = record.proposals
    unknown = [p["class"] for p in props if p["class"] not in vocab]
    if unknown:
        raise ValidationError(f"class {unknown[0]!r} is not in the {len(vocab)}-name vocabulary")
    scene = Scene._of_checked(
        np.array([vocab.index(p["class"]) for p in props]),
        [p["points"] for p in props],
        vocab,
        record.scene_id,
        np.array([p["center"] for p in props]),
    )
    return RecordExample(
        scene=scene,
        description=record.description,
        order=list(record.order),
        target_id=record.target_id,
        anchor_target_ids=None if record.anchor_ids is None else list(record.anchor_ids),
    )


def dataset_vocab(records: Sequence[DatasetRecord]) -> ClassVocab:
    names = sorted({prop["class"] for r in records for prop in r.proposals})
    if not names:
        raise ValidationError("no class names in the dataset")
    return ClassVocab(tuple(names))


def write_records(path, records: Iterable[DatasetRecord]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record.to_dict()) + "\n")


def read_records(path) -> list[DatasetRecord]:
    records = []
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                text = line.decode("utf-8")
                if not text.strip():
                    continue
                blob = json.loads(text)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ValidationError(f"{path}:{lineno}: not valid JSON: {exc}") from exc
            try:
                records.append(DatasetRecord.from_dict(blob))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return records
