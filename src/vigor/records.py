"""Line-delimited JSON persistence for grounding samples.

One record per line, carrying the scene (proposals with ids, class
names, centers, and points), the description, the referential order
(class names, target last), the target proposal id, and, for synthetic
warm-up data, the resolved anchor chain.  The ids cover 0..K-1, and a
rebuilt `Scene` holds proposal id i in row i of its arrays.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractError, ValidationError
from .scene import ClassVocab, Scene
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


@dataclass
class DatasetRecord:
    scene_id: str
    proposals: list[dict]  # {id, class, center, points}
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
            missing = {"id", "class", "center", "points"} - set(prop)
            if missing:
                raise ValidationError(f"proposal {i} lacks fields {sorted(missing)}")
            if not isinstance(prop["class"], str) or not prop["class"]:
                raise ValidationError(f"proposal {i} needs a class name string")
            pts = np.asarray(prop["points"], dtype=np.float64)
            if pts.ndim != 2 or pts.shape[1] != 6 or pts.shape[0] == 0:
                raise ValidationError(
                    f"proposal {i} points must be a nonempty list of [x,y,z,r,g,b] rows"
                )
            center = np.asarray(prop["center"], dtype=np.float64)
            if center.shape != (3,):
                raise ValidationError(f"proposal {i} center must be [x, y, z]")
            if not _is_int(prop["id"]):
                raise ValidationError(f"proposal {i} id must be an integer, got {prop['id']!r}")
            ids.append(prop["id"])
        if sorted(ids) != list(range(len(ids))):
            raise ValidationError(f"proposal ids must cover 0..K-1, got {sorted(ids)}")
        if not _is_int(self.target_id):
            raise ValidationError(f"target id must be an integer, got {self.target_id!r}")
        if self.target_id not in ids:
            raise ValidationError(
                f"target id {self.target_id} is not a proposal id"
            )
        if self.anchor_ids is not None:
            if len(self.anchor_ids) != len(self.order):
                raise ValidationError(
                    "anchor_ids must name one proposal per order position"
                )
            bad = [a for a in self.anchor_ids if not _is_int(a) or a not in ids]
            if bad:
                raise ValidationError(f"anchor ids {bad} are not proposal ids")
            if self.anchor_ids[-1] != self.target_id:
                raise ValidationError("the last anchor must be the target")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, blob: dict) -> "DatasetRecord":
        if not isinstance(blob, dict):
            raise ValidationError("each record must be a JSON object")
        allowed = {"scene_id", "proposals", "description", "order", "target_id", "anchor_ids"}
        unknown = set(blob) - allowed
        if unknown:
            raise ValidationError(f"unknown record fields: {sorted(unknown)}")
        try:
            return cls(
                scene_id=blob.get("scene_id", ""),
                proposals=blob["proposals"],
                description=blob["description"],
                order=blob["order"],
                target_id=blob["target_id"],
                anchor_ids=blob.get("anchor_ids"),
            )
        except KeyError as exc:
            raise ValidationError(f"record lacks required field {exc.args[0]!r}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            # OverflowError: a JSON integer too large for a float64 array
            raise ValidationError(f"malformed record: {exc}") from exc


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
        {"id": pid, "class": scene.vocab.name(c), "center": center, "points": points.tolist()}
        for pid, (c, center, points) in enumerate(
            zip(scene.class_ids.tolist(), scene.centers.tolist(), scene.points)
        )
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
    chose a vocabulary that cannot represent this record.
    """
    # The record's ids cover 0..K-1, so row i of the scene is proposal id i.
    props = sorted(record.proposals, key=lambda p: p["id"])
    unknown = [p["class"] for p in props if p["class"] not in vocab]
    if unknown:
        raise ValidationError(f"class {unknown[0]!r} is not in the {len(vocab)}-name vocabulary")
    try:
        scene = Scene(
            [vocab.index(p["class"]) for p in props],
            [p["points"] for p in props],
            vocab,
            record.scene_id,
            [p["center"] for p in props],
        )
    except ContractError as exc:
        raise ValidationError(str(exc)) from exc
    return RecordExample(
        scene=scene,
        description=record.description,
        order=list(record.order),
        target_id=record.target_id,
        anchor_target_ids=(
            list(record.anchor_ids) if record.anchor_ids is not None else None
        ),
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
