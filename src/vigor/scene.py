"""Scene model: proposals, class vocabulary, relevance masks, relations.

A scene is a list of labelled point-cloud proposals with ids 0..K-1.  The
relevance masks of a referential order are one K x B array: column i
marks every proposal whose class name occurs in the suffix `order[i:]`.
Masks are pure set membership, so each column is invariant to
duplication and permutation of its suffix.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ContractError, NotFoundError

__all__ = [
    "ClassVocab",
    "Proposal",
    "Scene",
    "build_masks",
    "relation_select",
    "permute_scene",
    "tokenize",
]

log = logging.getLogger(__name__)

RELATIONS = ("farthest", "nearest")


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric words: how the word vocabulary, the text
    encoder and the rule parser all split text."""
    return re.findall(r"[a-z0-9]+", text.lower())


def _norm_name(name: str) -> str:
    return " ".join(name.lower().strip().split())


@dataclass(frozen=True)
class ClassVocab:
    """Fixed list of class names; matching is exact after lowercase/trim."""

    names: tuple[str, ...]

    def __post_init__(self):
        normed = tuple(_norm_name(n) for n in self.names)
        if len(set(normed)) != len(normed):
            raise ContractError("class vocabulary contains duplicate names")
        if any(not n for n in normed):
            raise ContractError("class vocabulary contains an empty name")
        object.__setattr__(self, "names", normed)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(normed)})

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return _norm_name(name) in self._index

    def index(self, name: str) -> int:
        key = _norm_name(name)
        if key not in self._index:
            raise NotFoundError(f"unknown class name: {name!r}")
        return self._index[key]

    def name(self, class_id: int) -> str:
        if not 0 <= class_id < len(self.names):
            raise NotFoundError(f"class id {class_id} out of range")
        return self.names[class_id]


@dataclass
class Proposal:
    """One object hypothesis: id, class label, and its xyzrgb points.

    The center is the midpoint of the axis-aligned bounding box of the
    xyz columns; a stored center must be three finite numbers equal to it.
    """

    id: int
    class_id: int
    points: np.ndarray  # (I, 6) columns x, y, z, r, g, b
    center: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 6 or self.points.shape[0] == 0:
            raise ContractError(
                f"proposal points must be non-empty Ix6, got shape {self.points.shape}"
            )
        # One finiteness pass over all six columns; the bbox needs no other.
        if not np.isfinite(self.points).all():
            raise ContractError("proposal points must be finite in x, y, z, r, g and b")
        xyz = self.points[:, :3]
        center = (xyz.min(axis=0) + xyz.max(axis=0)) / 2.0
        if self.center is None:
            self.center = center
            return
        try:
            stored = np.asarray(self.center, dtype=np.float64)
        except (TypeError, ValueError):
            stored = None
        if stored is None or stored.shape != (3,) or not np.isfinite(stored).all():
            raise ContractError(f"a stored center must be three finite numbers: {self.center!r}")
        # np.allclose(stored, center, atol=1e-9) on finite values, without
        # its wrappers: this runs once per proposal of every record read.
        if not (np.abs(stored - center) <= 1e-9 + 1e-5 * np.abs(center)).all():
            raise ContractError("stored center disagrees with bbox center of points")
        self.center = stored


@dataclass
class Scene:
    """A set of proposals sharing one class vocabulary."""

    proposals: list[Proposal]
    vocab: ClassVocab
    scene_id: str = ""

    def __post_init__(self):
        if not self.proposals:
            raise ContractError("a scene needs at least one proposal")
        ids = [p.id for p in self.proposals]
        if ids != list(range(len(ids))):
            raise ContractError(f"proposal ids must be 0..K-1 in order, got {ids}")
        for p in self.proposals:
            if not 0 <= p.class_id < len(self.vocab):
                raise ContractError(f"proposal {p.id} has class id outside the vocabulary")

    def __len__(self) -> int:
        return len(self.proposals)

    def labels(self) -> list[int]:
        return [p.class_id for p in self.proposals]

    def centers(self) -> np.ndarray:
        return np.stack([p.center for p in self.proposals])


def build_masks(labels: Sequence[int], order: Sequence[str], vocab: ClassVocab) -> np.ndarray:
    """M_1 .. M_B of one sample as one K x B array of 0.0 / 1.0.

    Column i marks the proposals whose class name occurs anywhere in
    `order[i:]`.  A proposal stays marked up to the last position that
    names its class, so one pass over the order builds every column.
    Unknown names are dropped with a warning rather than failing: parsed
    orders may mention classes the detector never proposes.
    """
    last: dict[int, int] = {}  # class id -> last position naming it
    for i, name in enumerate(order):
        if name in vocab:
            last[vocab.index(name)] = i
        else:
            log.warning("build_masks: dropping unknown class name %r", name)
    reach = np.array([last.get(c, -1) for c in labels], dtype=np.intp)
    return (reach[:, None] >= np.arange(len(order))).astype(np.float64)


def relation_select(
    scene: Scene, class_id: int, ref_center: np.ndarray, relation: str
) -> Proposal:
    """Pick the farthest/nearest proposal of a class from a reference point.

    Exact distance ties are broken by the lowest proposal id, which keeps
    the choice deterministic.
    """
    if relation not in RELATIONS:
        raise ContractError(f"relation must be one of {RELATIONS}, got {relation!r}")
    ref = np.asarray(ref_center, dtype=np.float64).reshape(3)
    candidates = [p for p in scene.proposals if p.class_id == class_id]
    if not candidates:
        raise NotFoundError(f"no proposal of class id {class_id} in scene")
    dists = np.array([np.linalg.norm(p.center - ref) for p in candidates])
    # argmax/argmin return the first extremal index; candidates are already
    # in ascending id order, so ties resolve to the lowest id.
    best = int(dists.argmax() if relation == "farthest" else dists.argmin())
    return candidates[best]


def permute_scene(scene: Scene, perm: Sequence[int]) -> Scene:
    """Reorder proposals (new position i takes old proposal perm[i])."""
    if sorted(perm) != list(range(len(scene))):
        raise ContractError("perm must be a permutation of 0..K-1")
    proposals = [
        Proposal(id=i, class_id=scene.proposals[j].class_id, points=scene.proposals[j].points)
        for i, j in enumerate(perm)
    ]
    return Scene(proposals=proposals, vocab=scene.vocab, scene_id=scene.scene_id)
