"""Scene model: proposals, class vocabulary, relevance masks, relations.

A scene holds K labelled point-cloud proposals as arrays (class ids, point
clouds, bbox centers) whose row i is proposal i, so a proposal's id is its
row.  `proposal_arrays` is the one check of a proposal's arrays; `Scene`
and the dataset records both run it, and a scene built from arrays that
already passed it (`Scene.take`, a record's example) does not run it
again.  The relevance masks
of a referential order are one K x B array: column i marks every proposal
whose class name occurs in the suffix `order[i:]`.  Masks are pure set
membership, so each column is invariant to duplication and permutation of
its suffix.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import ContractError, NotFoundError

__all__ = [
    "ClassVocab",
    "Scene",
    "proposal_arrays",
    "build_masks",
    "relation_select",
    "permute_scene",
    "tokenize",
]

log = logging.getLogger(__name__)

RELATIONS = ("farthest", "nearest")
# Synthesis draws a K x P x 6 block and the object encoder runs its point MLP
# on K x P rows each forward, so a mistyped P past this would ask for gigabytes.
MAX_POINTS_PER_PROPOSAL = 4096
# Every point value (metres, or a 0..1 colour) must lie within ±this: far
# above any room, and far below the ~1e154 whose products overflow float64
# in the model's matmuls (attention multiplies two projections of a point).
MAX_POINT_VALUE = 1e6


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
        # A bare string would read as one class a letter.
        if isinstance(self.names, str) or not all(isinstance(n, str) for n in self.names):
            raise ContractError(f"class names must be a sequence of strings, got {self.names!r}")
        normed = tuple(_norm_name(n) for n in self.names)
        if not normed:
            raise ContractError("a class vocabulary needs at least one name")
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


def proposal_arrays(points: Sequence, centers=None) -> tuple[list[np.ndarray], np.ndarray]:
    """The one rule of K proposals: K non-empty (I_i, 6) float64 point arrays
    (float64 input is not copied), every value within ±MAX_POINT_VALUE, and
    K x 3 bbox centers, derived or given and checked.  A K x I x 6 float64
    block is checked and its centers derived in whole-array passes.  A
    fault raises `ContractError` naming its row; numpy raises on what it
    cannot convert."""
    block = (
        isinstance(points, np.ndarray)
        and points.dtype == np.float64
        and points.ndim == 3
        and 0 not in points.shape
        and points.shape[2] == 6
    )
    if block:
        flat, points = points, list(points)
    else:  # row by row, so a fault names its row
        points = [np.asarray(p, dtype=np.float64) for p in points]
        bad = [i for i, p in enumerate(points) if p.ndim != 2 or p.shape[1] != 6 or not len(p)]
        if bad:
            shape = points[bad[0]].shape
            raise ContractError(f"proposal {bad[0]}: points must be non-empty Ix6, got {shape}")
        flat = np.concatenate(points)
    # One pass over all six columns; the bound is false for NaN and inf too.
    if not (np.abs(flat) <= MAX_POINT_VALUE).all():
        i = next(i for i, p in enumerate(points) if not (np.abs(p) <= MAX_POINT_VALUE).all())
        raise ContractError(
            f"proposal {i}: points must be finite in x, y, z, r, g and b, "
            f"within ±{MAX_POINT_VALUE:g}"
        )
    if block:
        xyz = flat[:, :, :3]
        lo, hi = xyz.min(axis=1), xyz.max(axis=1)
    else:
        starts = list(accumulate((len(p) for p in points[:-1]), initial=0))
        lo = np.minimum.reduceat(flat[:, :3], starts)
        hi = np.maximum.reduceat(flat[:, :3], starts)
    derived = (lo + hi) / 2.0
    if centers is None:
        return points, derived
    k = len(points)
    try:
        stored = np.asarray(centers, dtype=np.float64)
    except (TypeError, ValueError):
        stored = None
    if stored is None or stored.shape != (k, 3) or not np.isfinite(stored).all():
        raise ContractError(f"stored centers must be {k} rows of three finite numbers: {centers!r}")
    # np.allclose(stored, derived, atol=1e-9) on finite values, without
    # its wrappers: this runs on every record read.
    close = np.abs(stored - derived) <= 1e-9 + 1e-5 * np.abs(derived)
    if not close.all():
        i = close.all(axis=1).argmin()
        raise ContractError(f"proposal {i}: stored center disagrees with bbox center of points")
    return points, stored


@dataclass
class Scene:
    """K proposals sharing one class vocabulary; row i of each array is proposal i.

    `points` is K arrays of shape (I_i, 6) with columns x, y, z, r, g, b
    (a K x I x 6 block qualifies).  Row i of `centers` (K x 3) is the
    midpoint of the axis-aligned bounding box of proposal i's xyz columns:
    derived when not given, and given centers must equal it.
    """

    class_ids: np.ndarray  # (K,) ints into `vocab`
    points: Sequence[np.ndarray] = field(repr=False)
    vocab: ClassVocab
    scene_id: str = ""
    centers: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        ids = np.asarray(self.class_ids)
        if ids.ndim != 1 or not ids.size:
            raise ContractError(f"a scene needs a 1-D array of class ids, got shape {ids.shape}")
        if ids.dtype.kind not in "iu":
            raise ContractError(f"class ids must be integers, got {ids.dtype}")
        bad = [i for i, c in enumerate(ids.tolist()) if not 0 <= c < len(self.vocab)]
        if bad:
            raise ContractError(f"proposal {bad[0]} has class id outside the vocabulary")
        if len(self.points) != ids.size:
            raise ContractError(f"{ids.size} class ids but {len(self.points)} point arrays")
        self.class_ids = ids
        self.points, self.centers = proposal_arrays(self.points, self.centers)

    def __len__(self) -> int:
        return len(self.class_ids)

    @classmethod
    def _of_checked(cls, class_ids, points, vocab, scene_id, centers) -> "Scene":
        """A scene of arrays that already passed this class's checks, taken
        as they are: checking them again would cost more than the copy."""
        scene = cls.__new__(cls)
        scene.class_ids, scene.points, scene.vocab = class_ids, points, vocab
        scene.scene_id, scene.centers = scene_id, centers
        return scene

    def take(self, rows: Sequence[int]) -> "Scene":
        """The proposals at `rows`, integers in 0..K-1, in that order,
        renumbered 0..len(rows)-1."""
        idx = np.asarray(rows)
        if idx.ndim != 1 or not idx.size or idx.dtype.kind not in "iu":
            raise ContractError(f"rows must be a non-empty list of integers, got {rows!r}")
        if idx.min() < 0 or idx.max() >= len(self):
            raise ContractError(f"rows must lie in 0..{len(self) - 1}, got {rows!r}")
        return Scene._of_checked(
            self.class_ids[idx],
            [self.points[i] for i in idx.tolist()],
            self.vocab,
            self.scene_id,
            self.centers[idx],
        )


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
    reach = np.array([last.get(c, -1) for c in np.asarray(labels).tolist()], dtype=np.intp)
    return (reach[:, None] >= np.arange(len(order))).astype(np.float64)


def relation_select(scene: Scene, class_id: int, ref_center: np.ndarray, relation: str) -> int:
    """The id of the farthest/nearest proposal of a class from a reference point.

    Exact distance ties are broken by the lowest proposal id, which keeps
    the choice deterministic.
    """
    if relation not in RELATIONS:
        raise ContractError(f"relation must be one of {RELATIONS}, got {relation!r}")
    ref = np.asarray(ref_center, dtype=np.float64).reshape(3)
    candidates = np.flatnonzero(scene.class_ids == class_id)
    if not candidates.size:
        raise NotFoundError(f"no proposal of class id {class_id} in scene")
    dists = np.sqrt(((scene.centers[candidates] - ref) ** 2).sum(axis=1))
    # argmax/argmin return the first extremal index; candidates are in
    # ascending id order, so ties resolve to the lowest id.
    return int(candidates[dists.argmax() if relation == "farthest" else dists.argmin()])


def permute_scene(scene: Scene, perm: Sequence[int]) -> Scene:
    """Reorder proposals (new position i takes old proposal perm[i])."""
    if sorted(perm) != list(range(len(scene))):
        raise ContractError("perm must be a permutation of 0..K-1")
    return scene.take(perm)
