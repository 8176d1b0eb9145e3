"""Synthetic scene and warm-up sample generation with a ground-truth oracle.

Scenes are sampled so that all pairwise center distances are separated by
at least a configurable gap, which makes every farthest/nearest relation
chain uniquely resolvable.  A scene try is one array draw, and only the
try that passes the gap test becomes a `Scene`.  A warm-up sample pairs a
pruned scene (its rows selected with `Scene.take`) with a templated
description whose class-name appearance order equals the referential
order, target last.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import AmbiguityError, ContractError, GenerationError, SkipSample, check_field_types
from .scene import MAX_POINTS_PER_PROPOSAL, RELATIONS, ClassVocab, Scene, relation_select, tokenize

__all__ = [
    "DEFAULT_CLASS_NAMES",
    "TEMPLATE_WORDS",
    "GenConfig",
    "WarmupSample",
    "default_vocab",
    "sample_scene",
    "synth_warmup_sample",
    "render_description",
    "oracle_resolve",
    "resolve_chain",
    "sample_at",
    "generate_dataset",
]

# Desk-scale stand-ins for indoor object detector classes.  Multi-word
# names are deliberate: they exercise longest-match order parsing.
DEFAULT_CLASS_NAMES = (
    "armchair",
    "backpack",
    "bed",
    "bookshelf",
    "cabinet",
    "chair",
    "clock",
    "couch",
    "desk",
    "desk lamp",
    "door",
    "dresser",
    "easy chair",
    "lamp",
    "laptop",
    "monitor",
    "nightstand",
    "pillow",
    "plant",
    "printer",
    "table",
    "trash can",
    "water bottle",
    "window",
)

TIE_TOLERANCE = 1e-9
SAMPLE_TRIES = 100  # scenes `sample_at` draws for one slot before giving up
# `default_vocab` names every class and the model's class head has a row
# for each, so a mistyped size past this would spend minutes naming classes.
MAX_CLASS_VOCAB = 4096


@dataclass(frozen=True)
class GenConfig:
    """Knobs for the scene sampler and warm-up synthesizer."""

    proposals_min: int = 5
    proposals_max: int = 9
    points_per_proposal: int = 16
    room_extent: float = 6.0
    class_vocab_size: int = 12
    order_len: int = 4
    relation: str = "farthest"
    min_separation: float = 0.01
    seed: int = 0
    # "natural" renders each sample through a randomly chosen reworded
    # template with a random relation, standing in for human descriptions.
    style: str = "template"

    def __post_init__(self):
        check_field_types(self)
        if self.proposals_min < 1 or self.proposals_max < self.proposals_min:
            raise ContractError("need 1 <= proposals_min <= proposals_max")
        if self.order_len < 2:
            raise ContractError("order_len must be at least 2")
        for name, most in (
            ("points_per_proposal", MAX_POINTS_PER_PROPOSAL),
            ("class_vocab_size", MAX_CLASS_VOCAB),
        ):
            if not 1 <= getattr(self, name) <= most:
                raise ContractError(f"{name} must lie in 1..{most}, got {getattr(self, name)}")
        room = min(self.class_vocab_size, self.proposals_max)
        if self.order_len > room:
            raise ContractError(
                f"order_len {self.order_len} needs as many distinct classes in one scene; "
                f"class_vocab_size {self.class_vocab_size} and proposals_max "
                f"{self.proposals_max} allow {room}"
            )
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")
        if self.relation not in RELATIONS:
            raise ContractError(f"unknown relation {self.relation!r}")
        if self.style not in ("template", "natural"):
            raise ContractError(f"unknown style {self.style!r}")
        for name in ("room_extent", "min_separation"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ContractError(f"{name} must be finite and positive, got {value}")


@dataclass
class WarmupSample:
    """A pruned scene plus its templated description and resolved chain."""

    scene: Scene
    description: str
    order: list[str]  # class names, target last
    anchor_target_ids: list[int]  # proposal ids along the chain, target last
    relation: str

    @property
    def target_id(self) -> int:
        return self.anchor_target_ids[-1]


# A ClassVocab is frozen, so one instance per size can serve every caller.
@functools.lru_cache(maxsize=16)
def default_vocab(size: int) -> ClassVocab:
    if size < 1:
        raise ContractError("vocabulary size must be positive")
    names = list(DEFAULT_CLASS_NAMES[:size])
    for i in range(len(names), size):
        names.append(f"object {i}")
    return ClassVocab(tuple(names))


def _class_color(class_id: int) -> np.ndarray:
    return np.random.default_rng(10_000 + class_id).uniform(0.1, 0.9, size=3)


@functools.lru_cache(maxsize=16)
def _color_table(num_classes: int) -> np.ndarray:
    """Row c is `_class_color(c)`; read-only, since every scene shares it."""
    table = np.array([_class_color(c) for c in range(num_classes)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _upper_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    return np.triu_indices(k, 1)


def _pairwise_gaps_ok(centers: np.ndarray, min_sep: float) -> bool:
    """True iff all pairwise center distances differ by >= min_sep."""
    k = centers.shape[0]
    if k < 2:
        return True
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    flat = np.sort(dists[_upper_pairs(k)])
    if flat.size < 2:
        return True
    return bool((np.diff(flat) >= min_sep).all())


def sample_scene(cfg: GenConfig, rng: np.random.Generator, budget: int = 1000) -> Scene:
    """Rejection-sample a scene whose relation chains cannot tie.

    The gap condition is checked on realized bbox centers (the centers the
    rest of the pipeline sees), not on the nominal draws, and it runs on
    arrays before any proposal is built, so a rejected try builds none.
    """
    vocab = default_vocab(cfg.class_vocab_size)
    colors = _color_table(len(vocab))
    n_points = cfg.points_per_proposal
    for _ in range(budget):
        k = int(rng.integers(cfg.proposals_min, cfg.proposals_max + 1))
        classes = rng.integers(0, len(vocab), size=k)
        # Row pid holds one proposal's draws in stream order: 3 for its
        # nominal center, 3 for its half extents, then 3P for its point
        # offsets.  Each block is mapped as `Generator.uniform` maps a draw,
        # low + (high - low) * u, so the values are bit for bit those of
        # per-proposal `uniform` calls on the same stream.
        u = rng.random((k, 6 + 3 * n_points))
        nominal = 0.0 + (cfg.room_extent - 0.0) * u[:, :3]
        half = 0.05 + (0.3 - 0.05) * u[:, 3:6]
        low, high = -half[:, None, :], half[:, None, :]
        xyz = nominal[:, None, :] + (low + (high - low) * u[:, 6:].reshape(k, n_points, 3))
        centers = (xyz.min(axis=1) + xyz.max(axis=1)) / 2.0
        if not _pairwise_gaps_ok(centers, cfg.min_separation):
            continue
        points = np.empty((k, n_points, 6))
        points[:, :, :3] = xyz
        points[:, :, 3:] = colors[classes][:, None, :]
        return Scene(classes, points, vocab)
    raise GenerationError(
        f"no scene met the {cfg.min_separation} distance-gap condition in "
        f"{budget} tries; lower min_separation or enlarge the room"
    )


# ---------------------------------------------------------------------------
# description templates

# Canonical chained template.  Clause layout by order length B:
#   B=2: opener + final clause referencing O1 directly
#   B>=3: opener + "find the O2 ... to it" + chained clauses + final clause
def render_description(order: list[str], relation: str) -> str:
    if relation not in RELATIONS:
        raise ContractError(f"unknown relation {relation!r}")
    if len(order) < 2:
        raise ContractError("the template needs at least two order elements")
    clauses = [f"There is a {order[0]} in the room"]
    if len(order) >= 3:
        clauses.append(f"find the {order[1]} {relation} to it")
        for j in range(2, len(order) - 1):
            clauses.append(f"and then find the {order[j]} {relation} to that {order[j - 1]}")
    clauses.append(f"finally you can see the {order[-1]} {relation} to that {order[-2]}")
    return ", ".join(clauses) + "."


# Reworded variants for "natural" style data.  Each keeps the class-name
# first-appearance order equal to the referential order and keeps the
# relation word verbatim, so rule parsing and verification still apply.
def _variant_1(order: list[str], relation: str) -> str:
    clauses = [f"In the room you can find a {order[0]}"]
    for j in range(1, len(order) - 1):
        prev = "it" if j == 1 else f"that {order[j - 1]}"
        clauses.append(f"locate the {order[j]} {relation} to {prev}")
    prev = "it" if len(order) == 2 else f"that {order[-2]}"
    clauses.append(f"the {order[-1]} {relation} to {prev} is the one you want")
    return ", ".join(clauses) + "."


def _variant_2(order: list[str], relation: str) -> str:
    clauses = [f"A {order[0]} sits somewhere in this room"]
    for j in range(1, len(order) - 1):
        prev = "it" if j == 1 else f"the {order[j - 1]}"
        clauses.append(f"from {prev} go to the {order[j]} {relation} away")
    prev = "it" if len(order) == 2 else f"the {order[-2]}"
    clauses.append(f"you are looking for the {order[-1]} {relation} from {prev}")
    return ", ".join(clauses) + "."


def _variant_3(order: list[str], relation: str) -> str:
    clauses = [f"Start at the {order[0]}"]
    for j in range(1, len(order) - 1):
        clauses.append(f"then move to the {order[j]} {relation} from there")
    clauses.append(f"pick the {order[-1]} {relation} from where you stand")
    return ", ".join(clauses) + "."


_NATURAL_VARIANTS = (_variant_1, _variant_2, _variant_3)


def _collect_template_words() -> tuple[str, ...]:
    probe = ["alpha", "beta", "gamma", "delta"]
    texts = [render_description(probe, r) for r in RELATIONS]
    for fn in _NATURAL_VARIANTS:
        for r in RELATIONS:
            texts.append(fn(probe, r))
    words = set()
    for t in texts:
        words.update(tokenize(t))
    words -= set(probe)
    return tuple(sorted(words))


TEMPLATE_WORDS = _collect_template_words()


# ---------------------------------------------------------------------------
# warm-up sample synthesis


def synth_warmup_sample(
    scene: Scene,
    order_len: int,
    relation: str,
    rng: np.random.Generator,
    style: str = "template",
) -> WarmupSample:
    """Draw an order, prune the scene, resolve the chain, render the text.

    Raises SkipSample when the scene has fewer distinct classes than the
    requested order length.
    """
    distinct = sorted(set(scene.class_ids.tolist()))
    if len(distinct) < order_len:
        raise SkipSample(
            f"scene has {len(distinct)} distinct classes, order needs {order_len}"
        )
    order_ids = [int(c) for c in rng.choice(distinct, size=order_len, replace=False)]

    # Keep exactly one proposal of the first class so the chain has an
    # unambiguous starting point.
    keep = scene.class_ids != order_ids[0]
    survivor = int(rng.choice(np.flatnonzero(~keep)))
    keep[survivor] = True
    pruned = scene.take(np.flatnonzero(keep))

    chain = resolve_chain(pruned, order_ids, relation)
    order_names = [scene.vocab.name(c) for c in order_ids]
    if style == "natural":
        renderer = _NATURAL_VARIANTS[int(rng.integers(0, len(_NATURAL_VARIANTS)))]
        description = renderer(order_names, relation)
    else:
        description = render_description(order_names, relation)
    return WarmupSample(
        scene=pruned,
        description=description,
        order=order_names,
        anchor_target_ids=chain,
        relation=relation,
    )


def resolve_chain(scene: Scene, order_ids: list[int], relation: str) -> list[int]:
    """Follow the relation chain; requires a unique first-class proposal."""
    first = np.flatnonzero(scene.class_ids == order_ids[0])
    if len(first) != 1:
        raise ContractError(
            f"chain start needs exactly one proposal of class {order_ids[0]}, found {len(first)}"
        )
    chain = [int(first[0])]
    for class_id in order_ids[1:]:
        chain.append(relation_select(scene, class_id, scene.centers[chain[-1]], relation))
    return chain


def oracle_resolve(sample: WarmupSample) -> list[int]:
    """Re-derive the chain with exhaustive scalar scans, rejecting ties.

    Independent of relation_select: plain python loops, explicit tie
    detection within TIE_TOLERANCE.
    """
    return oracle_resolve_parts(sample.scene, sample.order, sample.relation)


def oracle_resolve_parts(scene: Scene, order: list[str], relation: str) -> list[int]:
    order_ids = [scene.vocab.index(n) for n in order]
    labels, centers = scene.class_ids.tolist(), scene.centers.tolist()
    first = [pid for pid, c in enumerate(labels) if c == order_ids[0]]
    if len(first) != 1:
        raise AmbiguityError(
            f"expected exactly one proposal of class {order[0]!r}, found {len(first)}"
        )
    chain = first
    for class_id in order_ids[1:]:
        ref = centers[chain[-1]]
        best_id, best_d = None, None
        tie = False
        for pid, (c, center) in enumerate(zip(labels, centers)):
            if c != class_id:
                continue
            d = math.sqrt(sum((a - b) ** 2 for a, b in zip(center, ref)))
            if best_d is None:
                best_id, best_d = pid, d
                continue
            if abs(d - best_d) <= TIE_TOLERANCE:
                tie = True
                continue
            if (relation == "farthest" and d > best_d) or (
                relation == "nearest" and d < best_d
            ):
                best_id, best_d, tie = pid, d, False
        if best_id is None:
            raise AmbiguityError(f"no proposal of class id {class_id} in scene")
        if tie:
            raise AmbiguityError(
                f"distance tie within {TIE_TOLERANCE} while resolving class id {class_id}"
            )
        chain.append(best_id)
    return chain


def sample_at(cfg: GenConfig, index: int) -> WarmupSample:
    """Draw the sample for one slot, retrying scenes that cannot host it.

    The slot's rng is seeded by (cfg.seed, index), so any slot can be
    reproduced without generating its predecessors.
    """
    rng = np.random.default_rng((cfg.seed, index))
    relation = cfg.relation
    if cfg.style == "natural":
        relation = RELATIONS[int(rng.integers(0, len(RELATIONS)))]
    for _ in range(SAMPLE_TRIES):
        scene = sample_scene(cfg, rng)
        scene.scene_id = f"scene-{cfg.seed}-{index}"
        try:
            return synth_warmup_sample(
                scene, cfg.order_len, relation, rng, style=cfg.style
            )
        except SkipSample:
            continue
    raise GenerationError(
        f"could not draw a scene with {cfg.order_len} distinct classes "
        f"in {SAMPLE_TRIES} tries; widen the proposal range or the vocabulary"
    )


def generate_dataset(cfg: GenConfig, num_samples: int) -> Iterator[WarmupSample]:
    """Warm-up samples 0 .. num_samples - 1, each from its own derived seed,
    drawn as the iterator is read; a negative count is refused at the call."""
    if num_samples < 0:
        raise ContractError(f"sample count must be non-negative, got {num_samples}")
    return (sample_at(cfg, idx) for idx in range(num_samples))
