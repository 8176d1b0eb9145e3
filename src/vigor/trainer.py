"""Two-stage optimization: synthetic warm-up, then fine-tuning.

The warm-up stage synthesizes its batches on the fly and supervises every
block (anchors, masks, offsets, text class).  The main stage reads stored
samples, obtains referential orders through a pluggable parser, and
supervises the target only: reference, mask, and text losses, never the
coordinate term.  A head is built when a loss first reads it, so what a
stage's loss reads is all of the heads its step builds.

Each optimizer step packs its batch into one graph: one forward through
`GroundingModel.forward_batch`, one call of each loss over the packed rows
(each loss sums its per-sample values), one `compose`, one backward.

Checkpoints hold the finalized config, both vocabularies, parameters,
optimizer moments, step counters, and the training rng state, so a resumed
run continues bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import CheckpointError, ContractError, NumericError, check_field_types
from .losses import LossBreakdown, LossWeights, compose
from .losses import loss_crd, loss_mask, loss_ref, loss_text
from .model import GroundingModel, HeadOutputs, ModelConfig, WordVocab, param_layout
from .orderparse import order_names, trim_pad
from .scene import ClassVocab, Scene
from .synthgen import GenConfig, sample_at
from .tensor import AdamState, FlatParams, GradCheckReport, adam_step, backward, grad_check

__all__ = [
    "TrainConfig",
    "TrainState",
    "StageReport",
    "Checkpoint",
    "warmup_stage",
    "main_stage",
    "save_checkpoint",
    "load_checkpoint",
    "model_from_checkpoint",
    "full_model_grad_check",
    "moving_average",
]

CHECKPOINT_MAGIC = b"VGRC"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class TrainConfig:
    warmup_steps: int = 0
    main_steps: int = 0
    batch_size: int = 16
    lr: float = 1e-3
    seed: int = 0
    weights: LossWeights = field(default_factory=LossWeights)
    eval_every: int = 0  # 0 disables the callback
    label_noise: float = 0.0  # per-proposal chance of a corrupted class label

    def __post_init__(self):
        check_field_types(self)
        if min(self.warmup_steps, self.main_steps, self.eval_every, self.seed) < 0:
            raise ContractError("step counts, eval_every and seed cannot be negative")
        if self.batch_size < 1:
            raise ContractError("batch size must be at least 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ContractError(f"learning rate must be finite and positive, got {self.lr}")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ContractError("label noise is a probability")


@dataclass
class TrainState:
    adam: AdamState
    rng: np.random.Generator
    warmup_done: int = 0
    main_done: int = 0

    @classmethod
    def fresh(cls, seed: int) -> "TrainState":
        return cls(adam=AdamState(), rng=np.random.default_rng(seed))


@dataclass
class StageReport:
    stage: str
    losses: list[float]  # per-step batch means


def moving_average(xs: Sequence[float], window: int) -> list[float]:
    if window < 1 or window > len(xs):
        raise ContractError("window must fit inside the series")
    sums = np.cumsum([0.0, *xs])
    return list((sums[window:] - sums[:-window]) / window)


def _maybe_noisy_labels(scene: Scene, noise: float, rng: np.random.Generator) -> np.ndarray:
    labels = scene.class_ids
    if noise <= 0.0:
        return labels
    flips = rng.random(len(labels)) < noise
    draws = rng.integers(0, len(scene.vocab), size=len(labels))
    return np.where(flips, draws, labels)


def _target_classes(items: Sequence) -> list[int]:
    return [item.scene.class_ids[item.target_id] for item in items]


def _warmup_loss(
    out: HeadOutputs, samples: Sequence, weights: LossWeights = LossWeights()
) -> LossBreakdown:
    """Every block supervised: anchors, masks, sentence class, offsets."""
    ids = [s.anchor_target_ids for s in samples]
    centers = np.concatenate([s.scene.centers for s in samples])
    return compose(
        loss_ref(out.block_scores, ids, out.segments),
        loss_mask(out.mask_logits, out.masks, out.segments),
        loss_text(out.text_class_logits, _target_classes(samples)),
        loss_crd(out.coord_pred, centers, ids, out.segments),
        weights=weights,
    )


def _main_loss(out: HeadOutputs, items: Sequence, weights: LossWeights) -> LossBreakdown:
    """Target only: reference, mask, and sentence class; no offsets."""
    return compose(
        loss_ref(out.scores, [[it.target_id] for it in items], out.segments),
        loss_mask(out.mask_logits, out.masks, out.segments),
        loss_text(out.text_class_logits, _target_classes(items)),
        weights=weights,
    )


def _train_step(
    model: GroundingModel,
    state: TrainState,
    train_cfg: TrainConfig,
    stage: str,
    step: int,
    batch: Sequence[tuple[object, Sequence[str]]],
    batch_loss: Callable[[HeadOutputs, Sequence, LossWeights], LossBreakdown],
) -> float:
    """One optimizer step over (item, order) pairs; returns the batch mean loss.

    The batch runs as one packed graph: one forward, one loss whose total
    is the sum of the samples' totals, one backward.  Label noise is drawn
    from `state.rng` per sample, in batch order.  A non-finite loss or
    gradient raises before the update, leaving the parameters, Adam's
    moments and its step count as they were (a first step may have
    allocated the moments, as zeros).
    """
    # Allocated before the step's graph rather than inside adam_step, so on
    # a first step the two parameter-sized vectors do not land above the
    # graph's memory, which would keep it from being returned (peak RSS).
    state.adam.moments(model.params)
    leaves = model.trainable()
    items = [item for item, _ in batch]
    labels = [_maybe_noisy_labels(item.scene, train_cfg.label_noise, state.rng) for item in items]
    out = model.forward_batch(
        [item.scene for item in items],
        [order for _, order in batch],
        [item.description for item in items],
        params=leaves,
        labels=labels,
    )
    batch_total = batch_loss(out, items, train_cfg.weights).total
    grads = backward(batch_total, leaves)
    loss = batch_total.item()
    # nan passes LossBreakdown's nonnegativity check (nan < 0 is False), so
    # this is the last stop before Adam writes it into the parameters.  The
    # gradients are concatenated in the parameter vector's order, so one
    # scan checks them all and Adam updates the whole vector at once.
    flat = np.concatenate([g.reshape(-1) for g in grads.values()])
    if not (np.isfinite(flat).all() and np.isfinite(loss)):
        bad = next((name for name, g in grads.items() if not np.isfinite(g).all()), None)
        what = f"gradient for parameter {bad}" if bad else f"loss {loss}"
        raise NumericError(f"{stage} step {step}: non-finite {what}")
    adam_step(model.params, flat, state.adam, lr=train_cfg.lr)
    return loss / train_cfg.batch_size


def warmup_stage(
    model: GroundingModel,
    gen_cfg: GenConfig,
    train_cfg: TrainConfig,
    state: TrainState | None = None,
    on_eval: Callable[[int, GroundingModel], None] | None = None,
) -> tuple[StageReport, TrainState]:
    """Optimize on freshly synthesized samples; supervises every block."""
    if gen_cfg.order_len != model.cfg.b:
        raise ContractError(
            f"generator order length {gen_cfg.order_len} != model blocks {model.cfg.b}"
        )
    state = state if state is not None else TrainState.fresh(train_cfg.seed)
    losses: list[float] = []
    for _ in range(train_cfg.warmup_steps):
        base = state.warmup_done * train_cfg.batch_size
        samples = [sample_at(gen_cfg, base + j) for j in range(train_cfg.batch_size)]
        batch = [(s, s.order) for s in samples]
        losses.append(
            _train_step(model, state, train_cfg, "warmup", state.warmup_done + 1, batch, _warmup_loss)
        )
        state.warmup_done += 1
        if on_eval and train_cfg.eval_every and state.warmup_done % train_cfg.eval_every == 0:
            on_eval(state.warmup_done, model)
    return StageReport(stage="warmup", losses=losses), state


def main_stage(
    model: GroundingModel,
    dataset: Sequence,
    train_cfg: TrainConfig,
    parser: Callable[[str], Sequence[str]],
    state: TrainState | None = None,
    on_eval: Callable[[int, GroundingModel], None] | None = None,
) -> tuple[StageReport, TrainState]:
    """Fine-tune on stored samples; supervises the target only.

    `dataset` items carry a scene, a description, and a `target_id`.
    `parser` maps a description to an order (class names, target last);
    results are normalized to the model's block count with trim_pad and
    cached, so each description is parsed once.
    """
    if not dataset:
        raise ContractError("main stage needs a nonempty dataset")
    state = state if state is not None else TrainState.fresh(train_cfg.seed)
    orders = [trim_pad(order_names(parser(item.description)), model.cfg.b) for item in dataset]
    losses: list[float] = []
    for _ in range(train_cfg.main_steps):
        picks = state.rng.integers(0, len(dataset), size=train_cfg.batch_size)
        batch = [(dataset[int(i)], orders[int(i)]) for i in picks]
        losses.append(
            _train_step(model, state, train_cfg, "main", state.main_done + 1, batch, _main_loss)
        )
        state.main_done += 1
        if on_eval and train_cfg.eval_every and state.main_done % train_cfg.eval_every == 0:
            on_eval(state.main_done, model)
    return StageReport(stage="main", losses=losses), state


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    cfg: ModelConfig
    class_vocab: ClassVocab
    word_vocab: WordVocab
    params: FlatParams
    adam_m: Mapping[str, np.ndarray]  # FlatParams once adam_t > 0, else {}
    adam_v: Mapping[str, np.ndarray]
    adam_t: int
    rng_state: dict
    warmup_done: int
    main_done: int


def _bytes_left(f) -> int:
    return os.fstat(f.fileno()).st_size - f.tell()


def _check_left(f, n: int) -> None:
    # A length is checked against the bytes left before reading, so a
    # corrupt header cannot ask for more memory than the file holds.
    left = _bytes_left(f)
    if n > left:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, {left} left")


def _read_exact(f, n: int) -> bytes:
    _check_left(f, n)
    data = f.read(n)
    if len(data) != n:
        raise CheckpointError(f"truncated checkpoint: wanted {n} bytes, got {len(data)}")
    return data


def _read_group(
    f, layout: list[tuple[str, tuple[int, int]]], size: int, group: str
) -> FlatParams:
    """Read one group of `size` `<f8` values straight into its vector, and
    refuse it if any entry is not finite."""
    _check_left(f, 8 * size)
    vector = np.empty(size, dtype="<f8")
    if f.readinto(vector) != 8 * size:
        raise CheckpointError(f"truncated checkpoint: wanted {8 * size} bytes")
    arrays = FlatParams(layout, vector.astype(np.float64, copy=False))
    if not np.isfinite(arrays.vector).all():
        name = next(name for name, a in arrays.items() if not np.isfinite(a).all())
        raise CheckpointError(f"non-finite entry in the {group} group, first in {name}")
    return arrays


def _strings(header: dict, key: str) -> tuple[str, ...]:
    value = header[key]
    if type(value) is not list or any(type(s) is not str for s in value):
        raise CheckpointError(f"header {key} must be a list of strings, got {value!r}")
    return tuple(value)


def _count(header: dict, key: str) -> int:
    value = header[key]
    # type(), not isinstance: a bool is an int subclass but no valid count.
    if type(value) is not int or value < 0:
        raise CheckpointError(f"header {key} must be a non-negative integer, got {value!r}")
    return value


def save_checkpoint(path, model: GroundingModel, state: TrainState) -> None:
    """Write magic, version, a JSON header, then the parameters' vector as
    raw `<f8` (`param_layout` order), followed by Adam's m and v vectors
    once the optimizer has stepped (`adam_t > 0`)."""
    header = {
        "model": asdict(model.cfg),
        "class_names": list(model.class_vocab.names),
        "word_tokens": list(model.word_vocab.tokens),
        "adam_t": state.adam.t,
        "rng_state": state.rng.bit_generator.state,
        "warmup_done": state.warmup_done,
        "main_done": state.main_done,
    }
    blob = json.dumps(header).encode("utf-8")
    groups = (model.params, state.adam.m, state.adam.v) if state.adam.t else (model.params,)
    # Written beside the target and renamed over it, so a failed save
    # leaves any checkpoint already at `path` as it was.
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            # Field by field, as load_checkpoint reads them.
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(struct.pack("<Q", len(blob)))
            f.write(blob)
            for group in groups:
                f.write(group.vector.astype("<f8", copy=False))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path, expect: ModelConfig | None = None) -> Checkpoint:
    """Read a checkpoint; its header's config implies every array's shape.

    The header's vocabularies are built here, so a malformed one fails as
    a `CheckpointError`.  The layout is walked lazily and checked against
    the bytes left, so a corrupt config (a huge `b` or `d`) costs no more
    than the file.  Each group (the parameters, then Adam's m and v once
    `adam_t > 0`) is read in one call straight into its own vector, and
    the returned `params`, `adam_m` and `adam_v` are `FlatParams` views of
    those vectors.  A config that does not match the file shows as
    truncation or as trailing bytes, and a NaN or an infinity in any group
    is refused by group and parameter name.
    """
    with open(path, "rb") as f:
        if _read_exact(f, 4) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a checkpoint file (bad magic)")
        (version,) = struct.unpack("<I", _read_exact(f, 4))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {version} unsupported (expected {CHECKPOINT_VERSION})"
            )
        (hlen,) = struct.unpack("<Q", _read_exact(f, 8))
        try:
            header = json.loads(_read_exact(f, hlen).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
        try:
            # model_from_checkpoint restores this state; try it here so a
            # bad one fails as a CheckpointError.
            np.random.default_rng(0).bit_generator.state = header["rng_state"]
            cfg = ModelConfig(**header["model"])
            class_vocab = ClassVocab(_strings(header, "class_names"))
            word_vocab = WordVocab(_strings(header, "word_tokens"))
            adam_t = _count(header, "adam_t")
            warmup_done = _count(header, "warmup_done")
            main_done = _count(header, "main_done")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
        cfg = replace(cfg, word_vocab_size=len(word_vocab), class_vocab_size=len(class_vocab))
        # The layout is walked lazily and given up as soon as the parameters
        # alone outgrow the file, so a huge `b` or `d` costs no more than
        # the bytes in it.  Python ints: np.prod wraps around on a huge shape.
        left = _bytes_left(f)
        layout, size = [], 0
        try:
            for name, shape, _ in param_layout(cfg):
                size += math.prod(shape)
                if 8 * size > left:
                    raise CheckpointError(
                        f"truncated checkpoint: the config needs over {left} bytes"
                    )
                layout.append((name, shape))
        except OverflowError as exc:  # d**-0.5 of a `d` past float range
            raise CheckpointError(f"malformed checkpoint header: {exc!r}") from exc
        params = _read_group(f, layout, size, "parameters")
        adam_m = adam_v = {}
        if adam_t:
            adam_m = _read_group(f, layout, size, "Adam m")
            adam_v = _read_group(f, layout, size, "Adam v")
        if f.read(1):
            raise CheckpointError("trailing bytes after the arrays the header's config implies")
    if expect is not None:
        for name in ("d", "b", "n_heads", "points_per_proposal"):
            got, want = getattr(cfg, name), getattr(expect, name)
            if got != want:
                raise CheckpointError(
                    f"checkpoint {name}={got} does not match requested {name}={want}"
                )
    return Checkpoint(
        cfg=cfg,
        class_vocab=class_vocab,
        word_vocab=word_vocab,
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_t=adam_t,
        rng_state=header["rng_state"],
        warmup_done=warmup_done,
        main_done=main_done,
    )


def model_from_checkpoint(ckpt: Checkpoint) -> tuple[GroundingModel, TrainState]:
    # The model and the state adopt the checkpoint's vectors: no copy.
    model = GroundingModel(ckpt.cfg, ckpt.class_vocab, ckpt.word_vocab, params=ckpt.params)
    rng = np.random.default_rng(0)
    rng.bit_generator.state = ckpt.rng_state
    state = TrainState(
        adam=AdamState(m=ckpt.adam_m, v=ckpt.adam_v, t=ckpt.adam_t),
        rng=rng,
        warmup_done=ckpt.warmup_done,
        main_done=ckpt.main_done,
    )
    return model, state


# ---------------------------------------------------------------------------
# whole-network gradient audit


def full_model_grad_check(seed: int = 0) -> GradCheckReport:
    """Finite-difference audit of every parameter on one warm-up sample.

    Small widths keep the parameter count tractable: d=8, two blocks,
    five proposals.
    """
    gen_cfg = GenConfig(
        proposals_min=5,
        proposals_max=5,
        points_per_proposal=8,
        class_vocab_size=6,
        order_len=2,
        seed=seed,
    )
    sample = sample_at(gen_cfg, 0)
    cfg = ModelConfig(d=8, b=2, n_heads=2, points_per_proposal=8, seed=seed)
    model = GroundingModel(cfg, sample.scene.vocab)

    def loss_fn(p):
        out = model.forward(sample.scene, sample.order, sample.description, params=p)
        return _warmup_loss(out, [sample]).total

    return grad_check(loss_fn, model.params)
