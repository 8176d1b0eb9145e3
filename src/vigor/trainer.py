"""Two-stage optimization: synthetic warm-up, then fine-tuning.

The warm-up stage synthesizes its batches on the fly and supervises every
block (anchors, masks, offsets, text class).  The main stage reads stored
samples, obtains referential orders through a pluggable parser, and
supervises the target only: reference, mask, and text losses, never the
coordinate term.  A head is built when a loss first reads it, so what a
stage's loss reads is all of the heads its step builds.

Each optimizer step runs its batch as one graph.  `_pack_step` first
does all of the step's parameter-free work (`model.pack_batch`: fitted
orders, resampled points, class labels, token ids, attention layouts) and
keeps the ids the stage's step source passes it: each warm-up sample's
anchor chain, each main-stage item's target.  The step draws any label
noise and runs one forward through `GroundingModel.forward_packed`, which
builds the masks from the labels, one call of each loss over the packed
rows (each loss sums its per-sample values), one `compose` of the stage's
parts by name and one backward.
Both stages run their steps through one loop, which counts them and
calls `on_eval`.

Warm-up steps are synthesized and packed ahead of training by one worker
process, forked when the stage starts and pinned off the trainer's CPU,
which sends one packed step a message over a one-way pipe in step order;
the pipe's buffer bounds how far ahead it runs.  `sample_at` is a pure
function of the generator config and the index, and packing a pure
function of the samples, so the stream is bit for bit the one an
in-process loop builds, and an error raised drawing or packing a sample
is raised at that sample's step.  Without `os.fork` or
`os.sched_getaffinity`, with a CPU affinity of one, or with a cgroup CPU
quota below two CPUs, the same stream is built in-process.

Checkpoints hold the finalized config, both vocabularies, parameters,
optimizer moments, step counters, and the training rng state, so a resumed
run continues bit-exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import multiprocessing
import os
import signal
import struct
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CheckpointError, ContractError, GenerationError, NumericError
from .errors import check_field_types
from .losses import LossBreakdown, LossWeights, compose
from .losses import loss_crd, loss_mask, loss_ref, loss_text
from .model import GroundingModel, HeadOutputs, ModelConfig, PackedBatch, WordVocab
from .model import pack_batch, param_layout
from .orderparse import order_names
from .scene import ClassVocab
from .synthgen import GenConfig, check_samples, default_vocab, sample_at
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
CHECKPOINT_VERSION = 3


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
    # A bool is no window length, and neither is a float or a string.
    if type(window) is not int or not 1 <= window <= len(xs):
        raise ContractError(f"window must be an integer in 1..{len(xs)}, got {window!r}")
    sums = np.cumsum([0.0, *xs])
    return list((sums[window:] - sums[:-window]) / window)


def _maybe_noisy_labels(
    labels: np.ndarray, n_classes: int, noise: float, rng: np.random.Generator
) -> np.ndarray:
    """One sample's class ids, each replaced by a uniform draw from its
    `n_classes` with chance `noise`."""
    flips = rng.random(len(labels)) < noise
    draws = rng.integers(0, n_classes, size=len(labels))
    return np.where(flips, draws, labels)


@dataclass
class _Step:
    """One optimizer step's samples, packed: the forward's `PackedBatch`
    (its labels too) and the ids each sample supervises."""

    batch: PackedBatch
    targets: np.ndarray  # S x W supervised ids, each within its sample, target last


def _pack_step(
    items: Sequence, orders: Sequence, targets: Sequence, word_vocab: WordVocab, cfg: ModelConfig
) -> _Step:
    """Pack one step's items (each with a scene and a description), their
    orders (as `pack_batch` takes them) and the ids each item supervises
    (one list an item, the same length for all, target last), without
    parameters."""
    scenes, descriptions = [it.scene for it in items], [it.description for it in items]
    batch = pack_batch(scenes, orders, descriptions, word_vocab, cfg)
    return _Step(batch, np.array(targets, dtype=np.intp))


def _target_classes(step: _Step) -> np.ndarray:
    """Each sample's target class, as its scene labels it."""
    sizes = np.asarray(step.batch.sizes)
    return step.batch.labels[np.cumsum(sizes) - sizes + step.targets[:, -1]]


def _warmup_loss(
    out: HeadOutputs, step: _Step, weights: LossWeights = LossWeights()
) -> LossBreakdown:
    """Every block supervised: anchors, masks, sentence class, offsets."""
    return compose(
        {
            "ref": loss_ref(out.block_scores, step.targets, out.sizes),
            "mask": loss_mask(out.mask_logits, out.masks, out.sizes),
            "text": loss_text(out.text_class_logits, _target_classes(step)),
            "crd": loss_crd(out.coord_pred, step.batch.centers, step.targets, out.sizes),
        },
        weights,
    )


def _main_loss(out: HeadOutputs, step: _Step, weights: LossWeights) -> LossBreakdown:
    """Target only: reference, mask, and sentence class; no offsets."""
    return compose(
        {
            "ref": loss_ref(out.scores, step.targets, out.sizes),
            "mask": loss_mask(out.mask_logits, out.masks, out.sizes),
            "text": loss_text(out.text_class_logits, _target_classes(step)),
        },
        weights,
    )


def _train_step(
    model: GroundingModel,
    state: TrainState,
    train_cfg: TrainConfig,
    stage: str,
    step: int,
    packed: _Step,
    batch_loss: Callable[[HeadOutputs, _Step, LossWeights], LossBreakdown],
) -> float:
    """One optimizer step over a packed batch; returns the batch mean loss.

    The batch runs as one packed graph: one forward, one loss whose total
    is the sum of the samples' totals, one backward.  Label noise is drawn
    from `state.rng` per sample, in batch order, over the model's class
    vocabulary (the stages refuse labels of any other); the forward builds
    the masks from the noisy labels, or the batch's own without noise.  A
    non-finite loss or gradient raises before the update, leaving the
    parameters, Adam's moments and its step count as they were (a first
    step may have allocated the moments, as zeros).
    """
    # Allocated before the step's graph rather than inside adam_step, so on
    # a first step the two parameter-sized vectors do not land above the
    # graph's memory, which would keep it from being returned (peak RSS).
    state.adam.moments(model.params)
    leaves = model.params.leaves()
    batch, noise, labels = packed.batch, train_cfg.label_noise, None
    if noise > 0.0:
        n, rng = len(model.class_vocab), state.rng
        labels = np.concatenate(
            [_maybe_noisy_labels(ids, n, noise, rng) for ids in batch.by_sample(batch.labels)]
        )
    out = model.forward_packed(batch, labels, leaves)
    batch_total = batch_loss(out, packed, train_cfg.weights).total
    backward(batch_total)
    loss = batch_total.item()
    # nan passes LossBreakdown's nonnegativity check (nan < 0 is False), so
    # this is the last stop before Adam writes it into the parameters.  The
    # leaves' gradient buffers are views of one vector in the parameter
    # vector's order, so one scan checks them all and Adam updates the
    # whole vector at once.
    flat = model.params.grad
    if not (np.isfinite(flat).all() and np.isfinite(loss)):
        bad = next((name for name, t in leaves.items() if not np.isfinite(t.grad).all()), None)
        what = f"gradient for parameter {bad}" if bad else f"loss {loss}"
        raise NumericError(f"{stage} step {step}: non-finite {what}")
    adam_step(model.params, flat, state.adam, lr=train_cfg.lr)
    return loss / train_cfg.batch_size


def _current_cpu() -> int | None:
    """The CPU this process runs on now (field 39 of /proc/self/stat), or
    None where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as f:
            return int(f.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


# Where `_cpu_quota` reads the cgroup's CPU quota.
_CGROUP_ROOT = "/sys/fs/cgroup"


def _read_words(*parts: str) -> list[str]:
    with open(os.path.join(_CGROUP_ROOT, *parts)) as f:
        return f.read().split()


def _cpu_quota() -> float:
    """The CPUs this process's cgroup quota allows: cgroup v2 `cpu.max`,
    else v1 `cpu.cfs_quota_us` over `cpu.cfs_period_us`; inf without a
    quota or where neither can be read."""
    try:
        quota, period = _read_words("cpu.max")
    except (OSError, ValueError):
        try:
            (quota,), (period,) = (
                _read_words("cpu", name) for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us")
            )
        except (OSError, ValueError):
            return math.inf
    try:
        quota_us, period_us = int(quota), int(period)
    except ValueError:  # "max": no quota
        return math.inf
    return quota_us / period_us if quota_us > 0 and period_us > 0 else math.inf


def _worker_cpus() -> set[int]:
    """The CPUs a synthesis worker is pinned to: this process's, less the one
    it runs on now.  Empty, so steps are built in-process, without `os.fork`
    or `os.sched_getaffinity`, with a CPU affinity of one, or with a cgroup
    CPU quota below two CPUs, where a worker could only take turns with
    the trainer.

    A worker that waits on a full pipe is woken by the trainer's read, and
    the scheduler tends to wake it on the reader's CPU, where the two take
    turns instead of running side by side; the pin keeps it off that CPU.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return set()
    cpus = os.sched_getaffinity(0)
    if len(cpus) < 2 or _cpu_quota() < 2:
        return set()
    return cpus - {_current_cpu()}


def _warmup_step(
    gen_cfg: GenConfig, word_vocab: WordVocab, cfg: ModelConfig, size: int, index: int
) -> _Step:
    """Warm-up step `index` (from 0), packed: samples index * size onward."""
    samples = [sample_at(gen_cfg, i) for i in range(index * size, (index + 1) * size)]
    chains = [s.anchor_target_ids for s in samples]  # every block supervised
    return _pack_step(samples, [s.order for s in samples], chains, word_vocab, cfg)


def _produce(recv, send, cpus: set[int], draw: Callable[[int], _Step], first: int, count: int):
    """The worker: send each packed step in order; an error goes in its
    step's place and ends the stream."""
    recv.close()  # so a parent that dies leaves the worker a broken pipe
    # Ctrl-C reaches the whole process group; the parent stops the worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(OSError):  # the pin only places the work
        os.sched_setaffinity(0, cpus)
    for index in range(first, first + count):
        try:
            item = draw(index)
        except Exception as exc:
            send.send(exc)
            return
        send.send(item)


def _warmup_steps(
    gen_cfg: GenConfig, word_vocab: WordVocab, cfg: ModelConfig, size: int, first: int, count: int
) -> Iterator[_Step]:
    """`_warmup_step(..., i)` for i in first .. first + count - 1, in order.

    The worker is forked at the first read and stopped when the generator
    is closed or exhausted.  A worker that dies raises `GenerationError`.
    """
    draw = functools.partial(_warmup_step, gen_cfg, word_vocab, cfg, size)
    cpus = _worker_cpus() if count else set()
    if not cpus:
        for index in range(first, first + count):
            yield draw(index)
        return
    fork = multiprocessing.get_context("fork")
    recv, send = fork.Pipe(duplex=False)
    worker = fork.Process(
        target=_produce, args=(recv, send, cpus, draw, first, count), daemon=True
    )
    worker.start()
    send.close()  # the worker's end is its own, so its exit reads as EOF
    try:
        for index in range(first, first + count):
            try:
                item = recv.recv()
            except (EOFError, OSError) as exc:  # OSError: it died mid-message
                raise GenerationError(
                    f"the synthesis worker exited before sample {index * size} "
                    f"(step {index + 1})"
                ) from exc
            if isinstance(item, BaseException):
                raise item
            yield item
    finally:
        recv.close()
        worker.terminate()
        worker.join()


def _run_stage(
    model: GroundingModel,
    state: TrainState,
    train_cfg: TrainConfig,
    stage: str,
    steps: Iterator[_Step],
    batch_loss: Callable[[HeadOutputs, _Step, LossWeights], LossBreakdown],
    on_eval: Callable[[int, GroundingModel], None] | None,
) -> StageReport:
    """Train on each packed step in turn, counting it in `state.<stage>_done`
    and calling `on_eval` every `eval_every` steps of that count."""
    counter = f"{stage}_done"
    losses: list[float] = []
    for packed in steps:
        done = getattr(state, counter) + 1
        losses.append(_train_step(model, state, train_cfg, stage, done, packed, batch_loss))
        setattr(state, counter, done)
        if on_eval and train_cfg.eval_every and done % train_cfg.eval_every == 0:
            on_eval(done, model)
    return StageReport(stage=stage, losses=losses)


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
    model.check_vocab([default_vocab(gen_cfg.class_vocab_size)], "the generator's")
    state = state if state is not None else TrainState.fresh(train_cfg.seed)
    stream = _warmup_steps(
        gen_cfg,
        model.word_vocab,
        model.cfg,
        train_cfg.batch_size,
        state.warmup_done,
        train_cfg.warmup_steps,
    )
    with contextlib.closing(stream):
        report = _run_stage(model, state, train_cfg, "warmup", stream, _warmup_loss, on_eval)
    return report, state


def main_stage(
    model: GroundingModel,
    dataset: Sequence,
    train_cfg: TrainConfig,
    parser: Callable[[str], Sequence[str]],
    state: TrainState | None = None,
    on_eval: Callable[[int, GroundingModel], None] | None = None,
) -> tuple[StageReport, TrainState]:
    """Fine-tune on stored samples; supervises the target only.

    `dataset` items are `Sample`s; anything else is refused before the
    first step.
    `parser` maps a description to an order (class names, target last);
    every description is parsed once, before the first step, and its
    names checked by `order_names` and cached; `pack_batch` fits them to
    the block count.  Each step's picks are drawn from `state.rng` when
    the step starts, after the previous step's label noise.
    """
    if not dataset:
        raise ContractError("main stage needs a nonempty dataset")
    check_samples(dataset)
    model.check_vocab([item.scene.vocab for item in dataset], "a dataset scene's")
    state = state if state is not None else TrainState.fresh(train_cfg.seed)
    orders = [order_names(parser(item.description)) for item in dataset]

    def steps() -> Iterator[_Step]:
        for _ in range(train_cfg.main_steps):
            picks = state.rng.integers(0, len(dataset), size=train_cfg.batch_size).tolist()
            items, step_orders = [dataset[i] for i in picks], [orders[i] for i in picks]
            targets = [[item.target_id] for item in items]  # the target only
            yield _pack_step(items, step_orders, targets, model.word_vocab, model.cfg)

    return _run_stage(model, state, train_cfg, "main", steps(), _main_loss, on_eval), state


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
        # The layout is walked lazily and given up as soon as the parameters
        # alone outgrow the file, so a huge `b` or `d` costs no more than
        # the bytes in it.  Python ints: np.prod wraps around on a huge shape.
        left = _bytes_left(f)
        layout, size = [], 0
        try:
            for name, shape, _ in param_layout(cfg, len(word_vocab), len(class_vocab)):
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
    cfg = ModelConfig(d=8, b=2, n_heads=2, points_per_proposal=8, seed=seed)
    model = GroundingModel(cfg, default_vocab(gen_cfg.class_vocab_size))
    packed = _warmup_step(gen_cfg, model.word_vocab, cfg, 1, 0)

    def loss_fn(p):
        return _warmup_loss(model.forward_packed(packed.batch, params=p), packed).total

    return grad_check(loss_fn, model.params)
