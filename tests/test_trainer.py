"""Tests for the two-stage trainer and the checkpoint format."""

import copy
import hashlib
import math
import multiprocessing
import os
import signal
import struct
import time
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vigor import model as model_module
from vigor import tensor as T
from vigor import trainer
from vigor.errors import CheckpointError, ContractError, GenerationError, NumericError, VigorError
from vigor.losses import LossWeights, loss_text
from vigor.model import GroundingModel, ModelConfig, WordVocab, pack_batch, param_layout
from vigor.orderparse import parse_appearance_order
from vigor.scene import ClassVocab
from vigor.synthgen import GenConfig, default_vocab, generate_dataset, sample_at
from vigor.trainer import (
    Checkpoint,
    TrainConfig,
    TrainState,
    full_model_grad_check,
    load_checkpoint,
    main_stage,
    model_from_checkpoint,
    moving_average,
    save_checkpoint,
    warmup_stage,
)

from conftest import (
    CORRUPT_LENGTHS,
    NON_STRING_ORDERS,
    forward_samples,
    rewrite_checkpoint_header,
)

GEN = GenConfig(
    proposals_min=4,
    proposals_max=5,
    points_per_proposal=6,
    class_vocab_size=6,
    order_len=2,
    seed=11,
)


def tiny_model(seed=0):
    cfg = ModelConfig(d=8, b=2, n_heads=2, points_per_proposal=6, seed=seed)
    return GroundingModel(cfg, default_vocab(GEN.class_vocab_size))


def model_layout(model):
    """`param_layout` of a model's config and vocabularies."""
    return param_layout(model.cfg, len(model.word_vocab), len(model.class_vocab))


def snapshot(model):
    return {k: v.copy() for k, v in model.params.items()}


def params_equal(a, b):
    return sorted(a) == sorted(b) and all(np.array_equal(a[k], b[k]) for k in a)


# ---------------------------------------------------------------------------
# config


def test_train_config_validation():
    with pytest.raises(ContractError):
        TrainConfig(warmup_steps=-1)
    with pytest.raises(ContractError):
        TrainConfig(batch_size=0)
    with pytest.raises(ContractError):
        TrainConfig(lr=0.0)
    with pytest.raises(ContractError):
        TrainConfig(label_noise=1.5)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), float("-inf")])
def test_train_config_rejects_nonfinite_learning_rate(lr):
    with pytest.raises(ContractError, match="learning rate"):
        TrainConfig(lr=lr)


def test_moving_average():
    assert moving_average([1.0, 2.0, 3.0, 4.0], 2) == [1.5, 2.5, 3.5]
    with pytest.raises(ContractError):
        moving_average([1.0], 2)


@pytest.mark.parametrize("window", [2.5, 2.0, "2", None, True, 0])
def test_moving_average_refuses_a_window_that_is_not_a_length(window):
    with pytest.raises(ContractError, match="window"):
        moving_average([1.0, 2.0, 3.0], window)


# ---------------------------------------------------------------------------
# warm-up stage


def test_warmup_zero_steps_leaves_model_unchanged():
    model = tiny_model()
    before = snapshot(model)
    report, state = warmup_stage(model, GEN, TrainConfig(warmup_steps=0))
    assert report.losses == []
    assert state.warmup_done == 0
    assert params_equal(before, model.params)


def test_warmup_rejects_order_length_mismatch():
    model = tiny_model()
    with pytest.raises(ContractError):
        warmup_stage(model, GenConfig(order_len=3), TrainConfig(warmup_steps=1))


def test_warmup_loss_descends():
    model = tiny_model()
    cfg = TrainConfig(warmup_steps=200, batch_size=2, lr=1e-3, seed=0)
    report, state = warmup_stage(model, GEN, cfg)
    assert state.warmup_done == 200
    ma = moving_average(report.losses, 100)
    assert ma[-1] < ma[0]


def test_warmup_deterministic():
    cfg = TrainConfig(warmup_steps=4, batch_size=2, seed=3)
    m1, m2 = tiny_model(seed=5), tiny_model(seed=5)
    r1, _ = warmup_stage(m1, GEN, cfg)
    r2, _ = warmup_stage(m2, GEN, cfg)
    assert r1.losses == r2.losses
    assert params_equal(m1.params, m2.params)


def test_warmup_label_noise_changes_the_run():
    m1, m2 = tiny_model(), tiny_model()
    warmup_stage(m1, GEN, TrainConfig(warmup_steps=3, batch_size=2, seed=0))
    warmup_stage(
        m2, GEN, TrainConfig(warmup_steps=3, batch_size=2, seed=0, label_noise=1.0)
    )
    assert not params_equal(m1.params, m2.params)


def test_warmup_eval_callback_fires():
    model = tiny_model()
    seen = []
    warmup_stage(
        model,
        GEN,
        TrainConfig(warmup_steps=4, batch_size=1, eval_every=2),
        on_eval=lambda step, m: seen.append(step),
    )
    assert seen == [2, 4]


# ---------------------------------------------------------------------------
# the warm-up step stream

forking = pytest.mark.skipif(not hasattr(os, "fork"), reason="the stream forks a worker")


@pytest.fixture
def cpus(monkeypatch, tmp_path):
    """Set how many CPUs the stream sees, with no cgroup CPU quota, so both
    of its paths run here."""
    monkeypatch.setattr(trainer, "_CGROUP_ROOT", str(tmp_path / "no-cgroup"))

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_cpus


def flat(x):
    """A packed step as nested lists: every array by dtype, shape and bytes,
    every dataclass and layout by its fields in order."""
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, T.AttentionLayout):
        return ("layout", [flat(getattr(x, name)) for name in T.AttentionLayout.__slots__])
    if hasattr(x, "__dataclass_fields__"):
        return (type(x).__name__, [flat(getattr(x, f.name)) for f in fields(x)])
    if isinstance(x, dict):
        return ("dict", [(k, flat(v)) for k, v in x.items()])
    if isinstance(x, (list, tuple)):
        return (type(x).__name__, [flat(v) for v in x])
    return (type(x).__name__, x)


def same_step(a, b):
    """Equal bit for bit: every array's dtype and bytes, every name and id."""
    return flat(a) == flat(b)


def stream(start, count, size=3, gen=GEN, cfg=None):
    """The warm-up stream of `tiny_model`'s steps `start` onward."""
    model = tiny_model()
    return trainer._warmup_steps(gen, model.word_vocab, cfg or model.cfg, size, start, count)


def packed_steps(start, count, size=3):
    """Steps packed in-process from `sample_at`, as the trainer packs them."""
    model = tiny_model()
    steps = []
    for index in range(start, start + count):
        samples = [sample_at(GEN, i) for i in range(index * size, (index + 1) * size)]
        orders, chains = [s.order for s in samples], [s.anchor_target_ids for s in samples]
        steps.append(trainer._pack_step(samples, orders, chains, model.word_vocab, model.cfg))
    return steps


def run_end(model, state):
    return state.warmup_done, snapshot(model), adam_snapshot(state), state.rng.bit_generator.state


def same_end(a, b):
    (done_a, params_a, (m_a, v_a, t_a), rng_a), (done_b, params_b, (m_b, v_b, t_b), rng_b) = a, b
    return (
        (done_a, t_a, rng_a) == (done_b, t_b, rng_b)
        and params_equal(params_a, params_b)
        and params_equal(m_a, m_b)
        and params_equal(v_a, v_b)
    )


@forking
@pytest.mark.parametrize("start", [0, 6])
def test_stream_is_sample_at_in_index_order(cpus, start):
    cpus(2)
    steps = stream(start, 10)
    got = [next(steps)]
    assert len(multiprocessing.active_children()) == 1  # one worker draws them
    got += list(steps)
    assert multiprocessing.active_children() == []
    want = packed_steps(start, 10)
    assert len(got) == len(want) and all(map(same_step, got, want))


@pytest.mark.parametrize("without", ["second CPU", "fork"])
def test_stream_falls_back_to_the_same_draws_in_process(cpus, monkeypatch, without):
    if without == "fork":
        cpus(2)
        monkeypatch.delattr(os, "fork", raising=False)
    else:
        cpus(1)
    got = []
    for step in stream(3, 6):
        assert multiprocessing.active_children() == []
        got.append(step)
    assert all(map(same_step, got, packed_steps(3, 6)))


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="Linux affinity")
def test_the_worker_is_pinned_off_the_trainers_cpu(monkeypatch):
    cpus = os.sched_getaffinity(0)
    here = trainer._current_cpu()
    assert here in cpus
    if len(cpus) < 2 or trainer._cpu_quota() < 2:
        assert trainer._worker_cpus() == set()
        return
    monkeypatch.setattr(trainer, "_current_cpu", lambda: here)
    assert trainer._worker_cpus() == cpus - {here}
    steps = stream(0, 3)
    next(steps)
    (worker,) = multiprocessing.active_children()
    assert os.sched_getaffinity(worker.pid) == cpus - {here}
    steps.close()
    assert multiprocessing.active_children() == []


def write_cgroup(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


V1 = ("cpu/cpu.cfs_quota_us", "cpu/cpu.cfs_period_us")


@pytest.mark.parametrize(
    "files, quota",
    [
        ({}, math.inf),
        ({"cpu.max": "max 100000\n"}, math.inf),
        ({"cpu.max": "150000 100000\n"}, 1.5),
        ({"cpu.max": "200000 100000\n"}, 2.0),
        ({V1[0]: "-1\n", V1[1]: "100000\n"}, math.inf),
        ({V1[0]: "50000\n", V1[1]: "100000\n"}, 0.5),
        ({V1[0]: "400000\n", V1[1]: "100000\n"}, 4.0),
        ({V1[0]: "50000\n"}, math.inf),  # no period: unreadable, so no quota
        ({"cpu.max": "garbled\n"}, math.inf),
        ({"cpu.max": "0 100000\n"}, math.inf),
    ],
    ids=[
        "none", "v2-max", "v2-1.5", "v2-2", "v1-unlimited", "v1-0.5", "v1-4",
        "v1-no-period", "v2-garbled", "v2-zero",
    ],
)
def test_the_cpu_quota_decides_the_path_with_the_affinity(
    cpus, monkeypatch, tmp_path, files, quota
):
    """Below two CPUs of quota a worker could only take turns with the
    trainer, so the steps are built in-process even on two CPUs."""
    cpus(2)
    root = tmp_path / "cgroup"
    write_cgroup(root, files)
    monkeypatch.setattr(trainer, "_CGROUP_ROOT", str(root))
    assert trainer._cpu_quota() == quota
    assert bool(trainer._worker_cpus()) == (quota >= 2)
    if quota < 2:
        got = list(stream(0, 2))
        assert multiprocessing.active_children() == []
        assert all(map(same_step, got, packed_steps(0, 2)))


@forking
def test_resumed_warmup_trains_as_the_in_process_draws_do(cpus):
    cfg = TrainConfig(warmup_steps=2, batch_size=3, seed=0)
    ends = []
    for n in (2, 1):
        cpus(n)
        model = tiny_model()
        _, state = warmup_stage(model, GEN, cfg)
        report, state = warmup_stage(model, GEN, cfg, state)
        ends.append((report.losses, run_end(model, state)))
    (losses_fork, end_fork), (losses_serial, end_serial) = ends
    assert losses_fork == losses_serial and same_end(end_fork, end_serial)
    assert end_fork[0] == 4


@forking
@pytest.mark.parametrize("n", [1, 2])
def test_a_worker_packed_step_equals_the_in_process_one(cpus, n):
    """A step packed by the worker (two CPUs) or in-process (one) equals
    `pack_batch` on the samples, and forwards as a fresh pack of them does."""
    cpus(n)
    got = list(stream(0, 3, size=4))
    assert all(map(same_step, got, packed_steps(0, 3, size=4)))
    model = tiny_model(seed=2)
    samples = [sample_at(GEN, i) for i in range(4, 8)]
    scenes, orders = [s.scene for s in samples], [s.order for s in samples]
    want = forward_samples(model, scenes, orders, [s.description for s in samples])
    step = got[1]
    out = model.forward_packed(step.batch)
    for name in ("scores", "block_scores", "mask_logits", "coord_pred", "text_class_logits"):
        assert np.array_equal(getattr(out, name).data, getattr(want, name).data), name
    assert np.array_equal(out.masks, want.masks)


@forking
@pytest.mark.parametrize("n", [1, 2])
def test_layouts_are_built_once_per_distinct_id_pair(cpus, monkeypatch, n):
    """A step of S >= 2 samples and B blocks has 2 + 3B distinct (query ids,
    key ids) pairs: the text pieces, the proposals' self-attention, and
    each block's low, up and fuse branches.  Each is built once, and the
    two text layers and the B self-attentions read one layout each."""
    cpus(n)
    builds = multiprocessing.get_context("fork").Value("i", 0)
    real = T.AttentionLayout.__init__

    def spy(self, *args):
        with builds.get_lock():
            builds.value += 1
        real(self, *args)

    monkeypatch.setattr(T.AttentionLayout, "__init__", spy)
    b, steps = tiny_model().cfg.b, 4
    got = list(stream(0, steps))
    assert multiprocessing.active_children() == []
    assert builds.value == steps * (2 + 3 * b)
    for step in got:
        layouts = [step.batch.text.layout, *(l for block in step.batch.layouts for l in block)]
        assert len({id(l) for l in layouts}) == 2 + 3 * b
        assert len({id(block[0]) for block in step.batch.layouts}) == 1


def fail_at(monkeypatch, bad, error):
    """Make `trainer.sample_at` raise `error` for index `bad`; a forked
    worker inherits the patch."""
    real = trainer.sample_at

    def flaky(cfg, index):
        if index == bad:
            raise error
        return real(cfg, index)

    monkeypatch.setattr(trainer, "sample_at", flaky)


@forking
def test_a_draw_error_lands_on_its_step_with_the_serial_state(cpus, monkeypatch):
    bad = 7
    fail_at(monkeypatch, bad, GenerationError("no scene for this slot"))
    cfg = TrainConfig(warmup_steps=5, batch_size=3, seed=0)
    ends = []
    for n in (2, 1):
        cpus(n)
        model, state = tiny_model(), TrainState.fresh(0)
        with pytest.raises(GenerationError, match="no scene for this slot"):
            warmup_stage(model, GEN, cfg, state)
        assert multiprocessing.active_children() == []
        ends.append(run_end(model, state))
    assert ends[0][0] == bad // cfg.batch_size
    assert same_end(*ends)


@forking
def test_a_packing_error_lands_on_its_step_with_the_serial_state(cpus, monkeypatch):
    """A sample whose order has a name without tokens fails to pack; the
    error is raised at its step, after the steps before it, and label noise
    leaves the rng where the in-process loop leaves it."""
    bad = 7
    real = trainer.sample_at

    def unpackable(cfg, index):
        sample = real(cfg, index)
        if index == bad:
            sample = replace(sample, order=[sample.order[0], "?!"])
        return sample

    monkeypatch.setattr(trainer, "sample_at", unpackable)
    cfg = TrainConfig(warmup_steps=5, batch_size=3, seed=0, label_noise=0.3)
    ends = []
    for n in (2, 1):
        cpus(n)
        model, state = tiny_model(), TrainState.fresh(0)
        with pytest.raises(ContractError, match="has no tokens"):
            warmup_stage(model, GEN, cfg, state)
        assert multiprocessing.active_children() == []
        ends.append(run_end(model, state))
    assert ends[0][0] == bad // cfg.batch_size
    assert same_end(*ends)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("cannot pickle")


@forking
def test_a_draw_error_that_does_not_pickle_ends_the_stream_at_its_sample(cpus, monkeypatch):
    cpus(2)
    fail_at(monkeypatch, 2, Unpicklable("odd"))
    steps = stream(0, 5, size=1)
    got = [next(steps) for _ in range(2)]
    assert all(map(same_step, got, packed_steps(0, 2, size=1)))
    with pytest.raises(GenerationError, match="exited before sample 2"):
        next(steps)
    assert multiprocessing.active_children() == []


@forking
@pytest.mark.parametrize("where", ["step", "on_eval"])
def test_a_raising_step_or_callback_stops_the_worker(cpus, monkeypatch, where):
    cpus(2)

    def boom(*args):
        raise NumericError("boom")

    if where == "step":
        monkeypatch.setattr(trainer, "_train_step", boom)
    cfg = TrainConfig(warmup_steps=50, batch_size=2, eval_every=1)
    with pytest.raises(NumericError, match="boom"):
        warmup_stage(tiny_model(), GEN, cfg, on_eval=boom if where == "on_eval" else None)
    assert multiprocessing.active_children() == []


@forking
def test_ctrl_c_stops_the_worker_and_the_worker_ignores_it(cpus):
    """Ctrl-C reaches the whole process group: the worker keeps sending,
    and the trainer's KeyboardInterrupt stops it."""
    cpus(2)
    seen = []

    def interrupt(step, model):
        seen.append(step)
        (worker,) = multiprocessing.active_children()
        os.kill(worker.pid, signal.SIGINT)
        if step == 3:
            os.kill(os.getpid(), signal.SIGINT)

    cfg = TrainConfig(warmup_steps=50, batch_size=2, eval_every=1)
    # A suite started with SIGINT ignored (a background job of a
    # non-interactive shell) has no KeyboardInterrupt handler to restore.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            warmup_stage(tiny_model(), GEN, cfg, on_eval=interrupt)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert seen == [1, 2, 3]
    assert multiprocessing.active_children() == []


@forking
@pytest.mark.parametrize("points", [6, 256])  # 256: a step outgrows the pipe's buffer
def test_a_killed_worker_raises_instead_of_hanging(cpus, points):
    cpus(2)
    cfg = replace(tiny_model().cfg, points_per_proposal=points)
    steps = stream(0, 10_000, size=2, gen=replace(GEN, points_per_proposal=points), cfg=cfg)
    next(steps)
    time.sleep(0.2)  # the worker fills the pipe, with a step cut short at 256
    (worker,) = multiprocessing.active_children()
    os.kill(worker.pid, signal.SIGKILL)

    def timeout(signum, frame):
        raise TimeoutError("the stream hung after its worker died")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        with pytest.raises(GenerationError, match="exited before sample"):
            for _ in steps:
                pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# main stage


def dataset(n, seed=21):
    return list(generate_dataset(GenConfig(**{**GEN.__dict__, "seed": seed}), n))


def rule_parser(desc):
    return parse_appearance_order(desc, default_vocab(GEN.class_vocab_size)).names


def test_main_rejects_empty_dataset():
    with pytest.raises(ContractError):
        main_stage(tiny_model(), [], TrainConfig(main_steps=1), rule_parser)


@pytest.mark.parametrize("reply", list(NON_STRING_ORDERS.values()), ids=list(NON_STRING_ORDERS))
def test_main_refuses_an_order_name_that_is_not_a_string(reply):
    model = tiny_model()
    before = snapshot(model)
    with pytest.raises(ContractError, match="order names must be strings"):
        main_stage(model, dataset(2), TrainConfig(main_steps=1), lambda description: reply)
    assert params_equal(before, model.params)


def test_main_refuses_an_empty_reply_before_the_first_step():
    """Every description is parsed and checked up front, so an empty reply
    is refused even by a stage that would take no step."""
    data = dataset(2)
    parser = lambda description: [] if description == data[1].description else ["chair"]
    with pytest.raises(ContractError, match="at least one name"):
        main_stage(tiny_model(), data, TrainConfig(main_steps=0), parser)


@pytest.mark.parametrize("bad", [True, 2.0, "1"], ids=repr)
def test_main_refuses_a_target_id_that_is_not_a_proposal_id(bad):
    """Neither a `Sample` nor a stand-in carrying the id trains: once each
    trained as proposal 1, 2 and 1."""
    model, data = tiny_model(), dataset(2)
    before = snapshot(model)
    cfg = TrainConfig(main_steps=2)
    with pytest.raises(ContractError, match="target id"):
        bad_sample = replace(data[1], target_id=bad, anchor_target_ids=None)
        main_stage(model, [data[0], bad_sample], cfg, rule_parser)
    stand_in = SimpleNamespace(**{**vars(data[1]), "target_id": bad})
    with pytest.raises(ContractError, match="item 1 is a SimpleNamespace, not a Sample"):
        main_stage(model, [data[0], stand_in], cfg, rule_parser)
    assert params_equal(before, model.params)


def test_main_zero_steps_leaves_model_unchanged():
    model = tiny_model()
    before = snapshot(model)
    report, _ = main_stage(model, dataset(2), TrainConfig(main_steps=0), rule_parser)
    assert report.losses == []
    assert params_equal(before, model.params)


def test_main_overfits_one_sample():
    model = tiny_model()
    data = dataset(1)
    cfg = TrainConfig(main_steps=150, batch_size=2, lr=3e-3, seed=0)
    report, _ = main_stage(model, data, cfg, rule_parser)
    sample = data[0]
    out = model.forward(sample.scene, rule_parser(sample.description), sample.description)
    assert out.predicted_id() == sample.anchor_target_ids[-1]
    assert report.losses[-1] < report.losses[0]


def test_main_rule_parser_matches_stored_orders():
    """On templated text the rule parser recovers the stored order, so the
    whole loss trace is identical to an order-oracle run."""
    data = dataset(6)
    lookup = {s.description: s.order for s in data}
    cfg = TrainConfig(main_steps=5, batch_size=2, seed=9)
    m_rule, m_oracle = tiny_model(seed=2), tiny_model(seed=2)
    r_rule, _ = main_stage(m_rule, data, cfg, rule_parser)
    r_oracle, _ = main_stage(m_oracle, data, cfg, lambda d: lookup[d])
    assert r_rule.losses == r_oracle.losses
    assert params_equal(m_rule.params, m_oracle.params)


def test_main_deterministic():
    data = dataset(4)
    cfg = TrainConfig(main_steps=4, batch_size=2, seed=1)
    m1, m2 = tiny_model(), tiny_model()
    r1, _ = main_stage(m1, data, cfg, rule_parser)
    r2, _ = main_stage(m2, data, cfg, rule_parser)
    assert r1.losses == r2.losses
    assert params_equal(m1.params, m2.params)


def test_main_picks_each_batch_after_the_last_steps_label_noise():
    """Each step's picks come from `state.rng` after the previous step's
    label noise; this run's digest pins that order of draws."""
    model = tiny_model()
    cfg = TrainConfig(main_steps=4, batch_size=3, seed=2, label_noise=0.3)
    report, _ = main_stage(model, dataset(6), cfg, rule_parser)
    h = hashlib.sha256(np.asarray(report.losses, dtype=np.float64).tobytes())
    h.update(model.params.vector.tobytes())
    assert h.hexdigest()[:16] == "9867d2b60ae8ce6b"


def reversed_vocab_model():
    """`tiny_model` on GEN's class names in reverse order: "armchair" is
    GEN's class 0 and this model's class 5."""
    names = default_vocab(GEN.class_vocab_size).names
    return GroundingModel(tiny_model().cfg, ClassVocab(names[::-1]))


def test_warmup_refuses_a_generator_vocabulary_not_the_models():
    with pytest.raises(ContractError, match="generator's class vocabulary"):
        warmup_stage(reversed_vocab_model(), GEN, TrainConfig(warmup_steps=1, batch_size=2))


def test_main_refuses_a_scene_vocabulary_not_the_models():
    with pytest.raises(ContractError, match="scene's class vocabulary"):
        main_stage(reversed_vocab_model(), dataset(2), TrainConfig(main_steps=1), rule_parser)


# ---------------------------------------------------------------------------
# non-finite steps


def adam_snapshot(state):
    adam = state.adam
    return {k: v.copy() for k, v in adam.m.items()}, {k: v.copy() for k, v in adam.v.items()}, adam.t


def refuse_step(monkeypatch, corrupt, run, message):
    """After one clean warm-up step, `run(model, state)` takes a step whose
    text loss went through `corrupt`: it must raise `message` and leave the
    parameters and the Adam state as they were."""
    model = tiny_model()
    _, state = warmup_stage(model, GEN, TrainConfig(warmup_steps=1, batch_size=2, seed=0))
    params, (m, v, t) = snapshot(model), adam_snapshot(state)
    monkeypatch.setattr("vigor.trainer.loss_text", lambda *args: corrupt(loss_text(*args)))
    with pytest.raises(NumericError, match=message):
        run(model, state)
    assert params_equal(params, model.params)
    m2, v2, t2 = adam_snapshot(state)
    assert params_equal(m, m2) and params_equal(v, v2) and t == t2
    return state


def test_nan_loss_never_reaches_the_parameters(monkeypatch):
    cfg = TrainConfig(warmup_steps=1, batch_size=2, seed=0)
    state = refuse_step(
        monkeypatch,
        lambda loss: T.constant([[np.nan]]),
        lambda model, state: warmup_stage(model, GEN, cfg, state),
        "warmup step 2: non-finite loss",
    )
    assert state.warmup_done == 1


def test_nan_gradient_names_the_parameter(monkeypatch):
    cfg = TrainConfig(main_steps=1, batch_size=2, seed=0)
    state = refuse_step(
        monkeypatch,
        lambda loss: T.mul(loss, T.constant(np.nan)),
        lambda model, state: main_stage(model, dataset(2), cfg, rule_parser, state),
        "main step 1: non-finite gradient for parameter emb",
    )
    assert state.main_done == 0


# ---------------------------------------------------------------------------
# one flat parameter vector


def test_params_stay_views_of_one_vector_through_a_step():
    model = tiny_model()
    vector = model.params.vector
    before = vector.copy()
    warmup_stage(model, GEN, TrainConfig(warmup_steps=1, batch_size=2, seed=0))
    assert model.params.vector is vector
    assert not np.array_equal(vector, before)
    offset = 0
    for name, shape, _ in model_layout(model):
        view = model.params[name]
        assert view.shape == shape and np.shares_memory(view, vector)
        assert np.array_equal(view.ravel(), vector[offset : offset + view.size])
        offset += view.size
    assert offset == vector.size


def parent_flat_gradient(model, batch, loss_fn, weights):
    """A batch's flat gradient as steps used to build it: fresh leaf wraps,
    backward's map of gradients, one concatenation in layout order."""
    leaves = {name: T.leaf(v) for name, v in model.params.items()}
    items = [item for item, _ in batch]
    out = forward_samples(
        model,
        [item.scene for item in items],
        [order for _, order in batch],
        [item.description for item in items],
        params=leaves,
    )
    grads = T.backward(loss_fn(out, step_of(model, batch, loss_fn), weights).total, leaves)
    return np.concatenate([g.reshape(-1) for g in grads.values()])


@pytest.mark.parametrize("stage", ["warmup", "main"])
def test_a_step_leaves_its_flat_gradient_in_params_grad(stage):
    """Each step's `params.grad` equals the concatenated per-parameter
    gradients (signed zeros aside: the buffers start at +0), and a second
    step starts from zeros, so nothing leaks from the first."""
    samples, orders = mixed_batch()
    batch = list(zip(samples, orders))
    loss_fn = trainer._warmup_loss if stage == "warmup" else trainer._main_loss
    model, state = tiny_model(seed=3), TrainState.fresh(0)
    cfg = TrainConfig(batch_size=len(batch))
    for step in (1, 2):
        want = parent_flat_gradient(model, batch, loss_fn, cfg.weights)
        trainer._train_step(model, state, cfg, stage, step, step_of(model, batch, loss_fn), loss_fn)
        assert np.array_equal(model.params.grad, want)
        assert model.params.grad.any()


def test_nan_gradient_names_the_first_bad_parameter_in_the_vector(monkeypatch):
    """A gradient non-finite only in two head arrays is refused under the
    earlier one's name, before Adam moves the parameters or its state."""
    model = tiny_model()
    _, state = warmup_stage(model, GEN, TrainConfig(warmup_steps=1, batch_size=2, seed=0))
    params, (m, v, t) = snapshot(model), adam_snapshot(state)
    real = trainer.backward

    def corrupting(loss):
        real(loss)
        grads = T.FlatParams(model.params.layout(), model.params.grad)  # views by name
        grads["head.text.2.b"][0, 1] = np.nan
        grads["head.text.1.w"][2, 0] = np.inf

    monkeypatch.setattr(trainer, "backward", corrupting)
    cfg = TrainConfig(warmup_steps=1, batch_size=2, seed=0)
    message = "warmup step 2: non-finite gradient for parameter head.text.1.w$"
    with pytest.raises(NumericError, match=message):
        warmup_stage(model, GEN, cfg, state)
    assert params_equal(params, model.params)
    m2, v2, t2 = adam_snapshot(state)
    assert params_equal(m, m2) and params_equal(v, v2) and t == t2 == 1


def test_deepcopy_of_model_and_state_trains_identically():
    cfg = TrainConfig(warmup_steps=1, batch_size=2, seed=0)
    model = tiny_model()
    _, state = warmup_stage(model, GEN, cfg)
    twin, twin_state = copy.deepcopy((model, state))
    assert not np.shares_memory(twin.params.vector, model.params.vector)
    assert not np.shares_memory(twin_state.adam.m.vector, state.adam.m.vector)
    for _ in range(2):
        warmup_stage(model, GEN, cfg, state)
        warmup_stage(twin, GEN, cfg, twin_state)
        assert twin.params.vector.tobytes() == model.params.vector.tobytes()
        assert twin_state.adam.m.vector.tobytes() == state.adam.m.vector.tobytes()
        assert twin_state.adam.v.vector.tobytes() == state.adam.v.vector.tobytes()
        assert params_equal(twin.params, model.params)


def test_frozen_wraps_are_built_once_and_read_their_own_vector():
    """`params.constants()` reuses one constant wrap per parameter; a deep
    copy gets wraps of its own vector, and an assignment shows through the
    wraps."""
    cfg = TrainConfig(warmup_steps=1, batch_size=2, seed=0)
    model = tiny_model()
    _, state = warmup_stage(model, GEN, cfg)
    wraps = model.params.constants()
    assert model.params.constants() is wraps
    twin, twin_state = copy.deepcopy((model, state))
    warmup_stage(twin, GEN, cfg, twin_state)
    sample = sample_at(GEN, 0)

    def scores(m, params=None):
        return forward_samples(
            m, [sample.scene], [sample.order], [sample.description], params=params
        ).scores.data

    fresh = {k: T.constant(v) for k, v in twin.params.items()}
    assert not np.array_equal(scores(twin), scores(model))
    assert np.array_equal(scores(twin), scores(twin, fresh))
    model.params = twin.params
    assert model.params.constants() is wraps
    assert np.array_equal(scores(model), scores(twin, fresh))


def test_assigning_params_restarts_like_a_fresh_model():
    """What a benchmark restart does: keep a deep copy of the initial
    parameters and state, train, then assign the copy back."""
    cfg = TrainConfig(warmup_steps=2, batch_size=2, seed=0)
    model = tiny_model()
    initial = copy.deepcopy((model.params, TrainState.fresh(0)))
    vector = model.params.vector
    warmup_stage(model, GEN, cfg)
    params, state = copy.deepcopy(initial)
    assert state.adam.m == state.adam.v == {}
    model.params = params
    assert model.params.vector is vector  # copied in place, not rebound
    warmup_stage(model, GEN, cfg, state)
    fresh = tiny_model()
    warmup_stage(fresh, GEN, cfg)
    assert model.params.vector.tobytes() == fresh.params.vector.tobytes()


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: p.pop("emb"),
        lambda p: p.update(emb=p["emb"][:, :-1]),
        lambda p: p.update(bogus=np.zeros((1, 1))),
    ],
    ids=["missing-name", "wrong-shape", "extra-name"],
)
def test_params_mapping_must_match_the_layout(edit):
    model = tiny_model()
    arrays = snapshot(model)
    edit(arrays)
    before = model.params.vector.copy()
    with pytest.raises(ContractError):
        model.params = arrays
    assert np.array_equal(model.params.vector, before)
    with pytest.raises(ContractError):
        GroundingModel(model.cfg, model.class_vocab, model.word_vocab, params=arrays)


def test_model_copies_a_plain_mapping_into_its_own_vector():
    model = tiny_model()
    arrays = snapshot(model)
    other = GroundingModel(model.cfg, model.class_vocab, model.word_vocab, params=arrays)
    assert params_equal(other.params, model.params)
    assert not any(np.shares_memory(other.params.vector, a) for a in arrays.values())


# ---------------------------------------------------------------------------
# checkpoints


def trained_pair(tmp_path):
    model = tiny_model()
    _, state = warmup_stage(
        model, GEN, TrainConfig(warmup_steps=2, batch_size=2, seed=4)
    )
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, state)
    return model, state, path


def probe_scores(model):
    s = sample_at(GEN, 123)
    return model.forward(s.scene, s.order, s.description).scores.data


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model, state, path = trained_pair(tmp_path)
    ckpt = load_checkpoint(path)
    restored, rstate = model_from_checkpoint(ckpt)
    # each group is read into one vector, which the model and state adopt
    assert restored.params.vector is ckpt.params.vector
    assert rstate.adam.m is ckpt.adam_m and rstate.adam.v is ckpt.adam_v
    assert np.shares_memory(restored.params["emb"], restored.params.vector)
    assert params_equal(model.params, restored.params)
    assert np.array_equal(probe_scores(model), probe_scores(restored))
    assert rstate.adam.t == state.adam.t
    assert params_equal(state.adam.m, rstate.adam.m)
    assert params_equal(state.adam.v, rstate.adam.v)
    assert rstate.rng.bit_generator.state == state.rng.bit_generator.state
    assert (rstate.warmup_done, rstate.main_done) == (2, 0)


def test_checkpoint_resume_continues_identically(tmp_path):
    model, state, path = trained_pair(tmp_path)
    restored, rstate = model_from_checkpoint(load_checkpoint(path))
    cfg = TrainConfig(warmup_steps=3, batch_size=2, seed=4)
    warmup_stage(model, GEN, cfg, state=state)
    warmup_stage(restored, GEN, cfg, state=rstate)
    assert params_equal(model.params, restored.params)


def test_checkpoint_truncated_file_refused(tmp_path):
    _, _, path = trained_pair(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_magic_refused(tmp_path):
    _, _, path = trained_pair(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_refused(tmp_path):
    _, _, path = trained_pair(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 99) + blob[8:])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_v1_file_refused(tmp_path):
    _, _, path = trained_pair(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    with pytest.raises(CheckpointError, match=r"version 1 unsupported \(expected 3\)"):
        load_checkpoint(path)


def test_checkpoint_trailing_byte_refused(tmp_path):
    _, _, path = trained_pair(tmp_path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(CheckpointError, match="trailing bytes"):
        load_checkpoint(path)


@pytest.mark.parametrize("steps", [0, 2])
def test_checkpoint_layout_is_header_then_arrays_in_config_order(tmp_path, steps):
    """Magic, version and header length, the header, then every parameter
    as raw <f8 in param_layout order; Adam's m and v follow once it stepped."""
    model = tiny_model()
    _, state = warmup_stage(model, GEN, TrainConfig(warmup_steps=steps, batch_size=2, seed=4))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, state)
    (hlen,) = struct.unpack("<Q", path.read_bytes()[8:16])
    n = sum(int(np.prod(shape)) for _, shape, _ in model_layout(model))
    assert path.stat().st_size == 16 + hlen + 8 * n * (3 if steps else 1)
    body = np.frombuffer(path.read_bytes()[16 + hlen :], dtype="<f8")
    flat = np.concatenate([model.params[name].ravel() for name, _, _ in model_layout(model)])
    assert np.array_equal(body[:n], flat)
    ckpt = load_checkpoint(path)
    assert ckpt.adam_t == state.adam.t == steps
    if steps:
        m = np.concatenate([state.adam.m[name].ravel() for name, _, _ in model_layout(model)])
        assert np.array_equal(body[n : 2 * n], m)
    else:
        assert ckpt.adam_m == ckpt.adam_v == {}
    restored, rstate = model_from_checkpoint(ckpt)
    assert params_equal(model.params, restored.params)
    assert params_equal(state.adam.m, rstate.adam.m)
    assert params_equal(state.adam.v, rstate.adam.v)


@pytest.mark.parametrize("steps", [0, 2])
def test_checkpoint_arrays_are_bytes_of_a_per_array_write(tmp_path, steps):
    """Each group is written as one vector; the bytes equal writing every
    array of the group as <f8 in param_layout order."""
    model = tiny_model()
    _, state = warmup_stage(model, GEN, TrainConfig(warmup_steps=steps, batch_size=2, seed=4))
    path = tmp_path / "ckpt.bin"
    save_checkpoint(path, model, state)
    groups = (model.params, state.adam.m, state.adam.v) if steps else (model.params,)
    reference = b"".join(
        np.ascontiguousarray(group[name], dtype="<f8").tobytes()
        for group in groups
        for name, _, _ in model_layout(model)
    )
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<Q", blob[8:16])
    assert blob[16 + hlen :] == reference


def test_checkpoint_extra_model_key_refused(tmp_path):
    _, _, path = trained_pair(tmp_path)
    rewrite_checkpoint_header(path, lambda h: h["model"].update(bogus=1))
    with pytest.raises(CheckpointError, match="bogus"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda h: h["rng_state"].update(bit_generator="bogus"),
        lambda h: h["rng_state"].pop("state"),
        lambda h: h.update(adam_t=float("inf")),
        lambda h: h["model"].update(n_heads=0),
        # a negative step would divide by 1 - 0.9**0 on the first resumed step
        lambda h: h.update(adam_t=-1),
        lambda h: h.update(adam_t=2.0),
        lambda h: h.update(adam_t=True),
        lambda h: h.update(warmup_done=-3),
        lambda h: h.update(warmup_done=2.7),
        lambda h: h.update(main_done="3"),
        lambda h: h.pop("main_done"),
        lambda h: h["model"].update(b=2.0),
        lambda h: h["model"].update(d=8.0),
        lambda h: h["model"].update(n_heads=True),
        lambda h: h["model"].update(seed="0"),
        # no array depends on it, so it once loaded and ran out of memory
        # at the first forward
        lambda h: h["model"].update(points_per_proposal=2**62),
        # same length, so the arrays still fit: only the vocabulary check refuses it
        lambda h: h["word_tokens"].__setitem__(2, h["word_tokens"][1]),
    ],
    ids=[
        "rng-generator",
        "rng-missing-state",
        "infinite-step",
        "zero-heads",
        "negative-step",
        "float-step",
        "bool-step",
        "negative-warmup-done",
        "fractional-warmup-done",
        "string-main-done",
        "missing-main-done",
        "float-blocks",
        "float-width",
        "bool-heads",
        "string-seed",
        "huge-points",
        "repeated-word",
    ],
)
def test_checkpoint_bad_header_value_refused(tmp_path, mutate):
    _, _, path = trained_pair(tmp_path)
    rewrite_checkpoint_header(path, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda h: h["model"].update(b=3),
        lambda h: h["model"].update(b=1),
        lambda h: h["model"].update(d=4),
        lambda h: h["word_tokens"].append("zyzzyva"),
        lambda h: h["class_names"].pop(),
        # moments follow the parameters only when adam_t > 0
        lambda h: h.update(adam_t=0),
        # a lazy layout walk stops at the first array the file cannot
        # hold, so these cost no more than the bytes in the file
        lambda h: h["model"].update(b=10**9),
        lambda h: h["model"].update(d=2 * 10**9),
        # its init scale d**-0.5 overflows before the walk reaches a shape
        lambda h: h["model"].update(d=10**400),
    ],
    ids=[
        "more-blocks",
        "fewer-blocks",
        "narrower",
        "extra-word",
        "missing-class",
        "moments-without-step",
        "huge-b",
        "huge-d",
        "d-past-float-range",
    ],
)
def test_checkpoint_arrays_must_match_the_config(tmp_path, mutate):
    _, _, path = trained_pair(tmp_path)
    load_checkpoint(path)
    rewrite_checkpoint_header(path, mutate)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "group, value",
    [("parameters", np.nan), ("Adam m", np.inf), ("Adam v", np.nan)],
    ids=["parameters", "adam-m", "adam-v"],
)
def test_checkpoint_non_finite_entry_refused(tmp_path, group, value):
    model, state, path = trained_pair(tmp_path)
    arrays = {"parameters": model.params, "Adam m": state.adam.m, "Adam v": state.adam.v}[group]
    arrays["head.score.2.b"][0, 0] = value
    save_checkpoint(path, model, state)
    with pytest.raises(CheckpointError, match=f"{group} group, first in head.score.2.b"):
        load_checkpoint(path)


@pytest.mark.parametrize("corrupt", CORRUPT_LENGTHS.values(), ids=CORRUPT_LENGTHS.keys())
def test_checkpoint_corrupt_length_refused(tmp_path, corrupt):
    _, _, path = trained_pair(tmp_path)
    corrupt(path)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_failed_save_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    model, state, path = trained_pair(tmp_path)
    before = path.read_bytes()
    warmup_stage(model, GEN, TrainConfig(warmup_steps=1, batch_size=2, seed=4), state)
    writes = []

    class DiskFull:
        """A file that accepts the header and three arrays, then fails."""

        def __init__(self, *args):
            self.f = open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            if len(writes) == 5:
                raise OSError("disk full")
            writes.append(data)
            self.f.write(data)

    monkeypatch.setattr(trainer, "open", DiskFull, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, model, state)
    assert len(writes) == 5  # the failure came partway through the arrays
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    model = GroundingModel(
        ModelConfig(d=4, b=2, n_heads=1, points_per_proposal=6), default_vocab(GEN.class_vocab_size)
    )
    _, state = warmup_stage(model, GEN, TrainConfig(warmup_steps=1, batch_size=1))
    path = tmp_path_factory.mktemp("fuzz") / "ckpt.bin"
    save_checkpoint(path, model, state)
    return path.read_bytes(), path


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checkpoint_fuzz_truncated_or_flipped(small_checkpoint, data):
    blob, path = small_checkpoint
    if data.draw(st.booleans(), label="truncate"):
        corrupt = blob[: data.draw(st.integers(0, len(blob) - 1), label="keep")]
    else:
        corrupt = bytearray(blob)
        corrupt[data.draw(st.integers(0, len(blob) - 1), label="at")] ^= data.draw(
            st.integers(1, 255), label="xor"
        )
    path.write_bytes(bytes(corrupt))
    try:
        ckpt = load_checkpoint(path)
    except CheckpointError:
        return
    assert isinstance(ckpt, Checkpoint)


MISSING = object()
# JSON values a header's model field might hold: huge, zero, negative,
# mistyped, non-finite, nested, or the key left out.
HEADER_VALUES = st.sampled_from(
    [2**62, 10**400, 0, -1, -(2**62), True, False, 1.5, float("nan"), float("inf"),
     "8", None, [8], {"d": 8}, MISSING]
) | st.integers(-2, 40)


@pytest.fixture(scope="module")
def header_case(tmp_path_factory):
    """A valid d=8, b=2 checkpoint and a 5-proposal sample to run it on."""
    model = tiny_model()
    path = tmp_path_factory.mktemp("header") / "ckpt.bin"
    save_checkpoint(path, model, TrainState.fresh(0))
    sample = sample_at(replace(GEN, proposals_min=5, proposals_max=5), 0)
    return path.read_bytes(), path, sample


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    edits=st.dictionaries(
        st.sampled_from([f.name for f in fields(ModelConfig)]), HEADER_VALUES, max_size=3
    )
)
@example(edits={"points_per_proposal": 2**62})
def test_checkpoint_header_model_fields_run_or_refuse(header_case, edits):
    """Whatever the header's `model` holds, loading the file, building the
    model and one forward either work or raise the package's own error."""
    blob, path, sample = header_case
    path.write_bytes(blob)

    def mutate(header):
        for name, value in edits.items():
            if value is MISSING:
                header["model"].pop(name)
            else:
                header["model"][name] = value

    rewrite_checkpoint_header(path, mutate)
    try:
        model, _ = model_from_checkpoint(load_checkpoint(path))
        out = model.forward(sample.scene, sample.order, sample.description)
    except VigorError:
        return
    assert out.scores.shape == (5, 1)


def test_checkpoint_wrong_width_refused(tmp_path):
    _, _, path = trained_pair(tmp_path)
    want = ModelConfig(d=16, b=2, n_heads=2, points_per_proposal=6)
    with pytest.raises(CheckpointError):
        load_checkpoint(path, expect=want)


def test_checkpoint_matching_width_accepted(tmp_path):
    _, _, path = trained_pair(tmp_path)
    want = ModelConfig(d=8, b=2, n_heads=2, points_per_proposal=6)
    assert load_checkpoint(path, expect=want).cfg.d == 8


# ---------------------------------------------------------------------------
# whole-network gradient audit (wiring only; criterion 03 runs the audit)


def test_full_model_grad_check_entry_point(monkeypatch):
    seen = {}

    def spy(loss_fn, params):
        seen["params"] = params
        leaves = {name: T.leaf(v) for name, v in params.items()}
        loss = loss_fn(leaves)
        seen["loss"] = loss.item()
        seen["grads"] = T.backward(loss, leaves)
        return T.GradCheckReport(max_rel_err=0.0, worst_param=None, checked=0)

    monkeypatch.setattr(trainer, "grad_check", spy)
    report = full_model_grad_check(seed=1)
    assert report.checked == 0  # the spy's report is what comes back
    cfg = ModelConfig(d=8, b=2, n_heads=2, points_per_proposal=8)
    vocab = default_vocab(6)  # full_model_grad_check's generator vocabulary
    layout = param_layout(cfg, len(WordVocab.build(vocab)), len(vocab))
    assert list(seen["params"]) == [name for name, _, _ in layout]
    assert np.isfinite(seen["loss"]) and seen["loss"] > 0.0
    # the loss reads every parameter it is handed
    assert [n for n, g in seen["grads"].items() if not g.any()] == []


def test_full_model_grad_check_packs_its_sample_once(monkeypatch):
    packs = []

    def counting(*args):
        packs.append(args)
        return pack_batch(*args)

    def three_evaluations(loss_fn, params):
        for _ in range(3):
            loss_fn(params.constants())
        return T.GradCheckReport(max_rel_err=0.0, worst_param=None, checked=0)

    monkeypatch.setattr(trainer, "pack_batch", counting)
    monkeypatch.setattr(model_module, "pack_batch", counting)
    monkeypatch.setattr(trainer, "grad_check", three_evaluations)
    full_model_grad_check(seed=1)
    assert len(packs) == 1


# ---------------------------------------------------------------------------
# packed batches against the per-sample path they replaced

MIXED = GenConfig(
    proposals_min=3,
    proposals_max=7,
    points_per_proposal=6,
    class_vocab_size=6,
    order_len=2,
    seed=17,
)
WEIGHTS = LossWeights(w_ref=1.7, w_mask=0.3, w_text=2.25, w_crd=0.6)


def add_fold(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = T.add(acc, t)
    return acc


def column(x, i):
    """Column i of x, as x times a one-hot column."""
    pick = np.zeros((x.shape[1], 1))
    pick[i] = 1.0
    return T.matmul(x, T.constant(pick))


def per_sample_reference(out, sample, stage, weights):
    """One sample's components and weighted total, as the per-sample trainer
    computed them: a cross-entropy per block, plain means, a mul/add chain."""
    if stage == "warmup":
        ids = sample.anchor_target_ids
        scores = [column(out.block_scores, i) for i in range(len(ids))]
        l_ref = T.mul(
            add_fold([T.cross_entropy(s, [[t]]) for s, t in zip(scores, ids)]),
            T.constant(1.0 / len(ids)),
        )
    else:
        l_ref = T.cross_entropy(out.scores, [[sample.target_id]])
    z = out.mask_logits
    neg_bits = T.constant(-out.masks)
    l_mask = T.mean_all(T.add(T.softplus(z), T.mul(z, neg_bits)))
    target_class = sample.scene.class_ids[sample.target_id]
    l_text = T.cross_entropy(out.text_class_logits, [[target_class]], axis=1)
    parts = [(l_ref, weights.w_ref), (l_mask, weights.w_mask), (l_text, weights.w_text)]
    if stage == "warmup":
        centers = sample.scene.centers
        neg_offsets = np.hstack([centers[a] - centers for a in sample.anchor_target_ids])
        err = T.add(out.coord_pred, T.constant(neg_offsets))
        l_crd = T.mean_all(T.mul(err, err))
        parts.append((l_crd, weights.w_crd))
    return [p.item() for p, _ in parts], add_fold([T.mul(p, T.constant(w)) for p, w in parts])


class SampleView:
    """One sample's rows of a packed forward's outputs, as constants."""

    def __init__(self, out, s):
        end = sum(out.sizes[: s + 1])
        rows = slice(end - out.sizes[s], end)  # sample s's run of rows
        for name in ("scores", "block_scores", "mask_logits", "coord_pred"):
            setattr(self, name, T.constant(getattr(out, name).data[rows]))
        self.text_class_logits = T.constant(out.text_class_logits.data[s : s + 1])
        self.masks = out.masks[rows]


def step_of(model, batch, loss_fn):
    """(item, order) pairs packed as the stage of `loss_fn` packs them: the
    warm-up supervises each anchor chain, the main stage each target."""
    items, orders = zip(*batch)
    if loss_fn is trainer._warmup_loss:
        targets = [item.anchor_target_ids for item in items]
    else:
        targets = [[item.target_id] for item in items]
    return trainer._pack_step(items, orders, targets, model.word_vocab, model.cfg)


def mixed_batch():
    """Four samples of 3 to 7 proposals whose orders repeat names within
    and across samples."""
    samples = [sample_at(MIXED, i) for i in range(4)]
    names = default_vocab(MIXED.class_vocab_size).names
    orders = [[names[0], names[0]], [names[0], names[1]], [names[1], names[0]], samples[3].order]
    return samples, orders


@pytest.mark.parametrize("stage", ["warmup", "main"])
def test_packed_step_matches_per_sample_reference(stage, monkeypatch):
    samples, orders = mixed_batch()
    assert len({len(s.scene) for s in samples}) > 1
    model = tiny_model(seed=3)
    rng = np.random.default_rng(7)
    labels = [
        trainer._maybe_noisy_labels(s.scene.class_ids, len(s.scene.vocab), 0.4, rng)
        for s in samples
    ]
    assert any(not np.array_equal(l, s.scene.class_ids) for l, s in zip(labels, samples))
    loss_fn = trainer._warmup_loss if stage == "warmup" else trainer._main_loss
    # every segmented attention dense, then every one padded
    for saving in (float("inf"), float("-inf")):
        monkeypatch.setattr(T, "_PAD_SAVING", saving)
        check_packed_step(model, samples, orders, labels, stage, loss_fn)


def check_packed_step(model, samples, orders, labels, stage, loss_fn):
    leaves = model.params.leaves()
    scenes, descriptions = [s.scene for s in samples], [s.description for s in samples]
    out = forward_samples(
        model, scenes, orders, descriptions, labels=np.concatenate(labels), params=leaves
    )
    packed = loss_fn(out, step_of(model, list(zip(samples, orders)), loss_fn), WEIGHTS)
    packed_values = packed.values()
    views = [SampleView(out, s) for s in range(len(samples))]  # every head, before backward
    packed_grads = T.backward(packed.total, leaves)

    leaves = model.params.leaves()
    values, totals = [], []
    for sample, order, sample_labels in zip(samples, orders, labels):
        one = forward_samples(
            model, [sample.scene], [order], [sample.description], sample_labels, leaves
        )
        v, total = per_sample_reference(one, sample, stage, WEIGHTS)
        values.append(v)
        totals.append(total)
    reference_total = add_fold(totals)
    reference_grads = T.backward(reference_total, leaves)

    # the packed outputs give every sample the losses it has alone
    for s, sample in enumerate(samples):
        got, _ = per_sample_reference(views[s], sample, stage, WEIGHTS)
        assert np.abs(np.subtract(got, values[s])).max() <= 1e-10
    names = ["ref", "mask", "text", "crd"][: len(values[0])]
    sums = np.sum(values, axis=0)
    for name, want in zip(names, sums):
        assert abs(packed_values[name] - want) <= 1e-10, name
    assert abs(packed.total.item() - reference_total.item()) <= 1e-10
    assert packed_grads.keys() == reference_grads.keys()
    for name, g in reference_grads.items():
        assert np.abs(packed_grads[name] - g).max() <= 1e-10, name


def test_only_the_warmup_loss_supervises_the_offsets():
    """The stage rule lives in the trainer: the fine-tune loss carries no
    coordinate term, so no gradient reaches the coordinate heads."""
    samples, orders = mixed_batch()
    model = tiny_model(seed=3)
    scenes, descriptions = [s.scene for s in samples], [s.description for s in samples]
    for loss_fn in (trainer._warmup_loss, trainer._main_loss):
        leaves = model.params.leaves()
        out = forward_samples(model, scenes, orders, descriptions, params=leaves)
        packed = loss_fn(out, step_of(model, list(zip(samples, orders)), loss_fn), WEIGHTS)
        grads = T.backward(packed.total, leaves)
        coord = {name: g for name, g in grads.items() if name.startswith("head.coord")}
        assert len(coord) == 4 * model.cfg.b  # two linear layers, weight and bias
        if loss_fn is trainer._main_loss:
            assert "crd" not in packed.parts
            assert not any(g.any() for g in coord.values())
        else:
            assert np.isfinite(packed.parts["crd"].item())
            assert all(g.any() for g in coord.values())


@pytest.mark.parametrize(
    "loss_fn, want",
    [
        (trainer._warmup_loss, ["ref", "mask", "text", "crd"]),
        (trainer._main_loss, ["ref", "mask", "text"]),
    ],
)
def test_each_stage_composes_its_parts_in_order(loss_fn, want):
    samples, orders = mixed_batch()
    model = tiny_model()
    scenes, descriptions = [s.scene for s in samples], [s.description for s in samples]
    out = forward_samples(model, scenes, orders, descriptions)
    breakdown = loss_fn(out, step_of(model, list(zip(samples, orders)), loss_fn), WEIGHTS)
    assert list(breakdown.parts) == want
    assert list(breakdown.values()) == [*want, "total"]


@pytest.mark.parametrize(
    "stage, want",
    [
        ("main", ["head.score", "head.mask0", "head.mask1", "head.text"]),
        (
            "warmup",
            ["head.score", "head.score", "head.mask0", "head.mask1", "head.text"]
            + ["head.coord0", "head.coord1"],
        ),
    ],
)
def test_a_step_builds_only_the_heads_its_loss_reads(stage, want, built_heads):
    """The fine-tune loss reads the last block's scores and no offsets, so
    its step builds one score head and no coordinate head; the warm-up
    builds every head, in the order its loss reads them."""
    samples, orders = mixed_batch()
    loss_fn = trainer._warmup_loss if stage == "warmup" else trainer._main_loss
    cfg = TrainConfig(batch_size=len(samples))
    model = tiny_model()
    step = step_of(model, list(zip(samples, orders)), loss_fn)
    trainer._train_step(model, TrainState.fresh(0), cfg, stage, 1, step, loss_fn)
    assert built_heads == want
    assert len(T._TAPE) == 0  # every head was read before backward


def test_packed_step_draws_label_noise_per_sample_in_batch_order():
    samples, orders = mixed_batch()
    model, state = tiny_model(), TrainState.fresh(5)
    cfg = TrainConfig(batch_size=len(samples), label_noise=0.5, seed=5)
    seen = []
    real = model.masks

    def spy(batch, labels):
        seen.append(labels)
        return real(batch, labels)

    model.masks = spy
    step = step_of(model, list(zip(samples, orders)), trainer._warmup_loss)
    trainer._train_step(model, state, cfg, "warmup", 1, step, trainer._warmup_loss)
    rng = np.random.default_rng(5)
    want = [
        trainer._maybe_noisy_labels(s.scene.class_ids, len(s.scene.vocab), 0.5, rng)
        for s in samples
    ]
    assert [labels.tolist() for labels in seen] == [np.concatenate(want).tolist()]
    assert state.rng.bit_generator.state == rng.bit_generator.state


def test_tracer_sees_a_packed_warmup(monkeypatch):
    """The benchmark's tracer patches vigor's modules from outside; a packed
    step must keep the entry points and argument shapes it reads."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    from layertrace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_run(2)
        warmup_stage(
            tiny_model(),
            GEN,
            TrainConfig(warmup_steps=2, batch_size=3, eval_every=1),
            on_eval=lambda step, model: tracer.end_unit(),
        )
    finally:
        stale = tracer.restore()
    assert stale == []
    names = [n for unit in (0, 1) for n in tracer.order_names[unit]]
    assert len(names) == 2 * 3 * GEN.order_len
    assert all(type(n) is str for n in names)
    assert 0.0 < tracer.distinct_share(range(2)) <= 1.0
    assert tracer.span_calls("model.encode_text", range(2)) == 2
    assert [u for name, u, _ in tracer.counts if name == "tensor.tape_nodes"] == [0, 1]
    assert tracer.count_sum("tensor.tape_nodes", range(2)) > 0
