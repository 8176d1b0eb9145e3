"""Tests for the two-stage trainer and the checkpoint format."""

import copy
import struct
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vigor import tensor as T
from vigor import trainer
from vigor.errors import CheckpointError, ContractError, NumericError, VigorError
from vigor.losses import LossWeights, loss_text
from vigor.model import GroundingModel, ModelConfig, param_layout
from vigor.orderparse import parse_appearance_order
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

from conftest import CORRUPT_LENGTHS, rewrite_checkpoint_header

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
# main stage


def dataset(n, seed=21):
    return list(generate_dataset(GenConfig(**{**GEN.__dict__, "seed": seed}), n))


def rule_parser(desc):
    return parse_appearance_order(desc, default_vocab(GEN.class_vocab_size)).names


def test_main_rejects_empty_dataset():
    with pytest.raises(ContractError):
        main_stage(tiny_model(), [], TrainConfig(main_steps=1), rule_parser)


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
    for name, shape, _ in param_layout(model.cfg):
        view = model.params[name]
        assert view.shape == shape and np.shares_memory(view, vector)
        assert np.array_equal(view.ravel(), vector[offset : offset + view.size])
        offset += view.size
    assert offset == vector.size


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
    """`frozen()` reuses one constant wrap per parameter; a deep copy gets
    wraps of its own vector, and an assignment shows through the wraps."""
    cfg = TrainConfig(warmup_steps=1, batch_size=2, seed=0)
    model = tiny_model()
    _, state = warmup_stage(model, GEN, cfg)
    wraps = model.frozen()
    assert model.frozen() is wraps
    twin, twin_state = copy.deepcopy((model, state))
    warmup_stage(twin, GEN, cfg, twin_state)
    sample = sample_at(GEN, 0)

    def scores(m, params=None):
        return m.forward(sample.scene, sample.order, sample.description, params).scores.data

    fresh = {k: T.constant(v) for k, v in twin.params.items()}
    assert not np.array_equal(scores(twin), scores(model))
    assert np.array_equal(scores(twin), scores(twin, fresh))
    model.params = twin.params
    assert model.frozen() is wraps
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
    with pytest.raises(CheckpointError, match=r"version 1 unsupported \(expected 2\)"):
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
    n = sum(int(np.prod(shape)) for _, shape, _ in param_layout(model.cfg))
    assert path.stat().st_size == 16 + hlen + 8 * n * (3 if steps else 1)
    body = np.frombuffer(path.read_bytes()[16 + hlen :], dtype="<f8")
    flat = np.concatenate([model.params[name].ravel() for name, _, _ in param_layout(model.cfg)])
    assert np.array_equal(body[:n], flat)
    ckpt = load_checkpoint(path)
    assert ckpt.adam_t == state.adam.t == steps
    if steps:
        m = np.concatenate([state.adam.m[name].ravel() for name, _, _ in param_layout(model.cfg)])
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
        for name, _, _ in param_layout(model.cfg)
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
    assert list(seen["params"]) == [name for name, _, _ in param_layout(cfg)]
    assert np.isfinite(seen["loss"]) and seen["loss"] > 0.0
    # the loss reads every parameter it is handed
    assert [n for n, g in seen["grads"].items() if not g.any()] == []


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
        l_crd = T.mean_all(T.square(T.add(out.coord_pred, T.constant(neg_offsets))))
        parts.append((l_crd, weights.w_crd))
    return [p.item() for p, _ in parts], add_fold([T.mul(p, T.constant(w)) for p, w in parts])


class SampleView:
    """One sample's rows of a packed forward's outputs, as constants."""

    def __init__(self, out, s):
        rows = out.segments == s
        for name in ("scores", "block_scores", "mask_logits", "coord_pred"):
            setattr(self, name, T.constant(getattr(out, name).data[rows]))
        self.text_class_logits = T.constant(out.text_class_logits.data[s : s + 1])
        self.masks = out.masks[rows]


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
    labels = [trainer._maybe_noisy_labels(s.scene, 0.4, rng) for s in samples]
    assert any(not np.array_equal(l, s.scene.class_ids) for l, s in zip(labels, samples))
    loss_fn = trainer._warmup_loss if stage == "warmup" else trainer._main_loss
    # every segmented attention dense, then every one padded
    for saving in (float("inf"), float("-inf")):
        monkeypatch.setattr(T, "_PAD_SAVING", saving)
        check_packed_step(model, samples, orders, labels, stage, loss_fn)


def check_packed_step(model, samples, orders, labels, stage, loss_fn):
    leaves = model.trainable()
    scenes, descriptions = [s.scene for s in samples], [s.description for s in samples]
    out = model.forward_batch(scenes, orders, descriptions, params=leaves, labels=labels)
    packed = loss_fn(out, samples, WEIGHTS)
    packed_values = packed.values()
    views = [SampleView(out, s) for s in range(len(samples))]  # every head, before backward
    packed_grads = T.backward(packed.total, leaves)

    leaves = model.trainable()
    values, totals = [], []
    for sample, order, sample_labels in zip(samples, orders, labels):
        one = model.forward(
            sample.scene, order, sample.description, params=leaves, labels=sample_labels
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
    names = ["l_ref", "l_mask", "l_text", "l_crd"][: len(values[0])]
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
        leaves = model.trainable()
        out = model.forward_batch(scenes, orders, descriptions, params=leaves)
        packed = loss_fn(out, samples, WEIGHTS)
        grads = T.backward(packed.total, leaves)
        coord = {name: g for name, g in grads.items() if name.startswith("head.coord")}
        assert len(coord) == 4 * model.cfg.b  # two linear layers, weight and bias
        if loss_fn is trainer._main_loss:
            assert packed.l_crd is None
            assert not any(g.any() for g in coord.values())
        else:
            assert np.isfinite(packed.l_crd.item())
            assert all(g.any() for g in coord.values())


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
    batch = list(zip(samples, orders))
    trainer._train_step(tiny_model(), TrainState.fresh(0), cfg, stage, 1, batch, loss_fn)
    assert built_heads == want
    assert len(T._TAPE) == 0  # every head was read before backward


def test_packed_step_draws_label_noise_per_sample_in_batch_order():
    samples, orders = mixed_batch()
    model, state = tiny_model(), TrainState.fresh(5)
    cfg = TrainConfig(batch_size=len(samples), label_noise=0.5, seed=5)
    seen = []
    real = model.forward_batch

    def spy(*args, **kwargs):
        seen.append(kwargs["labels"])
        return real(*args, **kwargs)

    model.forward_batch = spy
    trainer._train_step(
        model, state, cfg, "warmup", 1, list(zip(samples, orders)), trainer._warmup_loss
    )
    rng = np.random.default_rng(5)
    want = [trainer._maybe_noisy_labels(s.scene, 0.5, rng) for s in samples]
    assert [[l.tolist() for l in labels] for labels in seen] == [[l.tolist() for l in want]]
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
