"""Release acceptance checks for the vigor package.

Ten checks gate a release.  Each prints exactly one [PASS] or [FAIL] line
(visible with ``pytest tests/test_acceptance.py -v -s``) and pins both the
tolerance and, where relevant, a wall-clock budget.  The two training
checks (05 overfit, 06 transfer) run real optimization and take a few
minutes combined; everything else finishes in seconds.
"""

import functools
import math
import time

import numpy as np
import pytest

from conftest import PARSE_CASES, transcript_records
from vigor.losses import compose, loss_crd, loss_mask, loss_ref, loss_text
from vigor.model import GroundingModel, ModelConfig
from vigor.orderparse import (
    CannedTransport,
    llm_two_stage_order,
    parse_appearance_order,
    trim_pad,
)
from vigor.scene import build_masks, permute_scene
from vigor.synthgen import GenConfig, default_vocab, generate_dataset, oracle_resolve
from vigor.trainer import (
    TrainConfig,
    TrainState,
    full_model_grad_check,
    load_checkpoint,
    main_stage,
    model_from_checkpoint,
    save_checkpoint,
    warmup_stage,
)
from vigor import tensor as tt
from vigor.evaluation import accuracy


def criterion(label):
    """Print a single [PASS]/[FAIL] line for one acceptance check."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {label}", flush=True)
                raise
            print(f"[PASS] {label}", flush=True)

        return wrapper

    return deco


@criterion("01 generator matches independent oracle round trip")
def test_criterion_01_generator_oracle():
    """1000 samples over 10 seeds: oracle re-derives every anchor chain
    and rule parsing re-derives every order, exactly, in under 30 s."""
    t0 = time.monotonic()
    checked = 0
    for seed in range(10):
        cfg = GenConfig(
            proposals_min=6,
            proposals_max=9,
            points_per_proposal=6,
            class_vocab_size=10,
            order_len=2 + seed % 3,
            seed=seed,
            style="template" if seed % 2 == 0 else "natural",
        )
        vocab = default_vocab(cfg.class_vocab_size)
        for sample in generate_dataset(cfg, 100):
            assert oracle_resolve(sample) == sample.anchor_target_ids
            parsed = parse_appearance_order(sample.description, vocab)
            assert list(parsed.names) == list(sample.order)
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 1000
    assert elapsed < 30.0, f"oracle round trip took {elapsed:.1f}s"


@criterion("02 relevance masks: set membership, monotone, order-insensitive")
def test_criterion_02_mask_suite():
    """500 random label/order cases against a brute-force set oracle,
    plus suffix monotonicity and duplicate/shuffle invariance, all exact."""
    vocab = default_vocab(8)
    rng = np.random.default_rng(2)
    agree = 0
    for _ in range(500):
        k = int(rng.integers(3, 13))
        labels = rng.integers(0, len(vocab), k).tolist()
        length = int(rng.integers(1, 6))
        order = [vocab.name(int(c)) for c in rng.integers(0, len(vocab), length)]
        if rng.random() < 0.2:
            order.append("mystery gadget")  # unknown names must be ignored

        wanted = {vocab.index(n) for n in order if n in vocab}
        oracle = np.array([1.0 if c in wanted else 0.0 for c in labels])
        chain = build_masks(labels, order, vocab).T  # column i: the suffix order[i:]
        assert np.array_equal(chain[0], oracle)

        for wider, narrower in zip(chain, chain[1:]):
            assert np.all(narrower <= wider)

        doubled = build_masks(labels, order + [order[0]], vocab)[:, 0]
        shuffled = build_masks(labels, list(rng.permutation(order)), vocab)[:, 0]
        assert np.array_equal(doubled, oracle)
        assert np.array_equal(shuffled, oracle)
        agree += 1
    assert agree == 500


@criterion("03 finite-difference gradient audit of every parameter")
def test_criterion_03_gradient_audit():
    """All four losses composed on a d=8, two-block, five-proposal model;
    every parameter entry within 1e-4 relative error in under 60 s."""
    t0 = time.monotonic()
    report = full_model_grad_check(seed=0)
    elapsed = time.monotonic() - t0
    assert not report.nonfinite
    assert report.checked >= 4000, f"only {report.checked} entries audited"
    assert report.max_rel_err <= 1e-4, (
        f"max relative error {report.max_rel_err:.3e} at {report.worst_param}"
    )
    assert elapsed < 60.0, f"gradient audit took {elapsed:.1f}s"


@criterion("04 scores are permutation equivariant")
def test_criterion_04_permutation_equivariance():
    """100 random scenes with random proposal permutations: scores follow
    the permutation to within 1e-9."""
    gen = GenConfig(
        proposals_min=4,
        proposals_max=8,
        points_per_proposal=6,
        class_vocab_size=8,
        order_len=2,
        seed=4,
    )
    model = GroundingModel(
        ModelConfig(d=16, b=2, n_heads=2, points_per_proposal=6, seed=0),
        default_vocab(gen.class_vocab_size),
    )
    rng = np.random.default_rng(44)
    worst = 0.0
    for sample in generate_dataset(gen, 100):
        base = model.forward(sample.scene, sample.order, sample.description)
        perm = rng.permutation(len(sample.scene)).tolist()
        moved = model.forward(
            permute_scene(sample.scene, perm), sample.order, sample.description
        )
        dev = float(np.max(np.abs(moved.scores.data - base.scores.data[perm])))
        worst = max(worst, dev)
    assert worst <= 1e-9, f"worst score deviation {worst:.3e}"


@criterion("05 d=32 four-block model overfits 64 samples to 95%")
def test_criterion_05_overfit():
    """Fine-tune style training on 64 fixed samples reaches at least 95%
    grounding accuracy within 3000 steps and ten minutes."""
    t0 = time.monotonic()
    gen = GenConfig(
        proposals_min=5,
        proposals_max=7,
        points_per_proposal=8,
        class_vocab_size=8,
        order_len=4,
        seed=100,
    )
    data = list(generate_dataset(gen, 64))
    vocab = default_vocab(gen.class_vocab_size)
    model = GroundingModel(
        ModelConfig(d=32, b=4, n_heads=4, points_per_proposal=8, seed=0), vocab
    )
    state = TrainState.fresh(0)
    parser = lambda desc: parse_appearance_order(desc, vocab)

    steps, acc = 0, 0.0
    while steps < 3000:
        tc = TrainConfig(main_steps=100, batch_size=8, lr=3e-4, seed=0)
        _, state = main_stage(model, data, tc, parser, state)
        steps += 100
        acc = accuracy(model, data).overall
        if acc >= 0.95:
            break
    elapsed = time.monotonic() - t0
    assert acc >= 0.95, f"training accuracy {acc:.3f} after {steps} steps"
    assert elapsed < 600.0, f"overfit run took {elapsed:.1f}s"


@criterion("06 warm-up improves transfer over fine-tune alone")
def test_criterion_06_warmup_transfer():
    """Mean held-out accuracy over 3 seeds: a 2000-step warm-up followed
    by a 64-sample fine-tune must not trail the fine-tune-only baseline."""
    vocab = default_vocab(8)
    parser = lambda desc: parse_appearance_order(desc, vocab)

    def gen_cfg(seed, style):
        return GenConfig(
            proposals_min=5,
            proposals_max=7,
            points_per_proposal=8,
            class_vocab_size=8,
            order_len=2,
            seed=seed,
            style=style,
        )

    tune = list(generate_dataset(gen_cfg(900, "natural"), 64))
    held_out = list(generate_dataset(gen_cfg(901, "natural"), 500))

    def run(seed, with_warmup):
        model = GroundingModel(
            ModelConfig(d=16, b=2, n_heads=2, points_per_proposal=8, seed=seed), vocab
        )
        state = TrainState.fresh(seed)
        if with_warmup:
            tc = TrainConfig(warmup_steps=2000, batch_size=4, lr=3e-4, seed=seed)
            _, state = warmup_stage(model, gen_cfg(seed, "template"), tc, state)
        tc = TrainConfig(main_steps=300, batch_size=8, lr=3e-4, seed=seed)
        _, state = main_stage(model, tune, tc, parser, state)
        return accuracy(model, held_out).overall

    warm = [run(seed, True) for seed in (0, 1, 2)]
    cold = [run(seed, False) for seed in (0, 1, 2)]
    assert np.mean(warm) >= np.mean(cold), (
        f"warm-up mean {np.mean(warm):.3f} < fine-tune-only mean {np.mean(cold):.3f}"
    )


@criterion("07 loss closed forms and translation covariance")
def test_criterion_07_loss_closed_forms():
    """Uniform cross-entropy equals ln 4 and zero-logit BCE equals ln 2
    within 1e-12; coordinate loss is exactly translation covariant."""
    uniform = tt.constant(np.zeros((4, 1)))
    ce = loss_ref(uniform, [2]).data[0, 0]
    assert abs(ce - math.log(4.0)) <= 1e-12

    logits = tt.constant(np.zeros((3, 1)))
    mask = np.array([[1.0], [0.0], [1.0]])
    bce = loss_mask(logits, mask).data[0, 0]
    assert abs(bce - math.log(2.0)) <= 1e-12

    # dyadic coordinates so the shifted difference is exact in binary
    centers = np.array([[0.0, 0.25, 1.5], [2.0, -0.75, 0.5], [-1.25, 3.0, 0.25]])
    preds = tt.constant(np.hstack([np.full((3, 3), 0.125), np.zeros((3, 3))]))
    ids = [1, 0]
    base = loss_crd(preds, centers, ids).data[0, 0]
    shifted = loss_crd(preds, centers + np.array([4.5, -2.25, 8.0]), ids).data[0, 0]
    assert shifted == base


@criterion("08 order trimming and padding preserve block semantics")
def test_criterion_08_trim_pad():
    """1000 random orders against a four-block budget: exact length, last
    element kept, idempotent, and padded suffixes build identical masks."""
    vocab = default_vocab(8)
    rng = np.random.default_rng(8)
    b = 4
    ok = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        order = [vocab.name(int(c)) for c in rng.integers(0, len(vocab), n)]
        fitted = trim_pad(order, b)
        assert len(fitted) == b
        assert fitted[-1] == order[-1]
        assert trim_pad(fitted, b) == fitted
        labels = rng.integers(0, len(vocab), 6).tolist()
        wanted, fitted_masks = build_masks(labels, order, vocab), build_masks(labels, fitted, vocab)
        for i in range(b):
            want = wanted[:, max(0, i + n - b)]
            got = fitted_masks[:, i]
            assert np.array_equal(got, want)
        ok += 1
    assert ok == 1000


@criterion("09 checkpoint round trip is bit-exact")
def test_criterion_09_checkpoint_round_trip(tmp_path):
    """Scores on a probe batch are bit-identical after save and load."""
    gen = GenConfig(
        proposals_min=4,
        proposals_max=6,
        points_per_proposal=6,
        class_vocab_size=6,
        order_len=2,
        seed=55,
    )
    data = list(generate_dataset(gen, 12))
    vocab = default_vocab(gen.class_vocab_size)
    model = GroundingModel(
        ModelConfig(d=8, b=2, n_heads=2, points_per_proposal=6, seed=3), vocab
    )
    state = TrainState.fresh(3)
    tc = TrainConfig(main_steps=5, batch_size=4, seed=3)
    _, state = main_stage(model, data, tc, lambda d: parse_appearance_order(d, vocab), state)

    path = tmp_path / "round_trip.ckpt"
    save_checkpoint(path, model, state)
    restored, _ = model_from_checkpoint(load_checkpoint(path))

    probe = data[:8]
    for sample in probe:
        before = model.forward(sample.scene, sample.order, sample.description)
        after = restored.forward(sample.scene, sample.order, sample.description)
        assert np.array_equal(before.scores.data, after.scores.data)


@criterion("10 two-stage parsing over the canned endpoint is exact")
def test_criterion_10_llm_client_contract():
    """The canned transport must yield these four orders verbatim."""
    expected = [
        ["bed", "pillow"],
        ["bed", "headboard", "pillow"],
        ["laptop", "bed", "pillow"],
        ["table", "window"],
    ]
    transport = CannedTransport(transcript_records())
    got = [
        list(llm_two_stage_order(case["description"], transport=transport).names)
        for case in PARSE_CASES
    ]
    assert got == expected
