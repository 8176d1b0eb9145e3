"""Tests for the grounding network: encoders, blocks, heads, gradients."""

from types import SimpleNamespace

import numpy as np
import pytest

import vigor.tensor as tt
from vigor.errors import ContractError
from vigor.evaluation import accuracy
from vigor.model import (
    GroundingModel,
    ModelConfig,
    WordVocab,
    _encoder_layer,
    encode_objects,
    encode_text,
    init_params,
    sinusoid_positions,
    tokenize,
)
from vigor.scene import ClassVocab, Scene, permute_scene

VOCAB = ClassVocab(("chair", "table", "door", "bed", "water bottle"))


def cloud(center, n=8, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.asarray(center, dtype=float) + rng.normal(0.0, 0.4, size=(n, 3))
    return np.hstack([pts, rng.uniform(0.0, 1.0, size=(n, 3))])


def make_scene(centers, classes, n_points=8, vocab=VOCAB):
    points = [cloud(ctr, n=n_points, seed=100 + i) for i, ctr in enumerate(centers)]
    return Scene(classes, points, vocab)


def tiny_model(b=2, d=8, n_heads=2, points=8, seed=0):
    cfg = ModelConfig(d=d, b=b, n_heads=n_heads, points_per_proposal=points, seed=seed)
    return GroundingModel(cfg, VOCAB)


SCENE = make_scene(
    [(0, 0, 0), (3, 0, 0), (9, 0, 0)], [VOCAB.index("door"), 1, 1]
)
ORDER = ["door", "table"]
DESC = "There is a door in the room, finally you can see the table farthest to that door."


# ---------------------------------------------------------------------------
# config and vocab


def test_config_rejects_bad_head_split():
    with pytest.raises(ContractError):
        ModelConfig(d=10, n_heads=4)


def test_config_rejects_zero_blocks():
    with pytest.raises(ContractError):
        ModelConfig(b=0)


def test_config_rejects_zero_heads():
    with pytest.raises(ContractError):
        ModelConfig(d=8, n_heads=0)


def test_word_vocab_unknown_maps_to_zero():
    wv = WordVocab.build(VOCAB)
    assert wv.tokens[0] == "<unk>"
    assert wv.encode(["zyzzyva"]) == [0]
    ids = wv.encode(tokenize("There is a water bottle in the room"))
    assert 0 not in ids  # template + class words are all in-vocabulary


def test_word_vocab_refuses_a_repeated_token():
    # a repeat would leave an embedding row unreachable and move <unk> off id 0
    with pytest.raises(ContractError, match="repeats"):
        WordVocab(("<unk>", "chair", "chair", "<unk>"))


def test_word_vocab_covers_generated_text():
    from vigor.synthgen import GenConfig, default_vocab, generate_dataset

    cfg = GenConfig(order_len=3, seed=5)
    wv = WordVocab.build(default_vocab(cfg.class_vocab_size))
    for sample in generate_dataset(cfg, 10):
        assert 0 not in wv.encode(tokenize(sample.description))


def test_init_requires_finalized_vocab_sizes():
    with pytest.raises(ContractError):
        init_params(ModelConfig(d=8, n_heads=2))


def test_init_deterministic_by_seed():
    a = tiny_model(seed=7).params
    b = tiny_model(seed=7).params
    c = tiny_model(seed=8).params
    assert sorted(a) == sorted(b) == sorted(c)
    assert all(np.array_equal(a[k], b[k]) for k in a)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_sinusoid_positions():
    pe = sinusoid_positions(5, 8)
    assert pe.shape == (5, 8)
    assert np.abs(pe).max() <= 1.0
    assert np.allclose(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])


# ---------------------------------------------------------------------------
# text encoder


def encode_piece(m, p, words):
    """One unpacked encoder pass over one token sequence, positions from 0."""
    x = tt.take_rows(p["emb"], m.word_vocab.encode(words))
    x = tt.add(x, tt.constant(sinusoid_positions(len(words), m.cfg.d)))
    for layer in range(2):
        x = _encoder_layer(p, f"txt{layer}", x, m.cfg.n_heads, None)
    return x


def mean_of_rows(x):
    m = x.shape[0]
    return tt.mul(tt.matmul(tt.constant(np.ones((1, m))), x), tt.constant(1.0 / m))


def encode_text_per_piece(m, p, tokens, order):
    """Reference: the description, then every order name, each encoded alone."""
    words = encode_piece(m, p, tokens)
    names = [mean_of_rows(encode_piece(m, p, tokenize(name))) for name in order]
    return tt.concat(mean_of_rows(words), words), tt.concat(*names)


@pytest.mark.parametrize(
    "order",
    [
        ["door", "water bottle", "table", "chair"],
        ["chair", "water bottle", "chair", "chair"],
        ["door", "door", "door", "door"],
    ],
    ids=["distinct", "repeated", "all-equal"],
)
def test_packed_text_encoder_matches_per_piece_passes(order):
    m = tiny_model(b=4, d=8, n_heads=2)
    tokens = tokenize(DESC)
    rng = np.random.default_rng(3)
    w_rows = tt.constant(rng.normal(size=(len(tokens) + 1, 8)))
    w_names = tt.constant(rng.normal(size=(4, 8)))
    results = []
    for packed in (True, False):
        p = m.trainable()
        if packed:
            text = encode_text([tokens], order, p, m.word_vocab, m.cfg)
            rows, names = tt.concat(text.sentences, text.words), text.order_features
        else:
            rows, names = encode_text_per_piece(m, p, tokens, order)
        loss = tt.add(tt.mean_all(tt.mul(rows, w_rows)), tt.mean_all(tt.mul(names, w_names)))
        results.append((rows.data, names.data, tt.backward(loss, p)))
    (rows, names, grads), (ref_rows, ref_names, ref_grads) = results
    assert np.abs(rows - ref_rows).max() <= 1e-10
    assert np.abs(names - ref_names).max() <= 1e-10
    for name, g in ref_grads.items():
        assert np.abs(grads[name] - g).max() <= 1e-10, name
    assert np.abs(ref_grads["txt0.attn.wq"]).max() > 0.0


def test_packed_text_encoder_rejects_empty_pieces():
    m = tiny_model(b=2)
    with pytest.raises(ContractError):
        encode_text([tokenize(DESC)], ["door", "?!"], m.frozen(), m.word_vocab, m.cfg)
    with pytest.raises(ContractError):
        encode_text([tokenize(DESC), []], ORDER, m.frozen(), m.word_vocab, m.cfg)
    with pytest.raises(ContractError):
        encode_text([], ORDER, m.frozen(), m.word_vocab, m.cfg)
    # a bare token list is a sequence of strings, not of descriptions
    with pytest.raises(ContractError):
        encode_text(tokenize(DESC), ORDER, m.frozen(), m.word_vocab, m.cfg)


# ---------------------------------------------------------------------------
# object encoder


def test_encode_objects_shape():
    m = tiny_model()
    out = encode_objects([SCENE], m.frozen(), m.cfg)
    assert out.shape == (3, m.cfg.d)


def test_encode_objects_is_per_proposal():
    """Each row depends only on its own proposal, so rows permute cleanly."""
    m = tiny_model()
    perm = [2, 0, 1]
    base = encode_objects([SCENE], m.frozen(), m.cfg).data
    permuted = encode_objects([permute_scene(SCENE, perm)], m.frozen(), m.cfg).data
    assert np.array_equal(permuted, base[perm])


def test_resampling_handles_any_point_count():
    m = tiny_model(points=8)
    for n in (3, 8, 20):
        scene = make_scene([(0, 0, 0), (4, 0, 0)], [0, 1], n_points=n)
        out = encode_objects([scene], m.frozen(), m.cfg)
        assert out.shape == (2, 8)
        assert np.isfinite(out.data).all()


# ---------------------------------------------------------------------------
# forward pass


def test_forward_shapes_and_counts():
    m = tiny_model(b=2)
    out = m.forward(SCENE, ORDER, DESC)
    k = len(SCENE)
    assert out.block_scores.shape[1] == 2
    assert out.scores.shape == (k, 1)
    assert out.mask_logits.shape == (k, 2)
    assert out.coord_pred.shape == (k, 3 * 2)
    assert out.text_class_logits.shape == (1, len(VOCAB))
    assert out.masks.sum(axis=0).tolist() == [3, 2]


def test_forward_builds_a_head_on_its_first_read_only(built_heads):
    """An argmax reads `scores` alone: one score head, built once, and
    nothing built before the first read."""
    m = tiny_model(b=3)
    out = m.forward(SCENE, ["door", "door", "table"], DESC)
    assert built_heads == []
    out.predicted_id()
    assert out.scores is out.scores
    assert built_heads == ["head.score"]


def test_last_block_score_column_is_the_scores():
    m = tiny_model(b=3)
    order = ["door", "door", "table"]
    block_scores = m.forward(SCENE, order, DESC).block_scores.data
    assert np.array_equal(block_scores[:, -1:], m.forward(SCENE, order, DESC).scores.data)


def test_forward_deterministic():
    m = tiny_model()
    a = m.forward(SCENE, ORDER, DESC)
    b = m.forward(SCENE, ORDER, DESC)
    assert np.array_equal(a.scores.data, b.scores.data)
    assert np.array_equal(a.text_class_logits.data, b.text_class_logits.data)


def test_forward_rejects_wrong_order_length():
    m = tiny_model(b=2)
    with pytest.raises(ContractError):
        m.forward(SCENE, ["door"], DESC)


def test_forward_rejects_wrong_label_count():
    m = tiny_model(b=2)
    with pytest.raises(ContractError):
        m.forward(SCENE, ORDER, DESC, labels=[0, 1])


def test_forward_finite_with_all_unknown_order():
    """Orders full of unseen class names zero every mask; outputs stay finite."""
    m = tiny_model(b=2)
    out = m.forward(SCENE, ["spaceship", "unicorn"], DESC)
    assert not out.masks.any()
    assert np.isfinite(out.scores.data).all()


@pytest.mark.parametrize("via", ["forward", "accuracy"])
@pytest.mark.parametrize(
    "name, value, block",
    [("obj.out.b", np.nan, 1), ("fe1.out_ln.b", np.inf, 3)],
    ids=["F_1-nan", "F_B+1-inf"],
)
def test_forward_refuses_non_finite_block_features(name, value, block, via):
    """F_1 .. F_{B+1} are each scanned as they are built; B = 2 here."""
    m = tiny_model(b=2)
    m.params[name][0, 0] = value
    with pytest.raises(ContractError, match=f"non-finite object features at block {block}$"):
        if via == "forward":
            m.forward(SCENE, ORDER, DESC)
        else:
            accuracy(m, [SimpleNamespace(scene=SCENE, description=DESC, order=ORDER, target_id=0)])


def test_forward_single_proposal_softmax_is_one():
    m = tiny_model(b=2)
    scene = make_scene([(0, 0, 0)], [VOCAB.index("door")])
    out = m.forward(scene, ["door", "door"], "the door in the room")
    # a one-entry softmax is exactly [1.0], so -log of it is exactly 0
    assert tt.cross_entropy(out.scores, [[0]]).item() == 0.0


def test_forward_permutation_equivariance():
    m = tiny_model(b=2)
    scene = make_scene(
        [(0, 0, 0), (3, 1, 0), (9, 0, 2), (5, 5, 1)],
        [VOCAB.index("door"), 1, 1, 0],
    )
    perm = [3, 1, 0, 2]
    base = m.forward(scene, ORDER, DESC)
    moved = m.forward(permute_scene(scene, perm), ORDER, DESC)
    assert np.max(np.abs(moved.scores.data - base.scores.data[perm])) <= 1e-9
    assert np.max(np.abs(moved.coord_pred.data - base.coord_pred.data[perm])) <= 1e-9
    assert base.predicted_id() == perm[moved.predicted_id()]


def test_forward_uses_given_labels_for_masks():
    m = tiny_model(b=2)
    noisy = [1, 1, 1]  # pretend everything is a table
    out = m.forward(SCENE, ORDER, DESC, labels=noisy)
    assert out.masks.sum(axis=0).tolist() == [3, 3]


# ---------------------------------------------------------------------------
# gradients through the whole stack


def test_forward_gradients_match_finite_differences():
    m = tiny_model(b=2, d=8, n_heads=2, points=8)
    scene = make_scene([(0, 0, 0), (3, 0, 0), (9, 0, 0)], [2, 1, 1])
    target = 2
    subset = {
        k: m.params[k]
        for k in (
            "txt0.attn.wq",
            "txt1.ffn.2.b",
            "obj.p1.w",
            "obj.out.b",
            "fe0.low.wk",
            "fe1.fuse.wv",
            "fe0.out_ln.g",
            "head.score.1.w",
        )
    }

    def loss_fn(checked):
        p = {
            k: checked[k] if k in checked else tt.constant(v)
            for k, v in m.params.items()
        }
        out = m.forward(scene, ORDER, DESC, params=p)
        return tt.cross_entropy(out.scores, [[target]])

    report = tt.grad_check(loss_fn, subset)
    assert report.nonfinite == []
    assert report.max_rel_err <= 1e-4, report


# ---------------------------------------------------------------------------
# packed batches


def test_forward_batch_rows_equal_each_sample_alone():
    m = tiny_model(b=2)
    scenes = [
        SCENE,
        make_scene([(0, 0, 0), (4, 1, 0)], [VOCAB.index("door"), 0]),
        make_scene([(1, 0, 0), (2, 5, 1), (7, 0, 2), (5, 5, 0)], [1, 1, 4, VOCAB.index("door")]),
    ]
    orders = [ORDER, ["door", "door"], ["water bottle", "table"]]
    descriptions = [DESC, "the chair near the door", "the table far from the water bottle"]
    packed = m.forward_batch(scenes, orders, descriptions)
    assert packed.segments.tolist() == [0, 0, 0, 1, 1, 2, 2, 2, 2]
    assert packed.text_class_logits.shape == (3, len(VOCAB))
    for s, (scene, order, desc) in enumerate(zip(scenes, orders, descriptions)):
        alone = m.forward(scene, order, desc)
        rows = packed.segments == s
        for name in ("scores", "block_scores", "mask_logits", "coord_pred"):
            got, want = getattr(packed, name), getattr(alone, name)
            assert np.abs(got.data[rows] - want.data).max() <= 1e-10
        text = packed.text_class_logits.data[s] - alone.text_class_logits.data[0]
        assert np.abs(text).max() <= 1e-10
        assert np.array_equal(packed.masks[rows], alone.masks)
    with pytest.raises(ContractError):
        packed.predicted_id()


def test_forward_batch_contract():
    m = tiny_model(b=2)
    with pytest.raises(ContractError):
        m.forward_batch([], [], [])
    with pytest.raises(ContractError):
        m.forward_batch([SCENE, SCENE], [ORDER], [DESC, DESC])
    with pytest.raises(ContractError):
        m.forward_batch([SCENE, SCENE], [ORDER, ["door"]], [DESC, DESC])
    with pytest.raises(ContractError):
        m.forward_batch([SCENE, SCENE], [ORDER, ORDER], [DESC, DESC], labels=[[0, 1, 1]])
