"""Tests for scene sampling, warm-up synthesis, and the chain oracle."""

import hashlib

import numpy as np
import pytest

from vigor import synthgen
from vigor.errors import AmbiguityError, ContractError, GenerationError, SkipSample
from vigor.scene import ClassVocab, Scene
from vigor.synthgen import (
    GenConfig,
    default_vocab,
    generate_dataset,
    oracle_resolve,
    oracle_resolve_parts,
    render_description,
    resolve_chain,
    sample_at,
    sample_scene,
    synth_warmup_sample,
)


def tiny_cfg(**kw):
    base = dict(
        proposals_min=4,
        proposals_max=7,
        points_per_proposal=8,
        room_extent=6.0,
        class_vocab_size=8,
        order_len=2,
        seed=0,
    )
    base.update(kw)
    return GenConfig(**base)


def scene_from_centers(centers, classes, vocab):
    points = []
    for c in centers:
        c = np.asarray(c, dtype=float)
        pts = np.array(
            [
                [c[0] - 0.1, c[1] - 0.1, c[2] - 0.1, 0.5, 0.5, 0.5],
                [c[0] + 0.1, c[1] + 0.1, c[2] + 0.1, 0.5, 0.5, 0.5],
            ]
        )
        points.append(pts)
    return Scene(classes, points, vocab)


# ---------------------------------------------------------------------------
# scene sampling


def test_sample_scene_respects_bounds_and_gap():
    cfg = tiny_cfg()
    rng = np.random.default_rng(1)
    for _ in range(20):
        scene = sample_scene(cfg, rng)
        assert cfg.proposals_min <= len(scene) <= cfg.proposals_max
        centers = scene.centers
        assert (centers >= -0.5).all() and (centers <= cfg.room_extent + 0.5).all()
        k = len(scene)
        dists = sorted(
            float(np.linalg.norm(centers[i] - centers[j]))
            for i in range(k)
            for j in range(i + 1, k)
        )
        for a, b in zip(dists, dists[1:]):
            assert b - a >= cfg.min_separation


def test_sample_scene_centers_match_bbox():
    scene = sample_scene(tiny_cfg(), np.random.default_rng(2))
    for points, center in zip(scene.points, scene.centers, strict=True):
        xyz = points[:, :3]
        want = (xyz.min(axis=0) + xyz.max(axis=0)) / 2
        assert np.allclose(center, want)


def test_sample_scene_deterministic():
    cfg = tiny_cfg()
    a = sample_scene(cfg, np.random.default_rng(7))
    b = sample_scene(cfg, np.random.default_rng(7))
    assert len(a) == len(b)
    assert np.array_equal(a.class_ids, b.class_ids)
    for pa, pb in zip(a.points, b.points):
        assert np.array_equal(pa, pb)


def test_a_rejected_try_builds_no_scene(monkeypatch):
    cfg = tiny_cfg()
    built = []

    def spy(*args, **kwargs):
        built.append(1)
        return Scene(*args, **kwargs)

    monkeypatch.setattr(synthgen, "Scene", spy)
    with pytest.raises(GenerationError):  # seed 0's first try fails the gap test
        sample_scene(cfg, np.random.default_rng(0), budget=1)
    assert not built
    sample_scene(cfg, np.random.default_rng(0))
    assert len(built) == 1


def test_samples_share_no_writable_arrays():
    cfg = tiny_cfg()
    table = synthgen._color_table(cfg.class_vocab_size)
    table_before = table.copy()
    want = sample_at(cfg, 1)
    for points in sample_at(cfg, 0).scene.points:
        points[:] = -1.0
    got = sample_at(cfg, 1)
    for a, b in zip(got.scene.points, want.scene.points, strict=True):
        assert np.array_equal(a, b)
    assert not table.flags.writeable
    assert np.array_equal(table, table_before)


def test_sample_scene_budget_exhaustion():
    # an absurd separation requirement cannot be met
    cfg = tiny_cfg(min_separation=100.0, proposals_min=5, proposals_max=5)
    with pytest.raises(GenerationError):
        sample_scene(cfg, np.random.default_rng(0), budget=20)


@pytest.mark.parametrize(
    "field, value",
    [
        ("room_extent", -3.0),
        ("room_extent", 0.0),
        ("room_extent", float("nan")),
        ("room_extent", float("inf")),
        ("min_separation", float("nan")),
        ("min_separation", float("inf")),
        ("min_separation", 0.0),
        ("room_extent", 1e155),  # its points would pass no scene's bound
        ("min_separation", 1e200),  # no two distances in a room differ by this
        ("points_per_proposal", 0),
        ("points_per_proposal", -1),
        ("class_vocab_size", 0),
        ("class_vocab_size", -2),
        ("order_len", 10),  # above proposals_max 9: no scene holds 10 classes
        ("order_len", 13),  # above class_vocab_size 12 as well
    ],
)
def test_gen_config_rejects_out_of_range_geometry(field, value):
    with pytest.raises(ContractError, match=field):
        GenConfig(**{field: value})


def test_gen_config_accepts_an_order_that_just_fits():
    """An order needs order_len distinct classes in one scene; a config
    whose vocabulary and largest scene hold exactly that many can draw."""
    cfg = GenConfig(order_len=3, class_vocab_size=3, proposals_min=3, proposals_max=3)
    sample = sample_at(cfg, 0)
    assert len(set(sample.order)) == 3 == len(sample.scene)


def test_default_vocab_extends_past_base_names():
    vocab = default_vocab(30)
    assert len(vocab) == 30
    assert "object 29" in vocab


def test_default_vocab_refuses_a_size_past_the_bound():
    # Each name is made in Python, so an unbounded size would never return.
    with pytest.raises(ContractError, match="vocabulary size"):
        default_vocab(synthgen.MAX_CLASS_VOCAB + 1)
    assert len(default_vocab(synthgen.MAX_CLASS_VOCAB)) == synthgen.MAX_CLASS_VOCAB
    assert default_vocab(30).names[:24] == synthgen.DEFAULT_CLASS_NAMES


# ---------------------------------------------------------------------------
# description rendering


def test_render_description_two_elements():
    text = render_description(["door", "table"], "farthest")
    assert text == "There is a door in the room, finally you can see the table farthest to that door."


def test_render_description_three_elements():
    text = render_description(["a", "b", "c"], "farthest")
    assert "There is a a in the room" in text
    assert "find the b farthest to it" in text
    assert "finally you can see the c farthest to that b" in text


def test_render_description_four_elements_chains():
    text = render_description(["a", "b", "c", "d"], "nearest")
    assert "and then find the c nearest to that b" in text
    assert text.endswith("finally you can see the d nearest to that c.")


def test_render_description_rejects_short_orders():
    with pytest.raises(ContractError):
        render_description(["chair"], "farthest")


# ---------------------------------------------------------------------------
# warm-up synthesis


def hand_scene():
    """door at origin, tables at x=3 and x=9, chair at x=5."""
    vocab = ClassVocab(("chair", "door", "table"))
    return scene_from_centers(
        centers=[[0, 0, 0], [3, 0, 0], [9, 0, 0], [5, 0, 0]],
        classes=[1, 2, 2, 0],
        vocab=vocab,
    )


def test_resolve_chain_hand_case():
    scene = hand_scene()
    # door -> farthest table is the one at x=9 (id 2)
    chain = resolve_chain(scene, [scene.vocab.index("door"), scene.vocab.index("table")], "farthest")
    assert chain == [0, 2]
    chain = resolve_chain(scene, [scene.vocab.index("door"), scene.vocab.index("table")], "nearest")
    assert chain == [0, 1]


def test_synth_warmup_sample_prunes_first_class():
    rng = np.random.default_rng(0)
    cfg = tiny_cfg(order_len=3, proposals_min=6, proposals_max=8)
    for _ in range(20):
        scene = sample_scene(cfg, rng)
        try:
            sample = synth_warmup_sample(scene, 3, "farthest", rng)
        except SkipSample:
            continue
        first = sample.order[0]
        count = sum(1 for c in sample.scene.class_ids if sample.scene.vocab.name(c) == first)
        assert count == 1
        assert len(sample.order) == 3
        assert len(set(sample.anchor_target_ids)) == 3
        scene = sample.scene
        assert len(scene.class_ids) == len(scene.points) == len(scene.centers)


def test_synth_warmup_sample_skips_when_too_few_classes():
    vocab = ClassVocab(("chair", "door"))
    scene = scene_from_centers([[0, 0, 0], [1, 0, 0]], [0, 0], vocab)
    with pytest.raises(SkipSample):
        synth_warmup_sample(scene, 2, "farthest", np.random.default_rng(0))


def test_oracle_resolve_agrees_on_hand_case():
    scene = hand_scene()
    chain = oracle_resolve_parts(scene, ["door", "table"], "farthest")
    assert chain == [0, 2]


def test_oracle_resolve_detects_tie():
    vocab = ClassVocab(("door", "table"))
    scene = scene_from_centers(
        centers=[[0, 0, 0], [-4, 0, 0], [4, 0, 0]],
        classes=[0, 1, 1],
        vocab=vocab,
    )
    with pytest.raises(AmbiguityError):
        oracle_resolve_parts(scene, ["door", "table"], "farthest")


def test_oracle_resolve_requires_unique_start():
    vocab = ClassVocab(("door", "table"))
    scene = scene_from_centers(
        centers=[[0, 0, 0], [1, 0, 0], [4, 0, 0]],
        classes=[0, 0, 1],
        vocab=vocab,
    )
    with pytest.raises(AmbiguityError):
        oracle_resolve_parts(scene, ["door", "table"], "farthest")


# ---------------------------------------------------------------------------
# dataset generation


def test_generate_dataset_deterministic_and_valid():
    cfg = tiny_cfg(order_len=2)
    a = list(generate_dataset(cfg, 10))
    b = list(generate_dataset(cfg, 10))
    assert len(a) == 10
    for sa, sb in zip(a, b):
        assert sa.description == sb.description
        assert sa.order == sb.order
        assert sa.anchor_target_ids == sb.anchor_target_ids
        assert np.array_equal(sa.scene.centers, sb.scene.centers)


def test_generate_dataset_oracle_agreement_sweep():
    for seed in range(3):
        cfg = tiny_cfg(order_len=3, proposals_min=5, proposals_max=8, seed=seed)
        for sample in generate_dataset(cfg, 25):
            assert oracle_resolve(sample) == sample.anchor_target_ids
            assert sample.anchor_target_ids[-1] == sample.anchor_target_ids[-1]
            assert len(sample.order) == 3


def test_generate_dataset_natural_style_resolves():
    cfg = tiny_cfg(order_len=2, style="natural", seed=3)
    seen_relations = set()
    for sample in generate_dataset(cfg, 20):
        seen_relations.add(sample.relation)
        assert sample.relation in sample.description
        assert oracle_resolve(sample) == sample.anchor_target_ids
    assert seen_relations == {"farthest", "nearest"}


def stream_digest(cfg, n):
    """sha256 over slots 0 .. n-1 of `sample_at`: class ids, points,
    centers, order, description, relation and chain."""
    h = hashlib.sha256()
    for index in range(n):
        sample = sample_at(cfg, index)
        h.update(np.asarray(sample.scene.class_ids, dtype="<i8").tobytes())
        for points in sample.scene.points:
            h.update(points.astype("<f8").tobytes())
        h.update(sample.scene.centers.astype("<f8").tobytes())
        h.update("\n".join([*sample.order, sample.description, sample.relation]).encode())
        h.update(np.asarray(sample.anchor_target_ids, dtype="<i8").tobytes())
    return h.hexdigest()


# Every test's data and every bench digest follow from this stream, so a
# change to the draw order or to the arithmetic on the draws must show here.
PINNED_STREAMS = {
    "template-k5-7-p8-len2": (
        dict(style="template", proposals_min=5, proposals_max=7, points_per_proposal=8,
             order_len=2, seed=0),
        "2eab802312153adf814f67a677699846863cf264aa9a59b8170c0f1024ec6fab",
    ),
    "natural-k8-12-p16-len5": (
        dict(style="natural", proposals_min=8, proposals_max=12, points_per_proposal=16,
             order_len=5, seed=1),
        "571c3f77675aa47a221b4979f110338c5ba88620296f43b3c2d2c39d5af77126",
    ),
    "template-nearest-k8-12-p16-len3": (
        dict(style="template", proposals_min=8, proposals_max=12, points_per_proposal=16,
             order_len=3, relation="nearest", seed=2),
        "595d37a001af9b674bbf548d330640954193047f5338f9e9f468008090dc3985",
    ),
    "natural-k5-7-p8-len4": (
        dict(style="natural", proposals_min=5, proposals_max=7, points_per_proposal=8,
             order_len=4, seed=3),
        "65f205b3a88134d192ce17e41544ec7d1f20a395e18edc87b33e767066e23f63",
    ),
}


@pytest.mark.parametrize(
    "settings, digest", PINNED_STREAMS.values(), ids=PINNED_STREAMS.keys()
)
def test_sample_stream_is_pinned(settings, digest):
    assert stream_digest(GenConfig(**settings), 60) == digest


def test_generate_dataset_zero_samples():
    assert list(generate_dataset(tiny_cfg(), 0)) == []


def test_generate_dataset_refuses_a_negative_count_at_the_call():
    with pytest.raises(ContractError, match="-3"):
        generate_dataset(tiny_cfg(), -3)
