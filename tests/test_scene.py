"""Tests for the scene model, relevance masks, and relation selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigor.errors import ContractError, NotFoundError
from vigor.scene import (
    ClassVocab,
    Proposal,
    Scene,
    build_masks,
    permute_scene,
    relation_select,
)


def box_points(center, half=0.5):
    """8 corner points of a cube around `center`, grey color."""
    c = np.asarray(center, dtype=float)
    corners = []
    for dx in (-half, half):
        for dy in (-half, half):
            for dz in (-half, half):
                corners.append([c[0] + dx, c[1] + dy, c[2] + dz, 0.5, 0.5, 0.5])
    return np.array(corners)


def make_scene(centers, classes, vocab):
    proposals = [
        Proposal(id=i, class_id=c, points=box_points(ctr))
        for i, (ctr, c) in enumerate(zip(centers, classes))
    ]
    return Scene(proposals=proposals, vocab=vocab)


VOCAB = ClassVocab(("chair", "table", "door", "water bottle", "easy chair"))


# ---------------------------------------------------------------------------
# centers and bboxes


def proposal_of(xyz, rgb=0.5):
    xyz = np.asarray(xyz, dtype=float)
    return Proposal(id=0, class_id=0, points=np.hstack([xyz, np.full_like(xyz, rgb)]))


def test_center_bbox_unit_cube():
    p = proposal_of([[0.0, 0, 0], [1, 1, 1], [0.5, 0.2, 0.9]])
    assert np.array_equal(p.center, [0.5, 0.5, 0.5])


def test_center_bbox_single_point():
    assert np.array_equal(proposal_of([[2.0, -1.0, 3.0]]).center, [2.0, -1.0, 3.0])


def test_center_bbox_random_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pts = rng.normal(size=(rng.integers(1, 30), 3)) * 5
        # colours far outside the xyz range must not move the center
        center = proposal_of(pts, rgb=100.0).center
        # scalar re-derivation per axis
        for ax in range(3):
            lo = min(float(v) for v in pts[:, ax])
            hi = max(float(v) for v in pts[:, ax])
            assert center[ax] == (lo + hi) / 2


def test_center_bbox_empty_rejected():
    with pytest.raises(ContractError):
        proposal_of(np.zeros((0, 3)))


def test_proposal_center_is_bbox_center():
    p = Proposal(id=0, class_id=0, points=box_points([1.0, 2.0, 3.0]))
    assert np.allclose(p.center, [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "center",
    [
        [1.0, 2.0],
        [1.0, 2.0, 3.0, 4.0],
        [[1.0, 2.0, 3.0]],
        "abc",
        [1.0, 2.0, float("nan")],
        [1.0, {}, 3.0],
    ],
    ids=["two", "four", "nested", "string", "nan", "object"],
)
def test_proposal_refuses_a_stored_center_that_is_not_three_finite_numbers(center):
    with pytest.raises(ContractError, match="three finite numbers"):
        Proposal(id=0, class_id=0, points=box_points([1.0, 2.0, 3.0]), center=center)
    stored = Proposal(id=0, class_id=0, points=box_points([1.0, 2.0, 3.0]), center=[1, 2, 3])
    assert stored.center.dtype == np.float64 and stored.center.shape == (3,)


# ---------------------------------------------------------------------------
# vocab


def test_vocab_lookup_normalizes():
    assert VOCAB.index("  Chair ") == 0
    assert VOCAB.index("WATER  BOTTLE") == 3
    assert "Easy Chair" in VOCAB
    assert VOCAB.name(1) == "table"
    with pytest.raises(NotFoundError):
        VOCAB.index("lamp")


def test_vocab_rejects_duplicates():
    with pytest.raises(ContractError):
        ClassVocab(("chair", "Chair"))


def test_scene_requires_contiguous_ids():
    props = [Proposal(id=1, class_id=0, points=box_points([0, 0, 0]))]
    with pytest.raises(ContractError):
        Scene(proposals=props, vocab=VOCAB)


# ---------------------------------------------------------------------------
# masks


def test_build_mask_example():
    scene = make_scene(
        centers=[[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]],
        classes=[0, 1, 0, 2],  # chair, table, chair, door
        vocab=VOCAB,
    )
    mask = build_masks(scene.labels(), ["table", "chair"], VOCAB)[:, 0]
    assert np.array_equal(mask, [1, 1, 1, 0])
    assert mask.sum() == 3


def test_build_mask_unknown_name_dropped(caplog):
    labels = [0, 1, 2]
    with caplog.at_level("WARNING"):
        mask = build_masks(labels, ["chair", "ghost"], VOCAB)[:, 0]
    assert np.array_equal(mask, [1, 0, 0])
    assert any("ghost" in r.message for r in caplog.records)


def test_build_mask_set_membership_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(1, 10))
        labels = [int(c) for c in rng.integers(0, len(VOCAB), size=k)]
        suffix_ids = rng.choice(len(VOCAB), size=rng.integers(1, 4), replace=False)
        suffix = [VOCAB.name(int(i)) for i in suffix_ids]
        mask = build_masks(labels, suffix, VOCAB)[:, 0]
        want = [1.0 if VOCAB.name(c) in set(suffix) else 0.0 for c in labels]
        assert np.array_equal(mask, want)


@settings(max_examples=100, deadline=None)
@given(
    labels=st.lists(st.integers(0, 4), min_size=1, max_size=8),
    suffix_ids=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    seed=st.integers(0, 10_000),
)
def test_build_mask_permutation_duplication_invariant(labels, suffix_ids, seed):
    rng = np.random.default_rng(seed)
    suffix = [VOCAB.name(i) for i in suffix_ids]
    base = build_masks(labels, suffix, VOCAB)[:, 0]
    shuffled = list(suffix)
    rng.shuffle(shuffled)
    dup = shuffled + [shuffled[0]] * int(rng.integers(0, 3))
    assert np.array_equal(build_masks(labels, dup, VOCAB)[:, 0], base)


def test_mask_suffix_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        labels = [int(c) for c in rng.integers(0, len(VOCAB), size=6)]
        order = [VOCAB.name(int(i)) for i in rng.choice(len(VOCAB), size=4, replace=False)]
        prev = None
        for bits in build_masks(labels, order, VOCAB).T:  # block by block
            if prev is not None:
                assert np.all(bits <= prev)  # unmasked set never grows
            prev = bits


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.integers(0, 4), min_size=1, max_size=8),
    order_ids=st.lists(st.integers(0, 6), min_size=1, max_size=6),  # 5 and 6 are unknown
    seed=st.integers(0, 10_000),
)
def test_build_masks_columns_equal_the_suffix_oracle(labels, order_ids, seed):
    """Column i is the set-membership oracle of order[i:]; the array is K x B
    of 0.0 / 1.0, and a shuffled or duplicated suffix gives the same column."""
    rng = np.random.default_rng(seed)
    order = [VOCAB.name(i) if i < len(VOCAB) else f"ghost {i}" for i in order_ids]
    masks = build_masks(labels, order, VOCAB)
    assert masks.shape == (len(labels), len(order)) and masks.dtype == np.float64
    for i in range(len(order)):
        suffix = set(order[i:])
        want = [1.0 if VOCAB.name(c) in suffix else 0.0 for c in labels]
        assert np.array_equal(masks[:, i], want)
        shuffled = list(order[i:])
        rng.shuffle(shuffled)
        dup = shuffled + shuffled[: int(rng.integers(0, 3))]
        assert np.array_equal(build_masks(labels, dup, VOCAB)[:, 0], want)


# ---------------------------------------------------------------------------
# relation selection


def test_relation_select_farthest_nearest():
    scene = make_scene(
        centers=[[0, 0, 0], [3, 0, 0], [9, 0, 0]],
        classes=[2, 1, 1],  # door, table, table
        vocab=VOCAB,
    )
    ref = scene.proposals[0].center
    far = relation_select(scene, class_id=1, ref_center=ref, relation="farthest")
    near = relation_select(scene, class_id=1, ref_center=ref, relation="nearest")
    assert far.id == 2
    assert near.id == 1


def test_relation_select_tie_breaks_lowest_id():
    scene = make_scene(
        centers=[[0, 0, 0], [-4, 0, 0], [4, 0, 0]],
        classes=[2, 1, 1],
        vocab=VOCAB,
    )
    picked = relation_select(scene, 1, scene.proposals[0].center, "farthest")
    assert picked.id == 1


def test_relation_select_missing_class():
    scene = make_scene(centers=[[0, 0, 0]], classes=[0], vocab=VOCAB)
    with pytest.raises(NotFoundError):
        relation_select(scene, 3, np.zeros(3), "farthest")
    with pytest.raises(ContractError):
        relation_select(scene, 0, np.zeros(3), "closest")


def test_relation_select_exhaustive_oracle():
    rng = np.random.default_rng(3)
    vocab = ClassVocab(tuple(f"c{i}" for i in range(4)))
    for _ in range(200):
        k = int(rng.integers(2, 50))
        centers = rng.uniform(0, 10, size=(k, 3))
        classes = [int(c) for c in rng.integers(0, 4, size=k)]
        scene = make_scene(centers, classes, vocab)
        ref = rng.uniform(0, 10, size=3)
        target_class = classes[int(rng.integers(0, k))]
        for relation in ("farthest", "nearest"):
            picked = relation_select(scene, target_class, ref, relation)
            # brute force over proposals of that class, ids ascending
            best_id, best_d = None, None
            for p in scene.proposals:
                if p.class_id != target_class:
                    continue
                d = float(np.sqrt(((p.center - ref) ** 2).sum()))
                better = (
                    best_d is None
                    or (relation == "farthest" and d > best_d)
                    or (relation == "nearest" and d < best_d)
                )
                if better:
                    best_id, best_d = p.id, d
            assert picked.id == best_id


# ---------------------------------------------------------------------------
# permutation helper


def test_permute_scene_roundtrip():
    scene = make_scene(
        centers=[[0, 0, 0], [1, 1, 1], [2, 2, 2]],
        classes=[0, 1, 2],
        vocab=VOCAB,
    )
    perm = [2, 0, 1]
    permuted = permute_scene(scene, perm)
    assert [p.class_id for p in permuted.proposals] == [2, 0, 1]
    assert np.array_equal(permuted.proposals[0].center, scene.proposals[2].center)
    with pytest.raises(ContractError):
        permute_scene(scene, [0, 0, 1])
