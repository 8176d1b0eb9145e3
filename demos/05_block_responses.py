"""Watch the referring blocks walk the referential order.

Each block masks the scene down to the classes still mentioned in the
remaining order suffix, so the relevance masks shrink monotonically.  The
score head reads every block, and block i is supervised (in warm-up) to
pick the i-th anchor of the chain; the table below prints each block's
top proposal next to that anchor.

Run: python3 demos/05_block_responses.py
"""

import numpy as np

from vigor.model import GroundingModel, ModelConfig
from vigor.scene import build_masks
from vigor.synthgen import GenConfig, default_vocab, generate_dataset

gen = GenConfig(
    proposals_min=6,
    proposals_max=6,
    points_per_proposal=8,
    class_vocab_size=8,
    order_len=3,
    seed=21,
)
sample = next(generate_dataset(gen, 1))
vocab = default_vocab(gen.class_vocab_size)
model = GroundingModel(
    ModelConfig(d=16, b=3, n_heads=2, points_per_proposal=8, seed=0), vocab
)

names = [sample.scene.vocab.name(c) for c in sample.scene.class_ids]
print(f"proposals: {names}")
print(f"description: {sample.description}")
print(f"order: {' -> '.join(sample.order)}  (target id {sample.anchor_target_ids[-1]})")

print("\n= Relevance masks per block " + "=" * 36)
masks = build_masks(sample.scene.class_ids, sample.order, vocab)  # K x B, a column per block
for i in range(model.cfg.b):
    bits = masks[:, i]
    kept = [names[j] for j, bit in enumerate(bits) if bit]
    print(f"  block {i + 1} suffix {sample.order[i:]}: bits {bits.astype(int)} keeps {kept}")

print("\n= Score head per block (softmax over proposals) " + "=" * 16)
out = model.forward(sample.scene, sample.order, sample.description)
header = "  proposal: " + "".join(f"  {n[:9]:>10s}" for n in names)
print(header + "    top  anchor")
for i, anchor in enumerate(sample.anchor_target_ids):
    z = out.block_scores.data[:, i]
    probs = np.exp(z - z.max())
    probs /= probs.sum()
    cells = "".join(f"  {v:10.4f}" for v in probs)
    print(f"  block {i + 1}   {cells}  {int(probs.argmax()):5d}  {anchor:6d}")
print(f"  predicted id {out.predicted_id()}, ground truth {sample.anchor_target_ids[-1]}")

print("\nthe model is freshly initialized, so the top proposals are still")
print("arbitrary; after warm-up each block's top proposal should match its")
print("anchor (demo 03 trains one).")
assert out.block_scores.shape[1] == model.cfg.b == len(sample.anchor_target_ids)
assert np.isfinite(out.block_scores.data).all()
