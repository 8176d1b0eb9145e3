"""The benchmark's three workloads: inputs from a seed, timed rounds, checks.

Each workload builds its inputs and model from `seed` in `setup` and runs
one round of `units` units in `run_round`: optimizer steps for the two
training stages, `accuracy()` calls on one item for eval.  The runner
repeats the round from the set-up's state until its time is up, and a unit's
time is the mean of its rounds.  `check` tests the program's outputs
outside the timed region.  vigor's layers are reached through module
attributes (`trainer.main_stage`, `records.read_records`, ...) so that the
tracer's wrappers see every call.

Why these three:
- warmup: streamed `sample_at` synthesis, all four losses including
  `loss_crd`, and per-node dispatch on small graphs are on its critical path
  (the shape of acceptance criterion 06 and demo 03, the longest job).
- finetune: `main_stage` with the rule parser on stored records, at the
  model shape of criterion 05; the largest tape per sample, and order names
  that repeat within a step, so batch packing and per-name dedupe show here.
  No synthesis and no `loss_crd` in the timed region.
- eval: forward only on constant parameters: no tape, no backward, no Adam.
  The bypass workload for tape, backward and optimizer changes, and the one
  that shows forward-only fusions and the double parse in `accuracy()`.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

from vigor import evaluation, orderparse, records, synthgen, trainer
from vigor.model import GroundingModel, ModelConfig
from vigor.synthgen import GenConfig, default_vocab


def _rule_parser(vocab):
    # Looked up through the module on every call so a traced run sees it.
    return lambda desc: orderparse.parse_appearance_order(desc, vocab)


def _digest(values) -> str:
    blob = b"".join(struct.pack("<d", float(v)) for v in values)
    return hashlib.sha256(blob).hexdigest()[:16]


def _round_trip(path, samples, vocab):
    """Write samples as records JSONL, read them back, rebuild examples."""
    records.write_records(path, [records.record_from_sample(s) for s in samples])
    return [records.example_from_record(r, vocab) for r in records.read_records(path)]


@dataclass
class Checked:
    """Outcome of the output checks for one round."""

    failed_units: set[int]
    digests: dict[str, str]
    extra_attempted: int = 0
    extra_failed: int = 0


def _nonfinite(losses) -> set[int]:
    return {i for i, x in enumerate(losses) if not math.isfinite(x)}


class _Training:
    """One round is one stage call of `units` steps, timed through `on_eval`.

    100 steps leave 10 beyond a nearest-rank p90; at 30 to 60 ms a step a
    30 s run revisits each step 5 to 10 times.
    """

    unit = "step"
    units = 100
    batch = 0

    def _stage(self, ctx, steps: int, on_eval):
        raise NotImplementedError

    def run_round(self, ctx, tick: Callable[[], None]) -> list[float]:
        return self._stage(ctx, self.units, lambda step, model: tick()).losses

    def restart(self, ctx):
        """Training changed the model; the next round starts from set-up's state."""
        params, state = copy.deepcopy(ctx["initial"])
        ctx["model"].params, ctx["state"] = params, state
        return ctx

    @staticmethod
    def _context(net, seed: int, **inputs):
        state = trainer.TrainState.fresh(seed)
        initial = copy.deepcopy((net.params, state))
        return {"model": net, "state": state, "initial": initial, "seed": seed, **inputs}


class Warmup(_Training):
    name = "warmup"
    batch = 4

    def setup(self, seed: int, workdir: str):
        gen = GenConfig(
            proposals_min=5,
            proposals_max=7,
            points_per_proposal=8,
            class_vocab_size=8,
            order_len=2,
            seed=seed,
        )
        net = GroundingModel(
            ModelConfig(d=16, b=2, n_heads=2, points_per_proposal=8, seed=seed), default_vocab(8)
        )
        return self._context(net, seed, gen=gen)

    def _stage(self, ctx, steps, on_eval):
        cfg = trainer.TrainConfig(
            warmup_steps=steps, batch_size=self.batch, lr=3e-4, seed=ctx["seed"], eval_every=1
        )
        report, ctx["state"] = trainer.warmup_stage(
            ctx["model"], ctx["gen"], cfg, ctx["state"], on_eval=on_eval
        )
        return report

    def check(self, ctx, losses) -> Checked:
        """Losses are finite and every streamed sample re-resolves to its
        chain under the independent oracle."""
        failed = _nonfinite(losses)
        for index in range(len(losses) * self.batch):
            sample = synthgen.sample_at(ctx["gen"], index)
            if synthgen.oracle_resolve(sample) != sample.anchor_target_ids:
                failed.add(index // self.batch)
        return Checked(failed, {"loss": _digest(losses)})


class Finetune(_Training):
    name = "finetune"
    # Criterion 05 trains at batch 8, about 0.2 s a step: 100 such steps
    # would not fit a run even once.
    batch = 2

    def setup(self, seed: int, workdir: str):
        vocab = default_vocab(8)
        gen = GenConfig(
            proposals_min=5,
            proposals_max=7,
            points_per_proposal=8,
            class_vocab_size=8,
            order_len=4,
            seed=seed,
            style="natural",
        )
        data = _round_trip(
            os.path.join(workdir, "finetune.jsonl"), synthgen.generate_dataset(gen, 64), vocab
        )
        net = GroundingModel(
            ModelConfig(d=32, b=4, n_heads=4, points_per_proposal=8, seed=seed), vocab
        )
        return self._context(net, seed, data=data, parser=_rule_parser(vocab), workdir=workdir)

    def _stage(self, ctx, steps, on_eval):
        cfg = trainer.TrainConfig(
            main_steps=steps, batch_size=self.batch, lr=3e-4, seed=ctx["seed"], eval_every=1
        )
        report, ctx["state"] = trainer.main_stage(
            ctx["model"], ctx["data"], cfg, ctx["parser"], ctx["state"], on_eval=on_eval
        )
        return report

    def check(self, ctx, losses) -> Checked:
        """Losses are finite and the trained state round-trips bit-exactly."""
        path = os.path.join(ctx["workdir"], "finetune.ckpt")
        trainer.save_checkpoint(path, ctx["model"], ctx["state"])
        net, state = trainer.model_from_checkpoint(trainer.load_checkpoint(path))
        return Checked(
            _nonfinite(losses),
            {"loss": _digest(losses)},
            extra_attempted=1,
            extra_failed=int(not _same_state(ctx["model"], ctx["state"], net, state)),
        )


def _same_arrays(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and a[k].tobytes() == b[k].tobytes() for k in a
    )


def _same_state(model_a, state_a, model_b, state_b) -> bool:
    return (
        model_a.cfg == model_b.cfg
        and model_a.class_vocab == model_b.class_vocab
        and model_a.word_vocab.tokens == model_b.word_vocab.tokens
        and _same_arrays(model_a.params, model_b.params)
        and _same_arrays(state_a.adam.m, state_b.adam.m)
        and _same_arrays(state_a.adam.v, state_b.adam.v)
        and state_a.adam.t == state_b.adam.t
        and state_a.rng.bit_generator.state == state_b.rng.bit_generator.state
        and (state_a.warmup_done, state_a.main_done) == (state_b.warmup_done, state_b.main_done)
    )


def _params_digest(net) -> str:
    h = hashlib.sha256()
    for name in sorted(net.params):
        h.update(name.encode())
        h.update(net.params[name].tobytes())
    return h.hexdigest()


class Eval:
    """One round scores each held-out item once through `accuracy()`."""

    name = "eval"
    unit = "item"
    units = 100  # a nearest-rank p90 over 100 items has 10 beyond it
    batch = 1
    lengths = (2, 3, 4, 5)  # order lengths; fills the 2&3 and 4&5 buckets

    def setup(self, seed: int, workdir: str):
        vocab = default_vocab(12)
        streams = [
            synthgen.generate_dataset(
                GenConfig(
                    proposals_min=8,
                    proposals_max=12,
                    points_per_proposal=8,
                    class_vocab_size=12,
                    order_len=n,
                    seed=seed * len(self.lengths) + i,
                    style="natural",
                ),
                self.units // len(self.lengths),
            )
            for i, n in enumerate(self.lengths)
        ]
        samples = [s for group in zip(*streams) for s in group]  # interleave lengths
        items = _round_trip(os.path.join(workdir, "eval.jsonl"), samples, vocab)
        cfg = ModelConfig(d=32, b=4, n_heads=4, points_per_proposal=8, seed=seed)
        path = os.path.join(workdir, "eval.ckpt")
        trainer.save_checkpoint(path, GroundingModel(cfg, vocab), trainer.TrainState.fresh(seed))
        net, _ = trainer.model_from_checkpoint(trainer.load_checkpoint(path, expect=cfg))
        return {
            "items": items,
            "model": net,
            "parser": _rule_parser(vocab),
            "params_digest": _params_digest(net),
        }

    def run_round(self, ctx, tick: Callable[[], None]) -> list[float]:
        net, parser = ctx["model"], ctx["parser"]
        hits = []
        for item in ctx["items"]:
            # EvalReport's constructor checks that the buckets partition the set.
            hits.append(evaluation.accuracy(net, [item], parser=parser).overall)
            tick()
        return hits

    def restart(self, ctx):
        """Scoring writes nothing, so every round reuses the set-up."""
        return ctx

    def check(self, ctx, hits) -> Checked:
        """Hits match an independent forward, and the parameters were never
        written; predictions are digested."""
        net, parser = ctx["model"], ctx["parser"]
        predicted = []
        failed = set()
        for i, item in enumerate(ctx["items"]):
            order = orderparse.trim_pad(parser(item.description).names, net.cfg.b)
            predicted.append(net.forward(item.scene, order, item.description).predicted_id())
            if float(predicted[-1] == item.target_id) != hits[i]:
                failed.add(i)
        return Checked(
            failed,
            {"prediction": _digest(predicted), "hits": _digest(hits)},
            extra_attempted=1,
            extra_failed=int(_params_digest(net) != ctx["params_digest"]),
        )


WORKLOADS = {w.name: w for w in (Warmup(), Finetune(), Eval())}
