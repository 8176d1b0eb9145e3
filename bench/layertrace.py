"""Per-layer trace of vigor, recorded from outside the program.

`Tracer.install()` replaces public entry points of vigor's modules with
wrappers that time each call as a span, count the tape nodes recorded
inside it, and count calls to every op in `vigor.tensor.__all__`.
`restore()` puts the originals back.  The wrappers are reached because
vigor looks these names up through their modules at call time
(`tt.matmul`, `encode_text(...)` inside `GroundingModel.forward`, the
trainer's module-level `backward`, `adam_step`, `sample_at` and losses).

Spans are kept in memory.  A span's self time is its duration minus the
durations of the spans it directly encloses; the same holds for tape nodes.
Every span and count is tagged with the unit (training step or eval item)
that was running, so counts can be taken over the first round of units.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter

from vigor import evaluation, model, orderparse, records, tensor, trainer

SETUP = -1  # unit tag while the workload builds its inputs
CHECK = -2  # unit tag while output checks run

# Engine entry points that are not tape ops; the trainer's own bindings of
# `backward` and `adam_step` are timed as spans instead.
NOT_OPS = frozenset({"backward", "adam_step", "reset_tape", "grad_check"})

# (owner, attribute, span name)
SPANS = (
    (trainer, "sample_at", "synthgen.sample_at"),
    (model, "encode_text", "model.encode_text"),
    (model, "encode_objects", "model.encode_objects"),
    (model, "fe_forward", "model.fe_forward"),
    (model.GroundingModel, "forward", "model.forward"),
    (trainer, "loss_ref", "losses.loss_ref"),
    (trainer, "loss_mask", "losses.loss_mask"),
    (trainer, "loss_text", "losses.loss_text"),
    (trainer, "loss_crd", "losses.loss_crd"),
    (trainer, "compose", "losses.compose"),
    (trainer, "backward", "tensor.backward"),
    (trainer, "adam_step", "tensor.adam_step"),
    (trainer, "save_checkpoint", "trainer.save_checkpoint"),
    (trainer, "load_checkpoint", "trainer.load_checkpoint"),
    (orderparse, "parse_appearance_order", "orderparse.parse"),
    (evaluation, "accuracy", "evaluation.accuracy"),
    (records, "read_records", "records.read_records"),
    (records, "example_from_record", "records.example_from_record"),
)


def tensor_ops() -> list[str]:
    """Names of the functions in `vigor.tensor.__all__` that build tape nodes."""
    return sorted(
        name
        for name in tensor.__all__
        if name not in NOT_OPS and inspect.isfunction(getattr(tensor, name, None))
    )


def _lookup(owner, attr):
    # A class attribute is read from the class dict so a function is
    # restored as itself, not as a bound or unbound wrapper.
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    def __init__(self):
        self.unit = SETUP
        self.spans: list[tuple[str, int, float, float, int, int]] = []
        self.counts: list[tuple[str, int, float]] = []
        self.op_calls: Counter[str] = Counter()
        self.first_round_ops: Counter[str] = Counter()
        self._round_units = 0
        self.order_names: dict[int, list[str]] = {}
        self._nodes = 0  # tape nodes recorded since install
        self._nodes_at_backward = 0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        self._patch(tensor.Tape, "add", self._counting_tape_add)
        for name in tensor_ops():
            self._patch(tensor, name, lambda fn, name=name: self._counting_op(name, fn))
        before = {"model.encode_text": self._note_names, "tensor.backward": self._note_tape}
        after = {"trainer.save_checkpoint": self._note_checkpoint}
        for owner, attr, span in SPANS:
            self._patch(
                owner,
                attr,
                lambda fn, s=span: self._span(s, fn, before.get(s), after.get(s)),
            )

    def restore(self) -> list[str]:
        """Put every original back; return the attributes that did not come back."""
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        stale = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, orig in self._patches
            if _lookup(owner, attr) is not orig
        ]
        self._patches.clear()
        return stale

    def _patch(self, owner, attr, make_wrapper) -> None:
        orig = _lookup(owner, attr)
        setattr(owner, attr, make_wrapper(orig))
        self._patches.append((owner, attr, orig))

    # -- wrappers -----------------------------------------------------

    def _counting_tape_add(self, fn):
        def add(tape, *args, **kwargs):
            self._nodes += 1
            return fn(tape, *args, **kwargs)

        return add

    def _counting_op(self, name, fn):
        calls = self.op_calls

        def op(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return op

    def _span(self, name, fn, before, after):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0, 0]  # time and nodes of directly enclosed spans
            stack = self._stack
            stack.append(frame)
            n0 = self._nodes
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                nodes = self._nodes - n0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                    stack[-1][1] += nodes
                self.spans.append(
                    (name, self.unit, dur, dur - frame[0], nodes, nodes - frame[1])
                )
                if after is not None:
                    after(args, kwargs)

        return wrapper

    def _note_names(self, args, kwargs) -> None:
        names = args[1] if len(args) > 1 else kwargs["order_names"]
        self.order_names.setdefault(self.unit, []).extend(names)

    def _note_tape(self, args, kwargs) -> None:
        self.count("tensor.tape_nodes", self._nodes - self._nodes_at_backward)
        self._nodes_at_backward = self._nodes

    def _note_checkpoint(self, args, kwargs) -> None:
        path = args[0] if args else kwargs["path"]
        self.count("trainer.checkpoint_bytes", os.path.getsize(path))

    # -- units and counts ---------------------------------------------

    def start_run(self, round_units: int) -> None:
        """Begin unit 0; op calls and tape nodes from set-up are dropped."""
        self.unit = 0
        self._round_units = round_units
        self.op_calls.clear()
        self._nodes_at_backward = self._nodes

    def end_unit(self) -> None:
        self.unit += 1
        if self.unit == self._round_units:
            self.first_round_ops = Counter(self.op_calls)

    def outside_units(self, fn, *args):
        """Call `fn` with its spans tagged as set-up, then resume the units."""
        unit, self.unit = self.unit, SETUP
        try:
            return fn(*args)
        finally:
            self.unit = unit

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, self.unit, value))

    # -- aggregation --------------------------------------------------

    def span_sum(self, names, field: str, units) -> float:
        """Sum one span field ("ms", "self_ms", "nodes", "self_nodes")."""
        col = {"ms": 2, "self_ms": 3, "nodes": 4, "self_nodes": 5}[field]
        names = {names} if isinstance(names, str) else set(names)
        total = sum(s[col] for s in self.spans if s[0] in names and s[1] in units)
        return total * 1e3 if col in (2, 3) else total

    def span_calls(self, name: str, units) -> int:
        return sum(1 for s in self.spans if s[0] == name and s[1] in units)

    def count_sum(self, name: str, units) -> float:
        return sum(v for n, u, v in self.counts if n == name and u in units)

    def distinct_share(self, units) -> float:
        encoded = distinct = 0
        for unit in units:
            names = self.order_names.get(unit, [])
            encoded += len(names)
            distinct += len(set(names))
        return distinct / encoded if encoded else 0.0
