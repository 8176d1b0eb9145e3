"""The package's public surface: exports resolve in the module that
defines them, every exported tensor op has a caller in the package, both
training stages reach the optimizer through the trainer's module
attributes, once per step, and every config dataclass checks the types of
its own fields."""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import vigor
from vigor import tensor, trainer
from vigor.errors import ContractError
from vigor.losses import LossWeights
from vigor.model import MAX_WIDTH, GroundingModel, ModelConfig
from vigor.orderparse import LlmEndpointConfig, parse_appearance_order
from vigor.synthgen import MAX_PROPOSALS, GenConfig, default_vocab, generate_dataset

MODULES = sorted(m.name for m in pkgutil.iter_modules(vigor.__path__))

GEN = GenConfig(
    proposals_min=4,
    proposals_max=5,
    points_per_proposal=6,
    class_vocab_size=6,
    order_len=2,
    seed=11,
)


def top_level_names(module) -> set[str]:
    """Names a module's own top-level statements define, not import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    """Every name in `__all__` resolves, and the module that lists it
    defines it rather than re-exporting another module's."""
    module = importlib.import_module(f"vigor.{name}")
    exports = getattr(module, "__all__", ())
    stale = [n for n in exports if not hasattr(module, n)]
    assert stale == []
    assert [n for n in exports if n not in top_level_names(module)] == []


# Entry points of the engine rather than ops a model is built from.
NOT_OPS = frozenset({"backward", "adam_step", "reset_tape", "grad_check"})


def tensor_names_used_outside_tensor() -> set[str]:
    """Names reached as `<alias>.<name>` on an imported vigor.tensor, or
    imported directly from it, in every package module but tensor.py."""
    used: set[str] = set()
    for path in Path(vigor.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("tensor", "vigor.tensor"):
                used.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module in (None, "vigor"):
                aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
        used.update(
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        )
    return used


def test_every_tensor_op_has_a_caller():
    ops = [
        n for n in tensor.__all__ if inspect.isfunction(getattr(tensor, n)) and n not in NOT_OPS
    ]
    used = tensor_names_used_outside_tensor()
    assert [n for n in ops if n not in used] == []


def count_calls(monkeypatch, names):
    calls = Counter()
    for name in names:
        real = getattr(trainer, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(trainer, name, counted)
    return calls


def tiny_model():
    cfg = ModelConfig(d=8, b=2, n_heads=2, points_per_proposal=6)
    return GroundingModel(cfg, default_vocab(GEN.class_vocab_size))


def test_warmup_step_goes_through_trainer_attributes(monkeypatch):
    calls = count_calls(monkeypatch, ("backward", "adam_step", "compose"))
    trainer.warmup_stage(tiny_model(), GEN, trainer.TrainConfig(warmup_steps=2, batch_size=3))
    assert calls == {"backward": 2, "adam_step": 2, "compose": 2}


def test_main_step_goes_through_trainer_attributes(monkeypatch):
    calls = count_calls(monkeypatch, ("backward", "adam_step", "compose"))
    vocab = default_vocab(GEN.class_vocab_size)
    data = list(generate_dataset(GEN, 3))
    trainer.main_stage(
        tiny_model(),
        data,
        trainer.TrainConfig(main_steps=2, batch_size=3),
        lambda desc: parse_appearance_order(desc, vocab),
    )
    assert calls == {"backward": 2, "adam_step": 2, "compose": 2}


# ---------------------------------------------------------------------------
# config dataclasses


def endpoint(**fields):
    return LlmEndpointConfig(**{"base_url": "http://localhost:9", "model": "m", **fields})


@pytest.mark.parametrize(
    "make, field, value",
    [
        # a bool for an int field
        (ModelConfig, "d", True),
        (GenConfig, "proposals_min", True),
        (trainer.TrainConfig, "batch_size", True),
        (endpoint, "max_retries", False),
        # a float for an int field
        (ModelConfig, "n_heads", 2.0),
        (GenConfig, "order_len", 2.0),
        (trainer.TrainConfig, "batch_size", 2.7),
        (trainer.TrainConfig, "seed", 1.5),
        # a bool or a str for a float field, or an int no float can hold
        (trainer.TrainConfig, "lr", True),
        (LossWeights, "w_ref", True),
        (GenConfig, "room_extent", "6.0"),
        (endpoint, "timeout", "30"),
        pytest.param(trainer.TrainConfig, "lr", 10**400, id="TrainConfig-lr-10**400"),
        # a non-string for a str field
        (GenConfig, "relation", 3),
        (GenConfig, "style", None),
        (endpoint, "model", b"m"),
        # a value of the right type out of the field's range
        (trainer.TrainConfig, "eval_every", -1),
        pytest.param(ModelConfig, "points_per_proposal", 2**62, id="ModelConfig-points-2**62"),
        pytest.param(GenConfig, "points_per_proposal", 2**62, id="GenConfig-points-2**62"),
        pytest.param(GenConfig, "class_vocab_size", 2**62, id="GenConfig-vocab-2**62"),
        pytest.param(ModelConfig, "d", 2**62, id="ModelConfig-d-2**62"),
        pytest.param(GenConfig, "proposals_max", 2**62, id="GenConfig-proposals_max-2**62"),
        (ModelConfig, "seed", -1),
        (GenConfig, "seed", -1),
        (trainer.TrainConfig, "seed", -1),
        (endpoint, "max_retries", -1),
        (endpoint, "timeout", float("nan")),
        (endpoint, "timeout", float("inf")),
    ],
)
def test_config_refuses_a_bad_field(make, field, value):
    with pytest.raises(ContractError, match=field):
        make(**{field: value})


def test_size_bounds_admit_their_limit_and_refuse_past_it():
    assert ModelConfig(d=MAX_WIDTH, n_heads=1).d == MAX_WIDTH
    with pytest.raises(ContractError, match="d must"):
        ModelConfig(d=MAX_WIDTH + 1, n_heads=1)
    assert GenConfig(proposals_max=MAX_PROPOSALS).proposals_max == MAX_PROPOSALS
    with pytest.raises(ContractError, match="proposals_max"):
        GenConfig(proposals_max=MAX_PROPOSALS + 1)


@pytest.mark.parametrize(
    "make, field",
    [
        (trainer.TrainConfig, "lr"),
        (trainer.TrainConfig, "label_noise"),
        (LossWeights, "w_crd"),
        (GenConfig, "room_extent"),
        (GenConfig, "min_separation"),
        (endpoint, "timeout"),
    ],
)
def test_config_stores_an_int_float_field_as_a_float(make, field):
    value = getattr(make(**{field: 1}), field)
    assert type(value) is float and value == 1.0
