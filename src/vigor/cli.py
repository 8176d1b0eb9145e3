"""Command-line surface: synth, train, eval, parse, gradcheck, verify.

Exit codes: 0 success, 1 validation failure (any package error but an
endpoint's), 2 usage error, 3 I/O or endpoint failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

from .errors import AmbiguityError, EmptyOrderError, EndpointError, ValidationError, VigorError
from .evaluation import BREAKDOWN_FAMILIES, accuracy
from .losses import LossWeights
from .model import GroundingModel, ModelConfig
from .orderparse import (
    LlmEndpointConfig,
    HttpTransport,
    llm_two_stage_order,
    load_transcript,
    parse_appearance_order,
)
from .records import (
    dataset_vocab,
    example_from_record,
    read_records,
    record_from_sample,
    write_records,
)
from .scene import RELATIONS, ClassVocab
from .synthgen import (
    DEFAULT_CLASS_NAMES,
    GenConfig,
    default_vocab,
    generate_dataset,
    oracle_resolve_parts,
)
from .trainer import (
    TrainConfig,
    TrainState,
    full_model_grad_check,
    load_checkpoint,
    main_stage,
    model_from_checkpoint,
    save_checkpoint,
    warmup_stage,
)

__all__ = ["main"]

# Every key a --config file may set, a `vigor train` flag of the same name
# winning: the fields of GenConfig, TrainConfig and LossWeights, plus
# ModelConfig's d and n_heads, whose dataclasses check them.
CONFIG_KEYS = frozenset(
    ({f.name for cls in (GenConfig, TrainConfig, LossWeights) for f in fields(cls)} - {"weights"})
    | {"d", "n_heads"}
)

# The one default the command line keeps in place of the dataclasses' own.
ORDER_LEN = 2


def _proposal_range(text: str) -> tuple[int, int]:
    try:
        lo, _, hi = text.partition(":")
        return int(lo), int(hi if hi else lo)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected MIN:MAX (like 5:9), got {text!r}"
        ) from None


def _train_settings(args) -> dict:
    """The settings a flag or the file sets (a flag wins); order_len defaults to ORDER_LEN."""
    blob = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            try:
                blob = json.load(f)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ValidationError(f"{args.config}: not valid JSON: {exc}") from exc
        if not isinstance(blob, dict):
            raise ValidationError(f"{args.config}: config must be a JSON object")
        unknown = set(blob) - CONFIG_KEYS
        if unknown:
            raise ValidationError(f"{args.config}: unknown config keys {sorted(unknown)}")
    flags = {k: v for k, v in vars(args).items() if k in CONFIG_KEYS}
    return {"order_len": ORDER_LEN, **blob, **flags}


def _fields_of(cls, settings: dict) -> dict:
    """The settings named like a field of the config dataclass `cls`."""
    return {f.name: settings[f.name] for f in fields(cls) if f.name in settings}


def _make_parser_fn(kind: str, vocab: ClassVocab, transcript: str | None):
    if kind == "rule":
        return lambda desc: parse_appearance_order(desc, vocab).names
    transport = (
        load_transcript(transcript)
        if transcript
        else HttpTransport(LlmEndpointConfig.from_env())
    )
    return lambda desc: llm_two_stage_order(desc, transport=transport).names


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args) -> int:
    settings = {"order_len": ORDER_LEN, **vars(args)}
    if "proposals" in settings:
        settings["proposals_min"], settings["proposals_max"] = settings["proposals"]
    cfg = GenConfig(**_fields_of(GenConfig, settings))
    records = [record_from_sample(s) for s in generate_dataset(cfg, args.scenes)]
    write_records(args.out, records)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def cmd_train(args) -> int:
    s = _train_settings(args)
    # GenConfig first, so a bad order_len is refused under its own name.
    gen_cfg = GenConfig(**_fields_of(GenConfig, s))
    weights = LossWeights(**_fields_of(LossWeights, s))
    train_cfg = TrainConfig(**_fields_of(TrainConfig, s), weights=weights)
    # The model finalizes class_vocab_size from the vocabulary built below.
    model_cfg = ModelConfig(b=s["order_len"], **_fields_of(ModelConfig, s))

    vocab = default_vocab(gen_cfg.class_vocab_size)
    model = GroundingModel(model_cfg, vocab)
    state = TrainState.fresh(train_cfg.seed)
    if train_cfg.warmup_steps:
        report, state = warmup_stage(model, gen_cfg, train_cfg, state)
        print(
            f"warm-up: {len(report.losses)} steps, "
            f"loss {report.losses[0]:.4f} -> {report.losses[-1]:.4f}"
        )
    if args.main_data:
        records = read_records(args.main_data)
        examples = [example_from_record(r, model.class_vocab) for r in records]
        parser_fn = _make_parser_fn(args.parser, model.class_vocab, args.transcript)
        report, state = main_stage(model, examples, train_cfg, parser_fn, state)
        if report.losses:
            print(
                f"main: {len(report.losses)} steps, "
                f"loss {report.losses[0]:.4f} -> {report.losses[-1]:.4f}"
            )
    save_checkpoint(args.out, model, state)
    print(f"saved checkpoint to {args.out}")
    return 0


def cmd_eval(args) -> int:
    families = [f for f in args.breakdown.split(",") if f]
    unknown = set(families) - set(BREAKDOWN_FAMILIES)
    if unknown:
        raise ValidationError(f"unknown breakdown families {sorted(unknown)}")
    ckpt = load_checkpoint(args.ckpt)
    model, _ = model_from_checkpoint(ckpt)
    records = read_records(args.data)
    examples = [example_from_record(r, model.class_vocab) for r in records]
    parser_fn = (
        _make_parser_fn(args.parser, model.class_vocab, args.transcript) if args.parser else None
    )
    report = accuracy(
        model,
        examples,
        parser=parser_fn,
        config={
            "data": str(args.data),
            "ckpt": str(args.ckpt),
            "orders": args.parser or "stored",
        },
    )
    report.subsets = {
        k: v
        for k, v in report.subsets.items()
        if any(k.startswith(f + ":") for f in families)
    }
    blob = report.to_json()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            f.write(blob + "\n")
        print(f"wrote report to {args.report}")
    print(f"accuracy {report.overall:.4f} on {report.count} samples")
    if report.parse_failures:
        print(f"parse failures: {report.parse_failures} (scored as misses)")
    if not args.report:
        print(blob)
    return 0


def cmd_parse(args) -> int:
    if args.vocab:
        try:
            if args.vocab.lstrip().startswith("["):
                names = json.loads(args.vocab)
            else:
                with open(args.vocab, "r", encoding="utf-8") as f:
                    names = json.load(f)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValidationError(f"{args.vocab}: bad vocab JSON: {exc}") from exc
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ValidationError(f"{args.vocab}: expected a JSON array of class names")
        vocab = ClassVocab(tuple(names))
    else:
        vocab = ClassVocab(DEFAULT_CLASS_NAMES)
    parser_fn = _make_parser_fn(args.parser, vocab, args.transcript)
    names = parser_fn(args.desc)
    print("→".join(names))
    return 0


def cmd_gradcheck(args) -> int:
    report = full_model_grad_check(seed=args.seed)
    print(
        f"checked {report.checked} entries: max rel err {report.max_rel_err:.3e}"
        + (f" (worst {report.worst_param})" if report.worst_param else "")
    )
    if report.nonfinite:
        print(f"non-finite gradients: {report.nonfinite}")
    return 0 if report.ok(1e-4) else 1


def cmd_verify(args) -> int:
    records = read_records(args.data)
    if not records:
        print("verified 0 records")
        return 0
    vocab = dataset_vocab(records)
    failures = []
    for i, record in enumerate(records):
        example = example_from_record(record, vocab)
        try:
            parsed = parse_appearance_order(record.description, vocab)
        except EmptyOrderError as exc:  # one record's failure, as in accuracy()
            failures.append(f"record {i}: {exc}")
            continue
        if list(parsed.names) != list(record.order):
            failures.append(
                f"record {i}: parsed order {list(parsed.names)} != stored {record.order}"
            )
            continue
        text = record.description.lower()
        relations = [w for w in RELATIONS if w in text]
        if len(relations) != 1:
            failures.append(f"record {i}: expected exactly one relation word, got {relations}")
            continue
        try:
            chain = oracle_resolve_parts(example.scene, list(record.order), relations[0])
        except AmbiguityError as exc:
            failures.append(f"record {i}: {exc}")
            continue
        if chain[-1] != record.target_id:
            failures.append(
                f"record {i}: oracle target {chain[-1]} != stored {record.target_id}"
            )
        elif record.anchor_ids is not None and chain != list(record.anchor_ids):
            failures.append(
                f"record {i}: oracle chain {chain} != stored {record.anchor_ids}"
            )
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        print(f"verify FAILED on {len(failures)} of {len(records)} records")
        return 1
    print(f"verified {len(records)} records: orders and targets all agree")
    return 0


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="vigor",
        description="Order-aware visual grounding on synthetic 3D scenes.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    # An unset setting flag of synth or train stays out of `args`, so the
    # config dataclasses supply its default.
    unset = argparse.SUPPRESS
    p = sub.add_parser(
        "synth", help="generate a dataset of grounded descriptions", argument_default=unset
    )
    p.add_argument("--scenes", type=int, required=True, help="number of samples")
    p.add_argument("--proposals", type=_proposal_range, metavar="MIN:MAX")
    p.add_argument("--order-len", type=int)
    p.add_argument("--relation", choices=RELATIONS)
    p.add_argument("--style", choices=("template", "natural"))
    p.add_argument("--points", type=int, dest="points_per_proposal", help="points per proposal")
    p.add_argument("--vocab-size", type=int, dest="class_vocab_size")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="warm-up and/or fine-tune a model", argument_default=unset)
    p.add_argument("--warmup-steps", type=int)
    p.add_argument("--main-data", default=None, help="records for the main stage")
    p.add_argument("--main-steps", type=int)
    p.add_argument("--parser", choices=("rule", "llm"), default="rule")
    p.add_argument("--transcript", default=None, help="canned LLM transcript (JSONL)")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--order-len", type=int)
    p.add_argument("--d", type=int, help="model width")
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--breakdown", default=",".join(BREAKDOWN_FAMILIES))
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.add_argument(
        "--parser",
        choices=("rule", "llm"),
        default=None,
        help="score orders parsed from the descriptions (default: the stored orders)",
    )
    p.add_argument("--transcript", default=None, help="canned LLM transcript (JSONL)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("parse", help="extract a referential order from text")
    p.add_argument("--desc", required=True)
    p.add_argument("--parser", choices=("rule", "llm"), default="rule")
    p.add_argument("--transcript", default=None, help="canned LLM transcript (JSONL)")
    p.add_argument(
        "--vocab",
        default=None,
        help="class names: an inline JSON array or a path to a JSON file",
    )
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all gradients")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("verify", help="re-derive every record with the oracle")
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_verify)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except EndpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except VigorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
